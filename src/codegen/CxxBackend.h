//===- codegen/CxxBackend.h - Emit, compile and load native code *- C++ -*-===//
///
/// \file
/// The build half of the native engine: walks a CompiledProgram, emits
/// one self-contained C++ translation unit, compiles it out-of-process
/// with the discovered toolchain and dlopens the result. The unit holds:
///
///   - a preamble with the SlinNativeCtx ABI and failure helpers;
///   - one `static` function `slin_s<j>` per distinct firing-tape body
///     (a *shape*, wir/CxxEmit.h), numbered in order of first
///     appearance — tapes that differ only in their constants share one;
///   - per node, a `static constexpr double slin_f<I>_c[]` constant
///     table and the `extern "C"` entry point `slin_f<I>` (and
///     `slin_f<I>_init`) as a one-line trampoline into its shape;
///   - batch kernels from native filters that implement emitBatchCxx
///     (`slin_f<I>_batch`, coefficients in their own static tables).
///
/// Radar's twelve channels run one filter shape with twelve coefficient
/// sets, so its 50 entry points compile as 8 bodies. Shapes and tables
/// are private to the unit: NativeModule::open resolves only the entry
/// points, which keep the NativeCtx signature. The compile command is
///
///     $CXX -O3 -march=native -ffp-contract=off -fno-builtin -fPIC -shared
///
/// (-ffp-contract=off is load-bearing: it forbids FMA contraction, the
/// one -march=native licence that would change rounding and break
/// bit-identity with the interpreter).
///
/// Toolchain discovery: SLIN_CXX names the compiler verbatim (no
/// probing; a nonexistent path degrades cleanly — the CI no-toolchain
/// arm). Unset, the first of c++ / g++ / clang++ on PATH wins, resolved
/// once per process. The invocation is plain `$CXX <flags> src -o out`,
/// so a ccache shim named by SLIN_CXX works unchanged.
///
/// When the artifact store is enabled the object is compiled straight
/// into the store directory (atomic publish: temp name, fsync, rename)
/// and dlopened from its final path; otherwise it lives in a mkdtemp
/// scratch directory that is removed after dlopen (the mapping
/// survives unlinking).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_CODEGEN_CXXBACKEND_H
#define SLIN_CODEGEN_CXXBACKEND_H

#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"

#include <string>

namespace slin {

class CompiledProgram;

namespace codegen {

/// The C++ compiler to invoke: $SLIN_CXX verbatim when set (even if
/// missing — failure then surfaces at compile time, deterministically),
/// else the first of c++/g++/clang++ on PATH (cached per process).
/// Empty string: no toolchain.
std::string discoverCompiler();

/// True when native codegen is administratively off (SLIN_NO_NATIVE=1).
bool nativeDisabled();

/// Emits the complete translation unit for \p P into \p Src (replacing
/// its contents). Returns the number of entry points emitted (0: nothing
/// in this program lowers — callers should degrade without invoking a
/// compiler).
int emitProgramSource(const CompiledProgram &P, std::string &Src);

/// The compiler flags buildNativeModule passes before the source path
/// (ending in `-x c++`).
std::string nativeCompileFlags();

/// What one emit + compile + publish + dlopen attempt produced. Null
/// Module means degradation; Error then has the human-readable reason
/// and the flags say which stage broke (for the cache's stats).
struct BuildResult {
  NativeModuleRef Module;
  std::string Error;
  bool CompilerRan = false;   ///< an out-of-process compile was attempted
  bool CompileFailed = false;
  bool DlopenFailed = false;
};

/// Builds \p P's native module. With \p Store non-null the object is
/// compiled into the store directory and atomically published under
/// {\p K, codegenVersion()} (a publish failure costs only the disk
/// tier: the module is dlopened before the rename, so its mapping
/// survives). Null \p Store: scratch compile, object deleted after
/// dlopen. Fault points codegen-cc-fail / codegen-dlopen-fail fire
/// here and in NativeModule::open.
BuildResult buildNativeModule(const CompiledProgram &P, ArtifactStore *Store,
                              const ArtifactStore::Key &K);

} // namespace codegen
} // namespace slin

#endif // SLIN_CODEGEN_CXXBACKEND_H
