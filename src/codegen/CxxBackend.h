//===- codegen/CxxBackend.h - Emit, compile and load native code *- C++ -*-===//
///
/// \file
/// The build half of the native engine: walks a CompiledProgram, emits
/// it as one to four self-contained C++ translation units (*parts*),
/// compiles them concurrently out-of-process with the discovered
/// toolchain, links them into one shared object and dlopens it. The
/// program's text is:
///
///   - a preamble with the SlinNativeCtx ABI and failure helpers, in
///     every part (only part 0 defines slin_abi_version_);
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
/// are private to their part: NativeModule::open resolves only the entry
/// points, which keep the NativeCtx signature.
///
/// The split: a program has min(4, units, hardware threads) parts,
/// where a unit is a shape or a batch kernel. Units go largest body
/// first to the least-loaded part, and each shape takes all of its
/// tables and trampolines along, so no symbol but the entry points
/// crosses a part. With one part the text is the single-unit layout
/// above. Each part compiles as
///
///     $CXX -O3 -march=native -ffp-contract=off -fno-builtin -fPIC
///          -std=c++17 -x c++ -c part<k>.cpp -o part<k>.o
///
/// (-ffp-contract=off is load-bearing: it forbids FMA contraction, the
/// one -march=native licence that would change rounding and break
/// bit-identity with the interpreter), all parts at once, and then
///
///     $CXX -shared -nodefaultlibs part0.o ... -lm -lc -lgcc -o <object>
///
/// links them without the C++ runtime, which emitted code never calls.
/// The shapes are noinline (and noclone under GCC), so a shape compiles
/// to the same code whichever part it lands in.
///
/// Toolchain discovery: SLIN_CXX names the compiler verbatim (no
/// probing; a nonexistent path degrades cleanly — the CI no-toolchain
/// arm). Unset, the first of c++ / g++ / clang++ on PATH wins, resolved
/// once per process. Jobs are started without a shell (posix_spawnp, so
/// SLIN_CXX must be directly executable: a binary or a script with a
/// `#!` line, such as a ccache shim), each with its own log file, and
/// each is reaped by its pid before the build returns.
///
/// When the artifact store is enabled the object is linked straight
/// into the store directory (atomic publish: temp name, fsync, rename)
/// and dlopened from its final path; otherwise it lives in a mkdtemp
/// scratch directory that is removed after dlopen (the mapping
/// survives unlinking). The scratch directory (sources, objects, logs)
/// is removed after every build, successful or not.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_CODEGEN_CXXBACKEND_H
#define SLIN_CODEGEN_CXXBACKEND_H

#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"

#include <string>
#include <vector>

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

/// Most parts buildNativeModule splits a program into: min(4, hardware
/// threads), at least 1.
unsigned nativeJobLimit();

/// Emits \p P as min(\p MaxParts, units) parts into \p Parts (replacing
/// its contents; at least one). The split depends only on \p P and
/// \p MaxParts. Returns the number of entry points emitted (0: nothing
/// in this program lowers — callers should degrade without invoking a
/// compiler).
int emitProgramSource(const CompiledProgram &P,
                      std::vector<std::string> &Parts, unsigned MaxParts);

/// The compiler flags buildNativeModule passes before `-c` and a part's
/// source path (ending in `-x c++`).
std::vector<std::string> nativeCompileFlags();

/// What one emit + compile + publish + dlopen attempt produced. Null
/// Module means degradation; Error then has the human-readable reason
/// and the flags say which stage broke (for the cache's stats).
struct BuildResult {
  NativeModuleRef Module;
  std::string Error;
  bool CompilerRan = false;   ///< an out-of-process build was attempted
  bool CompileFailed = false; ///< a compile or the link failed
  bool DlopenFailed = false;
};

/// Builds \p P's native module: emit, compile the parts concurrently,
/// link. With \p Store non-null the object is linked into the store
/// directory and atomically published under
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
