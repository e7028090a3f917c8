//===- codegen/NativeModule.h - dlopen'd emitted-C++ programs ---*- C++ -*-===//
///
/// \file
/// The native half of Engine::Native: a CompiledProgram's op tapes (and
/// willing native-filter batch kernels) lowered to C++ translation units
/// (codegen/CxxBackend.h), compiled out-of-process and linked into one
/// shared object, and dlopen'd here. A NativeModule is the loaded library plus
/// the per-flat-node function table; CompiledExecutor calls these
/// functions instead of the tape dispatch loop when one is attached.
///
/// The contract is *bit-identity with the op-tape interpreter*: the
/// emitted code replicates runImpl's arithmetic exactly and is compiled
/// with -ffp-contract=off (wir/CxxEmit.h), so Engine::Native output
/// streams are byte-for-byte equal to Engine::Compiled's.
///
/// NativeModuleCache memoizes modules per process under the same digest
/// pair the ProgramCache uses — {structuralHash(optimized root),
/// hashOptions} — and, when the artifact store is configured, keeps the
/// built .so on disk keyed additionally by {format version, build flags,
/// codegen version}: a warm process (or fleet neighbour) dlopens the
/// cached object with zero passes and zero codegen. SLIN_NO_CACHE=1
/// bypasses the disk tier per call, exactly like the program store.
///
/// Everything here degrades: no toolchain (SLIN_CXX overrides discovery;
/// SLIN_NO_NATIVE=1 disables codegen outright), a failed compile, or a
/// failed dlopen makes get() return null with a human-readable reason —
/// recorded once per key (negative caching), surfaced through
/// CompileResult::DegradeReason — and execution stays on the op tapes.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_CODEGEN_NATIVEMODULE_H
#define SLIN_CODEGEN_NATIVEMODULE_H

#include "support/Hashing.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slin {

class CompiledProgram;

namespace codegen {

/// Host services passed to every emitted work function. Mirrored in the
/// generated parts' preamble as `SlinNativeCtx` — a layout-matched POD; any
/// change here must bump codegenVersion() and the preamble together.
struct NativeCtx {
  double *const *Fld;   ///< per-field data pointers (WorkFrame::FldPtrs)
  const int32_t *FldSz; ///< per-field sizes, for bounds checks
  void *Sink;           ///< opaque print-sink (the Printed vector)
  void (*Print)(void *Sink, double V);
  void (*Fail)(const char *Msg); ///< noreturn: diagnostics ladder
};

/// An emitted work function: K consecutive firings, In at firing 0's
/// peek window, Out at its output cursor (wir/CxxEmit.h documents the
/// exact layout and semantics).
using WorkFn = void (*)(const NativeCtx *Ctx, const double *In, double *Out,
                        long K);

/// An emitted stateless batch kernel (native-filter GEMM): K windows in,
/// K outputs out — the signature of NativeFilter::fireBatch's core.
using BatchFn = void (*)(const double *In, double *Out, long K);

/// Per-flat-node entry points; null where nothing was emitted (the
/// executor keeps its host path for that node).
struct NodeFns {
  WorkFn Work = nullptr;
  WorkFn Init = nullptr;  ///< init-work tape, fired once (K = 1)
  BatchFn Batch = nullptr;
};

/// Bumped whenever the emitted source, the NativeCtx ABI, the symbol
/// naming scheme or the build flags change: cached objects from older
/// schemes become plain misses. Scheme 2: each tape body is emitted once
/// per shape and reads its constants from per-node tables. Scheme 3: a
/// program compiles as up to four parts linked into one object without
/// the C++ runtime (-nodefaultlibs ... -lm -lc -lgcc).
uint32_t codegenVersion();

/// A loaded shared object plus its node function table. Immutable;
/// shareable across executors and threads (emitted code is reentrant —
/// all mutable state lives in the caller's buffers and fields).
class NativeModule {
public:
  ~NativeModule();
  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;

  /// dlopens \p Path and resolves slin_f<i>[_init|_batch] for each of
  /// \p NumNodes flat nodes, verifying the embedded ABI version. Null on
  /// any failure with the reason in \p Err.
  static std::shared_ptr<const NativeModule>
  open(const std::string &Path, size_t NumNodes, std::string *Err);

  /// Entry points for flat node \p NodeIdx.
  const NodeFns &node(size_t NodeIdx) const { return Fns[NodeIdx]; }

  /// True when at least one function was emitted.
  bool hasAnyFn() const { return AnyFn; }

private:
  NativeModule() = default;

  void *Handle = nullptr;
  std::vector<NodeFns> Fns;
  bool AnyFn = false;
};

using NativeModuleRef = std::shared_ptr<const NativeModule>;

/// Process-wide memoization of native modules, with the ArtifactStore
/// .so tier underneath (consulted per call through enabledGlobal(), so
/// SLIN_NO_CACHE=1 bypasses disk but keeps in-process memoization).
class NativeModuleCache {
public:
  static NativeModuleCache &global();

  /// The module for \p P, building it on first request. Null when native
  /// codegen is unavailable for this program — \p DegradeReason (may be
  /// null) then explains why. Failures are negatively cached per key so
  /// a missing toolchain is probed once, not per run.
  NativeModuleRef get(const CompiledProgram &P,
                      std::string *DegradeReason = nullptr);

  /// Drops every memoized module and negative entry (test hook; modules
  /// still referenced by executors stay alive through their shared_ptr).
  void clear();

  struct Stats {
    uint64_t MemHits = 0;   ///< served from the in-process map
    uint64_t Misses = 0;    ///< had to consult disk or build
    uint64_t DiskHits = 0;  ///< dlopened a stored .so (zero codegen)
    uint64_t Compiles = 0;  ///< out-of-process builds (one per program)
    uint64_t CompileFailures = 0;
    uint64_t DlopenFailures = 0;
    uint64_t Degrades = 0;  ///< get() calls answered null
  };
  Stats stats() const;
  void resetStats();

private:
  struct Entry {
    NativeModuleRef Module; ///< null: negatively cached failure
    std::string Reason;
  };
  struct Key {
    HashDigest Structure;
    HashDigest Options;
    bool operator<(const Key &O) const {
      return Structure != O.Structure ? Structure < O.Structure
                                      : Options < O.Options;
    }
  };

  mutable std::mutex Mutex;
  std::map<Key, Entry> Entries;
  Stats Counters;
};

} // namespace codegen
} // namespace slin

#endif // SLIN_CODEGEN_NATIVEMODULE_H
