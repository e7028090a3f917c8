//===- compiler/Program.h - Reusable compiled-program artifacts -*- C++ -*-===//
///
/// \file
/// The immutable artifact of compiling a stream graph for the batched
/// engine — everything the compile pipeline can precompute once and many
/// executor instances can share:
///
///  * a private clone of the (optimized) stream graph, owning the filter
///    definitions the flat graph points into;
///  * the flattened topology (exec/FlatGraph.h);
///  * the static schedule: init/steady/batch firing programs and exact
///    channel capacities (sched/Schedule.h);
///  * one compiled op tape per IR work function (wir/OpTape.h) and a
///    prototype per native filter;
///  * the shard-boundary recipe (ShardInfo) the parallel backend seeds
///    its workers from, derived from the tapes' abstract execution.
///
/// CompiledProgram is the "compile once, serve many runs" unit: op tapes
/// execute with per-instance frames and field stores, native prototypes
/// are cloned per instance, so any number of CompiledExecutors can run
/// one program concurrently. ProgramCache hash-conses programs under
/// (structural hash of the stream, engine options); recompiling a
/// structurally identical configuration is a map lookup.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_COMPILER_PROGRAM_H
#define SLIN_COMPILER_PROGRAM_H

#include "exec/ExecOptions.h"
#include "exec/FlatGraph.h"
#include "sched/Schedule.h"
#include "support/Hashing.h"
#include "wir/OpTape.h"

#include <map>
#include <memory>
#include <mutex>

namespace slin {

class ArtifactStore;

class CompiledProgram {
public:
  /// Per-filter compiled form: op tapes for IR filters, a prototype for
  /// native ones. Exactly one of {Work, Native} is meaningful.
  struct FilterArtifact {
    wir::OpProgram Work;
    wir::OpProgram InitWork; ///< empty() when the filter has none
    const NativeFilter *Native = nullptr; ///< owned by the program's root
  };

  /// Wall-clock seconds spent in each lowering phase (pass-manager
  /// timing; filled during construction).
  struct BuildStats {
    double FlattenSeconds = 0.0;
    double ScheduleSeconds = 0.0;
    double TapeSeconds = 0.0;
  };

  /// Whether (and how) the parallel backend may split a run of this
  /// program into independently-executed shards of steady iterations
  /// (exec/Parallel.h). Computed once at compile time from the op tapes'
  /// state classes (classifySteadyState, linear/AbstractExec.h), the
  /// native filters' stateDepthFirings() and the schedule's washout
  /// depth; verify-state (verify/Lint.h) audits it by running a seeded
  /// shard against a sequential run.
  struct ShardInfo {
    bool Shardable = false;
    std::string Reason; ///< why not, when !Shardable

    /// Steady iterations a worker replays before its shard to refresh
    /// channel contents and input-determined filter state.
    int64_t WashoutIterations = 0;

    /// Closed-form seeding recipe for a mutable scalar field: its value
    /// after T firings is Base (T = 0), else Base + DeltaFirst +
    /// (T - 1) * DeltaRest, reduced modulo Modulus when Modulus > 0.
    /// DeltaFirst differs from DeltaRest only for init-work filters.
    struct FieldSeed {
      int Node = -1;  ///< flat node index
      int Field = -1; ///< field index within the filter
      double Base = 0.0;
      double DeltaFirst = 0.0;
      double DeltaRest = 0.0;
      double Modulus = 0.0; ///< 0: plain affine
    };
    std::vector<FieldSeed> Seeds;
  };

  /// Compiles \p Root (cloning it first; the clone is owned by the
  /// artifact and outlives every executor instantiated from it).
  CompiledProgram(const Stream &Root, CompiledOptions Opts);

  /// The deserialized pieces of a persisted program
  /// (compiler/ArtifactStore.h): everything the compiling constructor
  /// would have produced, reassembled without running any lowering pass.
  struct Parts {
    CompiledOptions Opts;
    StreamPtr Root;
    flat::FlatGraph Graph;
    StaticSchedule Sched;
    std::vector<FilterArtifact> Artifacts;
    ShardInfo Shard;
  };

  /// Adopts deserialized parts. BuildStats stay zero and
  /// loadedFromArtifact() reports true — the assertion hook for "zero
  /// compiler passes executed" tests.
  explicit CompiledProgram(Parts P);

  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  const Stream &root() const { return *Root; }
  const flat::FlatGraph &graph() const { return Graph; }
  const StaticSchedule &schedule() const { return Sched; }
  const CompiledOptions &options() const { return Opts; }
  const BuildStats &buildStats() const { return Stats; }
  const ShardInfo &shardInfo() const { return Shard; }

  /// True when this program was reassembled from a stored artifact
  /// rather than compiled in this process.
  bool loadedFromArtifact() const { return FromArtifact; }

  /// Artifact for flat node \p NodeIdx (filter nodes only).
  const FilterArtifact &filterArtifact(size_t NodeIdx) const {
    return Artifacts[NodeIdx];
  }

private:
  void computeShardInfo();

  CompiledOptions Opts;
  /// Declared before Graph/Sched: their member initializers record phase
  /// timings into it.
  BuildStats Stats;
  StreamPtr Root;
  flat::FlatGraph Graph;
  StaticSchedule Sched;
  std::vector<FilterArtifact> Artifacts; ///< indexed by node; filters only
  ShardInfo Shard;
  bool FromArtifact = false;
};

/// Content hash over every field of \p Opts, the options half of the
/// ProgramCache key. Any CompiledOptions field that shapes the artifact
/// or its execution must be mixed here; keying on a subset silently
/// serves artifacts compiled under different options. Exhaustiveness is
/// enforced at compile time: the implementation destructures
/// CompiledOptions and ParallelOptions field by field, so adding a field
/// breaks the build there until it is mixed in (and serialized —
/// compiler/ArtifactStore.cpp destructures the same way).
HashDigest hashOptions(const CompiledOptions &Opts);

using CompiledProgramRef = std::shared_ptr<const CompiledProgram>;

/// Process-wide cache of compiled programs keyed by (structural hash,
/// engine options). Bounded LRU: programs can hold large packed matrices,
/// so the cache evicts the least recently used entry beyond capacity.
///
/// When SLIN_ARTIFACT_DIR is set (compiler/ArtifactStore.h), the cache
/// grows a disk tier: a memory miss consults the store before compiling,
/// and every program compiled here is published for other processes.
/// SLIN_NO_CACHE=1 bypasses the disk tier as well.
class ProgramCache {
public:
  static ProgramCache &global();

  /// Returns the cached program for (\p Root's structure, \p Opts),
  /// compiling and inserting on miss. \p WasHit (optional) reports
  /// whether this call was served from a cache tier (memory or disk).
  CompiledProgramRef get(const Stream &Root, const CompiledOptions &Opts,
                         bool *WasHit = nullptr);

  /// Cache-only lookup by precomputed key digests (memory, then disk);
  /// null on miss — never compiles. The pipeline's alias fast path.
  CompiledProgramRef lookup(const HashDigest &Structure,
                            const HashDigest &OptsDigest);

  /// Loads every valid artifact in \p Store into the memory tier — the
  /// service daemon's startup prefetch, so a configured serving set is
  /// warm (zero compile passes) before the first request arrives.
  /// Artifacts that fail validation and keys already cached are
  /// skipped; no hit/miss counters move (a prefetch is not a request).
  /// Returns the number of programs loaded.
  size_t prefetchFrom(ArtifactStore &Store);

  void clear();
  void setCapacity(size_t N);

  /// Mirrors AnalysisManager::Stats: hit/miss/eviction counters plus a
  /// live-entry snapshot, with the disk tier broken out.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    uint64_t Entries = 0; ///< live entries at snapshot time
    uint64_t DiskHits = 0;
    uint64_t DiskMisses = 0;
    uint64_t DiskStores = 0;
    /// Publishes that failed after the store's own retries (the program
    /// stays memory-only; ArtifactStore::stats() has the failure detail).
    uint64_t DiskStoreFailures = 0;
  };
  Stats stats() const;
  void resetStats();

private:
  /// (structure, options): the options half hashes EVERY CompiledOptions
  /// field (hashOptions). A subset key — the original keyed on
  /// BatchIterations alone — returns a stale artifact whenever two
  /// configurations differ only in the unkeyed fields.
  struct Key {
    HashDigest Digest;
    HashDigest OptsDigest;
    bool operator<(const Key &O) const {
      return Digest != O.Digest ? Digest < O.Digest
                                : OptsDigest < O.OptsDigest;
    }
  };
  struct Entry {
    CompiledProgramRef Program;
    uint64_t LastUse = 0;
    /// Disk publication was attempted (or needs none): steady-state
    /// memory hits must not re-serialize or touch the filesystem.
    bool Published = false;
  };

  CompiledProgramRef insertLocked(const Key &K, CompiledProgramRef Program,
                                  bool Published, bool *WasHit = nullptr);
  void evictToCapacityLocked();

  mutable std::mutex Mutex;
  std::map<Key, Entry> Entries;
  size_t Capacity = 64;
  uint64_t UseClock = 0;
  Stats Counters;
};

} // namespace slin

#endif // SLIN_COMPILER_PROGRAM_H
