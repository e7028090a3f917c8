//===- compiler/Program.cpp - Reusable compiled-program artifacts ------------==//

#include "compiler/Program.h"

#include "compiler/ArtifactStore.h"
#include "compiler/StructuralHash.h"
#include "linear/AbstractExec.h"
#include "support/StatsRegistry.h"

#include <chrono>
#include <cmath>

using namespace slin;
using namespace slin::flat;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Flattens with timing (member-initializer helper).
FlatGraph flattenTimed(const Stream &Root, double &Seconds) {
  auto Start = std::chrono::steady_clock::now();
  FlatGraph G(Root);
  Seconds = secondsSince(Start);
  return G;
}

StaticSchedule scheduleTimed(const FlatGraph &G, int BatchIterations,
                             double &Seconds) {
  auto Start = std::chrono::steady_clock::now();
  StaticSchedule S = computeSchedule(G, BatchIterations);
  Seconds = secondsSince(Start);
  return S;
}

} // namespace

CompiledProgram::CompiledProgram(const Stream &Root, CompiledOptions Opts)
    : Opts(Opts), Root(Root.clone()),
      Graph(flattenTimed(*this->Root, Stats.FlattenSeconds)),
      Sched(scheduleTimed(Graph, Opts.BatchIterations,
                          Stats.ScheduleSeconds)) {
  auto Start = std::chrono::steady_clock::now();
  Artifacts.resize(Graph.Nodes.size());
  for (size_t I = 0; I != Graph.Nodes.size(); ++I) {
    const Node &N = Graph.Nodes[I];
    if (N.Kind != NodeKind::Filter)
      continue;
    FilterArtifact &A = Artifacts[I];
    if (N.F->isNative()) {
      A.Native = &N.F->native();
      continue;
    }
    A.Work = wir::OpProgram::compile(N.F->work(), N.F->fields());
    if (const wir::WorkFunction *IW = N.F->initWork())
      A.InitWork = wir::OpProgram::compile(*IW, N.F->fields());
  }
  Stats.TapeSeconds = secondsSince(Start);
  computeShardInfo();
}

CompiledProgram::CompiledProgram(Parts P)
    : Opts(P.Opts), Root(std::move(P.Root)), Graph(std::move(P.Graph)),
      Sched(std::move(P.Sched)), Artifacts(std::move(P.Artifacts)),
      Shard(std::move(P.Shard)), FromArtifact(true) {}

//===----------------------------------------------------------------------===//
// Shard feasibility
//===----------------------------------------------------------------------===//

namespace {

/// Closed-form seeding is exact only when the iterated per-firing update
/// and the one-shot formula agree bit-for-bit; integers (counters,
/// cursors) do, arbitrary doubles need not.
bool exactlyIntegral(double V) {
  return std::nearbyint(V) == V && std::abs(V) < 9.0e15;
}

} // namespace

void CompiledProgram::computeShardInfo() {
  auto Fail = [&](std::string Why) {
    Shard.Shardable = false;
    Shard.Reason = std::move(Why);
    Shard.Seeds.clear();
  };

  std::vector<int> Depths(Graph.Nodes.size(), 0);
  for (size_t I = 0; I != Graph.Nodes.size(); ++I) {
    const flat::Node &N = Graph.Nodes[I];
    if (N.Kind != flat::NodeKind::Filter)
      continue; // splitters/joiners reorder items statelessly
    if (N.F->isNative()) {
      Depths[I] = N.F->native().stateDepthFirings();
      if (Depths[I] < 0)
        return Fail("native filter '" + N.Name +
                    "' does not declare its state depth");
      continue;
    }

    const FilterArtifact &A = Artifacts[I];
    SteadyStateInfo Steady = classifySteadyState(A.Work, N.F->fields());
    if (!Steady.Reconstructable)
      return Fail("filter '" + N.Name + "': " + Steady.Reason);
    SteadyStateInfo Init;
    bool HasInit = !A.InitWork.empty();
    if (HasInit) {
      Init = classifySteadyState(A.InitWork, N.F->fields());
      if (!Init.Reconstructable)
        return Fail("filter '" + N.Name + "' (init work): " + Init.Reason);
    }

    // Closed-form fields become FieldSeeds; input-determined fields make
    // the filter depth-1 (one replayed firing rewrites them). A field
    // whose init-work update cannot be folded into the closed form (or
    // that only the init work writes, non-affinely) is irrecoverable.
    using FK = SteadyStateInfo::FieldKind;
    const std::vector<wir::FieldDef> &Fields = N.F->fields();
    for (size_t F = 0; F != Fields.size(); ++F) {
      const SteadyStateInfo::FieldUpdate *SU =
          Steady.updateFor(static_cast<int>(F));
      const SteadyStateInfo::FieldUpdate *IU =
          HasInit ? Init.updateFor(static_cast<int>(F)) : nullptr;
      if (!SU && !IU)
        continue;
      if (SU && SU->Kind == FK::InputDetermined) {
        Depths[I] = std::max(Depths[I], 1);
        continue; // init-work value, if any, is overwritten by warmup
      }
      ShardInfo::FieldSeed Seed;
      Seed.Node = static_cast<int>(I);
      Seed.Field = static_cast<int>(F);
      Seed.Base = Fields[F].Init.empty() ? 0.0 : Fields[F].Init[0];
      double Mod = SU && SU->Kind == FK::ModAffine ? SU->Mod : 0.0;
      Seed.DeltaRest = SU ? SU->Delta : 0.0;
      if (IU) {
        if (IU->Kind == FK::InputDetermined)
          return Fail("filter '" + N.Name + "' field '" + Fields[F].Name +
                      "' is set from init-work input");
        double IMod = IU->Kind == FK::ModAffine ? IU->Mod : 0.0;
        if (SU && IMod != Mod)
          return Fail("filter '" + N.Name + "' field '" + Fields[F].Name +
                      "' mixes moduli between init and steady work");
        if (!SU)
          Mod = IMod;
        Seed.DeltaFirst = IU->Delta;
      } else {
        Seed.DeltaFirst = HasInit ? 0.0 : Seed.DeltaRest;
      }
      Seed.Modulus = Mod;
      if (!exactlyIntegral(Seed.Base) || !exactlyIntegral(Seed.DeltaFirst) ||
          !exactlyIntegral(Seed.DeltaRest) || !exactlyIntegral(Seed.Modulus))
        return Fail("filter '" + N.Name + "' field '" + Fields[F].Name +
                    "' progresses by a non-integral step");
      // Modular cursors: the tape reduces after every firing, the seed
      // reduces once. The representatives agree only when every partial
      // sum is non-negative (fmod keeps the dividend's sign) — so
      // negative bases/deltas, or a modulus too large for exact int64
      // modular arithmetic, are not seedable.
      if (Seed.Modulus > 0 &&
          (Seed.Base < 0 || Seed.DeltaFirst < 0 || Seed.DeltaRest < 0 ||
           Seed.Modulus > 2147483647.0))
        return Fail("filter '" + N.Name + "' field '" + Fields[F].Name +
                    "' is a modular cursor with a negative step");
      Shard.Seeds.push_back(Seed);
    }
  }

  ShardBoundary B = computeShardBoundary(Graph, Sched, Depths);
  if (!B.Feasible)
    return Fail(B.Reason);
  Shard.Shardable = true;
  Shard.Reason.clear();
  Shard.WashoutIterations = B.WashoutIterations;
}

//===----------------------------------------------------------------------===//
// ProgramCache
//===----------------------------------------------------------------------===//

ProgramCache &ProgramCache::global() {
  static ProgramCache Cache;
  return Cache;
}

HashDigest slin::hashOptions(const CompiledOptions &Opts) {
  // Compile-time exhaustiveness: the structured bindings name EVERY field
  // of CompiledOptions and ParallelOptions — adding a field to either
  // struct fails to compile here ("N names provided for M elements")
  // until it is mixed in, so a new knob can never silently alias
  // artifacts compiled under different options.
  const auto &[BatchIterations, Parallel] = Opts;
  const auto &[Workers, ShardMinIterations] = Parallel;
  HashStream H;
  H.mix(0xc0f160); // domain tag
  H.mixInt(BatchIterations);
  H.mixInt(Workers);
  H.mixInt(ShardMinIterations);
  return H.digest();
}

CompiledProgramRef ProgramCache::get(const Stream &Root,
                                     const CompiledOptions &Opts,
                                     bool *WasHit) {
  Key K{structuralHash(Root), hashOptions(Opts)};
  if (WasHit)
    *WasHit = false;
  ArtifactStore *Store = ArtifactStore::enabledGlobal();
  ArtifactStore::Key AK{K.Digest, K.OptsDigest};
  {
    CompiledProgramRef Hit;
    bool NeedsPublish = false;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Entries.find(K);
      if (It != Entries.end()) {
        ++Counters.Hits;
        It->second.LastUse = ++UseClock;
        Hit = It->second.Program;
        // Publish memory-only programs (compiled before the store was
        // configured) so alias records and sibling processes can find
        // them — once; steady-state hits stay disk-free.
        NeedsPublish = Store && !It->second.Published;
        It->second.Published = true;
      }
    }
    if (Hit) {
      if (WasHit)
        *WasHit = true;
      if (NeedsPublish && !Store->contains(AK)) {
        bool Stored = Store->tryStore(AK, *Hit).isOk();
        std::lock_guard<std::mutex> Lock(Mutex);
        ++(Stored ? Counters.DiskStores : Counters.DiskStoreFailures);
      }
      return Hit;
    }
  }

  // Disk tier (outside the lock: file I/O and deserialization are slow).
  if (Store) {
    if (auto Loaded = Store->tryLoad(AK)) {
      if (WasHit)
        *WasHit = true;
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.DiskHits;
      return insertLocked(K, Loaded.take(), /*Published=*/true);
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.DiskMisses;
  }

  // Compile outside the lock; a racing duplicate compile of the same
  // structure is wasteful but correct (first insert wins).
  auto Program = std::make_shared<const CompiledProgram>(Root, Opts);
  if (Store) {
    bool Stored = Store->tryStore(AK, *Program).isOk();
    std::lock_guard<std::mutex> Lock(Mutex);
    ++(Stored ? Counters.DiskStores : Counters.DiskStoreFailures);
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  return insertLocked(K, std::move(Program), /*Published=*/Store != nullptr,
                      WasHit);
}

CompiledProgramRef ProgramCache::lookup(const HashDigest &Structure,
                                        const HashDigest &OptsDigest) {
  Key K{Structure, OptsDigest};
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(K);
    if (It != Entries.end()) {
      ++Counters.Hits;
      It->second.LastUse = ++UseClock;
      return It->second.Program;
    }
  }
  ArtifactStore *Store = ArtifactStore::enabledGlobal();
  if (!Store)
    return nullptr;
  auto Loaded = Store->tryLoad({Structure, OptsDigest});
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Loaded) {
    ++Counters.DiskMisses;
    return nullptr;
  }
  ++Counters.DiskHits;
  return insertLocked(K, Loaded.take(), /*Published=*/true);
}

/// Inserts under the already-held lock, counting a miss (or, when a
/// racing thread inserted first, a hit) and evicting beyond capacity.
CompiledProgramRef ProgramCache::insertLocked(const Key &K,
                                              CompiledProgramRef Program,
                                              bool Published, bool *WasHit) {
  auto [It, Inserted] =
      Entries.emplace(K, Entry{std::move(Program), ++UseClock, Published});
  if (Inserted) {
    ++Counters.Misses;
    evictToCapacityLocked();
  } else {
    // A racing thread inserted the same key first; count as a hit.
    ++Counters.Hits;
    It->second.LastUse = UseClock;
    if (WasHit)
      *WasHit = true;
  }
  return It->second.Program;
}

void ProgramCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
}

void ProgramCache::setCapacity(size_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Capacity = N ? N : 1;
  evictToCapacityLocked();
}

void ProgramCache::evictToCapacityLocked() {
  while (Entries.size() > Capacity) {
    auto Oldest = Entries.begin();
    for (auto I = Entries.begin(); I != Entries.end(); ++I)
      if (I->second.LastUse < Oldest->second.LastUse)
        Oldest = I;
    Entries.erase(Oldest);
    ++Counters.Evictions;
  }
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S = Counters;
  S.Entries = Entries.size();
  return S;
}

void ProgramCache::resetStats() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counters = Stats();
}

size_t ProgramCache::prefetchFrom(ArtifactStore &Store) {
  size_t Loaded = 0;
  for (const ArtifactStore::Key &K : Store.listArtifacts()) {
    Key CK{K.Structure, K.Options};
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Entries.count(CK))
        continue;
    }
    auto P = Store.tryLoad(K);
    if (!P)
      continue;
    std::lock_guard<std::mutex> Lock(Mutex);
    auto Inserted = Entries.emplace(
        CK, Entry{P.take(), ++UseClock, /*Published=*/true});
    if (Inserted.second) {
      ++Loaded;
      evictToCapacityLocked();
    }
  }
  return Loaded;
}

namespace {
/// Publishes the program cache's counters into the unified snapshot
/// (support/StatsRegistry.h) for the service daemon's stats request
/// and slin-lint --stats.
const StatsRegistry::Registration ProgramCacheStatsReg(
    "program-cache", [](StatsRegistry::Counters &C) {
      ProgramCache::Stats S = ProgramCache::global().stats();
      C.emplace_back("hits", S.Hits);
      C.emplace_back("misses", S.Misses);
      C.emplace_back("evictions", S.Evictions);
      C.emplace_back("entries", S.Entries);
      C.emplace_back("disk_hits", S.DiskHits);
      C.emplace_back("disk_misses", S.DiskMisses);
      C.emplace_back("disk_stores", S.DiskStores);
      C.emplace_back("disk_store_failures", S.DiskStoreFailures);
    });
} // namespace
