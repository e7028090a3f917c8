//===- service/Admission.h - Serving set and request admission --*- C++ -*-===//
///
/// \file
/// The service's brain: a serving set of warm CompiledPrograms and the
/// admission/execution path every Run request takes. Startup warms the
/// set in two steps — a bulk `ProgramCache::prefetchFrom` over every
/// artifact the global store holds (`ArtifactStore::listArtifacts`), then
/// a pipeline compile per serving-set graph that resolves through the
/// warm cache (a restart against a populated store is *zero* compile
/// passes). Per request, on the calling session thread:
///
///  * **Admission**: unknown graphs are refused with Internal. Each graph
///    has `Workers` run slots; a request waits for a free one, and is
///    refused with Overloaded when `MaxQueueDepth` requests already wait.
///    Refusal is a reply, not a crash or a hang.
///  * **Backend and sharding**: Compiled runs the op tapes; Native
///    resolves the program's dlopen'd module once (lazily) and reports
///    the degradation when it cannot (exec/Engine.h's ladder); Dynamic
///    is served as Compiled. Shard runs either on a ParallelExecutor.
///  * **Deadline**: the request's DeadlineMillis (else the server
///    default, seeded from RuntimeConfig's SLIN_RUN_DEADLINE_MS) bounds
///    the run, armed once the request holds a slot; expiry returns a
///    Timeout *response* and frees the slot.
///  * **Latency vs throughput**: latency-mode requests fire single
///    steady iterations for a bounded time-to-first-output; throughput
///    requests run the fused batch programs. Same outputs, bit for bit,
///    and exactly the requested count in either mode.
///
/// Counters for every step are published under the "service." prefix
/// of the unified StatsRegistry — the daemon's stats request is one
/// snapshot() call.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_ADMISSION_H
#define SLIN_SERVICE_ADMISSION_H

#include "compiler/Pipeline.h"
#include "exec/Parallel.h"
#include "service/Protocol.h"
#include "support/StatsRegistry.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slin {
namespace service {

struct ServiceConfig {
  /// Serving-set graph names (apps registry); empty = every benchmark.
  std::vector<std::string> Graphs;
  /// Optimization mode the serving set is compiled with.
  OptMode Mode = OptMode::AutoSel;
  /// Requests run at once per graph (0: the hardware thread count).
  int Workers = 0;
  /// Waiting-request cap per graph; a request that finds this many
  /// waiting for a run slot is refused (Overloaded).
  size_t MaxQueueDepth = 64;
  /// Bulk-load every stored artifact into the program cache at startup.
  bool Prefetch = true;
  /// Applied when a request carries no deadline (0: none).
  int64_t DefaultDeadlineMillis = 0;
  /// Applied when a request asks for 0 outputs.
  uint32_t DefaultOutputs = 256;
  /// Hard per-request output cap (memory bound; larger asks are
  /// clamped, not refused).
  uint32_t MaxOutputs = 1u << 20;
};

class Admission {
public:
  explicit Admission(ServiceConfig Cfg);
  ~Admission();

  Admission(const Admission &) = delete;
  Admission &operator=(const Admission &) = delete;

  /// Warms the serving set (prefetch + compile-or-load). Non-Ok when a
  /// serving-set graph is unknown or fails even the Base-mode compile;
  /// individual degradations are recorded, not fatal.
  Status start();

  /// Admits and executes one Run request on the calling thread
  /// (blocking; called from session threads concurrently). Every failure
  /// mode is reported in the response's Status.
  RunResponse run(const RunRequest &R);

  /// Serving-set names, in configuration order.
  std::vector<std::string> graphs() const;

  /// Aggregate admission counters (also published as "service.*").
  struct Counters {
    uint64_t Requests = 0;
    uint64_t Served = 0;        ///< completed Ok
    uint64_t Rejected = 0;      ///< refused at admission (unknown/overload)
    uint64_t Timeouts = 0;      ///< Timeout/Cancelled results
    uint64_t Failures = 0;      ///< other non-Ok results
    uint64_t Degraded = 0;      ///< served on a lower rung than asked
    uint64_t PrefetchedArtifacts = 0; ///< store artifacts bulk-loaded
    uint64_t WarmStarts = 0;    ///< serving-set programs needing no passes
    uint64_t StartupCompiles = 0; ///< serving-set programs compiled cold
  };
  Counters counters() const;

private:
  struct Entry {
    std::string Name;
    CompiledProgramRef Prog;
    /// Run slots: Running requests hold one, Waiting ones wait on
    /// SlotFreed for one.
    std::mutex SlotMutex;
    std::condition_variable SlotFreed;
    int Running = 0;
    size_t Waiting = 0;
    /// Engine::Native module, resolved once on first use (null after a
    /// degradation; Reason records why).
    std::mutex NativeMutex;
    bool NativeResolved = false;
    codegen::NativeModuleRef Native;
    std::string NativeDegradeReason;
  };

  Entry *findEntry(const std::string &Name);

  ServiceConfig Cfg;
  int Slots; ///< resolved Cfg.Workers: run slots per graph
  std::vector<std::unique_ptr<Entry>> Entries;
  mutable std::mutex Mutex; ///< guards Counts
  Counters Counts;
  StatsRegistry::Registration StatsReg;
};

} // namespace service
} // namespace slin

#endif // SLIN_SERVICE_ADMISSION_H
