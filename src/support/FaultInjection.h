//===- support/FaultInjection.h - Deterministic fault injection -*- C++ -*-===//
///
/// \file
/// Named fault points for deterministic failure-path testing. Each point
/// marks one place where the environment can fail (a short write, a
/// failed rename, ENOSPC, a tripped verifier, corrupted shard seeds, a
/// wedged run); arming a point makes exactly the chosen hit fail, so a
/// recovery path replays identically run after run.
///
/// Arming, from the environment:
///
///     SLIN_FAULT=<point>:<nth>[+][,<point>:<nth>[+]...]
///
/// fails the Nth hit (1-based) of the point once — a bounded retry then
/// succeeds — or, with the `+` suffix, the Nth and every later hit, so
/// retries exhaust and the caller's terminal degradation runs. Tests can
/// also arm programmatically (faults::arm / faults::reset), which takes
/// precedence over the environment.
///
/// Cost when unarmed: one relaxed atomic load of a process-global flag
/// (shouldFail inlines to that test-and-skip). Every fault point sits on
/// a slow path — file publish, pass verification, shard seeding — never
/// inside a kernel or dispatch loop, so the unarmed overhead on steady-
/// state throughput is unmeasurable by design.
///
/// The second half is the run-deadline/cancellation token (RunDeadline):
/// the try* executor entry points poll it between firing programs so an
/// injected hang (or a genuinely runaway run) returns ErrorCode::Timeout
/// / Cancelled instead of wedging its worker thread.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_FAULTINJECTION_H
#define SLIN_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace slin {
namespace faults {

/// Every injectable failure site. Names (pointName) are the SLIN_FAULT
/// spelling; keep the two lists in sync.
enum class Point : int {
  ArtifactWriteShort, ///< artifact-write-short: publish write truncates
  ArtifactRenameFail, ///< artifact-rename-fail: publish rename fails
  StoreEnospc,        ///< store-enospc: publish write reports ENOSPC
  PassVerifierTrip,   ///< pass-verifier-trip: rate verifier reports failure
  ShardSeedCorrupt,   ///< shard-seed-corrupt: shard-boundary seeding anomaly
  ExecHang,           ///< exec-hang: run loop stalls until its deadline
  CodegenCcFail,      ///< codegen-cc-fail: native-code compiler invocation fails
  CodegenDlopenFail,  ///< codegen-dlopen-fail: loading the built .so fails
  LintVerifierTrip,   ///< lint-verifier-trip: abstract-interp linter failure
  NumPoints
};

const char *pointName(Point P);

/// True when this hit of \p P must fail. Unarmed processes pay one
/// relaxed atomic load; armed points count hits atomically, so
/// concurrent hitters (parallel shards) still fire exactly once for a
/// one-shot arm.
bool shouldFail(Point P);

/// Arms \p P to fail on its \p NthHit-th hit (1-based); \p Persistent
/// keeps it failing from that hit on (the "retries must exhaust" mode).
/// Resets the point's hit counter.
void arm(Point P, uint64_t NthHit, bool Persistent = false);

/// Disarms every point and clears hit counters (does NOT re-read
/// SLIN_FAULT; tests own the configuration after a reset).
void reset();

/// Hits observed on \p P since its last arm/reset. Counted only while
/// some point is armed (the unarmed fast path skips all bookkeeping);
/// useful for asserting an armed fault point was actually reached.
uint64_t hitCount(Point P);

/// Parses and applies $SLIN_FAULT. Called once automatically before the
/// first shouldFail; malformed specs are ignored point-wise.
void armFromEnv();

//===----------------------------------------------------------------------===//
// Run deadline / cancellation token
//===----------------------------------------------------------------------===//

/// A deadline plus an optional external cancel flag, polled by the try*
/// run loops (exec/CompiledExecutor.h, exec/Parallel.h) at firing-
/// program granularity — cheap (a clock read per steady batch) and
/// responsive (a batch is microseconds). Default-constructed: unlimited.
class RunDeadline {
public:
  RunDeadline() = default;

  /// Expires \p Millis from now (<= 0: no deadline).
  static RunDeadline afterMillis(int64_t Millis);

  /// Attaches an external cancellation flag; expired() reports
  /// Cancelled once it is set.
  void setCancelFlag(const std::atomic<bool> *Flag) { Cancel = Flag; }

  bool cancelled() const {
    return Cancel && Cancel->load(std::memory_order_relaxed);
  }
  bool timedOut() const {
    return Limited && std::chrono::steady_clock::now() >= Deadline;
  }
  /// Either termination cause.
  bool expired() const { return cancelled() || timedOut(); }

  std::chrono::steady_clock::time_point deadline() const { return Deadline; }

private:
  bool Limited = false;
  std::chrono::steady_clock::time_point Deadline{};
  const std::atomic<bool> *Cancel = nullptr;
};

} // namespace faults
} // namespace slin

#endif // SLIN_SUPPORT_FAULTINJECTION_H
