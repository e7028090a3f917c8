//===- perfbench/src/phases.h - Measurement phases shared by workloads ----===//
///
/// \file
/// Every workload is built from the same phases — cold compile, warm
/// reload, steady execution, FLOP counting, serving — weighted
/// differently: each workload runs one group hard and the others
/// lightly. Phases record end-to-end and per-layer metrics into Results
/// and count every operation they attempt, and every failure.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "adapter.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

namespace bench {

/// Outputs compared against the tree interpreter after every compile,
/// reload and executor re-creation; also the largest served request.
constexpr size_t RefOutputs = 256;

/// The light serving set: the apps whose requests execute in under two
/// milliseconds in either mode, so the service layers weigh in a request's
/// time. (RateConvert's throughput-mode batches take about 4 ms and would
/// set the tail on their own.)
const std::vector<std::string> &lightGraphs();

struct Results {
  struct Metric {
    double Value = 0.0;
    std::string Unit;
  };
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one attempted operation; a non-empty \p Error fails it.
  void op(const std::string &What, const std::string &Error);
  uint64_t attempted() const;
  uint64_t failed() const;
  std::vector<std::string> failures() const;

private:
  mutable std::mutex Mutex;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> FirstFailures;
};

/// The workload's state: its graph set with reference outputs, the
/// current programs, and the run's private directory.
struct Context {
  std::string WorkDir;
  std::mt19937_64 Rng;
  Results Res;
  std::vector<std::string> Names;
  std::vector<Graph> Graphs;
  std::vector<std::vector<double>> Refs;
  std::vector<Program> Progs;
  int StoreSerial = 0;
  std::string StoreDir;

  size_t indexOf(const std::string &Name) const;
  /// A seeded permutation of 0..Graphs.size()-1.
  std::vector<size_t> shuffledOrder();
};

double median(std::vector<double> V);
/// The \p Q quantile of \p V (linear interpolation); 0 when empty.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// HostStates: on a VM with 4 vCPUs on shared cores (Intel Xeon), where
/// these numbers were measured, the host switches between a fast and a
/// slow state, 1.4-1.6x apart, for half a second to several seconds at a
/// time, and the slow state covered anywhere from a tenth to over half of
/// a run. Closed-loop
/// windows of one run read 1400 or 2300 req/s, steady slots 80 or 120 ns.
/// A median flips with that share; the quartile on the fast side does not
/// until the slow state covers three quarters of the samples. So the
/// speed metrics (ns_per_output, compile_s, warm_load_ms, capacity_rps)
/// report that quartile over samples spread across the whole run, and
/// the latency metrics, which users see in both states, stay medians.

/// Builds the graph set and its reference outputs.
void buildGraphs(Context &C, const std::vector<std::string> &Names);

/// Fresh empty store, cleared caches, then compile every graph for the
/// native backend and run it to its first output. Returns each graph's
/// seconds (compile to first output), by graph index; records per-layer
/// compiler and codegen numbers into \p Layer.
std::vector<double> coldCompileSet(Context &C,
                                   std::map<std::string, double> &Layer);

/// Drops every program and cache, then brings the set back from the
/// current store to first output. Returns each graph's seconds.
std::vector<double> warmReloadSet(Context &C,
                                  std::map<std::string, double> &Layer);

/// Sum over graphs of each graph's lower quartile over \p Rounds (see
/// HostStates).
double sumOfLowerQuartiles(const std::vector<std::vector<double>> &Rounds);

/// Steady execution of every graph, interleaved in seeded rounds of one
/// slot each, on fresh executors of the current programs. Executors
/// persist across run() calls so that a workload can spread its slots
/// over the whole run: contention from outside the process comes in
/// bursts of a second or two, and slots spread over the run see the same
/// share of it in every run.
class SteadyPhase {
public:
  /// \p Native false runs the op tapes.
  SteadyPhase(Context &C, bool Native);
  /// Whole rounds for at least \p Seconds; false once a slot failed.
  bool run(double Seconds);
  /// Per-app lower quartiles over all slots (see HostStates):
  /// ns_per_output (geomean over apps) and firings on the native backend,
  /// tape rows otherwise.
  void report() const;

private:
  Context &C;
  bool Native;
  bool Ok = true;
  std::vector<std::unique_ptr<Runner>> Runners;
  std::vector<size_t> Quantum;
  std::vector<std::vector<double>> Slots; ///< ns per output, per graph
  std::vector<uint64_t> Firings, Outputs;
};

/// Counted op-tape runs: flops_per_output and per-app rows.
void flopsPhase(Context &C);

/// Starts \p Srv on \p Path over lightGraphs() and sends one checked
/// request per graph and engine, so pools and native modules are ready.
std::string startServer(Context &C, Server &Srv, const std::string &Path);

struct ServeSample {
  double LatencyMs = -1.0; ///< due time to reply; -1: failed
  double RoundTripMs = 0.0;
  double ServerMs = 0.0;
  double FirstOutputMs = -1.0; ///< latency-mode requests only
  double LagMs = 0.0;
};

/// An in-process server over lightGraphs() with ServeClients connections.
/// Open-loop and closed-loop slices accumulate until report().
class ServePhase {
public:
  explicit ServePhase(Context &C);
  ~ServePhase();
  ServePhase(const ServePhase &) = delete;
  ServePhase &operator=(const ServePhase &) = delete;

  /// Seeded requests at a fixed rate for about \p Seconds, each timed
  /// from its due time.
  void openLoop(double Seconds);
  /// Back-to-back requests on one connection for \p Seconds.
  void closedLoop(double Seconds);
  /// Latency percentiles, capacity, service and load-generator numbers.
  void report();

private:
  Context &C;
  Server Srv;
  std::vector<Connection> Conns;
  bool Ok = false;
  std::vector<std::pair<std::string, uint64_t>> Before;
  std::vector<ServeSample> Samples;
  std::vector<size_t> SliceStarts; ///< first sample of each open-loop slice
  std::vector<double> WindowRps;
  uint64_t NextRequestId = 1;
};

/// Per-layer numbers outside any end-to-end metric, for the traced run:
/// op-tape timing, sharded passes, host calibration, codec timing and
/// executor instantiation.
void layerExtras(Context &C);

} // namespace bench

#endif // PERFBENCH_PHASES_H
