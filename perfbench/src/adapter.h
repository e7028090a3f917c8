//===- perfbench/src/adapter.h - The benchmark's only door into slin ------===//
///
/// \file
/// Every call the benchmark makes into the library goes through this
/// header, and only adapter.cpp includes library headers. When the
/// library's API moves (the planned Engine -> Backend x Workers split,
/// the removal of the fatal compile/run twins), this pair of files is
/// the one place to update.
///
/// The adapter uses only the recoverable front doors: tryCompile,
/// tryRun, tryRunIterations and Client::run. Failures come back as a
/// non-empty error string, never as an abort.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ADAPTER_H
#define PERFBENCH_ADAPTER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bench {

//===----------------------------------------------------------------------===//
// Process state and host
//===----------------------------------------------------------------------===//

/// Non-empty when an inherited SLIN_* variable could make this run read
/// state an earlier run left behind (artifact dir, cache kill-switch,
/// verifier, fault injection, toolchain or native overrides).
std::string inheritedStateProblem();

/// Points the process-global artifact store at \p Dir (created empty by
/// the caller).
void useStore(const std::string &Dir);

/// Drops every process cache: programs, native modules, analyses.
void clearProcessCaches();

struct Fingerprint {
  unsigned Nproc = 0;
  std::string CpuModel;
  std::string BuildCompiler; ///< compiler that built this binary
  std::string CodegenCompiler; ///< first line of `$CXX --version`
  std::string BuildType;
  bool CountOps = false;
};
Fingerprint hostFingerprint();

//===----------------------------------------------------------------------===//
// Graphs, compiles and executors
//===----------------------------------------------------------------------===//

/// Names of the nine fig 5-1 apps, in the paper's order.
std::vector<std::string> appNames();

struct GraphImpl;
/// One app at the paper's parameters.
class Graph {
public:
  static Graph build(const std::string &Name);
  /// First \p N outputs from the tree interpreter: the bit-exact oracle.
  std::vector<double> referenceOutputs(size_t N) const;

  std::shared_ptr<GraphImpl> Impl;
};

struct PassTime {
  std::string Name;
  double Seconds = 0.0;
};

struct ProgramImpl;
/// A compiled program plus its native module.
class Program {
public:
  explicit operator bool() const { return Impl != nullptr; }
  std::shared_ptr<ProgramImpl> Impl;
};

struct CompileOutcome {
  std::string Error; ///< non-empty: failed, degraded, or no native module
  Program Prog;
  std::vector<PassTime> Passes;
};

/// tryCompile at AutoSel for the native backend. A degraded compile, or
/// a native compile that fell back to the op tapes, is an error here: it
/// would measure the wrong engine.
CompileOutcome compileNative(const Graph &G);

struct RunnerImpl;
/// One executor instance over a program.
class Runner {
public:
  /// \p Native false runs the op tapes of the same program.
  Runner(const Program &P, bool Native);
  ~Runner();

  /// tryRun until at least \p Outputs observable outputs exist.
  std::string runTo(size_t Outputs);
  size_t produced() const;
  uint64_t firings() const;
  /// Compares the outputs so far with \p Ref over their common prefix;
  /// fewer than min(\p MinLen, Ref.size()) outputs is a mismatch too.
  std::string checkPrefix(const std::vector<double> &Ref,
                          size_t MinLen) const;

private:
  std::unique_ptr<RunnerImpl> Impl;
};

/// FLOPs per output over \p Measure outputs after \p Warm outputs, on a
/// fresh counted op-tape executor (emitted code does no accounting).
struct FlopCount {
  std::string Error;
  double FlopsPerOutput = 0.0;
};
FlopCount countFlops(const Program &P, size_t Warm, size_t Measure);

/// One sharded op-tape pass of \p Iters steady iterations at \p Workers
/// against a sequential pass of the same span.
struct ShardOutcome {
  std::string Error; ///< includes any output or FLOP mismatch
  double SequentialSeconds = 0.0;
  double ShardedSeconds = 0.0;
  int64_t Iterations = 0;
  int64_t WarmupIterations = 0;
  bool FellBack = false;
};
ShardOutcome shardedPass(const Program &P, int Workers, int64_t Iters);

/// Microseconds to construct one executor over an already-built program.
double instantiateMicros(const Program &P, int Reps);

//===----------------------------------------------------------------------===//
// Layer counters
//===----------------------------------------------------------------------===//

struct LayerCounters {
  uint64_t AnalysisHits = 0, AnalysisMisses = 0;
  uint64_t ProgramDiskHits = 0;
  uint64_t StorePublishFailures = 0;
  uint64_t CodegenCompiles = 0, CodegenDiskHits = 0;
};
LayerCounters layerCounters();

/// Bytes of program artifacts and of native objects in \p Dir.
std::pair<uint64_t, uint64_t> storeBytes(const std::string &Dir);

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

struct ServerImpl;
class Server {
public:
  Server();
  ~Server(); ///< stops
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Starts an in-process server on the Unix socket \p Path serving
  /// \p Graphs with \p Workers pool threads per graph.
  std::string start(const std::string &Path,
                    const std::vector<std::string> &Graphs, int Workers);
  void stop();

private:
  std::unique_ptr<ServerImpl> Impl;
};

struct ServeRequest {
  std::string Graph;
  bool Native = false;
  bool Latency = false;
  uint32_t Outputs = 0;
  bool CountOps = false;
};

struct ServeReply {
  std::string Error; ///< transport failure or non-Ok run status
  bool Degraded = false;
  std::vector<double> Outputs;
  uint64_t Flops = 0;
  double ServerSeconds = 0.0;
  double FirstOutputSeconds = 0.0;
};

struct ConnectionImpl;
class Connection {
public:
  Connection();
  ~Connection();
  Connection(Connection &&) noexcept;
  Connection &operator=(Connection &&) noexcept;

  std::string open(const std::string &Path);
  ServeReply run(const ServeRequest &R);
  /// The server's counter snapshot (StatsRegistry names).
  std::vector<std::pair<std::string, uint64_t>> serverCounters();

private:
  std::unique_ptr<ConnectionImpl> Impl;
};

/// Client-side microseconds to encode \p R as a request frame, encode a
/// reply carrying \p Reply's outputs, and decode both.
double codecMicros(const ServeRequest &R, const ServeReply &Reply, int Reps);

} // namespace bench

#endif // PERFBENCH_ADAPTER_H
