//===- perfbench/src/phases.cpp - Measurement phases shared by workloads --===//

#include "phases.h"

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>
#include <thread>

namespace bench {

using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Executors are re-created past this many outputs so that the output
/// vectors they accumulate stay small.
constexpr size_t RecreateAfterOutputs = size_t(1) << 18;

/// Target wall time of one steady slot.
constexpr double SlotSeconds = 0.010;

/// Client connections (and client threads) of the open loop, and pool
/// workers per served graph.
constexpr int ServeClients = 2;
constexpr int ServeWorkersPerGraph = 1;

/// Open-loop arrival rate, well under the closed-loop capacity.
constexpr double OpenRatePerSecond = 200.0;

/// Width of the closed-loop windows whose median is the capacity.
constexpr double CapacityWindowSeconds = 0.1;

uint64_t counter(const std::vector<std::pair<std::string, uint64_t>> &Cs,
                 const std::string &Name) {
  for (const auto &C : Cs)
    if (C.first == Name)
      return C.second;
  return 0;
}

} // namespace

const std::vector<std::string> &lightGraphs() {
  static const std::vector<std::string> Names = {"FIR", "FMRadio",
                                                 "Oversampler"};
  return Names;
}

//===----------------------------------------------------------------------===//
// Results and context
//===----------------------------------------------------------------------===//

void Results::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Metrics[Name] = Metric{Value, Unit};
}

void Results::op(const std::string &What, const std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Attempted;
  if (Error.empty())
    return;
  ++Failed;
  if (FirstFailures.size() < 20)
    FirstFailures.push_back(What + ": " + Error);
}

uint64_t Results::attempted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Attempted;
}

uint64_t Results::failed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Failed;
}

std::vector<std::string> Results::failures() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return FirstFailures;
}

size_t Context::indexOf(const std::string &Name) const {
  for (size_t I = 0; I != Names.size(); ++I)
    if (Names[I] == Name)
      return I;
  return Names.size();
}

std::vector<size_t> Context::shuffledOrder() {
  std::vector<size_t> Order(Graphs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rng() % I]);
  return Order;
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Lo + 1] - V[Lo]);
}

double sumOfLowerQuartiles(const std::vector<std::vector<double>> &Rounds) {
  if (Rounds.empty())
    return 0.0;
  double Sum = 0.0;
  for (size_t I = 0; I != Rounds.front().size(); ++I) {
    std::vector<double> V;
    for (const std::vector<double> &R : Rounds)
      V.push_back(R[I]);
    Sum += quantile(V, 0.25);
  }
  return Sum;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double Log = 0.0;
  for (double X : V)
    Log += std::log(X);
  return std::exp(Log / static_cast<double>(V.size()));
}

void buildGraphs(Context &C, const std::vector<std::string> &Names) {
  Span S("graphs.build+reference");
  C.Names = Names;
  C.Graphs.clear();
  C.Refs.clear();
  C.Progs.assign(Names.size(), Program());
  for (const std::string &N : Names) {
    C.Graphs.push_back(Graph::build(N));
    C.Refs.push_back(C.Graphs.back().referenceOutputs(RefOutputs));
    C.Res.op("reference " + N, C.Refs.back().size() == RefOutputs
                                   ? ""
                                   : "interpreter gave too few outputs");
  }
}

//===----------------------------------------------------------------------===//
// Compile and reload
//===----------------------------------------------------------------------===//

namespace {

/// Compiles graph \p I for the native backend and runs a fresh executor
/// to its first output (timed), then to RefOutputs (checked, untimed).
double compileToFirstOutput(Context &C, size_t I, const char *Kind,
                            std::map<std::string, double> &Layer) {
  Span App("app");
  App.count("graph", static_cast<double>(I));
  double Seconds = 0.0;
  CompileOutcome CO;
  Clock::time_point T0 = Clock::now();
  {
    Span S("compiler.tryCompile");
    CO = compileNative(C.Graphs[I]);
    double PassSum = 0.0;
    for (const PassTime &P : CO.Passes) {
      S.count(P.Name, P.Seconds);
      PassSum += P.Seconds;
      const std::string &N = P.Name;
      if (N == "selection")
        Layer["compiler.selection_s"] += P.Seconds;
      else if (N == "linear-const-fold" || N == "dead-channel-elim")
        Layer["compiler.cleanup_s"] += P.Seconds;
      else if (N == "flatten" || N == "schedule" || N == "tape-compile")
        Layer["compiler.lower_s"] += P.Seconds;
      else if (N == "artifact-load")
        Layer["compiler.artifact_load_ms"] += P.Seconds * 1e3;
      else if (N == "native-codegen")
        Layer[std::string(Kind) == "cold" ? "codegen.cxx_s"
                                          : "codegen.dlopen_ms"] +=
            std::string(Kind) == "cold" ? P.Seconds : P.Seconds * 1e3;
    }
    Layer["compiler.unattributed_s"] += since(T0) - PassSum;
  }
  std::string Error = CO.Error;
  if (Error.empty()) {
    std::unique_ptr<Runner> R;
    {
      Span S("exec.instantiate");
      R = std::make_unique<Runner>(CO.Prog, true);
    }
    {
      Span S("exec.first_output");
      Error = R->runTo(1);
    }
    Seconds = since(T0);
    if (Error.empty()) {
      Span S("check.reference");
      Error = R->runTo(RefOutputs);
      if (Error.empty())
        Error = R->checkPrefix(C.Refs[I], RefOutputs);
    }
  } else {
    Seconds = since(T0);
  }
  C.Res.op(std::string(Kind) + " compile " + C.Names[I], Error);
  C.Progs[I] = Error.empty() ? CO.Prog : Program();
  return Seconds;
}

} // namespace

std::vector<double> coldCompileSet(Context &C,
                                   std::map<std::string, double> &Layer) {
  Span S("compile.cold_set");
  C.StoreDir = C.WorkDir + "/store-" + std::to_string(C.StoreSerial++);
  ::mkdir(C.StoreDir.c_str(), 0755);
  useStore(C.StoreDir);
  C.Progs.assign(C.Graphs.size(), Program());
  clearProcessCaches();
  LayerCounters Before = layerCounters();
  std::vector<double> Seconds(C.Graphs.size());
  for (size_t I : C.shuffledOrder())
    Seconds[I] = compileToFirstOutput(C, I, "cold", Layer);
  LayerCounters After = layerCounters();
  std::pair<uint64_t, uint64_t> Bytes = storeBytes(C.StoreDir);
  Layer["analysis.hits"] += After.AnalysisHits - Before.AnalysisHits;
  Layer["analysis.misses"] += After.AnalysisMisses - Before.AnalysisMisses;
  Layer["codegen.compiles"] += After.CodegenCompiles - Before.CodegenCompiles;
  Layer["store.publish_failures"] +=
      After.StorePublishFailures - Before.StorePublishFailures;
  Layer["store.bytes"] = static_cast<double>(Bytes.first + Bytes.second);
  Layer["codegen.so_bytes"] = static_cast<double>(Bytes.second);
  S.count("analysis.hits", Layer["analysis.hits"]);
  S.count("codegen.compiles", Layer["codegen.compiles"]);
  return Seconds;
}

std::vector<double> warmReloadSet(Context &C,
                                  std::map<std::string, double> &Layer) {
  Span S("compile.warm_set");
  C.Progs.assign(C.Graphs.size(), Program());
  clearProcessCaches();
  LayerCounters Before = layerCounters();
  std::vector<double> Seconds(C.Graphs.size());
  for (size_t I : C.shuffledOrder())
    Seconds[I] = compileToFirstOutput(C, I, "warm", Layer);
  LayerCounters After = layerCounters();
  uint64_t N = C.Graphs.size();
  uint64_t DiskHits = After.ProgramDiskHits - Before.ProgramDiskHits;
  uint64_t ObjHits = After.CodegenDiskHits - Before.CodegenDiskHits;
  uint64_t Compiles = After.CodegenCompiles - Before.CodegenCompiles;
  Layer["store.disk_hits"] += static_cast<double>(DiskHits);
  Layer["codegen.disk_hits"] += static_cast<double>(ObjHits);
  S.count("store.disk_hits", static_cast<double>(DiskHits));
  S.count("codegen.disk_hits", static_cast<double>(ObjHits));
  C.Res.op("warm reload from disk",
           DiskHits == N && ObjHits == N && Compiles == 0
               ? ""
               : "disk hits " + std::to_string(DiskHits) + ", object hits " +
                     std::to_string(ObjHits) + ", compiles " +
                     std::to_string(Compiles) + " (want " +
                     std::to_string(N) + ", " + std::to_string(N) + ", 0)");
  return Seconds;
}

//===----------------------------------------------------------------------===//
// CPU placement
//===----------------------------------------------------------------------===//

namespace {

bool setProcessAffinity(const cpu_set_t &Mask) {
  DIR *D = ::opendir("/proc/self/task");
  if (!D)
    return false;
  bool Ok = true;
  while (dirent *E = ::readdir(D))
    if (E->d_name[0] != '.')
      Ok &= ::sched_setaffinity(static_cast<pid_t>(std::atoi(E->d_name)),
                                sizeof(Mask), &Mask) == 0;
  ::closedir(D);
  return Ok;
}

/// Pins every thread of the process, and the threads it starts meanwhile,
/// to the last allowed CPU while it lives. On a VM on shared cores a
/// request handed to a thread on another idle vCPU cost 0.08 or 0.22 ms,
/// depending on where the scheduler had settled the threads, so serving
/// latency was bimodal from run to run; on one CPU every hand-off is a
/// local context switch. Single-threaded phases stay unpinned: there the
/// scheduler steers clear of a vCPU its neighbours slow down, and pinning
/// measured worse.
class ProcessPin {
public:
  ProcessPin() {
    if (::sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    int Last = -1;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Saved))
        Last = Cpu;
    if (Last < 0)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Last, &One);
    Pinned = setProcessAffinity(One);
  }
  ~ProcessPin() {
    if (Pinned)
      setProcessAffinity(Saved);
  }
  ProcessPin(const ProcessPin &) = delete;
  ProcessPin &operator=(const ProcessPin &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// Steady execution
//===----------------------------------------------------------------------===//

namespace {

/// A fresh executor run through its reference prefix (checked).
std::unique_ptr<Runner> freshRunner(Context &C, size_t I, bool Native) {
  Span S("exec.fresh_runner");
  auto R = std::make_unique<Runner>(C.Progs[I], Native);
  std::string Error = R->runTo(RefOutputs);
  if (Error.empty())
    Error = R->checkPrefix(C.Refs[I], RefOutputs);
  C.Res.op(std::string(Native ? "native" : "tape") + " run " + C.Names[I],
           Error);
  return Error.empty() ? std::move(R) : nullptr;
}

/// Outputs per slot so that one slot takes about SlotSeconds.
size_t calibrateQuantum(Runner &R) {
  size_t Q = 64;
  for (;;) {
    size_t Before = R.produced();
    Clock::time_point T0 = Clock::now();
    if (!R.runTo(Before + Q).empty())
      return 0;
    double T = since(T0);
    if (T >= SlotSeconds / 4 || Q >= (size_t(1) << 22)) {
      size_t Out = R.produced() - Before;
      double PerOut = T / static_cast<double>(Out ? Out : 1);
      return std::max<size_t>(1, static_cast<size_t>(SlotSeconds / PerOut));
    }
    Q *= 4;
  }
}

} // namespace

SteadyPhase::SteadyPhase(Context &C, bool Native)
    : C(C), Native(Native), Runners(C.Graphs.size()),
      Quantum(C.Graphs.size(), 0), Slots(C.Graphs.size()),
      Firings(C.Graphs.size(), 0), Outputs(C.Graphs.size(), 0) {
  Span S("exec.steady_setup");
  for (size_t I = 0; I != C.Graphs.size(); ++I) {
    if (!C.Progs[I] || !(Runners[I] = freshRunner(C, I, Native)) ||
        !(Quantum[I] = calibrateQuantum(*Runners[I]))) {
      Ok = false;
      return;
    }
  }
}

bool SteadyPhase::run(double Seconds) {
  Clock::time_point Start = Clock::now();
  while (Ok) {
    Span Round("steady.round");
    for (size_t I : C.shuffledOrder()) {
      if (Runners[I]->produced() > RecreateAfterOutputs &&
          !(Runners[I] = freshRunner(C, I, Native))) {
        Ok = false;
        break;
      }
      Runner &R = *Runners[I];
      Span S(Native ? "exec.slot" : "exec.tape_slot");
      size_t Before = R.produced();
      uint64_t F0 = R.firings();
      Clock::time_point T0 = Clock::now();
      std::string Error = R.runTo(Before + Quantum[I]);
      double T = since(T0);
      size_t Out = R.produced() - Before;
      if (Error.empty() && !Out)
        Error = "slot produced no outputs";
      if (!Error.empty()) {
        C.Res.op("slot " + C.Names[I], Error);
        Ok = false;
        break;
      }
      S.count("graph", static_cast<double>(I));
      S.count("outputs", static_cast<double>(Out));
      Slots[I].push_back(T * 1e9 / static_cast<double>(Out));
      Firings[I] += R.firings() - F0;
      Outputs[I] += Out;
    }
    if (since(Start) >= Seconds)
      break;
  }
  return Ok;
}

void SteadyPhase::report() const {
  C.Res.op(std::string(Native ? "native" : "tape") + " steady phase",
           Ok ? "" : "did not complete");
  if (!Ok)
    return;
  std::vector<double> Ns, PerOut;
  for (size_t I = 0; I != C.Names.size(); ++I) {
    Ns.push_back(quantile(Slots[I], 0.25));
    PerOut.push_back(static_cast<double>(Firings[I]) /
                     static_cast<double>(Outputs[I]));
    C.Res.set("exec." + C.Names[I] +
                  (Native ? ".ns_per_output" : ".tape_ns_per_output"),
              Ns.back(), "ns");
  }
  if (!Native)
    return;
  C.Res.set("ns_per_output", geomean(Ns), "ns");
  C.Res.set("exec.firings_per_output", geomean(PerOut), "count");
}

void flopsPhase(Context &C) {
  Span S("measure.flops");
  std::vector<double> Per;
  for (size_t I = 0; I != C.Graphs.size(); ++I) {
    if (!C.Progs[I]) {
      C.Res.op("flops " + C.Names[I], "no program");
      continue;
    }
    Span A("exec.counted_run");
    FlopCount F = countFlops(C.Progs[I], RefOutputs, 4 * RefOutputs);
    C.Res.op("flops " + C.Names[I], F.Error);
    if (!F.Error.empty())
      continue;
    A.count("flops_per_output", F.FlopsPerOutput);
    C.Res.set("exec." + C.Names[I] + ".flops_per_output", F.FlopsPerOutput,
              "flop");
    Per.push_back(F.FlopsPerOutput);
  }
  if (Per.size() == C.Graphs.size())
    C.Res.set("flops_per_output", geomean(Per), "flop");
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

namespace {

std::vector<ServeRequest> requestClasses() {
  std::vector<ServeRequest> Classes;
  for (const std::string &G : lightGraphs())
    for (bool Native : {false, true})
      for (bool Latency : {false, true})
        for (uint32_t Size : {32u, 64u, 128u, 256u}) {
          ServeRequest R;
          R.Graph = G;
          R.Native = Native;
          R.Latency = Latency;
          R.Outputs = Size;
          Classes.push_back(R);
        }
  return Classes;
}

/// A seeded mix of \p Blocks blocks, each holding every (graph, engine,
/// mode, size) class once, in seeded order. The classes' service times
/// differ tenfold, so fixed shares keep the latency percentiles from
/// moving with the draw.
std::vector<ServeRequest> drawMix(std::mt19937_64 &Rng, size_t Blocks) {
  std::vector<ServeRequest> Classes = requestClasses();
  std::vector<ServeRequest> Mix;
  for (size_t B = 0; B != Blocks; ++B) {
    for (size_t I = Classes.size(); I > 1; --I)
      std::swap(Classes[I - 1], Classes[Rng() % I]);
    Mix.insert(Mix.end(), Classes.begin(), Classes.end());
  }
  return Mix;
}

std::string checkReply(const Context &C, const ServeRequest &R,
                       const ServeReply &Reply) {
  if (!Reply.Error.empty())
    return Reply.Error;
  if (Reply.Degraded)
    return "served degraded";
  const std::vector<double> &Ref = C.Refs[C.indexOf(R.Graph)];
  size_t Need = std::min<size_t>(R.Outputs, Ref.size());
  if (Reply.Outputs.size() < Need)
    return "short reply";
  size_t N = std::min(Reply.Outputs.size(), Ref.size());
  for (size_t I = 0; I != N; ++I)
    if (std::memcmp(&Reply.Outputs[I], &Ref[I], sizeof(double)) != 0)
      return "output " + std::to_string(I) + " differs from the reference";
  return std::string();
}

/// The highest percentile with at least ten samples beyond it: its
/// index in \p Sorted, or Sorted.size() when there are too few samples.
size_t tailIndex(const std::vector<double> &Sorted) {
  return Sorted.size() < 21 ? Sorted.size() : Sorted.size() - 11;
}

} // namespace

std::string startServer(Context &C, Server &Srv, const std::string &Path) {
  Span S("service.start");
  std::string Error = Srv.start(Path, lightGraphs(), ServeWorkersPerGraph);
  if (!Error.empty())
    return Error;
  Connection Conn;
  if (!(Error = Conn.open(Path)).empty())
    return Error;
  // One request per graph and engine: pools and native modules resolved.
  for (const std::string &G : lightGraphs())
    for (bool Native : {false, true}) {
      ServeRequest R;
      R.Graph = G;
      R.Native = Native;
      R.Outputs = RefOutputs;
      std::string E = checkReply(C, R, Conn.run(R));
      if (!E.empty())
        return "warm-up request to " + G + ": " + E;
    }
  return std::string();
}

ServePhase::ServePhase(Context &C) : C(C) {
  Span S("service.setup");
  for (const std::string &G : lightGraphs())
    if (C.indexOf(G) == C.Names.size()) {
      C.Res.op("serve", "graph set lacks " + G);
      return;
    }
  // Thread budget: ServeClients client threads, one session per
  // connection and one pool worker per graph. Each request is on one of
  // them at a time, so at most ServeClients threads are runnable at once.
  std::string Path = C.WorkDir + "/serve.sock";
  std::string Error = startServer(C, Srv, Path);
  C.Res.op("server start", Error);
  if (!Error.empty())
    return;
  Conns.resize(ServeClients);
  for (Connection &Conn : Conns) {
    Error = Conn.open(Path);
    C.Res.op("connect", Error);
    if (!Error.empty())
      return;
  }
  Before = Conns[0].serverCounters();
  Ok = true;
}

ServePhase::~ServePhase() {
  Conns.clear();
  Srv.stop();
}

void ServePhase::openLoop(double Seconds) {
  if (!Ok)
    return;
  // The schedule and the mix come from the seed; each request is timed
  // from its due time, so a stall shows in the requests queued behind it.
  size_t Blocks = std::max<size_t>(
      1, static_cast<size_t>(std::lround(Seconds * OpenRatePerSecond /
                                         requestClasses().size())));
  std::vector<ServeRequest> Mix = drawMix(C.Rng, Blocks);
  size_t N = Mix.size();
  std::vector<double> DueOffset(N);
  std::uniform_real_distribution<double> Jitter(0.0, 0.5 / OpenRatePerSecond);
  for (size_t I = 0; I != N; ++I)
    DueOffset[I] = static_cast<double>(I) / OpenRatePerSecond + Jitter(C.Rng);
  size_t First = Samples.size();
  SliceStarts.push_back(First);
  Samples.resize(First + N);
  uint64_t FirstId = NextRequestId;
  NextRequestId += N;
  std::atomic<size_t> Next{0};
  Span Open("serve.open_loop");
  uint32_t OpenId = Open.id();
  ProcessPin Pin;
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  auto Client = [&](Connection &Conn) {
    for (size_t I; (I = Next.fetch_add(1)) < N;) {
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(DueOffset[I]));
      std::this_thread::sleep_until(Due);
      Span Req("service.request", FirstId + I, OpenId);
      Clock::time_point Sent = Clock::now();
      ServeReply Reply = Conn.run(Mix[I]);
      Clock::time_point Got = Clock::now();
      Req.count("graph", static_cast<double>(C.indexOf(Mix[I].Graph)));
      Req.count("native", Mix[I].Native);
      Req.count("latency_mode", Mix[I].Latency);
      Req.count("outputs", Mix[I].Outputs);
      Req.count("server_s", Reply.ServerSeconds);
      ServeSample &S = Samples[First + I];
      S.LagMs = std::chrono::duration<double, std::milli>(Sent - Due).count();
      S.RoundTripMs =
          std::chrono::duration<double, std::milli>(Got - Sent).count();
      S.ServerMs = Reply.ServerSeconds * 1e3;
      if (Mix[I].Latency)
        S.FirstOutputMs = Reply.FirstOutputSeconds * 1e3;
      std::string Err = checkReply(C, Mix[I], Reply);
      C.Res.op("request " + Mix[I].Graph, Err);
      if (Err.empty())
        S.LatencyMs =
            std::chrono::duration<double, std::milli>(Got - Due).count();
    }
  };
  std::vector<std::thread> Threads;
  for (Connection &Conn : Conns)
    Threads.emplace_back(Client, std::ref(Conn));
  for (std::thread &T : Threads)
    T.join();
}

void ServePhase::closedLoop(double Seconds) {
  if (!Ok)
    return;
  // Capacity is the upper quartile over short windows of completions per
  // second on one connection (see HostStates in phases.h). Two
  // connections on one CPU interleaved differently from process to
  // process.
  std::vector<ServeRequest> Mix = drawMix(C.Rng, 1);
  std::vector<double> DoneAt;
  Span Closed("serve.closed_loop");
  uint32_t ClosedId = Closed.id();
  ProcessPin Pin;
  Clock::time_point Start = Clock::now();
  for (size_t I = 0; since(Start) < Seconds; ++I) {
    const ServeRequest &R = Mix[I % Mix.size()];
    Span Req("service.request", NextRequestId++, ClosedId);
    ServeReply Reply = Conns[0].run(R);
    std::string Err = checkReply(C, R, Reply);
    C.Res.op("request " + R.Graph, Err);
    if (Err.empty())
      DoneAt.push_back(since(Start));
  }
  size_t Windows = static_cast<size_t>(Seconds / CapacityWindowSeconds);
  std::vector<double> Count(std::max<size_t>(1, Windows), 0.0);
  for (double T : DoneAt)
    if (size_t W = static_cast<size_t>(T / CapacityWindowSeconds);
        W < Count.size())
      Count[W] += 1.0;
  for (double Done : Count)
    WindowRps.push_back(Done / CapacityWindowSeconds);
  Closed.count("completed", static_cast<double>(DoneAt.size()));
}

void ServePhase::report() {
  if (!Ok)
    return;
  std::vector<double> Lat, Server, Overhead, FirstOut;
  double MaxLag = 0.0;
  for (const ServeSample &S : Samples) {
    if (S.LatencyMs < 0)
      continue;
    Lat.push_back(S.LatencyMs);
    Server.push_back(S.ServerMs);
    Overhead.push_back(S.RoundTripMs - S.ServerMs);
    if (S.FirstOutputMs >= 0)
      FirstOut.push_back(S.FirstOutputMs);
    MaxLag = std::max(MaxLag, S.LagMs);
  }
  // The tail is taken per open-loop slice and reported as the median over
  // slices: a burst of outside contention inflates the tail of the slice
  // it hits, and a tail over the whole run moved with how many slices were
  // hit.
  std::vector<double> SliceTails;
  double TailPct = 0.0;
  for (size_t K = 0; K != SliceStarts.size(); ++K) {
    size_t End = K + 1 == SliceStarts.size() ? Samples.size()
                                             : SliceStarts[K + 1];
    std::vector<double> Ms;
    for (size_t I = SliceStarts[K]; I != End; ++I)
      if (Samples[I].LatencyMs >= 0)
        Ms.push_back(Samples[I].LatencyMs);
    std::sort(Ms.begin(), Ms.end());
    size_t T = tailIndex(Ms);
    if (T == Ms.size())
      continue;
    SliceTails.push_back(Ms[T]);
    TailPct = 100.0 * static_cast<double>(T) / static_cast<double>(Ms.size() - 1);
  }
  C.Res.op("latency samples",
           SliceTails.size() == SliceStarts.size() && !SliceTails.empty()
               ? ""
               : "an open-loop slice had too few samples for a tail");
  C.Res.set("latency_ms.p50", median(Lat), "ms");
  C.Res.set("latency_ms.tail", median(SliceTails), "ms");
  C.Res.set("loadgen.samples", static_cast<double>(Lat.size()), "count");
  C.Res.set("loadgen.tail_percentile", TailPct, "%");
  std::fprintf(stderr,
               "latency: p50 %.3f ms over %zu samples; tail p%.2f %.3f ms, "
               "median over %zu slices of %zu\n",
               median(Lat), Lat.size(), TailPct, median(SliceTails),
               SliceTails.size(), Lat.size() / std::max<size_t>(1, SliceTails.size()));
  C.Res.set("service.server_ms.p50", median(Server), "ms");
  C.Res.set("service.overhead_ms.p50", median(Overhead), "ms");
  C.Res.set("service.first_output_ms.p50", median(FirstOut), "ms");
  C.Res.set("loadgen.lag_ms.max", MaxLag, "ms");
  C.Res.set("capacity_rps", quantile(WindowRps, 0.75), "req/s");

  std::vector<std::pair<std::string, uint64_t>> After =
      Conns[0].serverCounters();
  for (const char *K : {"rejected", "degraded", "timeouts"}) {
    std::string Name = std::string("service.") + K;
    double Delta = static_cast<double>(counter(After, Name)) -
                   static_cast<double>(counter(Before, Name));
    C.Res.set(Name, Delta, "count");
  }
  C.Res.op("server counters", After.empty() ? "stats request failed" : "");
}

//===----------------------------------------------------------------------===//
// Per-layer extras
//===----------------------------------------------------------------------===//

namespace {

/// Effective parallelism of this host: a fixed spin loop on nproc
/// threads against one thread. The parallel pass runs twice and the
/// second counts: on a VM the first burst on idle vCPUs ran at about one
/// core's worth for its first second or so.
double effectiveCores(unsigned Nproc) {
  auto Spin = [] {
    volatile uint64_t Sink = 0;
    uint64_t X = 88172645463325252ull;
    for (int I = 0; I != 100000000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Sink = X;
    (void)Sink;
  };
  auto Parallel = [&] {
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != Nproc; ++I)
      Threads.emplace_back(Spin);
    for (std::thread &T : Threads)
      T.join();
    return since(T0);
  };
  Clock::time_point T0 = Clock::now();
  Spin();
  double One = since(T0);
  Parallel();
  return static_cast<double>(Nproc) * One / Parallel();
}

} // namespace

void layerExtras(Context &C) {
  Span S("measure.layer_extras");
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());
  {
    Span H("host.calibrate");
    C.Res.set("host.effective_cores", effectiveCores(Nproc), "cores");
  }

  // Op-tape steady speed, the engine every non-native request runs.
  {
    Span T("measure.tape_steady");
    SteadyPhase Tape(C, false);
    Tape.run(0.5);
    Tape.report();
  }

  // One sharded tape pass per graph: counts, and a speedup that is only
  // meaningful next to host.effective_cores.
  {
    Span P("measure.sharded");
    int Workers = static_cast<int>(std::min(4u, Nproc));
    double Warmup = 0.0, Total = 0.0, Fallbacks = 0.0;
    for (size_t I = 0; I != C.Graphs.size(); ++I) {
      if (!C.Progs[I])
        continue;
      Span A("exec.sharded_pass");
      ShardOutcome Probe = shardedPass(C.Progs[I], Workers, 64);
      int64_t Iters = 64;
      if (Probe.Error.empty() && Probe.SequentialSeconds > 0)
        Iters = std::max<int64_t>(
            64, static_cast<int64_t>(64 * 0.05 / Probe.SequentialSeconds));
      ShardOutcome O = Probe.Error.empty()
                           ? shardedPass(C.Progs[I], Workers, Iters)
                           : Probe;
      C.Res.op("sharded " + C.Names[I], O.Error);
      if (!O.Error.empty())
        continue;
      A.count("iterations", static_cast<double>(O.Iterations));
      A.count("warmup_iterations", static_cast<double>(O.WarmupIterations));
      Warmup += static_cast<double>(O.WarmupIterations);
      Total += static_cast<double>(O.Iterations + O.WarmupIterations);
      Fallbacks += O.FellBack;
      C.Res.set("parallel." + C.Names[I] + ".speedup",
                O.SequentialSeconds / O.ShardedSeconds, "x");
    }
    C.Res.set("parallel.washout_share", Total ? Warmup / Total : 0.0, "ratio");
    C.Res.set("parallel.fallbacks", Fallbacks, "count");
  }

  // Executor instantiation over a shared program, and the client-side
  // codec on a representative frame.
  for (size_t I = 0; I != C.Graphs.size(); ++I)
    if (C.Progs[I] && C.Names[I] == "FIR") {
      Span A("exec.instantiate_probe");
      C.Res.set("exec.instantiate_us", instantiateMicros(C.Progs[I], 200),
                "us");
      ServeRequest R;
      R.Graph = C.Names[I];
      R.Outputs = RefOutputs;
      ServeReply Reply;
      Reply.Outputs = C.Refs[I];
      double Us = codecMicros(R, Reply, 2000);
      C.Res.op("codec round trip", Us < 0 ? "decode failed" : "");
      C.Res.set("service.codec_us", Us, "us");
    }
}

} // namespace bench
