//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
///
/// \file
/// perfbench --workload batch|compile-cold|serve --seed N --seconds S
///           --workdir DIR --out FILE [--trace FILE]
///
/// Runs one workload and writes every metric it measured, with units,
/// the operation counts and the host fingerprint, as one JSON object to
/// --out. With --trace, spans are recorded and written to that file, and
/// the per-layer extras run after the measured phases. perfbench/run.py
/// builds this binary and drives it.
///
//===----------------------------------------------------------------------===//

#include "adapter.h"
#include "phases.h"
#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <sys/resource.h>

using namespace bench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Runs \p Body \p Times times as top-level "setup" spans; returns the
/// median wall time.
double repeatedSetup(int Times, const std::function<void()> &Body) {
  std::vector<double> T;
  for (int I = 0; I != Times; ++I) {
    Span S("setup");
    Clock::time_point T0 = Clock::now();
    Body();
    T.push_back(since(T0));
  }
  return median(T);
}

/// Per-layer values of several rounds: the median of each.
void setLayerMedians(Results &Res,
                     const std::vector<std::map<std::string, double>> &Rounds,
                     const std::map<std::string, std::string> &Units) {
  for (const auto &U : Units) {
    std::vector<double> V;
    for (const auto &R : Rounds) {
      auto It = R.find(U.first);
      V.push_back(It == R.end() ? 0.0 : It->second);
    }
    Res.set(U.first, median(V), U.second);
  }
}

const std::map<std::string, std::string> &coldLayerUnits() {
  static const std::map<std::string, std::string> U = {
      {"compiler.selection_s", "s"},   {"compiler.cleanup_s", "s"},
      {"compiler.lower_s", "s"},       {"compiler.unattributed_s", "s"},
      {"analysis.hits", "count"},      {"analysis.misses", "count"},
      {"codegen.cxx_s", "s"},          {"codegen.compiles", "count"},
      {"store.bytes", "bytes"},        {"codegen.so_bytes", "bytes"},
      {"store.publish_failures", "count"}};
  return U;
}

const std::map<std::string, std::string> &warmLayerUnits() {
  static const std::map<std::string, std::string> U = {
      {"compiler.artifact_load_ms", "ms"},
      {"codegen.dlopen_ms", "ms"},
      {"store.disk_hits", "count"},
      {"codegen.disk_hits", "count"}};
  return U;
}

/// Every workload measures in rounds, each giving every phase a slice, so
/// that every metric samples the whole run (see SteadyPhase). These are
/// the slices of the phases a workload runs lightly, per round.
constexpr int Rounds = 4;
constexpr double LightSteadySeconds = 0.4;
constexpr double LightOpenSeconds = 1.2;
constexpr double LightClosedSeconds = 0.6;
/// Warm reloads per cold compile, or per round where the cold compiles
/// are set-up: a reload costs a few percent of a compile, so extra
/// samples are cheap.
constexpr int ReloadsPerCompile = 2;

/// Per-graph seconds and per-layer numbers of cold compiles and warm
/// reloads: per-graph lower quartiles (see HostStates in phases.h) and
/// per-layer medians.
struct CompileSamples {
  std::vector<std::vector<double>> Cold, Warm;
  std::vector<std::map<std::string, double>> ColdLayer, WarmLayer;

  void cold(Context &C) {
    ColdLayer.emplace_back();
    Cold.push_back(coldCompileSet(C, ColdLayer.back()));
  }
  void warm(Context &C) {
    WarmLayer.emplace_back();
    Warm.push_back(warmReloadSet(C, WarmLayer.back()));
  }
  void report(Context &C) const {
    C.Res.set("compile_s", sumOfLowerQuartiles(Cold), "s");
    C.Res.set("warm_load_ms", sumOfLowerQuartiles(Warm) * 1e3, "ms");
    setLayerMedians(C.Res, ColdLayer, coldLayerUnits());
    setLayerMedians(C.Res, WarmLayer, warmLayerUnits());
  }
};

/// batch: long steady native execution of the nine apps.
void runBatch(Context &C, double Seconds) {
  CompileSamples S;
  C.Res.set("setup_s", repeatedSetup(3, [&] {
              buildGraphs(C, appNames());
              S.cold(C);
            }),
            "s");
  SteadyPhase Steady(C, true);
  ServePhase Serve(C);
  {
    Span M("measure.rounds");
    for (int R = 0; R != Rounds; ++R) {
      Span Round("round");
      for (int I = 0; I != ReloadsPerCompile; ++I)
        S.warm(C);
      Steady.run(Seconds / Rounds);
      Serve.openLoop(LightOpenSeconds);
      Serve.closedLoop(LightClosedSeconds);
    }
  }
  S.report(C);
  Steady.report();
  Serve.report();
  flopsPhase(C);
}

/// compile-cold: rounds of cold compile then warm reload of the nine apps.
void runCompileCold(Context &C, double Seconds) {
  C.Res.set("setup_s",
            repeatedSetup(3, [&] { buildGraphs(C, appNames()); }), "s");
  CompileSamples S;
  std::unique_ptr<SteadyPhase> Steady;
  ServePhase Serve(C);
  {
    Span M("measure.rounds");
    // A round's cold compile takes about 4.5 s: a round per 4 s asked.
    int ColdRounds = std::max(2, static_cast<int>(std::lround(Seconds / 4)));
    for (int R = 0; R != ColdRounds; ++R) {
      Span Round("round");
      S.cold(C);
      for (int I = 0; I != ReloadsPerCompile; ++I)
        S.warm(C);
      if (!Steady)
        Steady = std::make_unique<SteadyPhase>(C, true);
      Steady->run(LightSteadySeconds);
      Serve.openLoop(LightOpenSeconds);
      Serve.closedLoop(LightClosedSeconds);
    }
  }
  S.report(C);
  Steady->report();
  Serve.report();
  flopsPhase(C);
}

/// serve: an in-process server over the light graphs, open then closed
/// loop in every round.
void runServe(Context &C, double Seconds) {
  CompileSamples S;
  C.Res.set("setup_s", repeatedSetup(3, [&] {
              buildGraphs(C, lightGraphs());
              S.cold(C);
              Server Srv;
              C.Res.op("server start",
                       startServer(C, Srv, C.WorkDir + "/setup.sock"));
            }),
            "s");
  SteadyPhase Steady(C, true);
  ServePhase Serve(C);
  {
    Span M("measure.rounds");
    for (int R = 0; R != Rounds; ++R) {
      Span Round("round");
      // Three light graphs compile in about 0.3 s: two samples a round.
      for (int K = 0; K != 2; ++K) {
        S.cold(C);
        for (int I = 0; I != ReloadsPerCompile; ++I)
          S.warm(C);
      }
      Steady.run(0.3 * Seconds / Rounds);
      Serve.openLoop(0.32 * Seconds / Rounds);
      Serve.closedLoop(0.38 * Seconds / Rounds);
    }
  }
  S.report(C);
  Steady.report();
  Serve.report();
  flopsPhase(C);
}

double peakRssMb() {
  struct rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out += Ch;
  }
  return Out + "\"";
}

bool writeResults(const std::string &Path, const Context &C,
                  const std::string &Workload, uint64_t Seed, double WallS,
                  const Fingerprint &F) {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\n\"workload\": %s,\n\"seed\": %llu,\n",
               jsonString(Workload).c_str(),
               static_cast<unsigned long long>(Seed));
  std::fprintf(Out, "\"attempted\": %llu,\n\"failed\": %llu,\n",
               static_cast<unsigned long long>(C.Res.attempted()),
               static_cast<unsigned long long>(C.Res.failed()));
  std::fprintf(Out, "\"failures\": [");
  std::vector<std::string> Fs = C.Res.failures();
  for (size_t I = 0; I != Fs.size(); ++I)
    std::fprintf(Out, "%s%s", I ? ", " : "", jsonString(Fs[I]).c_str());
  std::fprintf(Out, "],\n\"wall_s\": %.6f,\n", WallS);
  std::fprintf(Out,
               "\"host\": {\"nproc\": %u, \"cpu\": %s, \"build_compiler\": %s, "
               "\"codegen_compiler\": %s, \"build_type\": %s, "
               "\"count_ops\": %s},\n",
               F.Nproc, jsonString(F.CpuModel).c_str(),
               jsonString(F.BuildCompiler).c_str(),
               jsonString(F.CodegenCompiler).c_str(),
               jsonString(F.BuildType).c_str(), F.CountOps ? "true" : "false");
  std::fprintf(Out, "\"metrics\": {");
  bool First = true;
  for (const auto &M : C.Res.Metrics) {
    std::fprintf(Out, "%s\n  %s: {\"value\": %.9g, \"unit\": %s}",
                 First ? "" : ",", jsonString(M.first).c_str(),
                 M.second.Value, jsonString(M.second.Unit).c_str());
    First = false;
  }
  std::fprintf(Out, "\n}\n}\n");
  return std::fclose(Out) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch|compile-cold|serve "
               "--seed N --seconds S --workdir DIR --out FILE [--trace FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Clock::time_point Begin = Clock::now();
  std::string Workload, WorkDir, OutPath, TracePath;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      Workload = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Flag == "--workdir")
      WorkDir = Val;
    else if (Flag == "--out")
      OutPath = Val;
    else if (Flag == "--trace")
      TracePath = Val;
    else
      return usage();
  }
  if (Argc % 2 == 0 || Workload.empty() || WorkDir.empty() ||
      OutPath.empty() || Seconds <= 0)
    return usage();
  std::function<void(Context &, double)> Run;
  if (Workload == "batch")
    Run = runBatch;
  else if (Workload == "compile-cold")
    Run = runCompileCold;
  else if (Workload == "serve")
    Run = runServe;
  else
    return usage();

  if (std::string Why = inheritedStateProblem(); !Why.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
    return 2;
  }
  if (!TracePath.empty())
    trace::enable();

  Fingerprint F = hostFingerprint();
  std::fprintf(stderr,
               "host: nproc %u, cpu %s, built by %s (%s), codegen %s, "
               "count_ops %d\n",
               F.Nproc, F.CpuModel.c_str(), F.BuildCompiler.c_str(),
               F.BuildType.c_str(), F.CodegenCompiler.c_str(), F.CountOps);

  Context C;
  C.WorkDir = WorkDir;
  C.Rng.seed(Seed * 0x9E3779B97F4A7C15ull + std::hash<std::string>()(Workload));
  Run(C, Seconds);
  if (!TracePath.empty())
    layerExtras(C);

  C.Res.set("peak_rss_mb", peakRssMb(), "MB");
  double Attempted = static_cast<double>(C.Res.attempted());
  C.Res.set("failed_share",
            Attempted ? static_cast<double>(C.Res.failed()) / Attempted : 1.0,
            "ratio");
  double Wall = since(Begin);
  if (!TracePath.empty()) {
    std::vector<SpanRecord> Spans = trace::spans();
    double Top = 0.0;
    for (const SpanRecord &S : Spans)
      if (!S.Parent)
        Top += (S.EndNs - S.StartNs) * 1e-9;
    C.Res.set("trace.top_level_share", Top / Wall, "ratio");
    C.Res.set("trace.spans", static_cast<double>(Spans.size()), "count");
    for (const auto &T : trace::selfTimes(Spans))
      std::fprintf(stderr, "self %-28s n=%-6llu total %9.4f s self %9.4f s\n",
                   T.first.c_str(), static_cast<unsigned long long>(T.second.Count),
                   T.second.TotalSeconds, T.second.SelfSeconds);
    if (!trace::write(TracePath, Spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", TracePath.c_str());
      return 1;
    }
  }
  for (const std::string &Fail : C.Res.failures())
    std::fprintf(stderr, "FAILED %s\n", Fail.c_str());
  if (!writeResults(OutPath, C, Workload, Seed, Wall, F)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  return 0;
}
