//===- perfbench/src/adapter.cpp - The benchmark's only door into slin ----===//
///
/// \file
/// The one translation unit of the benchmark that includes library
/// headers. See adapter.h.
///
//===----------------------------------------------------------------------===//

#include "adapter.h"

#include "apps/Benchmarks.h"
#include "codegen/CxxBackend.h"
#include "codegen/NativeModule.h"
#include "compiler/AnalysisManager.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "exec/Measure.h"
#include "exec/Parallel.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/OpCounters.h"
#include "support/RuntimeConfig.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sys/stat.h>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

using Clock = std::chrono::steady_clock;

namespace {

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Printed values for void->void graphs, external channel items
/// otherwise — the same choice collectOutputs makes.
const std::vector<double> &observable(const std::vector<double> &Printed,
                                      const std::vector<double> &Ext) {
  return Printed.empty() ? Ext : Printed;
}

std::string firstMismatch(const std::vector<double> &Got,
                          const std::vector<double> &Ref, size_t MinLen) {
  size_t Need = std::min(MinLen, Ref.size());
  if (Got.size() < Need)
    return "only " + std::to_string(Got.size()) + " of " +
           std::to_string(Need) + " outputs";
  size_t N = std::min(Got.size(), Ref.size());
  if (N && std::memcmp(Got.data(), Ref.data(), N * sizeof(double)) != 0)
    for (size_t I = 0; I != N; ++I)
      if (std::memcmp(&Got[I], &Ref[I], sizeof(double)) != 0) {
        char Buf[128];
        std::snprintf(Buf, sizeof(Buf), "output %zu is %.17g, reference %.17g",
                      I, Got[I], Ref[I]);
        return Buf;
      }
  return std::string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Process state and host
//===----------------------------------------------------------------------===//

std::string inheritedStateProblem() {
  slin::RuntimeConfig C = slin::RuntimeConfig::fromEnv();
  std::string Why;
  auto Flag = [&](bool Set, const char *Var) {
    if (Set)
      Why += std::string(Why.empty() ? "" : ", ") + Var;
  };
  Flag(!C.ArtifactDir.empty(), "SLIN_ARTIFACT_DIR");
  Flag(C.NoCache, "SLIN_NO_CACHE");
  Flag(C.Verify, "SLIN_VERIFY");
  Flag(!C.FaultSpec.empty(), "SLIN_FAULT");
  Flag(!C.Cxx.empty(), "SLIN_CXX");
  Flag(C.NoNative, "SLIN_NO_NATIVE");
  Flag(C.RunDeadlineMillis != 0, "SLIN_RUN_DEADLINE_MS");
  Flag(C.StoreMaxBytes != 0, "SLIN_STORE_MAX_BYTES");
  Flag(C.StoreTtlSeconds != 0, "SLIN_STORE_TTL_S");
  return Why.empty() ? Why : "inherited " + Why + " must be unset";
}

void useStore(const std::string &Dir) {
  slin::ArtifactStore::setGlobalDir(Dir);
}

void clearProcessCaches() {
  slin::ProgramCache::global().clear();
  slin::codegen::NativeModuleCache::global().clear();
  slin::AnalysisManager::global().invalidate();
}

Fingerprint hostFingerprint() {
  Fingerprint F;
  F.Nproc = std::thread::hardware_concurrency();
  std::ifstream In("/proc/cpuinfo");
  for (std::string Line; std::getline(In, Line);)
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      F.CpuModel = Colon == std::string::npos ? Line : Line.substr(Colon + 2);
      break;
    }
  F.BuildCompiler = __VERSION__;
  std::string Cxx = slin::codegen::discoverCompiler();
  if (!Cxx.empty())
    if (FILE *P = ::popen((Cxx + " --version 2>/dev/null").c_str(), "r")) {
      char Buf[256] = {0};
      if (std::fgets(Buf, sizeof(Buf), P))
        F.CodegenCompiler = Cxx + ": " + std::string(Buf, std::strcspn(Buf, "\n"));
      ::pclose(P);
    }
  F.BuildType = PERFBENCH_BUILD_TYPE;
  F.CountOps = SLIN_COUNT_OPS != 0;
  return F;
}

//===----------------------------------------------------------------------===//
// Graphs, compiles and executors
//===----------------------------------------------------------------------===//

std::vector<std::string> appNames() {
  std::vector<std::string> Names;
  for (const auto &B : slin::apps::allBenchmarks())
    Names.push_back(B.Name);
  return Names;
}

struct GraphImpl {
  slin::StreamPtr Root;
};

Graph Graph::build(const std::string &Name) {
  Graph G;
  for (const auto &B : slin::apps::allBenchmarks())
    if (B.Name == Name)
      G.Impl = std::make_shared<GraphImpl>(GraphImpl{B.Build()});
  return G;
}

std::vector<double> Graph::referenceOutputs(size_t N) const {
  // The AutoSel rewrite reassociates arithmetic, so the oracle interprets
  // the graph the compiled programs were lowered from, not the source.
  slin::PipelineOptions Opts;
  Opts.Mode = slin::OptMode::AutoSel;
  Opts.Exec.Eng = slin::Engine::Dynamic;
  Opts.VerifyAfterEachPass = false;
  slin::Expected<slin::CompileResult> ER =
      slin::CompilerPipeline(Opts).tryCompile(*Impl->Root);
  if (!ER.hasValue() || ER->Degraded || !ER->Optimized)
    return {};
  return slin::collectOutputs(*ER->Optimized, N, slin::Engine::Dynamic);
}

struct ProgramImpl {
  slin::CompiledProgramRef Prog;
  slin::codegen::NativeModuleRef Native;
};

CompileOutcome compileNative(const Graph &G) {
  CompileOutcome Out;
  slin::PipelineOptions Opts;
  Opts.Mode = slin::OptMode::AutoSel;
  Opts.Exec.Eng = slin::Engine::Native;
  Opts.VerifyAfterEachPass = false;
  slin::Expected<slin::CompileResult> ER =
      slin::CompilerPipeline(Opts).tryCompile(*G.Impl->Root);
  if (!ER.hasValue()) {
    Out.Error = ER.status().str();
    return Out;
  }
  slin::CompileResult R = ER.take();
  for (const slin::PassInfo &P : R.Passes)
    Out.Passes.push_back({P.Name, P.Seconds});
  if (R.Degraded) {
    Out.Error = "degraded: " + R.DegradeReason;
    return Out;
  }
  if (!R.Program) {
    Out.Error = "no program";
    return Out;
  }
  // A memory hit: the native-codegen pass already resolved the module.
  std::string Why;
  slin::codegen::NativeModuleRef M =
      slin::codegen::NativeModuleCache::global().get(*R.Program, &Why);
  if (!M) {
    Out.Error = "no native module: " + Why;
    return Out;
  }
  Out.Prog.Impl = std::make_shared<ProgramImpl>(ProgramImpl{R.Program, M});
  return Out;
}

struct RunnerImpl {
  slin::CompiledExecutor Exec;
  RunnerImpl(const ProgramImpl &P, bool Native)
      : Exec(P.Prog, Native ? P.Native : nullptr) {}
};

Runner::Runner(const Program &P, bool Native)
    : Impl(std::make_unique<RunnerImpl>(*P.Impl, Native)) {}
Runner::~Runner() = default;

std::string Runner::runTo(size_t Outputs) {
  slin::Status St = Impl->Exec.tryRun(Outputs);
  return St.isOk() ? std::string() : St.str();
}

size_t Runner::produced() const { return Impl->Exec.outputsProduced(); }

uint64_t Runner::firings() const { return Impl->Exec.firings(); }

std::string Runner::checkPrefix(const std::vector<double> &Ref,
                                size_t MinLen) const {
  const slin::CompiledExecutor &E = Impl->Exec;
  if (E.printed().empty()) {
    std::vector<double> Ext = E.outputSnapshot();
    return firstMismatch(Ext, Ref, MinLen);
  }
  return firstMismatch(E.printed(), Ref, MinLen);
}

FlopCount countFlops(const Program &P, size_t Warm, size_t Measure) {
  FlopCount Out;
  slin::CompiledExecutor E(P.Impl->Prog, P.Impl->Native);
  slin::ops::CountingScope Scope;
  slin::ops::reset();
  slin::Status St = E.tryRun(Warm);
  slin::OpCounts Before = slin::ops::counts();
  size_t OutBefore = E.outputsProduced();
  if (St.isOk())
    St = E.tryRun(OutBefore + Measure);
  if (!St.isOk()) {
    Out.Error = St.str();
    return Out;
  }
  size_t Outs = E.outputsProduced() - OutBefore;
  uint64_t Flops = (slin::ops::counts() - Before).flops();
  if (!Outs || !Flops) {
    Out.Error = "counted run produced no outputs or no FLOPs";
    return Out;
  }
  Out.FlopsPerOutput = static_cast<double>(Flops) / static_cast<double>(Outs);
  return Out;
}

ShardOutcome shardedPass(const Program &P, int Workers, int64_t Iters) {
  ShardOutcome Out;
  slin::ParallelOptions PO = P.Impl->Prog->options().Parallel;
  PO.Workers = Workers;
  std::vector<double> SeqOut, ParOut;
  {
    slin::CompiledExecutor E(P.Impl->Prog, nullptr);
    Clock::time_point T0 = Clock::now();
    slin::Status St = E.tryRunIterations(Iters);
    Out.SequentialSeconds = secondsSince(T0);
    if (!St.isOk()) {
      Out.Error = "sequential: " + St.str();
      return Out;
    }
    SeqOut = observable(E.printed(), E.outputSnapshot());
  }
  slin::ParallelExecutor E(P.Impl->Prog, PO);
  Clock::time_point T0 = Clock::now();
  slin::Status St = E.tryRunIterations(Iters);
  Out.ShardedSeconds = secondsSince(T0);
  if (!St.isOk()) {
    Out.Error = "sharded: " + St.str();
    return Out;
  }
  ParOut = observable(E.printed(), E.outputSnapshot());
  const slin::ParallelExecutor::RunStats &RS = E.lastRunStats();
  Out.Iterations = RS.Iterations;
  Out.WarmupIterations = RS.WarmupIterations;
  Out.FellBack = RS.Sequential;
  if (SeqOut.size() != ParOut.size())
    Out.Error = "sharded pass produced " + std::to_string(ParOut.size()) +
                " outputs, sequential " + std::to_string(SeqOut.size());
  else if (std::string Why = firstMismatch(ParOut, SeqOut, SeqOut.size());
           !Why.empty())
    Out.Error = "sharded pass differs: " + Why;
  return Out;
}

double instantiateMicros(const Program &P, int Reps) {
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I != Reps; ++I) {
    slin::CompiledExecutor E(P.Impl->Prog, nullptr);
    (void)E.firings();
  }
  return secondsSince(T0) * 1e6 / Reps;
}

//===----------------------------------------------------------------------===//
// Layer counters
//===----------------------------------------------------------------------===//

LayerCounters layerCounters() {
  LayerCounters C;
  slin::AnalysisManager::Stats A = slin::AnalysisManager::global().stats();
  C.AnalysisHits = A.ExtractionHits + A.CombineHits;
  C.AnalysisMisses = A.ExtractionMisses + A.CombineMisses;
  slin::ProgramCache::Stats P = slin::ProgramCache::global().stats();
  C.ProgramDiskHits = P.DiskHits;
  if (slin::ArtifactStore *S = slin::ArtifactStore::globalPeek()) {
    slin::ArtifactStore::Stats SS = S->stats();
    C.StorePublishFailures = SS.PublishFailures;
  }
  slin::codegen::NativeModuleCache::Stats N =
      slin::codegen::NativeModuleCache::global().stats();
  C.CodegenCompiles = N.Compiles;
  C.CodegenDiskHits = N.DiskHits;
  return C;
}

std::pair<uint64_t, uint64_t> storeBytes(const std::string &Dir) {
  std::pair<uint64_t, uint64_t> Bytes{0, 0};
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Bytes;
  while (dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    struct stat St;
    if (::stat((Dir + "/" + Name).c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    if (Name.rfind("a-", 0) == 0)
      Bytes.first += static_cast<uint64_t>(St.st_size);
    else if (Name.rfind("o-", 0) == 0)
      Bytes.second += static_cast<uint64_t>(St.st_size);
  }
  ::closedir(D);
  return Bytes;
}

//===----------------------------------------------------------------------===//
// Service
//===----------------------------------------------------------------------===//

struct ServerImpl {
  std::unique_ptr<slin::service::Server> Srv;
};

Server::Server() : Impl(std::make_unique<ServerImpl>()) {}
Server::~Server() { stop(); }

std::string Server::start(const std::string &Path,
                          const std::vector<std::string> &Graphs,
                          int Workers) {
  slin::service::ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = Graphs;
  Cfg.Service.Workers = Workers;
  // Warm state comes from the benchmark's own store, resolved through
  // the pipeline's alias records; a bulk prefetch would load every app.
  Cfg.Service.Prefetch = false;
  Impl->Srv = std::make_unique<slin::service::Server>(Cfg);
  slin::Status St = Impl->Srv->start();
  if (!St.isOk()) {
    Impl->Srv.reset();
    return St.str();
  }
  return std::string();
}

void Server::stop() {
  if (Impl->Srv) {
    Impl->Srv->stop();
    Impl->Srv.reset();
  }
}

namespace {

slin::service::RunRequest toWire(const ServeRequest &R) {
  slin::service::RunRequest W;
  W.Graph = R.Graph;
  W.Eng = R.Native ? slin::Engine::Native : slin::Engine::Compiled;
  W.Latency = R.Latency;
  W.NOutputs = R.Outputs;
  W.CountOps = R.CountOps;
  return W;
}

} // namespace

struct ConnectionImpl {
  std::unique_ptr<slin::service::Client> C;
};

Connection::Connection() : Impl(std::make_unique<ConnectionImpl>()) {}
Connection::~Connection() = default;
Connection::Connection(Connection &&) noexcept = default;
Connection &Connection::operator=(Connection &&) noexcept = default;

std::string Connection::open(const std::string &Path) {
  slin::Expected<slin::service::Client> EC =
      slin::service::Client::connectUnix(Path);
  if (!EC.hasValue())
    return EC.status().str();
  Impl->C = std::make_unique<slin::service::Client>(EC.take());
  return std::string();
}

ServeReply Connection::run(const ServeRequest &R) {
  ServeReply Out;
  if (!Impl->C) {
    Out.Error = "not connected";
    return Out;
  }
  slin::Expected<slin::service::RunResponse> ER = Impl->C->run(toWire(R));
  if (!ER.hasValue()) {
    Out.Error = ER.status().str();
    return Out;
  }
  slin::service::RunResponse Resp = ER.take();
  if (!Resp.St.isOk())
    Out.Error = Resp.St.str();
  Out.Degraded = Resp.Degraded;
  Out.Outputs = std::move(Resp.Outputs);
  Out.Flops = Resp.Flops;
  Out.ServerSeconds = Resp.ServerSeconds;
  Out.FirstOutputSeconds = Resp.FirstOutputSeconds;
  return Out;
}

std::vector<std::pair<std::string, uint64_t>> Connection::serverCounters() {
  if (!Impl->C)
    return {};
  slin::Expected<slin::StatsRegistry::Counters> EC = Impl->C->stats();
  if (!EC.hasValue())
    return {};
  return EC.take();
}

double codecMicros(const ServeRequest &R, const ServeReply &Reply, int Reps) {
  slin::service::Request Req;
  Req.Kind = slin::service::MsgKind::Run;
  Req.Run = toWire(R);
  slin::service::Response Resp;
  Resp.Kind = slin::service::MsgKind::Run;
  Resp.Run.Outputs = Reply.Outputs;
  Resp.Run.ServerSeconds = Reply.ServerSeconds;
  size_t Decoded = 0;
  Clock::time_point T0 = Clock::now();
  for (int I = 0; I != Reps; ++I) {
    slin::serial::Writer WReq, WResp;
    slin::service::encodeRequest(WReq, Req);
    slin::service::encodeResponse(WResp, Resp);
    slin::Expected<slin::service::Request> DReq =
        slin::service::decodeRequest(WReq.bytes());
    slin::Expected<slin::service::Response> DResp =
        slin::service::decodeResponse(WResp.bytes());
    Decoded += DReq.hasValue() && DResp.hasValue();
  }
  double Us = secondsSince(T0) * 1e6 / Reps;
  return Decoded == static_cast<size_t>(Reps) ? Us : -1.0;
}

} // namespace bench
