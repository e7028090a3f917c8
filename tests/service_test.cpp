//===- tests/service_test.cpp - Stream service daemon and APIs ------------===//
//
// The serving stack end to end: RuntimeConfig (the one-parse SLIN_* API),
// StatsRegistry (the unified counter snapshot), the wire protocol's
// encode/decode and its untrusted-input rejection, and a live Server on a
// Unix socket — warm serving bit-identical to a local executor, latency
// vs throughput mode, per-request deadlines under an injected hang,
// queue-cap admission (Overloaded), native-engine degradation, and the
// prefetch path that makes a daemon restart zero compile passes.
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "codegen/NativeModule.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Pipeline.h"
#include "exec/CompiledExecutor.h"
#include "service/Admission.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/FaultInjection.h"
#include "support/OpCounters.h"
#include "support/RuntimeConfig.h"
#include "support/StatsRegistry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace slin;
using namespace slin::service;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

struct FaultGuard {
  FaultGuard() { faults::reset(); }
  ~FaultGuard() { faults::reset(); }
};

/// A scoped artifact directory for the process-global store (the service
/// tests exercise the prefetch path against it).
class StoreGuard {
public:
  StoreGuard() {
    Dir = (std::filesystem::temp_directory_path() /
           ("slin-service-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++)))
              .string();
    ArtifactStore::setGlobalDir(Dir);
    ProgramCache::global().clear();
    ProgramCache::global().resetStats();
  }
  ~StoreGuard() {
    ArtifactStore::setGlobalDir("");
    ProgramCache::global().clear();
    ProgramCache::global().resetStats();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

private:
  static int Counter;
  std::string Dir;
};

int StoreGuard::Counter = 0;

std::string freshSocketPath() {
  static int Counter = 0;
  return (std::filesystem::temp_directory_path() /
          ("slin-service-test-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter++) + ".sock"))
      .string();
}

/// The first \p N outputs of graph \p Name compiled locally with the
/// service's own options — the bit-identity reference for served runs.
std::vector<double> localReference(const std::string &Name, size_t N,
                                   OptMode Mode) {
  StreamPtr Root;
  for (const auto &B : apps::allBenchmarks())
    if (B.Name == Name)
      Root = B.Build();
  EXPECT_NE(Root, nullptr);
  PipelineOptions Opts;
  Opts.Mode = Mode;
  Opts.Exec.Eng = Engine::Compiled;
  CompileResult R = compileStream(*Root, Opts);
  CompiledExecutor E(R.Program);
  E.tryRun(N).orDie();
  std::vector<double> Out = R.Program->graph().RootProducesOutput
                                ? E.outputSnapshot()
                                : E.printed();
  if (Out.size() > N)
    Out.resize(N);
  return Out;
}

std::vector<double> firstN(std::vector<double> V, size_t N) {
  EXPECT_GE(V.size(), N);
  V.resize(N);
  return V;
}

//===----------------------------------------------------------------------===//
// RuntimeConfig: the unified SLIN_* environment API
//===----------------------------------------------------------------------===//

TEST(RuntimeConfig, FromEnvParsesEveryKnob) {
  ::setenv("SLIN_RUN_DEADLINE_MS", "1234", 1);
  ::setenv("SLIN_NO_CACHE", "", 1); // set-but-empty still disables
  ::setenv("SLIN_VERIFY", "1", 1);
  ::setenv("SLIN_FAULT", "exec-hang:1", 1);
  RuntimeConfig C = RuntimeConfig::fromEnv();
  EXPECT_EQ(C.RunDeadlineMillis, 1234);
  EXPECT_TRUE(C.NoCache);
  EXPECT_TRUE(C.Verify);
  EXPECT_EQ(C.FaultSpec, "exec-hang:1");

  ::setenv("SLIN_VERIFY", "0", 1); // "0" means off, unlike NO_CACHE
  EXPECT_FALSE(RuntimeConfig::fromEnv().Verify);

  ::unsetenv("SLIN_RUN_DEADLINE_MS");
  ::unsetenv("SLIN_NO_CACHE");
  ::unsetenv("SLIN_VERIFY");
  ::unsetenv("SLIN_FAULT");
  C = RuntimeConfig::fromEnv();
  EXPECT_EQ(C.RunDeadlineMillis, 0);
  EXPECT_FALSE(C.NoCache);
  EXPECT_TRUE(C.FaultSpec.empty());
}

TEST(RuntimeConfig, NumericKnobsAcceptOnlyWholeNonNegativeIntegers) {
  // A suffixed, negative or empty value counts as unset (0), never as
  // the number a prefix parse would salvage from it.
  struct Knob {
    const char *Name;
    const char *Suffixed;
    uint64_t (*Field)(const RuntimeConfig &);
  };
  const Knob Knobs[] = {
      {"SLIN_STORE_MAX_BYTES", "10M",
       [](const RuntimeConfig &C) { return C.StoreMaxBytes; }},
      {"SLIN_STORE_TTL_S", "1h",
       [](const RuntimeConfig &C) {
         return static_cast<uint64_t>(C.StoreTtlSeconds);
       }},
      {"SLIN_RUN_DEADLINE_MS", "5s", [](const RuntimeConfig &C) {
         return static_cast<uint64_t>(C.RunDeadlineMillis);
       }}};
  for (const Knob &K : Knobs) {
    SCOPED_TRACE(K.Name);
    ::setenv(K.Name, "250", 1);
    EXPECT_EQ(K.Field(RuntimeConfig::fromEnv()), 250u);
    ::setenv(K.Name, K.Suffixed, 1);
    EXPECT_EQ(K.Field(RuntimeConfig::fromEnv()), 0u);
    ::setenv(K.Name, "-1", 1);
    EXPECT_EQ(K.Field(RuntimeConfig::fromEnv()), 0u);
    ::setenv(K.Name, "", 1);
    EXPECT_EQ(K.Field(RuntimeConfig::fromEnv()), 0u);
    ::unsetenv(K.Name);
  }
}

TEST(RuntimeConfig, SnapshotRefreshesOnDemandNotPerRead) {
  ::unsetenv("SLIN_RUN_DEADLINE_MS");
  RuntimeConfig::refreshFromEnv();
  EXPECT_EQ(RuntimeConfig::current().RunDeadlineMillis, 0);

  // Mutating the environment does NOT move the snapshot...
  ::setenv("SLIN_RUN_DEADLINE_MS", "77", 1);
  EXPECT_EQ(RuntimeConfig::current().RunDeadlineMillis, 0);
  // ...until a refresh republishes it.
  RuntimeConfig::refreshFromEnv();
  EXPECT_EQ(RuntimeConfig::current().RunDeadlineMillis, 77);

  ::unsetenv("SLIN_RUN_DEADLINE_MS");
  RuntimeConfig::refreshFromEnv();
}

//===----------------------------------------------------------------------===//
// StatsRegistry: the unified counter snapshot
//===----------------------------------------------------------------------===//

TEST(StatsRegistrySnapshot, PrefixesSortsAndUnregisters) {
  StatsRegistry &Reg = StatsRegistry::global();
  auto Count = [&](const std::string &Name) {
    int N = 0;
    for (const auto &KV : Reg.snapshot())
      if (KV.first == Name)
        ++N;
    return N;
  };
  {
    StatsRegistry::Registration R("svc-test", [](StatsRegistry::Counters &C) {
      C.emplace_back("zeta", 7);
      C.emplace_back("alpha", 1);
    });
    EXPECT_EQ(Count("svc-test.zeta"), 1);
    EXPECT_EQ(Count("svc-test.alpha"), 1);
    StatsRegistry::Counters Snap = Reg.snapshot();
    EXPECT_TRUE(std::is_sorted(
        Snap.begin(), Snap.end(),
        [](const auto &A, const auto &B) { return A.first < B.first; }));
  }
  EXPECT_EQ(Count("svc-test.zeta"), 0); // RAII unregistration
}

TEST(StatsRegistrySnapshot, BuiltInSubsystemsAreRegistered) {
  StatsRegistry::Counters Snap = StatsRegistry::global().snapshot();
  auto Has = [&](const std::string &Name) {
    for (const auto &KV : Snap)
      if (KV.first == Name)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("program-cache.hits"));
  EXPECT_TRUE(Has("program-cache.misses"));
  EXPECT_TRUE(Has("native-cache.compiles"));
  EXPECT_TRUE(Has("analysis.extraction_hits"));
}

TEST(StatsRegistrySnapshot, JsonRendersFlatObject) {
  StatsRegistry::Counters C;
  C.emplace_back("a.x", 1);
  C.emplace_back("b.y", 22);
  EXPECT_EQ(StatsRegistry::json(C), "{\"a.x\":1,\"b.y\":22}");
}

//===----------------------------------------------------------------------===//
// Wire protocol: round-trips and untrusted-input rejection
//===----------------------------------------------------------------------===//

TEST(Protocol, RequestRoundTripsEveryKind) {
  Request Req;
  Req.Kind = MsgKind::Run;
  Req.Run.Graph = "FIR";
  Req.Run.Eng = Engine::Parallel;
  Req.Run.Latency = true;
  Req.Run.NOutputs = 4096;
  Req.Run.DeadlineMillis = 1500;
  Req.Run.CountOps = true;
  Req.Run.Input = {1.5, -2.25, 3.0};

  serial::Writer W;
  encodeRequest(W, Req);
  Expected<Request> ER = decodeRequest(W.bytes());
  ASSERT_TRUE(ER.hasValue()) << ER.status().str();
  Request Back = ER.take();
  EXPECT_EQ(Back.Kind, MsgKind::Run);
  EXPECT_EQ(Back.Run.Graph, "FIR");
  EXPECT_EQ(Back.Run.Eng, Engine::Parallel);
  EXPECT_TRUE(Back.Run.Latency);
  EXPECT_EQ(Back.Run.NOutputs, 4096u);
  EXPECT_EQ(Back.Run.DeadlineMillis, 1500);
  EXPECT_TRUE(Back.Run.CountOps);
  EXPECT_EQ(Back.Run.Input, Req.Run.Input);

  for (MsgKind K : {MsgKind::Ping, MsgKind::Stats, MsgKind::ListGraphs,
                    MsgKind::Shutdown}) {
    Request Small;
    Small.Kind = K;
    serial::Writer SW;
    encodeRequest(SW, Small);
    Expected<Request> ES = decodeRequest(SW.bytes());
    ASSERT_TRUE(ES.hasValue());
    EXPECT_EQ(ES.take().Kind, K);
  }
}

TEST(Protocol, ResponseRoundTripsRunStatsAndLists) {
  Response Resp;
  Resp.Kind = MsgKind::Run;
  Resp.Run.St = Status(ErrorCode::Timeout, "run deadline expired");
  Resp.Run.Degraded = true;
  Resp.Run.DegradeReason = "native codegen unavailable";
  Resp.Run.Outputs = {0.5, 1.5};
  Resp.Run.Flops = 12345;
  Resp.Run.ServerSeconds = 0.25;
  Resp.Run.FirstOutputSeconds = 0.01;

  serial::Writer W;
  encodeResponse(W, Resp);
  Expected<Response> ER = decodeResponse(W.bytes());
  ASSERT_TRUE(ER.hasValue()) << ER.status().str();
  Response Back = ER.take();
  EXPECT_TRUE(Back.St.isOk());
  EXPECT_EQ(Back.Run.St.code(), ErrorCode::Timeout);
  EXPECT_TRUE(Back.Run.Degraded);
  EXPECT_EQ(Back.Run.DegradeReason, "native codegen unavailable");
  EXPECT_EQ(Back.Run.Outputs, Resp.Run.Outputs);
  EXPECT_EQ(Back.Run.Flops, 12345u);

  Response Stats;
  Stats.Kind = MsgKind::Stats;
  Stats.Counters = {{"service.requests", 7}, {"service.served", 6}};
  serial::Writer SW;
  encodeResponse(SW, Stats);
  Expected<Response> ES = decodeResponse(SW.bytes());
  ASSERT_TRUE(ES.hasValue());
  EXPECT_EQ(ES.take().Counters, Stats.Counters);

  Response List;
  List.Kind = MsgKind::ListGraphs;
  List.Graphs = {"FIR", "FilterBank"};
  serial::Writer LW;
  encodeResponse(LW, List);
  Expected<Response> EL = decodeResponse(LW.bytes());
  ASSERT_TRUE(EL.hasValue());
  EXPECT_EQ(EL.take().Graphs, List.Graphs);
}

TEST(Protocol, MalformedPayloadsAreCorruptNeverCrashes) {
  // Unknown kind byte.
  EXPECT_EQ(decodeRequest({0x00}).status().code(), ErrorCode::Corrupt);
  EXPECT_EQ(decodeRequest({0x77}).status().code(), ErrorCode::Corrupt);
  // Empty payload.
  EXPECT_EQ(decodeRequest({}).status().code(), ErrorCode::Corrupt);

  // A valid request with trailing garbage must be rejected whole.
  Request Req;
  Req.Kind = MsgKind::Ping;
  serial::Writer W;
  encodeRequest(W, Req);
  std::vector<uint8_t> Tampered = W.bytes();
  Tampered.push_back(0xAB);
  EXPECT_EQ(decodeRequest(Tampered).status().code(), ErrorCode::Corrupt);

  // Truncations of a real Run request: every prefix must fail cleanly.
  Request Run;
  Run.Kind = MsgKind::Run;
  Run.Run.Graph = "FIR";
  Run.Run.Input = {1.0, 2.0};
  serial::Writer RW;
  encodeRequest(RW, Run);
  std::vector<uint8_t> Full = RW.bytes();
  for (size_t N = 1; N < Full.size(); ++N) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + N);
    EXPECT_EQ(decodeRequest(Cut).status().code(), ErrorCode::Corrupt);
  }

  // A bad engine byte inside an otherwise-valid request.
  Expected<Request> EB = decodeRequest(Full);
  ASSERT_TRUE(EB.hasValue());
  // Graph "FIR" is encoded as u32 len + bytes right after the kind; the
  // engine byte follows it.
  std::vector<uint8_t> BadEngine = Full;
  BadEngine[1 + 4 + 3] = 0x7F;
  EXPECT_EQ(decodeRequest(BadEngine).status().code(), ErrorCode::Corrupt);

  // Responses: a stats count larger than the remaining bytes could ever
  // hold must be rejected before any allocation-by-count.
  serial::Writer SW;
  SW.u8(static_cast<uint8_t>(MsgKind::Stats));
  SW.u8(static_cast<uint8_t>(ErrorCode::Ok));
  SW.str("");
  SW.u32(0x7FFFFFFF);
  EXPECT_EQ(decodeResponse(SW.bytes()).status().code(), ErrorCode::Corrupt);
}

//===----------------------------------------------------------------------===//
// Live server on a Unix socket
//===----------------------------------------------------------------------===//

TEST(ServiceServer, ServesWarmRunsBitIdenticalToLocalExecution) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());

  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue()) << EC.status().str();
  Client C = EC.take();

  EXPECT_TRUE(C.ping().isOk());
  Expected<std::vector<std::string>> EG = C.listGraphs();
  ASSERT_TRUE(EG.hasValue());
  EXPECT_EQ(EG.take(), std::vector<std::string>{"FIR"});

  const size_t N = 128;
  std::vector<double> Ref = localReference("FIR", N, OptMode::Linear);

  RunRequest R;
  R.Graph = "FIR";
  R.NOutputs = N;
  R.CountOps = true;
  Expected<RunResponse> ER = C.run(R);
  ASSERT_TRUE(ER.hasValue()) << ER.status().str();
  RunResponse Resp = ER.take();
  ASSERT_TRUE(Resp.St.isOk()) << Resp.St.str();
  EXPECT_FALSE(Resp.Degraded);
  EXPECT_EQ(firstN(Resp.Outputs, N), Ref);
  EXPECT_GT(Resp.Flops, 0u);
  EXPECT_GT(Resp.ServerSeconds, 0.0);

  // Unknown graph: an admission refusal travels as a reply and the
  // connection (and daemon) survive.
  RunRequest Bad;
  Bad.Graph = "NoSuchGraph";
  Expected<RunResponse> EBad = C.run(Bad);
  ASSERT_TRUE(EBad.hasValue());
  EXPECT_FALSE(EBad.take().St.isOk());
  EXPECT_TRUE(C.ping().isOk());

  Srv.stop();
}

TEST(ServiceServer, LatencyModeSameOutputsBoundedFirstOutput) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  Client C = EC.take();

  const size_t N = 96;
  RunRequest Through;
  Through.Graph = "FIR";
  Through.NOutputs = N;
  Expected<RunResponse> ET = C.run(Through);
  ASSERT_TRUE(ET.hasValue());
  RunResponse TResp = ET.take();
  ASSERT_TRUE(TResp.St.isOk());

  RunRequest Lat = Through;
  Lat.Latency = true;
  Expected<RunResponse> EL = C.run(Lat);
  ASSERT_TRUE(EL.hasValue());
  RunResponse LResp = EL.take();
  ASSERT_TRUE(LResp.St.isOk());

  // Same stream, bit for bit — latency mode changes scheduling, never
  // values — and the first output lands before the full batch would.
  EXPECT_EQ(firstN(LResp.Outputs, N), firstN(TResp.Outputs, N));
  EXPECT_GT(LResp.FirstOutputSeconds, 0.0);
  EXPECT_LE(LResp.FirstOutputSeconds, LResp.ServerSeconds);
  // Throughput mode overshoots to batch granularity; single-iteration
  // firing stops at iteration granularity, never beyond the batch.
  EXPECT_LE(LResp.Outputs.size(), TResp.Outputs.size());

  Srv.stop();
}

TEST(ServiceServer, DeadlineExpiryUnderInjectedHangIsATimeoutReply) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  Client C = EC.take();

  faults::arm(faults::Point::ExecHang, 1);
  RunRequest R;
  R.Graph = "FIR";
  R.NOutputs = 64;
  R.DeadlineMillis = 150;
  Expected<RunResponse> ER = C.run(R);
  ASSERT_TRUE(ER.hasValue()) << ER.status().str();
  RunResponse Resp = ER.take();
  EXPECT_EQ(Resp.St.code(), ErrorCode::Timeout) << Resp.St.str();

  // The worker and the daemon both survived; the next request serves.
  Expected<RunResponse> EAgain = C.run(R);
  ASSERT_TRUE(EAgain.hasValue());
  EXPECT_TRUE(EAgain.take().St.isOk());

  Srv.stop();
}

TEST(ServiceServer, QueueCapRefusesWithOverloaded) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Cfg.Service.MaxQueueDepth = 0; // admit nothing: deterministic refusal
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  Client C = EC.take();

  RunRequest R;
  R.Graph = "FIR";
  Expected<RunResponse> ER = C.run(R);
  ASSERT_TRUE(ER.hasValue());
  EXPECT_EQ(ER.take().St.code(), ErrorCode::Overloaded);
  EXPECT_TRUE(C.ping().isOk()); // refusal, not disconnection

  EXPECT_GE(Srv.admission().counters().Rejected, 1u);
  Srv.stop();
}

TEST(ServiceServer, NativeRequestDegradesToCompiledWhenUnavailable) {
  FaultGuard G;
  // SLIN_NO_NATIVE: the config-level kill switch; the service must
  // serve the request anyway, one rung down, and say so.
  ::setenv("SLIN_NO_NATIVE", "1", 1);
  RuntimeConfig::refreshFromEnv();
  codegen::NativeModuleCache::global().clear();

  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  Client C = EC.take();

  const size_t N = 64;
  std::vector<double> Ref = localReference("FIR", N, OptMode::Linear);
  RunRequest R;
  R.Graph = "FIR";
  R.NOutputs = N;
  R.Eng = Engine::Native;
  Expected<RunResponse> ER = C.run(R);
  ASSERT_TRUE(ER.hasValue());
  RunResponse Resp = ER.take();
  ASSERT_TRUE(Resp.St.isOk()) << Resp.St.str();
  EXPECT_TRUE(Resp.Degraded);
  EXPECT_FALSE(Resp.DegradeReason.empty());
  EXPECT_EQ(firstN(Resp.Outputs, N), Ref);

  Srv.stop();
  ::unsetenv("SLIN_NO_NATIVE");
  RuntimeConfig::refreshFromEnv();
  codegen::NativeModuleCache::global().clear();
}

TEST(ServiceServer, StatsRequestSnapshotsServiceAndCacheCounters) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  Client C = EC.take();

  RunRequest R;
  R.Graph = "FIR";
  R.NOutputs = 32;
  ASSERT_TRUE(C.run(R).hasValue());

  Expected<StatsRegistry::Counters> ES = C.stats();
  ASSERT_TRUE(ES.hasValue()) << ES.status().str();
  StatsRegistry::Counters Snap = ES.take();
  auto Value = [&](const std::string &Name) -> int64_t {
    for (const auto &KV : Snap)
      if (KV.first == Name)
        return static_cast<int64_t>(KV.second);
    return -1;
  };
  EXPECT_GE(Value("service.requests"), 1);
  EXPECT_GE(Value("service.served"), 1);
  EXPECT_EQ(Value("service.rejected"), 0);
  EXPECT_GE(Value("service.pool_served"), 1);
  // The unified snapshot carries the cache subsystems too.
  EXPECT_GE(Value("program-cache.hits"), 0);
  EXPECT_GE(Value("native-cache.compiles"), 0);
  EXPECT_GE(Value("analysis.extraction_hits"), 0);

  Srv.stop();
}

TEST(ServiceServer, MalformedFrameGetsErrorReplyThenDisconnect) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);

  // A frame whose payload is garbage: the server must answer with a
  // protocol error and close — never crash.
  ASSERT_TRUE(writeFrame(Fd, {0xFF, 0xEE, 0xDD}).isOk());
  std::vector<uint8_t> Reply;
  ASSERT_TRUE(readFrame(Fd, Reply).isOk());
  Expected<Response> ER = decodeResponse(Reply);
  ASSERT_TRUE(ER.hasValue() || ER.status().code() == ErrorCode::Corrupt);
  if (ER.hasValue()) {
    EXPECT_EQ(ER.take().St.code(), ErrorCode::Corrupt);
  }

  // The connection is gone afterwards...
  bool Closed = false;
  std::vector<uint8_t> Nothing;
  EXPECT_FALSE(readFrame(Fd, Nothing, &Closed).isOk());
  ::close(Fd);

  // ...but the daemon is not.
  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  EXPECT_TRUE(EC.take().ping().isOk());
  Srv.stop();
}

TEST(ServiceServer, TcpLoopbackWithEphemeralPort) {
  FaultGuard G;
  ServerConfig Cfg;
  Cfg.TcpPort = 0; // ephemeral: the OS picks, tcpPort() reports
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());
  ASSERT_GT(Srv.tcpPort(), 0);

  Expected<Client> EC = Client::connectTcp(Srv.tcpPort());
  ASSERT_TRUE(EC.hasValue()) << EC.status().str();
  Client C = EC.take();
  EXPECT_TRUE(C.ping().isOk());
  Expected<std::vector<std::string>> EG = C.listGraphs();
  ASSERT_TRUE(EG.hasValue());
  EXPECT_EQ(EG.take(), std::vector<std::string>{"FIR"});
  Srv.stop();
}

TEST(ServiceServer, ClientShutdownRequestStopsTheServeLoop) {
  FaultGuard G;
  std::string Path = freshSocketPath();
  ServerConfig Cfg;
  Cfg.UnixPath = Path;
  Cfg.Service.Graphs = {"FIR"};
  Cfg.Service.Mode = OptMode::Linear;
  Server Srv(Cfg);
  ASSERT_TRUE(Srv.start().isOk());

  Expected<Client> EC = Client::connectUnix(Path);
  ASSERT_TRUE(EC.hasValue());
  EXPECT_TRUE(EC.take().shutdownServer().isOk());
  Srv.waitForShutdown(); // returns because the request flagged it
  Srv.stop();
}

//===----------------------------------------------------------------------===//
// Prefetch: a daemon restart against a populated store is zero passes
//===----------------------------------------------------------------------===//

TEST(ServicePrefetch, RestartServesEntirelyFromPrefetchedArtifacts) {
  FaultGuard G;
  StoreGuard SG;

  ServiceConfig Cfg;
  Cfg.Graphs = {"FIR"};
  Cfg.Mode = OptMode::Linear;

  // Cold start: compiles, and publishes the artifact to the store.
  {
    Admission Cold(Cfg);
    ASSERT_TRUE(Cold.start().isOk());
    Admission::Counters C = Cold.counters();
    EXPECT_EQ(C.StartupCompiles, 1u);
    EXPECT_EQ(C.WarmStarts, 0u);
  }

  // Forget every in-memory program; the disk store is all that's left.
  ProgramCache::global().clear();
  ProgramCache::global().resetStats();

  // Warm restart: the serving set loads via the bulk prefetch, with no
  // compile passes and not even a cache miss (a prefetch is not a
  // request).
  Admission Warm(Cfg);
  ASSERT_TRUE(Warm.start().isOk());
  Admission::Counters C = Warm.counters();
  EXPECT_GE(C.PrefetchedArtifacts, 1u);
  EXPECT_EQ(C.WarmStarts, 1u);
  EXPECT_EQ(C.StartupCompiles, 0u);
  ProgramCache::Stats PS = ProgramCache::global().stats();
  EXPECT_EQ(PS.Misses, 0u);

  // And it serves.
  RunRequest R;
  R.Graph = "FIR";
  R.NOutputs = 32;
  RunResponse Resp = Warm.run(R);
  EXPECT_TRUE(Resp.St.isOk()) << Resp.St.str();
  EXPECT_FALSE(Resp.Outputs.empty());
}

} // namespace