//===- tools/slin_serviced.cpp - Stream service daemon --------------------===//
///
/// \file
/// The long-lived serving daemon: compile (or prefetch) a serving set
/// of stream graphs once, then answer run/stats/list requests over a
/// Unix or loopback-TCP socket until a client sends shutdown or the
/// process receives SIGINT/SIGTERM.
///
///   slin-serviced --unix /tmp/slin.sock
///   slin-serviced --tcp 0 --graphs FIR,FilterBank --workers 4
///   slin-serviced --unix /tmp/slin.sock --require-warm   # CI: no compiles
///
//===----------------------------------------------------------------------===//

#include "service/Server.h"
#include "support/RuntimeConfig.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace slin;
using namespace slin::service;

namespace {

std::atomic<bool> SignalStop{false};

void onSignal(int) { SignalStop.store(true); }

void usage() {
  std::fprintf(
      stderr,
      "usage: slin-serviced (--unix PATH | --tcp PORT) [options]\n"
      "\n"
      "  --unix PATH       listen on a Unix-domain socket\n"
      "  --tcp PORT        listen on loopback TCP (0: ephemeral, printed)\n"
      "  --graphs A,B,C    serving set (default: every benchmark)\n"
      "  --mode MODE       base|linear|freq|redundancy|autosel (default:\n"
      "                    autosel)\n"
      "  --workers N       requests run at once per graph (default:\n"
      "                    hardware threads)\n"
      "  --queue N         per-graph waiting-request cap (default: 64)\n"
      "  --deadline-ms N   default per-request deadline (default:\n"
      "                    SLIN_RUN_DEADLINE_MS, else none)\n"
      "  --outputs N       default outputs per request (default: 256)\n"
      "  --no-prefetch     skip the startup artifact-store bulk load\n"
      "  --require-warm    exit nonzero if any serving-set graph needed a\n"
      "                    compile (CI hook: a warm store serves with zero\n"
      "                    passes)\n");
}

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

bool parseMode(const std::string &S, OptMode &M) {
  if (S == "base")
    M = OptMode::Base;
  else if (S == "linear")
    M = OptMode::Linear;
  else if (S == "freq")
    M = OptMode::Freq;
  else if (S == "redundancy")
    M = OptMode::Redundancy;
  else if (S == "autosel")
    M = OptMode::AutoSel;
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerConfig Cfg;
  Cfg.Service.DefaultDeadlineMillis =
      RuntimeConfig::current().RunDeadlineMillis;
  bool RequireWarm = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "slin-serviced: %s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    auto Count = [&](uint64_t Max) -> uint64_t {
      const char *V = Value();
      std::optional<uint64_t> N = parseCount(V, Max);
      if (!N) {
        std::fprintf(stderr,
                     "slin-serviced: %s needs a whole number from 0 to %llu, "
                     "got '%s'\n",
                     Arg.c_str(), static_cast<unsigned long long>(Max), V);
        std::exit(2);
      }
      return *N;
    };
    if (Arg == "--unix")
      Cfg.UnixPath = Value();
    else if (Arg == "--tcp")
      Cfg.TcpPort = static_cast<int>(Count(65535));
    else if (Arg == "--graphs")
      Cfg.Service.Graphs = splitCommas(Value());
    else if (Arg == "--mode") {
      std::string M = Value();
      if (!parseMode(M, Cfg.Service.Mode)) {
        std::fprintf(stderr, "slin-serviced: unknown mode '%s'\n", M.c_str());
        return 2;
      }
    } else if (Arg == "--workers")
      Cfg.Service.Workers =
          static_cast<int>(Count(std::numeric_limits<int>::max()));
    else if (Arg == "--queue")
      Cfg.Service.MaxQueueDepth =
          static_cast<size_t>(Count(std::numeric_limits<size_t>::max()));
    else if (Arg == "--deadline-ms")
      Cfg.Service.DefaultDeadlineMillis =
          static_cast<int64_t>(Count(std::numeric_limits<int64_t>::max()));
    else if (Arg == "--outputs")
      Cfg.Service.DefaultOutputs =
          static_cast<uint32_t>(Count(std::numeric_limits<uint32_t>::max()));
    else if (Arg == "--no-prefetch")
      Cfg.Service.Prefetch = false;
    else if (Arg == "--require-warm")
      RequireWarm = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "slin-serviced: unknown argument '%s'\n",
                   Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Cfg.UnixPath.empty() && Cfg.TcpPort < 0) {
    usage();
    return 2;
  }

  Server Srv(Cfg);
  Status St = Srv.start();
  if (!St.isOk()) {
    std::fprintf(stderr, "slin-serviced: %s\n", St.message().c_str());
    return 1;
  }

  Admission::Counters C = Srv.admission().counters();
  if (!Cfg.UnixPath.empty())
    std::printf("slin-serviced: listening on %s\n", Cfg.UnixPath.c_str());
  else
    std::printf("slin-serviced: listening on 127.0.0.1:%d\n", Srv.tcpPort());
  std::printf("slin-serviced: serving %zu graphs (%llu warm, %llu compiled, "
              "%llu artifacts prefetched)\n",
              Srv.admission().graphs().size(),
              static_cast<unsigned long long>(C.WarmStarts),
              static_cast<unsigned long long>(C.StartupCompiles),
              static_cast<unsigned long long>(C.PrefetchedArtifacts));
  std::fflush(stdout);

  if (RequireWarm && C.StartupCompiles > 0) {
    std::fprintf(stderr,
                 "slin-serviced: --require-warm: %llu graphs compiled at "
                 "startup (expected all from cache)\n",
                 static_cast<unsigned long long>(C.StartupCompiles));
    Srv.stop();
    return 3;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  Srv.waitForShutdown([] { return SignalStop.load(); });
  Srv.stop();
  std::printf("slin-serviced: shut down cleanly\n");
  return 0;
}
