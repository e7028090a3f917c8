//===- tools/slin_service_client.cpp - Service client CLI -----------------===//
///
/// \file
/// Command-line client for the stream service daemon: liveness probes,
/// serving-set listing, unified stats dumps, runs and shutdown, over
/// the same wire protocol every other client speaks.
///
///   slin-service-client --unix /tmp/slin.sock ping
///   slin-service-client --unix /tmp/slin.sock list
///   slin-service-client --unix /tmp/slin.sock stats --json
///   slin-service-client --unix /tmp/slin.sock run --graph FIR -n 1024
///   slin-service-client --tcp 9090 shutdown
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "support/RuntimeConfig.h"
#include "support/StatsRegistry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

using namespace slin;
using namespace slin::service;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: slin-service-client (--unix PATH | --tcp PORT) COMMAND\n"
      "\n"
      "commands:\n"
      "  ping                        liveness round-trip\n"
      "  list                        serving-set graph names\n"
      "  stats [--json]              unified counter snapshot\n"
      "  shutdown                    ask the daemon to exit\n"
      "  run --graph NAME [-n N] [--engine compiled|parallel|native]\n"
      "      [--latency] [--deadline-ms N] [--count-ops]\n");
}

bool parseEngine(const std::string &S, Engine &E) {
  if (S == "compiled")
    E = Engine::Compiled;
  else if (S == "parallel")
    E = Engine::Parallel;
  else if (S == "native")
    E = Engine::Native;
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string UnixPath;
  int TcpPort = -1;
  std::string Command;
  bool Json = false;
  RunRequest Run;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "slin-service-client: %s needs a value\n",
                     Arg.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    auto Count = [&](uint64_t Max) -> uint64_t {
      const char *V = Value();
      std::optional<uint64_t> N = parseCount(V, Max);
      if (!N) {
        std::fprintf(stderr,
                     "slin-service-client: %s needs a whole number from 0 to "
                     "%llu, got '%s'\n",
                     Arg.c_str(), static_cast<unsigned long long>(Max), V);
        std::exit(2);
      }
      return *N;
    };
    if (Arg == "--unix")
      UnixPath = Value();
    else if (Arg == "--tcp")
      TcpPort = static_cast<int>(Count(65535));
    else if (Arg == "--json")
      Json = true;
    else if (Arg == "--graph")
      Run.Graph = Value();
    else if (Arg == "-n" || Arg == "--outputs")
      Run.NOutputs =
          static_cast<uint32_t>(Count(std::numeric_limits<uint32_t>::max()));
    else if (Arg == "--engine") {
      std::string E = Value();
      if (!parseEngine(E, Run.Eng)) {
        std::fprintf(stderr, "slin-service-client: unknown engine '%s'\n",
                     E.c_str());
        return 2;
      }
    } else if (Arg == "--latency")
      Run.Latency = true;
    else if (Arg == "--deadline-ms")
      Run.DeadlineMillis =
          static_cast<int64_t>(Count(std::numeric_limits<int64_t>::max()));
    else if (Arg == "--count-ops")
      Run.CountOps = true;
    else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] != '-' && Command.empty())
      Command = Arg;
    else {
      std::fprintf(stderr, "slin-service-client: unknown argument '%s'\n",
                   Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Command.empty() || (UnixPath.empty() && TcpPort < 0)) {
    usage();
    return 2;
  }

  Expected<Client> EC = UnixPath.empty() ? Client::connectTcp(TcpPort)
                                         : Client::connectUnix(UnixPath);
  if (!EC.hasValue()) {
    std::fprintf(stderr, "slin-service-client: %s\n",
                 EC.status().message().c_str());
    return 1;
  }
  Client C = EC.take();

  if (Command == "ping") {
    Status St = C.ping();
    if (!St.isOk()) {
      std::fprintf(stderr, "slin-service-client: %s\n", St.message().c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (Command == "list") {
    Expected<std::vector<std::string>> EG = C.listGraphs();
    if (!EG.hasValue()) {
      std::fprintf(stderr, "slin-service-client: %s\n",
                   EG.status().message().c_str());
      return 1;
    }
    for (const std::string &G : EG.take())
      std::printf("%s\n", G.c_str());
    return 0;
  }
  if (Command == "stats") {
    Expected<StatsRegistry::Counters> ES = C.stats();
    if (!ES.hasValue()) {
      std::fprintf(stderr, "slin-service-client: %s\n",
                   ES.status().message().c_str());
      return 1;
    }
    StatsRegistry::Counters Counters = ES.take();
    if (Json) {
      std::printf("%s\n", StatsRegistry::json(Counters).c_str());
    } else {
      for (const auto &KV : Counters)
        std::printf("%-40s %llu\n", KV.first.c_str(),
                    static_cast<unsigned long long>(KV.second));
    }
    return 0;
  }
  if (Command == "shutdown") {
    Status St = C.shutdownServer();
    if (!St.isOk()) {
      std::fprintf(stderr, "slin-service-client: %s\n", St.message().c_str());
      return 1;
    }
    std::printf("shutdown acknowledged\n");
    return 0;
  }
  if (Command == "run") {
    if (Run.Graph.empty()) {
      std::fprintf(stderr, "slin-service-client: run needs --graph\n");
      return 2;
    }
    Expected<RunResponse> ER = C.run(Run);
    if (!ER.hasValue()) {
      std::fprintf(stderr, "slin-service-client: %s\n",
                   ER.status().message().c_str());
      return 1;
    }
    RunResponse R = ER.take();
    if (!R.St.isOk()) {
      std::fprintf(stderr, "run failed: %s\n", R.St.message().c_str());
      return 1;
    }
    std::printf("outputs: %zu\n", R.Outputs.size());
    if (Run.CountOps)
      std::printf("flops: %llu\n",
                  static_cast<unsigned long long>(R.Flops));
    std::printf("server seconds: %.6f\n", R.ServerSeconds);
    if (Run.Latency)
      std::printf("first output seconds: %.6f\n", R.FirstOutputSeconds);
    if (R.Degraded)
      std::printf("degraded: %s\n", R.DegradeReason.c_str());
    return 0;
  }

  std::fprintf(stderr, "slin-service-client: unknown command '%s'\n",
               Command.c_str());
  usage();
  return 2;
}
