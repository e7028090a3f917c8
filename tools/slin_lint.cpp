//===- tools/slin_lint.cpp - Standalone WIR lint driver -------------------===//
///
/// \file
/// slin-lint: runs the three abstract-interpretation lint analyses
/// (src/verify/Lint.h — verify-linear, verify-bounds, verify-state) over
/// compiled programs and prints a findings report.
///
///   slin-lint --all-graphs            lint every benchmark program
///   slin-lint --graph FIR             lint one benchmark by name
///   slin-lint --store DIR             lint every artifact in a store
///   slin-lint                         --store $SLIN_ARTIFACT_DIR, else
///                                     --all-graphs
///   ... --json                        machine-readable report
///
/// Exit status: 0 when every linted program is clean (no Error-severity
/// findings), 1 when any lint finding is an Error, 2 on usage errors or
/// when a requested program/artifact cannot be built or loaded.
///
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "compiler/ArtifactStore.h"
#include "compiler/Program.h"
#include "support/RuntimeConfig.h"
#include "support/StatsRegistry.h"
#include "verify/Lint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace slin;

namespace {

struct Options {
  std::vector<std::string> Graphs;
  bool AllGraphs = false;
  std::string StoreDir;
  bool Json = false;
  bool Stats = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--graph NAME]... [--all-graphs] [--store DIR] "
               "[--json] [--stats]\n"
               "With no selection, lints $SLIN_ARTIFACT_DIR when set, else "
               "all benchmark graphs.\n",
               Argv0);
  return 2;
}

/// One linted program's report, labelled for the combined output.
struct Linted {
  std::string Label;
  verify::LintReport Report;
};

bool lintBenchmark(const apps::BenchmarkEntry &B, std::vector<Linted> &Out) {
  StreamPtr Root = B.Build();
  if (!Root) {
    std::fprintf(stderr, "slin-lint: cannot build graph '%s'\n",
                 B.Name.c_str());
    return false;
  }
  CompiledProgram P(*Root, CompiledOptions{});
  Out.push_back({B.Name, verify::lintProgram(P)});
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--graph" && I + 1 < Argc)
      Opt.Graphs.push_back(Argv[++I]);
    else if (A == "--all-graphs")
      Opt.AllGraphs = true;
    else if (A == "--store" && I + 1 < Argc)
      Opt.StoreDir = Argv[++I];
    else if (A == "--json")
      Opt.Json = true;
    else if (A == "--stats")
      Opt.Stats = true;
    else
      return usage(Argv[0]);
  }
  if (Opt.Graphs.empty() && !Opt.AllGraphs && Opt.StoreDir.empty()) {
    std::string Env = RuntimeConfig::current().ArtifactDir;
    if (!Env.empty())
      Opt.StoreDir = Env;
    else
      Opt.AllGraphs = true;
  }

  std::vector<Linted> Results;
  bool LoadFailed = false;

  const std::vector<apps::BenchmarkEntry> &Benches = apps::allBenchmarks();
  if (Opt.AllGraphs) {
    for (const apps::BenchmarkEntry &B : Benches)
      LoadFailed |= !lintBenchmark(B, Results);
  }
  for (const std::string &Name : Opt.Graphs) {
    const apps::BenchmarkEntry *Found = nullptr;
    for (const apps::BenchmarkEntry &B : Benches)
      if (B.Name == Name)
        Found = &B;
    if (!Found) {
      std::fprintf(stderr, "slin-lint: unknown graph '%s'\n", Name.c_str());
      LoadFailed = true;
      continue;
    }
    LoadFailed |= !lintBenchmark(*Found, Results);
  }
  if (!Opt.StoreDir.empty()) {
    // Probe before constructing the store: the ArtifactStore ctor
    // mkdirs its directory, which would paper over a typo'd path.
    std::error_code EC;
    if (!std::filesystem::is_directory(Opt.StoreDir, EC)) {
      std::fprintf(stderr,
                   "slin-lint: store directory '%s' does not exist\n",
                   Opt.StoreDir.c_str());
      return 2;
    }
    ArtifactStore Store(Opt.StoreDir);
    std::vector<ArtifactStore::Key> Keys = Store.listArtifacts();
    if (Keys.empty()) {
      // Nothing to lint is a failure, not a clean report: this is how
      // a mis-wired lint-what-you-serve CI step would silently pass.
      std::fprintf(stderr, "slin-lint: no artifacts in '%s'\n",
                   Opt.StoreDir.c_str());
      LoadFailed = true;
    }
    for (const ArtifactStore::Key &K : Keys) {
      Expected<std::shared_ptr<const CompiledProgram>> P = Store.tryLoad(K);
      std::string Label = "artifact " + K.Structure.str().substr(0, 12);
      if (!P) {
        std::fprintf(stderr,
                     "slin-lint: artifact %s-%s failed to load/validate: %s\n",
                     K.Structure.str().c_str(), K.Options.str().c_str(),
                     P.status().str().c_str());
        LoadFailed = true;
        continue;
      }
      Results.push_back({Label, verify::lintProgram(**P)});
    }
  }

  size_t Errors = 0, Notes = 0;
  for (const Linted &L : Results) {
    Errors += L.Report.errorCount();
    Notes += L.Report.noteCount();
  }

  if (Opt.Json) {
    std::string Out = "{\"programs\":[";
    for (size_t I = 0; I != Results.size(); ++I) {
      if (I)
        Out += ",";
      Out += "{\"name\":\"" + Results[I].Label +
             "\",\"report\":" + Results[I].Report.json() + "}";
    }
    Out += "],\"errors\":" + std::to_string(Errors) +
           ",\"notes\":" + std::to_string(Notes) + "}";
    std::printf("%s\n", Out.c_str());
  } else {
    for (const Linted &L : Results) {
      if (L.Report.findings().empty())
        continue;
      std::printf("== %s ==\n%s", L.Label.c_str(), L.Report.text().c_str());
    }
    std::printf("slin-lint: %zu program(s), %zu error(s), %zu note(s)\n",
                Results.size(), Errors, Notes);
  }

  if (Opt.Stats) {
    // The unified counter snapshot (support/StatsRegistry.h) for this
    // run: cache/store behaviour of exactly the programs linted above.
    std::printf("%s\n", StatsRegistry::json(StatsRegistry::global().snapshot())
                             .c_str());
  }

  if (LoadFailed)
    return 2;
  return Errors ? 1 : 0;
}
