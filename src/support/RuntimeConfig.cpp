//===- support/RuntimeConfig.cpp - Typed SLIN_* runtime configuration -----===//
///
/// \file
/// Environment parsing and the refreshable process snapshot behind
/// support/RuntimeConfig.h.
///
//===----------------------------------------------------------------------===//

#include "support/RuntimeConfig.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

using namespace slin;

namespace {

std::string envString(const char *Name) {
  const char *V = std::getenv(Name);
  return V ? V : "";
}

/// Flag knobs count any non-empty value as set (the historical
/// behaviour of every `getenv(...) != nullptr` site — "0" disables only
/// where the old parse said so, which was SLIN_VERIFY alone).
bool envFlag(const char *Name) {
  const char *V = std::getenv(Name);
  return V && *V;
}

/// Numeric knobs: sets \p Field only from a value `parseCount` accepts
/// within \p Field's range; anything else counts as unset, rather than as
/// whatever number a prefix parse would salvage.
template <class T> void envCount(const char *Name, T &Field) {
  const char *V = std::getenv(Name);
  if (!V)
    return;
  if (std::optional<uint64_t> N = parseCount(
          V, static_cast<uint64_t>(std::numeric_limits<T>::max())))
    Field = static_cast<T>(*N);
}

struct GlobalConfig {
  std::mutex Mutex;
  bool Parsed = false;
  RuntimeConfig Config;
};

GlobalConfig &globalConfig() {
  static GlobalConfig G;
  return G;
}

} // namespace

std::optional<uint64_t> slin::parseCount(const char *S, uint64_t Max) {
  const char *End = S + std::strlen(S);
  uint64_t N = 0;
  auto [Ptr, Ec] = std::from_chars(S, End, N);
  if (Ec != std::errc() || Ptr != End || N > Max)
    return std::nullopt;
  return N;
}

RuntimeConfig RuntimeConfig::fromEnv() {
  RuntimeConfig C;
  C.ArtifactDir = envString("SLIN_ARTIFACT_DIR");
  // Historically any set value (even empty) disabled the caches; keep
  // exactly that so SLIN_NO_CACHE= behaves as before.
  C.NoCache = std::getenv("SLIN_NO_CACHE") != nullptr;
  envCount("SLIN_STORE_MAX_BYTES", C.StoreMaxBytes);
  envCount("SLIN_STORE_TTL_S", C.StoreTtlSeconds);
  if (const char *V = std::getenv("SLIN_VERIFY"))
    C.Verify = *V && std::strcmp(V, "0") != 0;
  C.Cxx = envString("SLIN_CXX");
  C.NoNative = envFlag("SLIN_NO_NATIVE");
  envCount("SLIN_RUN_DEADLINE_MS", C.RunDeadlineMillis);
  C.FaultSpec = envString("SLIN_FAULT");
  C.BenchDir = envString("SLIN_BENCH_DIR");
  return C;
}

RuntimeConfig RuntimeConfig::current() {
  GlobalConfig &G = globalConfig();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  if (!G.Parsed) {
    G.Parsed = true;
    G.Config = fromEnv();
  }
  return G.Config;
}

void RuntimeConfig::refreshFromEnv() {
  RuntimeConfig Fresh = fromEnv();
  GlobalConfig &G = globalConfig();
  std::lock_guard<std::mutex> Lock(G.Mutex);
  G.Parsed = true;
  G.Config = std::move(Fresh);
}
