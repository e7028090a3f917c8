//===- support/RuntimeConfig.h - Typed SLIN_* runtime configuration -*- C++ -*-===//
///
/// \file
/// One typed front door for every `SLIN_*` environment knob. The knobs
/// themselves are unchanged (same names, same accepted values — see the
/// README table; numeric knobs accept only a whole non-negative decimal
/// integer and treat anything else as unset); what changed is *where*
/// they are read. Before this
/// header the runtime had ~15 scattered `getenv("SLIN_*")` call sites,
/// each with its own parse and its own caching policy; a long-lived
/// service can't reason about that. Now:
///
///  * `RuntimeConfig::fromEnv()` parses the environment **now** — the
///    live view. `SLIN_FAULT` resolution, which must observe the
///    variable per call, uses this.
///  * `RuntimeConfig::current()` returns the process snapshot, parsed
///    once on first use. Everything else reads this.
///  * `RuntimeConfig::refreshFromEnv()` re-parses the snapshot — the
///    hook tests use after `setenv`. The daemon (tools/slin_serviced.cpp)
///    only reads `current()`, for its default run deadline; its
///    command-line flags go into its own ServerConfig.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_RUNTIMECONFIG_H
#define SLIN_SUPPORT_RUNTIMECONFIG_H

#include <cstdint>
#include <optional>
#include <string>

namespace slin {

struct RuntimeConfig {
  /// SLIN_ARTIFACT_DIR: persistent artifact store directory ("" = no
  /// store). Read when the global store first resolves; later refreshes
  /// do not re-point an already-resolved store (use
  /// `ArtifactStore::setGlobalDir`).
  std::string ArtifactDir;

  /// SLIN_NO_CACHE: kill-switch for the analysis/program/disk caches.
  bool NoCache = false;

  /// SLIN_STORE_MAX_BYTES: artifact-store byte budget (0 = unbounded).
  uint64_t StoreMaxBytes = 0;

  /// SLIN_STORE_TTL_S: artifact expiry age in seconds (0 = never).
  int64_t StoreTtlSeconds = 0;

  /// SLIN_VERIFY: run the verifier passes after every rewrite.
  bool Verify = false;

  /// SLIN_CXX: compiler for emitted native code, used verbatim ("" =
  /// probe c++/g++/clang++ on PATH).
  std::string Cxx;

  /// SLIN_NO_NATIVE: disable the native codegen engine outright.
  bool NoNative = false;

  /// SLIN_RUN_DEADLINE_MS: slin-serviced's default per-request
  /// wall-clock deadline, for requests that carry none (0 = none).
  int64_t RunDeadlineMillis = 0;

  /// SLIN_FAULT: deterministic fault-injection arming spec.
  std::string FaultSpec;

  /// SLIN_BENCH_DIR: fixed output directory for BENCH_*.json ("" = CWD).
  std::string BenchDir;

  /// Parses the SLIN_* environment right now (no caching).
  static RuntimeConfig fromEnv();

  /// The process snapshot: parsed from the environment once, on first
  /// use. Returns a copy — cheap (slow-path callers only) and immune to
  /// a concurrent refresh.
  static RuntimeConfig current();

  /// Re-parses the snapshot from the environment. Tests call this after
  /// `setenv`/`unsetenv`.
  static void refreshFromEnv();
};

/// The one rule for numeric settings, shared by the numeric `SLIN_*`
/// knobs and the service CLIs' numeric flags: \p S must be a whole
/// non-negative decimal integer no larger than \p Max. Anything else —
/// empty, signed, suffixed ("10M", "5s"), out of range — yields nullopt.
std::optional<uint64_t> parseCount(const char *S, uint64_t Max);

} // namespace slin

#endif // SLIN_SUPPORT_RUNTIMECONFIG_H
