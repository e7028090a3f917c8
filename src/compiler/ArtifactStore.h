//===- compiler/ArtifactStore.h - Disk-persistent artifacts -----*- C++ -*-===//
///
/// \file
/// Disk persistence for CompiledProgram artifacts — the "compile once,
/// cheap forever" promise extended past process exit. A compiled
/// steady-state program is a pure value determined by the stream's
/// structural hash and the full engine options, so it is safe to share
/// across processes and fleets; this store is the content-addressed
/// filesystem tier beneath the in-memory ProgramCache.
///
/// Layout: one file per artifact inside the directory named by
/// SLIN_ARTIFACT_DIR (no store when unset; SLIN_NO_CACHE=1 disables the
/// tier at runtime). Filenames and headers carry the full cache key —
/// {structural hash, hashOptions digest, format version, build flags} —
/// and the header additionally carries a checksum of the payload bytes.
/// A reader accepts a file only when every header field matches and the
/// checksum verifies; anything else (corrupt, truncated, version bump,
/// foreign build flags) is a plain miss that falls back to a clean
/// recompile. Writes go to a temp file renamed into place, so concurrent
/// writers and crashed processes never publish a partial artifact.
///
/// The store is crash-safe and self-maintaining: published bytes are
/// fsynced before the rename (and the directory after), transient I/O
/// failures (EINTR, ENOSPC) are retried with backoff — ENOSPC after an
/// oldest-first eviction pass — construction sweeps stale `.tmp.*`
/// litter left by dead writers, and SLIN_STORE_MAX_BYTES /
/// SLIN_STORE_TTL_S bound the directory by size and age. Every
/// maintenance action is counted in stats(). tryStore/tryLoad report
/// failures as support/Error.h Statuses; callers degrade to the memory
/// tier.
///
/// Alias records map a *pipeline-level* key (pre-optimization structural
/// hash + the full pipeline configuration) to an artifact key, letting a
/// warm process skip every compiler pass — analysis, selection,
/// replacement and lowering — not just the lowering half.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_COMPILER_ARTIFACTSTORE_H
#define SLIN_COMPILER_ARTIFACTSTORE_H

#include "compiler/Program.h"
#include "support/Error.h"
#include "support/Hashing.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace slin {

namespace serial {
class Writer;
class Reader;
} // namespace serial

class ArtifactStore {
public:
  /// The on-disk cache key: which graph, compiled under which engine
  /// options. Format version and build flags are keyed implicitly (file
  /// name + header).
  struct Key {
    HashDigest Structure; ///< structuralHash of the compiled stream
    HashDigest Options;   ///< hashOptions(CompiledOptions)
  };

  explicit ArtifactStore(std::string Directory);

  /// The process-global store configured by SLIN_ARTIFACT_DIR (resolved
  /// once, on first use); null when the variable is unset or empty.
  static ArtifactStore *global();

  /// The already-resolved process-global store, or null — never
  /// resolves the environment or creates the directory. Stats
  /// snapshots use this so observing the process has no side effects.
  static ArtifactStore *globalPeek();

  /// global(), unless SLIN_NO_CACHE is set (checked per call: the cache
  /// kill-switch must also bypass the disk tier).
  static ArtifactStore *enabledGlobal();

  /// Re-points the process-global store at \p Directory (empty string:
  /// no store). Test/bench hook; not thread-safe against concurrent
  /// global() users.
  static void setGlobalDir(const std::string &Directory);

  const std::string &dir() const { return Dir; }

  /// True when an artifact file for \p K exists (no validation).
  bool contains(const Key &K) const;

  /// Serializes \p P and atomically publishes it under \p K.
  /// Unserializable programs (a native filter without a serialTag) and
  /// I/O failures come back as a Status; transient I/O errors (EINTR,
  /// and ENOSPC after an eviction pass) are retried with backoff a
  /// bounded number of times first. The caller's degradation is
  /// memory-only operation, never an abort.
  Status tryStore(const Key &K, const CompiledProgram &P);

  /// Loads and validates the artifact for \p K. A miss or rejection is
  /// explained: ErrorCode::IoError for an absent or unreadable file,
  /// Corrupt for a present file that failed validation (truncated,
  /// checksum, wrong version/flags/key). The degradation is a clean
  /// recompile.
  Expected<std::shared_ptr<const CompiledProgram>> tryLoad(const Key &K);

  /// Final path of the native-code shared object for \p K under codegen
  /// scheme \p CodegenVersion (codegen/NativeModule.h). The filename
  /// carries the full key — digests, format version, build flags,
  /// codegen version — so scheme bumps are plain misses, and the .so
  /// participates in the same TTL/quota sweeps as program artifacts.
  std::string objectPathFor(const Key &K, uint32_t CodegenVersion) const;

  /// Atomically publishes the already-compiled object \p TmpPath (a
  /// `.tmp.<pid>.*`-suffixed file inside dir()) as objectPathFor(...):
  /// fsync, rename into place, directory fsync, then TTL/quota
  /// enforcement. On failure \p TmpPath is unlinked. Unlike tryStore
  /// there is no checksummed header — the dlopen + ABI-version check on
  /// load is the validation — so corruption degrades to a recompile.
  Status publishObject(const Key &K, uint32_t CodegenVersion,
                       const std::string &TmpPath);

  /// Publishes a pipeline-key → artifact-key alias record.
  bool storeAlias(const HashDigest &PipelineKey, const Key &Artifact);

  /// Resolves a pipeline key to an artifact key; false on miss.
  bool loadAlias(const HashDigest &PipelineKey, Key &Out) const;

  struct Stats {
    uint64_t Hits = 0;         ///< artifact loads that validated
    uint64_t Misses = 0;       ///< loads with no usable file
    uint64_t Stores = 0;       ///< artifacts published
    uint64_t LoadFailures = 0; ///< files present but rejected (subset of Misses)
    uint64_t AliasHits = 0;
    uint64_t PublishFailures = 0; ///< failed atomic publishes (tmp unlinked)
    uint64_t IoRetries = 0;       ///< publish attempts retried after a failure
    uint64_t TmpSwept = 0;        ///< stale .tmp.* files garbage-collected
    uint64_t Evictions = 0;       ///< files evicted by the size/TTL policy
    uint64_t EvictedBytes = 0;    ///< bytes reclaimed by those evictions
    uint64_t ObjectStores = 0;    ///< native .so objects published
  };
  Stats stats() const;
  void resetStats();

  /// Size/TTL eviction knobs, defaulted from SLIN_STORE_MAX_BYTES and
  /// SLIN_STORE_TTL_S at construction (0: unlimited / no expiry).
  /// Enforced after every publish, oldest files first, never evicting
  /// the file just published. Setters are test hooks.
  void setMaxBytes(uint64_t Bytes);
  void setTtlSeconds(int64_t Seconds);

  /// Runs the startup maintenance pass now: garbage-collects stale
  /// .tmp.* files (writer process dead, or older than one hour) and
  /// applies the TTL policy. Also runs at construction.
  void sweepNow();

  /// Bumped whenever the serialized layout changes; old files become
  /// plain misses (never mis-parsed: the header is checked first).
  static uint32_t formatVersion();

  /// Build-configuration word written into every header and file name:
  /// the constant 1, which every existing store's files carry, so those
  /// stores keep hitting. Loads reject a file carrying any other word,
  /// since store files come from outside the program.
  static uint32_t buildFlags();

  /// Artifact file path for \p K (for tests that corrupt/patch files).
  std::string pathFor(const Key &K) const;

  /// Keys of every program artifact currently in the store whose file
  /// name matches this build's format version and build flags (the only
  /// ones tryLoad() could accept). Parsed from file names; no file content
  /// is read or validated. The inventory hook for tools that audit a
  /// store, e.g. tools/slin-lint's lint-what-you-serve mode.
  std::vector<Key> listArtifacts() const;

private:
  std::string aliasPathFor(const HashDigest &PipelineKey) const;
  Status writeAtomic(const std::string &Path,
                     const std::vector<uint8_t> &Header,
                     const std::vector<uint8_t> &Payload);
  Status publishWithRetry(const std::string &Path,
                          const std::vector<uint8_t> &Header,
                          const std::vector<uint8_t> &Payload);
  void sweepStaleTmp();
  void enforceTtl(const std::string &JustPublished);
  void enforceQuota(const std::string &JustPublished);
  uint64_t evictForSpace(uint64_t BytesNeeded,
                         const std::string &JustPublished);

  std::string Dir;
  uint64_t MaxBytes = 0;   ///< 0: unbounded
  int64_t TtlSeconds = 0;  ///< 0: no expiry
  mutable std::mutex Mutex;
  mutable Stats Counters; ///< loadAlias (const) counts its hits
};

//===----------------------------------------------------------------------===//
// Native-filter factory registry
//===----------------------------------------------------------------------===//

/// Reconstructs a native filter from the payload its serializePayload
/// wrote; returns null on malformed input.
using NativeFilterFactory = std::unique_ptr<NativeFilter> (*)(serial::Reader &);

/// Registers \p Factory for NativeFilter::serialTag() == \p Tag
/// (last registration wins; registration is thread-safe).
void registerNativeFilterFactory(const std::string &Tag,
                                 NativeFilterFactory Factory);

//===----------------------------------------------------------------------===//
// Raw program serialization (store-independent; tests use this directly)
//===----------------------------------------------------------------------===//

/// Writes the complete artifact payload: engine options, the optimized
/// stream (work IR, fields, native prototypes), the flat graph, the
/// static schedule, every op tape, and the shard-boundary metadata.
/// Returns false when a native filter is not serializable (\p W is then
/// partially written; discard it).
bool serializeProgram(serial::Writer &W, const CompiledProgram &P);

/// Rebuilds a program from payload bytes; null on malformed input. The
/// result reports loadedFromArtifact() and zero BuildStats — no compiler
/// pass runs.
std::shared_ptr<const CompiledProgram> deserializeProgram(serial::Reader &R);

} // namespace slin

#endif // SLIN_COMPILER_ARTIFACTSTORE_H
