//===- support/FaultInjection.cpp - Deterministic fault injection ------------==//

#include "support/FaultInjection.h"

#include "support/RuntimeConfig.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

using namespace slin;
using namespace slin::faults;

namespace {

constexpr int NumPoints = static_cast<int>(Point::NumPoints);

/// Per-point arming state. Counters are atomic so parallel shards can
/// hit a point concurrently; the one-shot decision is made with a
/// fetch_add, so exactly one hitter observes the armed ordinal.
struct PointState {
  std::atomic<bool> Armed{false};
  std::atomic<uint64_t> NthHit{0}; ///< 1-based ordinal that fails
  std::atomic<bool> Persistent{false};
  std::atomic<uint64_t> Hits{0};
};

PointState &state(Point P) {
  static PointState States[NumPoints];
  return States[static_cast<int>(P)];
}

/// One process-global "anything armed" flag: the whole cost of an
/// unarmed fault point is a relaxed load of this.
std::atomic<bool> &anyArmed() {
  static std::atomic<bool> Any{false};
  return Any;
}

std::once_flag &envOnce() {
  static std::once_flag Once;
  return Once;
}

Point pointByName(const std::string &Name, bool &Ok) {
  Ok = true;
  for (int I = 0; I != NumPoints; ++I)
    if (Name == pointName(static_cast<Point>(I)))
      return static_cast<Point>(I);
  Ok = false;
  return Point::NumPoints;
}

} // namespace

const char *slin::faults::pointName(Point P) {
  switch (P) {
  case Point::ArtifactWriteShort:
    return "artifact-write-short";
  case Point::ArtifactRenameFail:
    return "artifact-rename-fail";
  case Point::StoreEnospc:
    return "store-enospc";
  case Point::PassVerifierTrip:
    return "pass-verifier-trip";
  case Point::ShardSeedCorrupt:
    return "shard-seed-corrupt";
  case Point::ExecHang:
    return "exec-hang";
  case Point::CodegenCcFail:
    return "codegen-cc-fail";
  case Point::CodegenDlopenFail:
    return "codegen-dlopen-fail";
  case Point::LintVerifierTrip:
    return "lint-verifier-trip";
  case Point::NumPoints:
    break;
  }
  return "<invalid>";
}

void slin::faults::arm(Point P, uint64_t NthHit, bool Persistent) {
  PointState &S = state(P);
  S.Hits.store(0, std::memory_order_relaxed);
  S.NthHit.store(NthHit, std::memory_order_relaxed);
  S.Persistent.store(Persistent, std::memory_order_relaxed);
  S.Armed.store(NthHit != 0, std::memory_order_relaxed);
  if (NthHit != 0)
    anyArmed().store(true, std::memory_order_release);
}

void slin::faults::reset() {
  // Mark the environment consumed: a reset() must stick even when
  // SLIN_FAULT is still set (tests own the configuration afterwards).
  std::call_once(envOnce(), [] {});
  for (int I = 0; I != NumPoints; ++I) {
    PointState &S = state(static_cast<Point>(I));
    S.Armed.store(false, std::memory_order_relaxed);
    S.NthHit.store(0, std::memory_order_relaxed);
    S.Persistent.store(false, std::memory_order_relaxed);
    S.Hits.store(0, std::memory_order_relaxed);
  }
  anyArmed().store(false, std::memory_order_release);
}

uint64_t slin::faults::hitCount(Point P) {
  return state(P).Hits.load(std::memory_order_relaxed);
}

void slin::faults::armFromEnv() {
  std::call_once(envOnce(), [] {
    // A live parse (not the process snapshot): fault arming must see
    // the SLIN_FAULT a test exported just before the first hit.
    std::string S = RuntimeConfig::fromEnv().FaultSpec;
    if (S.empty())
      return;
    size_t Pos = 0;
    while (Pos < S.size()) {
      size_t Comma = S.find(',', Pos);
      std::string Item =
          S.substr(Pos, Comma == std::string::npos ? Comma : Comma - Pos);
      Pos = Comma == std::string::npos ? S.size() : Comma + 1;
      size_t Colon = Item.find(':');
      std::string Name = Item.substr(0, Colon);
      uint64_t Nth = 1;
      bool Persistent = false;
      if (Colon != std::string::npos) {
        std::string N = Item.substr(Colon + 1);
        if (!N.empty() && N.back() == '+') {
          Persistent = true;
          N.pop_back();
        }
        char *End = nullptr;
        unsigned long long V = std::strtoull(N.c_str(), &End, 10);
        if (!End || *End != '\0' || V == 0)
          continue; // malformed ordinal: skip this item
        Nth = V;
      }
      bool Ok = false;
      Point P = pointByName(Name, Ok);
      if (Ok)
        arm(P, Nth, Persistent);
    }
  });
}

bool slin::faults::shouldFail(Point P) {
  if (!anyArmed().load(std::memory_order_acquire)) {
    // First call resolves SLIN_FAULT; with the variable unset this
    // branch stays the whole unarmed cost after the one-time parse.
    armFromEnv();
    if (!anyArmed().load(std::memory_order_acquire))
      return false;
  }
  PointState &S = state(P);
  uint64_t Hit = S.Hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!S.Armed.load(std::memory_order_relaxed))
    return false;
  uint64_t Nth = S.NthHit.load(std::memory_order_relaxed);
  if (S.Persistent.load(std::memory_order_relaxed))
    return Hit >= Nth;
  return Hit == Nth;
}

//===----------------------------------------------------------------------===//
// RunDeadline
//===----------------------------------------------------------------------===//

RunDeadline slin::faults::RunDeadline::afterMillis(int64_t Millis) {
  RunDeadline D;
  if (Millis > 0) {
    D.Limited = true;
    D.Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(Millis);
  }
  return D;
}

