//===- perfbench/src/trace.cpp - In-memory spans for the traced run -------===//

#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace bench {

namespace {

std::atomic<bool> Enabled{false};
std::atomic<uint32_t> NextId{1};
std::mutex Mutex;
std::vector<SpanRecord> Closed; ///< guarded by Mutex
thread_local uint32_t Current = 0;

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

namespace trace {

void enable() { Enabled.store(true, std::memory_order_relaxed); }

std::vector<SpanRecord> spans() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}

std::map<std::string, SelfTime> selfTimes(const std::vector<SpanRecord> &S) {
  std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> Children;
  for (const SpanRecord &R : S)
    if (R.Parent)
      Children[R.Parent].push_back({R.StartNs, R.EndNs});
  std::map<std::string, SelfTime> Out;
  for (const SpanRecord &R : S) {
    int64_t Covered = 0;
    auto It = Children.find(R.Id);
    if (It != Children.end()) {
      std::vector<std::pair<int64_t, int64_t>> &C = It->second;
      std::sort(C.begin(), C.end());
      int64_t End = R.StartNs;
      for (const auto &I : C) {
        int64_t Lo = std::max(I.first, End), Hi = std::min(I.second, R.EndNs);
        if (Hi > Lo) {
          Covered += Hi - Lo;
          End = Hi;
        }
      }
    }
    SelfTime &T = Out[R.Name];
    ++T.Count;
    T.TotalSeconds += (R.EndNs - R.StartNs) * 1e-9;
    T.SelfSeconds += (R.EndNs - R.StartNs - Covered) * 1e-9;
  }
  return Out;
}

bool write(const std::string &Path, const std::vector<SpanRecord> &S) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I != S.size(); ++I) {
    const SpanRecord &R = S[I];
    std::fprintf(F,
                 "{\"id\":%u,\"parent\":%u,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"counts\":{",
                 R.Id, R.Parent, static_cast<unsigned long long>(R.Request),
                 jsonEscape(R.Name).c_str(), static_cast<long long>(R.StartNs),
                 static_cast<long long>(R.EndNs));
    for (size_t J = 0; J != R.Counts.size(); ++J)
      std::fprintf(F, "%s\"%s\":%.9g", J ? "," : "",
                   jsonEscape(R.Counts[J].first).c_str(), R.Counts[J].second);
    std::fprintf(F, "}}%s\n", I + 1 == S.size() ? "" : ",");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

} // namespace trace

Span::Span(const char *Name, uint64_t Request, uint32_t Parent) {
  if (!Enabled.load(std::memory_order_relaxed))
    return;
  Rec = std::make_unique<SpanRecord>();
  Rec->Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Rec->Parent = Parent ? Parent : Current;
  Rec->Request = Request;
  Rec->Name = Name;
  SavedCurrent = Current;
  Current = Rec->Id;
  Rec->StartNs = nowNs();
}

Span::~Span() {
  if (!Rec)
    return;
  Rec->EndNs = nowNs();
  Current = SavedCurrent;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed.push_back(std::move(*Rec));
  }
}

void Span::count(const std::string &Key, double Value) {
  if (Rec)
    Rec->Counts.emplace_back(Key, Value);
}

} // namespace bench
