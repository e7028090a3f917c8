//===- perfbench/src/trace.h - In-memory spans for the traced run ---------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each layer:
/// name, start, end, parent and request id, plus counts attached where
/// the work happens (pass durations, stats deltas). Spans stay in memory
/// and are written out once, when the run ends. With tracing off a Span
/// costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace bench {

struct SpanRecord {
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0: top level
  uint64_t Request = 0; ///< shared by the spans of one request; 0: none
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  std::vector<std::pair<std::string, double>> Counts;
};

namespace trace {

void enable();

/// Every closed span so far (thread-safe snapshot).
std::vector<SpanRecord> spans();

/// Per span name: total duration and self time (duration minus the
/// union of its children's intervals), in seconds.
struct SelfTime {
  uint64_t Count = 0;
  double TotalSeconds = 0.0;
  double SelfSeconds = 0.0;
};
std::map<std::string, SelfTime> selfTimes(const std::vector<SpanRecord> &S);

/// Writes \p S as a JSON array to \p Path; false on I/O failure.
bool write(const std::string &Path, const std::vector<SpanRecord> &S);

} // namespace trace

/// RAII span. Its parent is the innermost open span on this thread, or
/// \p Parent when given (request spans opened on client threads).
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0, uint32_t Parent = 0);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void count(const std::string &Key, double Value);
  uint32_t id() const { return Rec ? Rec->Id : 0; }

private:
  std::unique_ptr<SpanRecord> Rec;
  uint32_t SavedCurrent = 0;
};

} // namespace bench

#endif // PERFBENCH_TRACE_H
