//===- graph/Stream.h - Hierarchical stream graph ---------------*- C++ -*-===//
///
/// \file
/// The StreamIt hierarchical stream graph (Section 2.1, Figure 2-1):
/// filters with work functions, pipelines, splitjoins (duplicate or
/// roundrobin splitters, roundrobin joiners) and feedbackloops. Every
/// stream has exactly one input and one output tape.
///
/// Filters come in two flavours:
///  * IR filters carry a work function in the work IR (plus fields and an
///    optional init-work) and are executed by the interpreter — these are
///    what the linear extraction analysis consumes;
///  * native filters are implemented directly in C++ (the frequency
///    filters calling the FFT library, the ATLAS-substitute gemv filter),
///    mirroring the paper's external library call-outs (Section 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_GRAPH_STREAM_H
#define SLIN_GRAPH_STREAM_H

#include "support/Hashing.h"
#include "wir/IR.h"
#include "wir/Tape.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slin {

namespace serial {
class Writer;
class Reader;
} // namespace serial

enum class StreamKind { Filter, Pipeline, SplitJoin, FeedbackLoop };

class Stream;
using StreamPtr = std::unique_ptr<Stream>;

/// Base class of all stream constructs.
class Stream {
public:
  virtual ~Stream();

  StreamKind kind() const { return Kind; }
  const std::string &name() const { return Name; }

  /// Deep copy (native filters are cloned with fresh state).
  virtual StreamPtr clone() const = 0;

protected:
  Stream(StreamKind Kind, std::string Name)
      : Kind(Kind), Name(std::move(Name)) {}

private:
  StreamKind Kind;
  std::string Name;
};

template <typename T> const T *cast(const Stream *S) {
  assert(S && T::classof(S) && "bad stream cast");
  return static_cast<const T *>(S);
}
template <typename T> T *cast(Stream *S) {
  assert(S && T::classof(S) && "bad stream cast");
  return static_cast<T *>(S);
}
template <typename T> const T *dynCast(const Stream *S) {
  return S && T::classof(S) ? static_cast<const T *>(S) : nullptr;
}

//===----------------------------------------------------------------------===//
// Filters
//===----------------------------------------------------------------------===//

/// Base class for filters implemented natively in C++. Native filters may
/// have a distinct first firing (initWork) with its own I/O rates, exactly
/// like IR filters (e.g. the optimized frequency filter of Transformation
/// 6 pushes u*m items on the first firing and u*r afterwards).
class NativeFilter {
public:
  NativeFilter();
  NativeFilter(const NativeFilter &); ///< fresh instance id for the copy
  NativeFilter &operator=(const NativeFilter &) { return *this; }
  virtual ~NativeFilter();

  virtual int peekRate() const = 0;
  virtual int popRate() const = 0;
  virtual int pushRate() const = 0;

  virtual bool hasInitWork() const { return false; }
  virtual int initPeekRate() const { return peekRate(); }
  virtual int initPopRate() const { return popRate(); }
  virtual int initPushRate() const { return pushRate(); }

  /// Executes one steady-state firing.
  virtual void fire(wir::Tape &T) = 0;

  /// Executes the first firing; only called when hasInitWork().
  virtual void fireInit(wir::Tape &T) { fire(T); }

  /// Optional batched execution used by the compiled engine: executes
  /// \p K consecutive steady-state firings against raw channel memory.
  /// Firing k's peek window starts at In + k*popRate() (so In[k*o + p]
  /// is its peek(p)); its pushRate() outputs go to Out + k*pushRate().
  /// Implementations must produce bit-identical results to K calls of
  /// fire(). Returns false when unsupported (the caller falls back to
  /// per-firing Tape execution); the default supports nothing.
  virtual bool fireBatch(const double *In, double *Out, int K);

  /// Optional native-codegen hook (codegen/CxxBackend.h): appends to
  /// \p Src the definition of an extern "C" function \p Fn with the
  /// fireBatch memory contract —
  ///
  ///     void <Fn>(const double *In, double *Out, long K);
  ///
  /// — that is bit-identical to fireBatch over the same windows. The
  /// emitted code must be fully self-contained (coefficients baked in as
  /// exact literals; no references back into this process). Returns
  /// false when unsupported (the default): the compiled engine then
  /// keeps calling the in-process fireBatch/fire paths for this filter.
  virtual bool emitBatchCxx(std::string &Src, const std::string &Fn) const {
    (void)Src;
    (void)Fn;
    return false;
  }

  /// Fresh-state copy.
  virtual std::unique_ptr<NativeFilter> clone() const = 0;

  /// Mixes this filter's construction parameters into \p H for structural
  /// hashing (compiler/StructuralHash.h). Two native filters that mix the
  /// same sequence must be behaviourally identical. Returns false when the
  /// filter has no content hash; the hasher then falls back to the
  /// never-reused instanceId(), so such filters never alias in the
  /// analysis or program caches (cache misses, never wrong sharing).
  virtual bool hashContent(HashStream &H) const {
    (void)H;
    return false;
  }

  /// Persistent-artifact hooks (compiler/ArtifactStore.h). A serializable
  /// native filter names its concrete class with a registry tag (must be
  /// registered via registerNativeFilterFactory) and writes whatever
  /// payload its factory needs to reconstruct a behaviourally identical
  /// instance — including an identical hashContent sequence, or loaded
  /// artifacts would fail their structural-hash verification. The default
  /// (no tag) makes the enclosing program memory-cacheable only; the
  /// artifact store skips it, never errors.
  virtual const char *serialTag() const { return nullptr; }
  virtual void serializePayload(serial::Writer &W) const { (void)W; }

  /// Firings of this filter whose inputs determine its internal state,
  /// for the parallel backend's shard-boundary reconstruction
  /// (exec/Parallel.h): 0 = stateless (each firing is a pure function of
  /// its input window), k > 0 = the state is fully rewritten by the last
  /// k firings (a warmup replay of k firings reconstructs it), -1 =
  /// unknown (the default; such filters are never sharded).
  virtual int stateDepthFirings() const { return -1; }

  /// Process-unique, never-reused id of this instance (unlike a heap
  /// address, immune to allocator reuse while cache entries persist).
  uint64_t instanceId() const { return InstanceId; }

private:
  uint64_t InstanceId;
};

class Filter : public Stream {
public:
  /// Creates an IR-backed filter.
  Filter(std::string Name, std::vector<wir::FieldDef> Fields,
         wir::WorkFunction Work);

  /// Creates a native filter.
  Filter(std::string Name, std::unique_ptr<NativeFilter> Native);

  static bool classof(const Stream *S) {
    return S->kind() == StreamKind::Filter;
  }

  StreamPtr clone() const override;

  bool isNative() const { return Native != nullptr; }

  // Steady-state rates.
  int peekRate() const;
  int popRate() const;
  int pushRate() const;

  // Init firing (first invocation of work; Section 2.1).
  bool hasInitWork() const;
  int initPeekRate() const;
  int initPopRate() const;
  int initPushRate() const;
  void setInitWork(wir::WorkFunction W) { InitWork = std::move(W); }

  const wir::WorkFunction &work() const {
    assert(!isNative() && "native filter has no work IR");
    return Work;
  }
  const wir::WorkFunction *initWork() const {
    return InitWork ? &*InitWork : nullptr;
  }
  const std::vector<wir::FieldDef> &fields() const { return Fields; }

  const NativeFilter &native() const {
    assert(isNative() && "not a native filter");
    return *Native;
  }

private:
  std::vector<wir::FieldDef> Fields;
  wir::WorkFunction Work;
  std::optional<wir::WorkFunction> InitWork;
  std::unique_ptr<NativeFilter> Native;
};

//===----------------------------------------------------------------------===//
// Containers
//===----------------------------------------------------------------------===//

class Pipeline : public Stream {
public:
  explicit Pipeline(std::string Name)
      : Stream(StreamKind::Pipeline, std::move(Name)) {}

  static bool classof(const Stream *S) {
    return S->kind() == StreamKind::Pipeline;
  }

  StreamPtr clone() const override;

  void add(StreamPtr Child) { Children.push_back(std::move(Child)); }

  const std::vector<StreamPtr> &children() const { return Children; }
  std::vector<StreamPtr> &children() { return Children; }

private:
  std::vector<StreamPtr> Children;
};

/// Splitter specification: duplicate, or roundrobin with per-child weights.
struct Splitter {
  enum KindTy { Duplicate, RoundRobin } Kind = Duplicate;
  std::vector<int> Weights; ///< RoundRobin only; one weight per child

  static Splitter duplicate() { return {Duplicate, {}}; }
  static Splitter roundRobin(std::vector<int> W) {
    return {RoundRobin, std::move(W)};
  }
  /// Items distributed per full splitter cycle (0 for duplicate).
  int totalWeight() const;
};

/// Joiner specification: roundrobin with per-child weights (the only
/// joiner StreamIt defines).
struct Joiner {
  std::vector<int> Weights;

  static Joiner roundRobin(std::vector<int> W) { return {std::move(W)}; }
  int totalWeight() const;
};

class SplitJoin : public Stream {
public:
  SplitJoin(std::string Name, Splitter Split, Joiner Join)
      : Stream(StreamKind::SplitJoin, std::move(Name)),
        Split(std::move(Split)), Join(std::move(Join)) {}

  static bool classof(const Stream *S) {
    return S->kind() == StreamKind::SplitJoin;
  }

  StreamPtr clone() const override;

  void add(StreamPtr Child) { Children.push_back(std::move(Child)); }

  const std::vector<StreamPtr> &children() const { return Children; }
  std::vector<StreamPtr> &children() { return Children; }

  const Splitter &splitter() const { return Split; }
  const Joiner &joiner() const { return Join; }

private:
  Splitter Split;
  Joiner Join;
  std::vector<StreamPtr> Children;
};

/// A feedbackloop: a roundrobin joiner merging external input (weight
/// Join.Weights[0]) with the loop stream's output (weight Join.Weights[1]),
/// feeding the body; the body's output is split between the external
/// output (Split weight 0) and the loop stream (Split weight 1). The loop
/// channel is pre-filled with Enqueued items so the cycle can start.
class FeedbackLoop : public Stream {
public:
  FeedbackLoop(std::string Name, Joiner Join, StreamPtr Body, StreamPtr Loop,
               Splitter Split, std::vector<double> Enqueued)
      : Stream(StreamKind::FeedbackLoop, std::move(Name)),
        Join(std::move(Join)), Split(std::move(Split)), Body(std::move(Body)),
        Loop(std::move(Loop)), Enqueued(std::move(Enqueued)) {}

  static bool classof(const Stream *S) {
    return S->kind() == StreamKind::FeedbackLoop;
  }

  StreamPtr clone() const override;

  const Joiner &joiner() const { return Join; }
  const Splitter &splitter() const { return Split; }
  const Stream &body() const { return *Body; }
  const Stream &loop() const { return *Loop; }
  Stream &body() { return *Body; }
  Stream &loop() { return *Loop; }
  const std::vector<double> &enqueued() const { return Enqueued; }

private:
  Joiner Join;
  Splitter Split;
  StreamPtr Body;
  StreamPtr Loop;
  std::vector<double> Enqueued;
};

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

/// Counts of stream constructs in a graph (Table 5.2's "Filters /
/// Pipelines / SplitJoins" columns).
struct GraphCounts {
  int Filters = 0;
  int Pipelines = 0;
  int SplitJoins = 0;
  int FeedbackLoops = 0;
};

GraphCounts countStreams(const Stream &Root);

/// Renders the hierarchy as indented text for debugging.
std::string printGraph(const Stream &Root);

} // namespace slin

#endif // SLIN_GRAPH_STREAM_H
