//===- exec/Executor.h - Dynamic stream-graph executor ----------*- C++ -*-===//
///
/// \file
/// The runtime substitute for the paper's uniprocessor backend + runtime
/// library (Section 5.1): the hierarchical graph is flattened (FlatGraph)
/// into filter nodes, splitter/joiner nodes and FIFO channels, then
/// executed by a bounded data-driven scheduler — any node whose inputs
/// satisfy its (init-)peek requirement may fire; channels are capped to
/// bound memory; a sweep that fires nothing reports a deadlocked
/// (invalid) graph.
///
/// This executes arbitrary peeking, mismatched rates, init-work firings
/// with different rates, and feedback loops with enqueued items, without
/// computing an initialization schedule. The batched, statically-scheduled
/// counterpart is exec/CompiledExecutor.h.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_EXEC_EXECUTOR_H
#define SLIN_EXEC_EXECUTOR_H

#include "exec/ExecOptions.h"
#include "exec/FlatGraph.h"
#include "support/Error.h"
#include "wir/Interp.h"

#include <deque>

namespace slin {

class Executor {
public:
  /// Knobs live in exec/ExecOptions.h (shared with the unified
  /// ExecOptions struct); the alias keeps `Executor::Options` spelling.
  using Options = DynamicOptions;

  explicit Executor(const Stream &Root) : Executor(Root, Options()) {}
  Executor(const Stream &Root, Options Opts);
  ~Executor();

  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  /// Appends items to the graph's external input channel (for graphs
  /// whose root consumes input).
  void provideInput(const std::vector<double> &Items);

  /// Fires nodes until the observable output count reaches \p NOutputs.
  /// The observable output is the external output channel if the root
  /// pushes items, otherwise the sequence of printed values. A sweep
  /// that fires nothing returns ErrorCode::Deadlock.
  Status tryRun(size_t NOutputs);

  /// Items currently on the external output channel (never consumed).
  std::vector<double> outputSnapshot() const;

  /// Values produced by print statements, in order.
  const std::vector<double> &printed() const { return Printed; }

  /// Count of observable outputs produced so far.
  size_t outputsProduced() const;

  /// Total node firings so far (diagnostics).
  uint64_t firings() const { return Firings; }

  /// The derived cap (high-water bound) of channel \p Chan; exposed for
  /// the channel-cap regression tests.
  size_t channelCap(int Chan) const {
    return Channels[static_cast<size_t>(Chan)].Cap;
  }

private:
  struct Channel {
    std::deque<double> Q;
    size_t Cap = 0; ///< high-water mark (0 until computed)
  };

  /// Mutable per-node engine state alongside the FlatGraph topology.
  struct NodeState {
    wir::FieldStore Fields;
    std::unique_ptr<NativeFilter> Native;
    bool FiredOnce = false;
  };

  class NodeTape;

  void computeChannelCaps();
  bool canFire(size_t I) const;
  void fire(size_t I);
  size_t inputAvailable(const flat::Node &N) const;

  Options Opts;
  flat::FlatGraph Graph;
  std::vector<NodeState> States;
  std::vector<Channel> Channels;
  std::vector<double> Printed;
  uint64_t Firings = 0;
};

} // namespace slin

#endif // SLIN_EXEC_EXECUTOR_H
