//===- sched/Schedule.h - Static steady-state firing programs ---*- C++ -*-===//
///
/// \file
/// Static scheduling of a flattened stream graph for the compiled,
/// batched execution engine (exec/CompiledExecutor.h). Extends the
/// balance-equation solver of Rates.h from the hierarchical graph to the
/// flat node graph and turns its solution into *firing programs*:
///
///  * an initialization program that executes init-work firings and primes
///    the channels of peeking consumers (leaving >= peek - pop leftover
///    items on each such channel), computed as a fixpoint over channel
///    demands downstream-to-upstream;
///  * a steady program executing exactly one steady state, and a batch
///    program executing B steady states, both derived by greedy symbolic
///    simulation (fire every ready node as many times as its remaining
///    repetition count and input allow) — replacing the dynamic engine's
///    per-sweep readiness scan with a precomputed sequence of
///    (node, count) steps whose long runs are what the batched matrix
///    kernels feed on;
///  * exact per-channel high-water marks and flat-buffer capacities, so
///    the compiled engine can allocate fixed ring buffers up front.
///
/// The greedy simulation is one use of the symbolic schedule replay
/// (replaySchedule). verifySchedule replays a schedule's stored programs
/// with the rates flat::Node declares; verify-bounds (verify/Lint.h)
/// replays them with rates derived from the op tapes.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SCHED_SCHEDULE_H
#define SLIN_SCHED_SCHEDULE_H

#include "exec/FlatGraph.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slin {

/// One step of a firing program: fire node \p Node \p Count times
/// consecutively.
struct FiringStep {
  int Node = 0;
  int64_t Count = 0;
};

using FiringProgram = std::vector<FiringStep>;

/// A complete static schedule for a flattened graph.
struct StaticSchedule {
  /// Steady-state repetitions per node (minimal positive integers).
  std::vector<int64_t> Repetitions;

  /// Firings per node in the initialization phase (init-work firings plus
  /// priming for peeking consumers).
  std::vector<int64_t> InitFirings;

  /// Executed once before any steady iteration. May be empty.
  FiringProgram InitProgram;

  /// Executes exactly one steady state (used for tail iterations when the
  /// external input cannot cover a full batch).
  FiringProgram SteadyProgram;

  /// Executes BatchIterations steady states.
  FiringProgram BatchProgram;
  int BatchIterations = 1;

  /// Exact maximum number of items simultaneously live on each channel
  /// across the init program and any run of batch/steady programs.
  std::vector<int64_t> ChannelHighWater;

  /// Flat-buffer capacity per channel: live items at a program start plus
  /// all items appended during one program run (the compiled engine
  /// compacts buffers between program runs, so positions never exceed
  /// this). External channels are excluded (the engine grows them).
  std::vector<int64_t> ChannelBufSize;

  /// Items live on each channel after the init program (and after every
  /// subsequent steady/batch program run).
  std::vector<int64_t> PostInitLive;

  /// External input items required / consumed.
  int64_t InitExternalPops = 0;    ///< consumed by the init program
  int64_t InitExternalNeed = 0;    ///< required present before init
  int64_t SteadyExternalPops = 0;  ///< consumed by one steady state
  int64_t SteadyExternalNeed = 0;  ///< required present before a steady run
  int64_t BatchExternalPops = 0;
  int64_t BatchExternalNeed = 0;

  /// Items pushed to the external output channel.
  int64_t InitExternalPushes = 0;
  int64_t SteadyExternalPushes = 0;
  int64_t BatchExternalPushes = 0;
};

namespace serial {
class Writer;
class Reader;
} // namespace serial

/// Binary persistence of a schedule (support/Serialize.h): every field,
/// including the shard-boundary inputs (PostInitLive, high-water marks),
/// so a loaded program allocates and fires exactly like a fresh one.
void serializeSchedule(serial::Writer &W, const StaticSchedule &S);
bool deserializeSchedule(serial::Reader &R, StaticSchedule &Out);

/// Computes the static schedule of \p G with \p BatchIterations steady
/// states per batch program. Reports a fatal error for graphs without a
/// valid steady state or whose initialization cannot be scheduled
/// (deadlocked feedback loops).
StaticSchedule computeSchedule(const flat::FlatGraph &G,
                               int BatchIterations = 16);

//===----------------------------------------------------------------------===//
// Rate tables and the symbolic schedule replay
//===----------------------------------------------------------------------===//

/// One firing's use of one channel.
struct ChannelUse {
  int Chan = -1;
  int64_t Rate = 0; ///< items popped (inputs) or pushed (outputs)
  int64_t Need = 0; ///< inputs: items that must be live for the firing
};

/// The channels one firing reads and writes.
struct FiringRates {
  std::vector<ChannelUse> In;
  std::vector<ChannelUse> Out;
};

/// A node's per-firing rates. Init applies to the first-ever firing of
/// an init-work filter, Steady to every other firing.
struct NodeRates {
  FiringRates Steady;
  FiringRates Init;
  bool HasInitWork = false;
};

/// The rates a schedule is derived and replayed with, per node, plus
/// each channel's endpoints.
struct RateTable {
  std::vector<NodeRates> Nodes;
  std::vector<int> Producer; ///< per channel; -1 for the external input
  std::vector<int> Consumer; ///< per channel; -1 for the external output
};

/// The rates each flat::Node declares.
RateTable declaredRates(const flat::FlatGraph &G);

/// A well-formed firing step names a node of the graph and fires it at
/// least once. The replay and the artifact loader both hold programs to
/// this.
bool isWellFormedStep(const FiringStep &Step, size_t NumNodes);

/// Where replaySchedule takes each program's steps from.
enum class StepSource {
  /// Fire every ready node as often as its remaining count and its input
  /// allow, appending the steps to the (empty) programs.
  Greedy,
  /// The schedule's own programs.
  Stored,
};

/// The symbolic schedule replay. Runs the init, batch and steady
/// programs of \p S in that order on one channel state that starts from
/// the graph's initial items, firing nodes at the rates in \p T. A step
/// of K firings applies in bulk, with an init-work filter's first-ever
/// firing split off at its init rates. Reads S.Repetitions,
/// S.InitFirings and S.BatchIterations; recomputes every derived field
/// (PostInitLive, ChannelHighWater, ChannelBufSize and the external
/// pops, needs and pushes). Returns the first failure ("" when none): a
/// node that reads and writes one channel, a malformed step, an unmet
/// input window, a program whose firing totals are not InitFirings,
/// Repetitions x BatchIterations or Repetitions, or a batch or steady
/// program that leaves an internal channel away from PostInitLive.
std::string replaySchedule(const flat::FlatGraph &G, const RateTable &T,
                           StaticSchedule &S, StepSource Steps);

/// Cross-checks \p S against \p G: independent balance of Repetitions
/// under the declared rates, then replaySchedule of S's own programs,
/// whose derived fields must equal S's field by field. Returns the first
/// mismatch, "" when consistent.
std::string verifySchedule(const flat::FlatGraph &G, const StaticSchedule &S);

/// Shard-boundary state computation for the parallel backend
/// (exec/Parallel.h). A worker reconstructs the runtime state at steady
/// iteration k by seeding closed-form filter state exactly, filling each
/// internal channel with PostInitLive placeholder items, and replaying
/// WashoutIterations steady iterations: after the replay every channel
/// item and every refreshable filter state has been recomputed from exact
/// values, so iteration k onward is bit-identical to a sequential run.
struct ShardBoundary {
  /// False when boundary state cannot be reconstructed (cyclic topology,
  /// opaque filter state, or a stateful channel that never drains).
  bool Feasible = false;
  std::string Reason; ///< why not, when !Feasible

  /// Steady iterations a worker must replay before its shard so that all
  /// channel contents and refreshable filter state are exact.
  int64_t WashoutIterations = 0;
};

/// Computes the washout depth of \p G under \p S. \p NodeStateDepth gives,
/// per flat node, the firings of that node whose inputs determine its
/// internal state (0 = stateless or exactly seeded, k > 0 = rewritten by
/// the last k firings, -1 = opaque); splitters and joiners pass 0.
ShardBoundary computeShardBoundary(const flat::FlatGraph &G,
                                   const StaticSchedule &S,
                                   const std::vector<int> &NodeStateDepth);

} // namespace slin

#endif // SLIN_SCHED_SCHEDULE_H
