//===- sched/Rates.h - Steady-state scheduling ------------------*- C++ -*-===//
///
/// \file
/// Balance-equation solver over the hierarchical stream graph (Section
/// 3.3.1, after Karczmarek [20]): per-container child repetition counts
/// and aggregate peek/pop/push signatures for whole sub-streams. The
/// combination transformations and the optimization-selection DP both
/// consume these. Solving a container rates each child once and solves
/// its balance equations from those signatures, so one call costs time
/// linear in the size of the sub-stream, however deeply it nests.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SCHED_RATES_H
#define SLIN_SCHED_RATES_H

#include "graph/Stream.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace slin {

/// Aggregate steady-state I/O signature of a stream: one "firing" of the
/// signature consumes Pop items, inspects Peek (>= Pop) items, and
/// produces Push items.
struct RateSignature {
  int64_t Peek = 0;
  int64_t Pop = 0;
  int64_t Push = 0;
};

/// Computes the aggregate steady-state rates of \p S. On a graph
/// without a valid steady state (mismatched splitjoin rates,
/// inconsistent feedback loops) returns ErrorCode::RateError naming the
/// offending construct.
Expected<RateSignature> tryComputeRates(const Stream &S);

/// Steady-state repetition counts for the direct children of a container
/// (minimal positive integers). For a Pipeline/SplitJoin the vector is
/// ordered like children(); for a FeedbackLoop it is {body, loop}.
/// A Filter has no children; returns {}. Fails like tryComputeRates.
Expected<std::vector<int64_t>> tryChildRepetitions(const Stream &Container);

} // namespace slin

#endif // SLIN_SCHED_RATES_H
