//===- opt/Selection.h - Optimization selection (DP) ------------*- C++ -*-===//
///
/// \file
/// The optimization-selection algorithm of Section 4.3 (Figures 4-3 to
/// 4-6, due to Thies): a dynamic program over rectangular regions of each
/// container's child grid that, for every region, compares (1) collapsing
/// to the time domain, (2) collapsing to the frequency domain, and (3)
/// leaving the region uncollapsed but refactored via horizontal cuts
/// (pipeline splits) and vertical cuts (splitjoin splits), memoizing
/// Config = ⟨cost, plan⟩ per (region, transform). A plan is an immutable
/// recipe (keep or replace a filter, collapse a region, cut, or rebuild a
/// feedback loop) shared between memo entries; a region is priced once
/// for both collapsed implementations without keeping its combined node,
/// and only the winning plan is built, once, at the end.
///
/// Costs are expressed per steady state of the enclosing container, so a
/// cut's cost is simply the sum of its parts and a collapsed node's cost
/// is its per-firing cost times its firing count. The cost functions are
/// the paper's (Section 4.3.3), with the partially-OCR-garbled frequency
/// term reconstructed as u·ln(14e)·max(o,1) — log in the number of taps,
/// linear in the pop rate — which reproduces the qualitative behaviour
/// the text describes (frequency attractive for long unit-pop filters,
/// catastrophic for high-pop nodes like Radar's Beamform). A
/// measurement-driven model is provided as an alternative.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_OPT_SELECTION_H
#define SLIN_OPT_SELECTION_H

#include "exec/Engine.h"
#include "graph/Stream.h"
#include "linear/Analysis.h"
#include "opt/Frequency.h"
#include "opt/LinearReplacement.h"

#include <memory>

namespace slin {

/// Estimates per-firing execution cost of a linear node under the two
/// collapsed implementations (Section 4.3.3).
class CostModel {
public:
  virtual ~CostModel();

  /// Cost of one firing of the direct (time-domain) implementation.
  /// \p SelectionOnly is true when the node is a pure 0/1 selection
  /// (e.g. a roundrobin splitjoin of identities), which compiles to
  /// buffer management and is free in the paper's model.
  virtual double directCost(const LinearNode &N, bool SelectionOnly) const;

  /// Cost of one firing of the frequency implementation.
  virtual double frequencyCost(const LinearNode &N) const;

  /// Mixes the model's identity and parameters into \p H, for the
  /// pipeline-level keys of the persistent artifact store
  /// (compiler/ArtifactStore.h): two configurations may share a stored
  /// compile only if their cost models provably pick the same plans.
  /// Returns false for subclasses that do not opt in (the base
  /// implementations guard with typeid, so an unknown subclass inheriting
  /// them reports unhashable rather than aliasing as its parent) — such
  /// configurations skip disk aliasing but lose nothing else.
  virtual bool hashContent(HashStream &H) const;
};

/// Alternative model calibrated on our runtime's operation counts rather
/// than the paper's P4 constants ("guided by profiler feedback"). The
/// per-item overhead constant depends on the execution engine: the
/// compiled engine's op tapes and batched kernels cut the per-item tape
/// overhead to a fraction of the tree interpreter's, which shifts the
/// time/frequency break-even points the selection DP computes.
class MeasuredCostModel : public CostModel {
public:
  explicit MeasuredCostModel(Engine Eng = Engine::Dynamic);

  double directCost(const LinearNode &N, bool SelectionOnly) const override;
  double frequencyCost(const LinearNode &N) const override;

  bool hashContent(HashStream &H) const override;

private:
  double PerItem; ///< per pushed/popped item runtime overhead, in "ops"
  double PerMult; ///< cost of one inner-loop multiply-accumulate
};

class AnalysisManager;

struct SelectionOptions {
  FrequencyOptions Freq;
  LinearCodeGenStyle CodeGen = LinearCodeGenStyle::Auto;
  const CostModel *Model = nullptr; ///< default: the paper's model
  size_t MaxMatrixElements = size_t(1) << 22;
  /// Hash-consed extraction/combination cache (null: process-global).
  /// The DP's rectangle combinations are memoized here, so repeated
  /// selections over structurally identical regions — across modes,
  /// engines and optimize() calls — reuse one combination matrix.
  AnalysisManager *AM = nullptr;
  /// Linear analysis of the root to reuse; must have been built with the
  /// same MaxMatrixElements. Null: the DP builds its own.
  const LinearAnalysis *Analysis = nullptr;
};

/// Runs the selection DP on \p Root and returns the rebuilt stream
/// implementing the minimum-cost configuration.
StreamPtr selectOptimizations(const Stream &Root,
                              const SelectionOptions &Opts);

/// True if \p N is a pure selection/permutation of its inputs.
bool isSelectionNode(const LinearNode &N);

} // namespace slin

#endif // SLIN_OPT_SELECTION_H
