//===- opt/Selection.cpp - Optimization selection (DP) -----------------------==//

#include "opt/Selection.h"

#include "compiler/AnalysisManager.h"
#include "fft/FFT.h"

#include "sched/Rates.h"
#include "support/Diag.h"
#include "support/MathUtil.h"

#include <cmath>
#include <limits>
#include <map>
#include <typeinfo>

using namespace slin;

CostModel::~CostModel() = default;

bool CostModel::hashContent(HashStream &H) const {
  // The paper's constants are compiled in: the class identity is the
  // content. Guard with typeid so an unhashable subclass inheriting this
  // does not alias as the paper model.
  if (typeid(*this) != typeid(CostModel))
    return false;
  H.mix(0xc057); // paper-model tag
  return true;
}

bool MeasuredCostModel::hashContent(HashStream &H) const {
  if (typeid(*this) != typeid(MeasuredCostModel))
    return false;
  H.mix(0x6ea5); // measured-model tag
  H.mixDouble(PerItem);
  H.mixDouble(PerMult);
  return true;
}

bool slin::isSelectionNode(const LinearNode &N) {
  if (N.nonZeroOffsetCount() != 0)
    return false;
  for (int J = 0; J != N.pushRate(); ++J) {
    int Ones = 0;
    for (int P = 0; P != N.peekRate(); ++P) {
      double C = N.coeff(P, J);
      if (C == 0.0)
        continue;
      if (C != 1.0)
        return false;
      ++Ones;
    }
    if (Ones != 1)
      return false;
  }
  return true;
}

double CostModel::directCost(const LinearNode &N, bool SelectionOnly) const {
  if (SelectionOnly)
    return 0.0;
  return 185.0 + 2.0 * N.pushRate() +
         static_cast<double>(N.nonZeroOffsetCount()) +
         3.0 * static_cast<double>(directMultiplyCount(N));
}

double CostModel::frequencyCost(const LinearNode &N) const {
  double U = N.pushRate();
  double E = N.peekRate();
  double O = std::max(N.popRate(), 1);
  double Dec = N.popRate() > 1
                   ? (N.popRate() - 1) * (185.0 + 4.0 * U)
                   : 0.0;
  return 185.0 + 2.0 * U + U * std::log(14.0 * E) * O + Dec;
}

MeasuredCostModel::MeasuredCostModel(Engine Eng)
    // Tree interpreter: ~12 "ops" of tape overhead per item moved and ~2
    // per inner-loop multiply. The compiled engine's op tapes and batched
    // kernels measure at roughly a quarter of both.
    : PerItem(usesCompiledArtifact(Eng) ? 3.0 : 12.0),
      PerMult(usesCompiledArtifact(Eng) ? 1.0 : 2.0) {}

double MeasuredCostModel::directCost(const LinearNode &N,
                                     bool SelectionOnly) const {
  if (SelectionOnly)
    return 0.0;
  return PerItem * (N.popRate() + N.pushRate()) +
         PerMult * static_cast<double>(directMultiplyCount(N));
}

double MeasuredCostModel::frequencyCost(const LinearNode &N) const {
  double E = N.peekRate();
  double U = N.pushRate();
  double NFFT = static_cast<double>(fft::nextPowerOfTwo(
      static_cast<size_t>(std::max(2 * N.peekRate(), 2))));
  double M = NFFT - 2.0 * E + 1.0;
  double R = M + E - 1.0;
  double PerFiring = (1.0 + U) * NFFT * std::log2(NFFT) + 2.0 * U * NFFT +
                     PerItem * (R + U * R);
  // Outputs per firing: u*r (optimized); one node firing covers r inputs
  // while the original covers o — normalize to one original firing.
  double Decim = N.popRate() > 1 ? PerItem * U * N.popRate() : 0.0;
  return PerFiring * (static_cast<double>(N.popRate()) / R) + Decim;
}

//===----------------------------------------------------------------------===//
// The DP
//===----------------------------------------------------------------------===//

namespace {

constexpr double Infinity = std::numeric_limits<double>::infinity();

enum class Transform { Any = 0, Linear = 1, Freq = 2, None = 3 };

/// Cells X1..X2 x Y1..Y2 of a container's child grid.
struct RectKey {
  const Stream *Container;
  int X1, X2, Y1, Y2;
  bool operator<(const RectKey &O) const {
    return std::tie(Container, X1, X2, Y1, Y2) <
           std::tie(O.Container, O.X1, O.X2, O.Y1, O.Y2);
  }
};

/// A recipe for one configuration. The DP memoises plans, not streams:
/// plans are immutable and shared, so a memo hit copies a pointer, and
/// only the winning plan is ever built.
struct Plan {
  enum class Kind {
    Keep,     ///< the filter S as written
    Replace,  ///< the filter S replaced by its node under T
    Collapse, ///< rect R combined into one node, realised under T
    Cut,      ///< pipeline {A, B}
    VCut,     ///< rect R as a splitjoin {A, B} split at column Pivot
    Feedback  ///< the loop S with body A and loop B
  };
  explicit Plan(Kind K) : K(K) {}
  Kind K;
  Transform T = Transform::None;
  const Stream *S = nullptr;
  RectKey R{};
  int Pivot = 0;
  std::shared_ptr<const Plan> A, B;
};
using PlanPtr = std::shared_ptr<const Plan>;

struct Config {
  double Cost = Infinity;
  PlanPtr P; ///< null iff infeasible

  bool feasible() const { return P != nullptr; }
};

PlanPtr makePlan(Plan P) { return std::make_shared<const Plan>(std::move(P)); }

/// The child grid of a container (Section 4.3.2): splitjoin children are
/// columns (pipelines stack vertically); a pipeline is a single column.
struct Grid {
  const Stream *Container = nullptr;
  bool IsSplitJoin = false;
  std::vector<std::vector<const Stream *>> Columns;
  /// Firings of cell (x, y) per container steady state.
  std::vector<std::vector<int64_t>> CellReps;
  int maxHeight() const {
    size_t H = 0;
    for (const auto &Col : Columns)
      H = std::max(H, Col.size());
    return static_cast<int>(H);
  }
};

class Selector {
public:
  Selector(const Stream &Root, const SelectionOptions &Opts)
      : Opts(Opts), Model(Opts.Model ? *Opts.Model : DefaultModel),
        AM(Opts.AM ? *Opts.AM : AnalysisManager::global()),
        OwnedLA(Opts.Analysis
                    ? nullptr
                    : new LinearAnalysis(Root, makeLAOptions(Opts))),
        LA(Opts.Analysis ? *Opts.Analysis : *OwnedLA) {}

  StreamPtr run(const Stream &Root) {
    Config C = getCost(Root, Transform::Any);
    if (!C.feasible())
      fatalError("selection produced no feasible configuration");
    return build(*C.P);
  }

private:
  static LinearAnalysis::Options makeLAOptions(const SelectionOptions &O) {
    LinearAnalysis::Options LO;
    LO.MaxMatrixElements = O.MaxMatrixElements;
    LO.AM = O.AM;
    return LO;
  }

  //===--------------------------------------------------------------------===//
  // Building the winner
  //===--------------------------------------------------------------------===//

  StreamPtr build(const Plan &P) {
    switch (P.K) {
    case Plan::Kind::Keep:
      return P.S->clone();
    case Plan::Kind::Replace:
      return realize(*LA.nodeFor(*P.S), P.S->name(), P.T);
    case Plan::Kind::Collapse:
      return realize(*rectNode(gridFor(*P.R.Container), P.R.X1, P.R.X2,
                               P.R.Y1, P.R.Y2),
                     "collapsed", P.T);
    case Plan::Kind::Cut: {
      auto Out = std::make_unique<Pipeline>("cut");
      Out->add(build(*P.A));
      Out->add(build(*P.B));
      return Out;
    }
    case Plan::Kind::VCut:
      return makeVerticalWrapper(gridFor(*P.R.Container), P.R.X1, P.Pivot,
                                 P.R.X2, P.R.Y1, P.R.Y2, build(*P.A),
                                 build(*P.B));
    case Plan::Kind::Feedback: {
      const auto *FB = cast<FeedbackLoop>(P.S);
      return std::make_unique<FeedbackLoop>(FB->name(), FB->joiner(),
                                            build(*P.A), build(*P.B),
                                            FB->splitter(), FB->enqueued());
    }
    }
    unreachable("unexpected plan kind");
  }

  /// \p N implemented directly (Linear) or in the frequency domain.
  StreamPtr realize(const LinearNode &N, const std::string &Stem,
                    Transform T) const {
    if (T == Transform::Linear)
      return makeLinearFilter(N, Stem + "_linear", Opts.CodeGen);
    return makeFrequencyStream(N, Stem + "_freq", Opts.Freq);
  }

  //===--------------------------------------------------------------------===//
  // Stream-level costs
  //===--------------------------------------------------------------------===//

  /// Cost of \p S per one aggregate steady state of \p S.
  Config getCost(const Stream &S, Transform T) {
    auto Key = std::make_pair(&S, static_cast<int>(T));
    auto It = StreamMemo.find(Key);
    if (It != StreamMemo.end())
      return It->second;
    Config C = computeCost(S, T);
    StreamMemo.emplace(Key, C);
    return C;
  }

  Config computeCost(const Stream &S, Transform T) {
    if (T == Transform::Any)
      return bestOf(getCost(S, Transform::Linear),
                    getCost(S, Transform::Freq),
                    getCost(S, Transform::None));

    if (S.kind() == StreamKind::Filter)
      return filterCost(*cast<Filter>(&S), T);

    if (S.kind() == StreamKind::FeedbackLoop) {
      if (T != Transform::None)
        return Config(); // cannot collapse across a feedback loop
      const auto *FB = cast<FeedbackLoop>(&S);
      auto Reps = tryChildRepetitions(S).orDie();
      // Frequency conversion is suppressed inside feedback loops (block
      // buffering would deadlock the cycle).
      ++FeedbackDepth;
      Config Body = getCost(FB->body(), Transform::Any);
      Config Loop = getCost(FB->loop(), Transform::Any);
      --FeedbackDepth;
      if (!Body.feasible() || !Loop.feasible())
        return Config();
      Plan P(Plan::Kind::Feedback);
      P.S = FB;
      P.A = Body.P;
      P.B = Loop.P;
      return {Body.Cost * static_cast<double>(Reps[0]) +
                  Loop.Cost * static_cast<double>(Reps[1]),
              makePlan(std::move(P))};
    }

    // Containers: full-rectangle DP.
    const Grid &G = gridFor(S);
    int W = static_cast<int>(G.Columns.size());
    return getRectCost(G, T, 0, W - 1, 0, G.maxHeight() - 1);
  }

  Config filterCost(const Filter &F, Transform T) {
    const LinearNode *N = LA.nodeFor(F);
    Plan P(Plan::Kind::Replace);
    P.S = &F;
    P.T = T;
    switch (T) {
    case Transform::Linear:
      if (!N)
        return Config();
      return {Model.directCost(*N, isSelectionNode(*N)),
              makePlan(std::move(P))};
    case Transform::Freq:
      if (!N || FeedbackDepth > 0 || !canConvertToFrequency(*N, Opts.Freq))
        return Config();
      return {Model.frequencyCost(*N), makePlan(std::move(P))};
    case Transform::None:
      // Linear nodes left in place still execute at direct cost;
      // nonlinear nodes are not tallied (Figure 4-5).
      P.K = Plan::Kind::Keep;
      return {N ? Model.directCost(*N, isSelectionNode(*N)) : 0.0,
              makePlan(std::move(P))};
    case Transform::Any:
      break;
    }
    unreachable("unexpected transform");
  }

  static Config bestOf(Config A, Config B, Config C) {
    Config *Best = &A;
    if (B.feasible() && (!Best->feasible() || B.Cost < Best->Cost))
      Best = &B;
    if (C.feasible() && (!Best->feasible() || C.Cost < Best->Cost))
      Best = &C;
    return std::move(*Best);
  }

  //===--------------------------------------------------------------------===//
  // Grids
  //===--------------------------------------------------------------------===//

  const Grid &gridFor(const Stream &S) {
    auto It = Grids.find(&S);
    if (It != Grids.end())
      return It->second;
    Grid G;
    G.Container = &S;
    std::vector<int64_t> Reps = tryChildRepetitions(S).orDie();
    if (const auto *P = dynCast<Pipeline>(&S)) {
      G.IsSplitJoin = false;
      std::vector<const Stream *> Col;
      std::vector<int64_t> ColReps;
      for (size_t Y = 0; Y != P->children().size(); ++Y) {
        Col.push_back(P->children()[Y].get());
        ColReps.push_back(Reps[Y]);
      }
      G.Columns.push_back(std::move(Col));
      G.CellReps.push_back(std::move(ColReps));
    } else {
      const auto *SJ = cast<SplitJoin>(&S);
      G.IsSplitJoin = true;
      for (size_t X = 0; X != SJ->children().size(); ++X) {
        const Stream *Child = SJ->children()[X].get();
        std::vector<const Stream *> Col;
        std::vector<int64_t> ColReps;
        if (const auto *CP = dynCast<Pipeline>(Child)) {
          std::vector<int64_t> Inner = tryChildRepetitions(*Child).orDie();
          for (size_t Y = 0; Y != CP->children().size(); ++Y) {
            Col.push_back(CP->children()[Y].get());
            ColReps.push_back(Reps[X] * Inner[Y]);
          }
        } else {
          Col.push_back(Child);
          ColReps.push_back(Reps[X]);
        }
        G.Columns.push_back(std::move(Col));
        G.CellReps.push_back(std::move(ColReps));
      }
    }
    return Grids.emplace(&S, std::move(G)).first->second;
  }

  /// Items flowing into cell (x, y1) per container steady state.
  int64_t flowIntoCell(const Grid &G, int X, int Y) const {
    const Stream *Cell = G.Columns[static_cast<size_t>(X)]
                                  [static_cast<size_t>(Y)];
    return tryComputeRates(*Cell).orDie().Pop *
           G.CellReps[static_cast<size_t>(X)][static_cast<size_t>(Y)];
  }

  /// Items flowing out of cell (x, y) per container steady state.
  int64_t flowOutOfCell(const Grid &G, int X, int Y) const {
    const Stream *Cell = G.Columns[static_cast<size_t>(X)]
                                  [static_cast<size_t>(Y)];
    return tryComputeRates(*Cell).orDie().Push *
           G.CellReps[static_cast<size_t>(X)][static_cast<size_t>(Y)];
  }

  /// Interface weight vector for a cut: the raw per-container-steady-state
  /// flows. Raw flows (rather than gcd-reduced ones) keep the chunking
  /// convention globally consistent across rects that span different
  /// column subsets of the same cut.
  static std::vector<int> interfaceWeights(const std::vector<int64_t> &Flows) {
    std::vector<int> W;
    for (int64_t F : Flows) {
      assert(F > 0 && "zero interface flow");
      W.push_back(static_cast<int>(F));
    }
    return W;
  }

  //===--------------------------------------------------------------------===//
  // Rectangle costs
  //===--------------------------------------------------------------------===//

  Config getRectCost(const Grid &G, Transform T, int X1, int X2, int Y1,
                     int Y2) {
    // Clip the rect to existing cells and reject empty columns.
    for (int X = X1; X <= X2; ++X)
      if (Y1 >= static_cast<int>(G.Columns[static_cast<size_t>(X)].size()))
        return Config();
    auto Key = std::make_pair(RectKey{G.Container, X1, X2, Y1, Y2},
                              static_cast<int>(T));
    auto It = RectMemo.find(Key);
    if (It != RectMemo.end())
      return It->second;
    Config C = computeRectCost(G, T, X1, X2, Y1, Y2);
    RectMemo.emplace(Key, C);
    return C;
  }

  Config computeRectCost(const Grid &G, Transform T, int X1, int X2, int Y1,
                         int Y2) {
    if (T == Transform::Any)
      return bestOf(getRectCost(G, Transform::Linear, X1, X2, Y1, Y2),
                    getRectCost(G, Transform::Freq, X1, X2, Y1, Y2),
                    getRectCost(G, Transform::None, X1, X2, Y1, Y2));

    // Single cell: descend into the child.
    int ColHeight1 =
        static_cast<int>(G.Columns[static_cast<size_t>(X1)].size());
    if (X1 == X2 && Y1 == std::min(Y2, ColHeight1 - 1)) {
      const Stream *Cell =
          G.Columns[static_cast<size_t>(X1)][static_cast<size_t>(Y1)];
      Config Inner = getCost(*Cell, T);
      if (!Inner.feasible())
        return Config();
      Inner.Cost *= static_cast<double>(
          G.CellReps[static_cast<size_t>(X1)][static_cast<size_t>(Y1)]);
      return Inner;
    }

    if (T == Transform::Linear || T == Transform::Freq)
      return collapseRect(G, T, X1, X2, Y1, Y2);

    // NONE: refactor via cuts.
    Config Best;
    // Horizontal cuts (pipeline splits). Valid only where every column
    // has cells on both sides of the pivot.
    int YTop = Y2;
    for (int X = X1; X <= X2; ++X)
      YTop = std::min(
          YTop,
          static_cast<int>(G.Columns[static_cast<size_t>(X)].size()) - 1);
    for (int Pivot = Y1; Pivot < YTop; ++Pivot) {
      Config A = getRectCost(G, Transform::Any, X1, X2, Y1, Pivot);
      Config B = getRectCost(G, Transform::Any, X1, X2, Pivot + 1, Y2);
      if (!A.feasible() || !B.feasible())
        continue;
      if (A.Cost + B.Cost < Best.Cost || !Best.feasible()) {
        Plan P(Plan::Kind::Cut);
        P.A = A.P;
        P.B = B.P;
        Best = {A.Cost + B.Cost, makePlan(std::move(P))};
      }
    }
    // Vertical cuts (splitjoin splits).
    if (G.IsSplitJoin && X1 < X2) {
      for (int Pivot = X1; Pivot < X2; ++Pivot) {
        Config A = getRectCost(G, Transform::Any, X1, Pivot, Y1, Y2);
        Config B = getRectCost(G, Transform::Any, Pivot + 1, X2, Y1, Y2);
        if (!A.feasible() || !B.feasible())
          continue;
        if (A.Cost + B.Cost < Best.Cost || !Best.feasible()) {
          Plan P(Plan::Kind::VCut);
          P.R = {G.Container, X1, X2, Y1, Y2};
          P.Pivot = Pivot;
          P.A = A.P;
          P.B = B.P;
          Best = {A.Cost + B.Cost, makePlan(std::move(P))};
        }
      }
    }
    return Best;
  }

  /// What collapsing a rect costs per container steady state, priced
  /// once for both transforms. The combined node is not kept: a winning
  /// collapse recomputes it through rectNode, an AnalysisManager hit.
  struct RectPrice {
    bool Linear = false; ///< the rect combines into one linear node
    double Direct = Infinity;
    bool FreqOK = false; ///< canConvertToFrequency holds for that node
    double Freq = Infinity;
  };

  const RectPrice &priceRect(const Grid &G, int X1, int X2, int Y1, int Y2) {
    RectKey Key{G.Container, X1, X2, Y1, Y2};
    auto It = Prices.find(Key);
    if (It != Prices.end())
      return It->second;
    RectPrice P;
    if (std::shared_ptr<const LinearNode> Node =
            rectNode(G, X1, X2, Y1, Y2)) {
      int64_t Flow = rectInputFlow(G, X1, X2, Y1);
      double Firings =
          static_cast<double>(Flow) / static_cast<double>(Node->popRate());
      P.Linear = true;
      P.Direct = Model.directCost(*Node, isSelectionNode(*Node)) * Firings;
      P.FreqOK = canConvertToFrequency(*Node, Opts.Freq);
      if (P.FreqOK)
        P.Freq = Model.frequencyCost(*Node) * Firings;
    }
    return Prices.emplace(Key, P).first->second;
  }

  /// Collapses rect columns' nodes into one and prices it.
  Config collapseRect(const Grid &G, Transform T, int X1, int X2, int Y1,
                      int Y2) {
    const RectPrice &Price = priceRect(G, X1, X2, Y1, Y2);
    if (!Price.Linear)
      return Config();
    if (T == Transform::Freq && (FeedbackDepth > 0 || !Price.FreqOK))
      return Config();
    Plan P(Plan::Kind::Collapse);
    P.T = T;
    P.R = {G.Container, X1, X2, Y1, Y2};
    return {T == Transform::Linear ? Price.Direct : Price.Freq,
            makePlan(std::move(P))};
  }

  /// Items entering the rect per container steady state (for a duplicate
  /// splitter at the container input, the per-copy flow).
  int64_t rectInputFlow(const Grid &G, int X1, int X2, int Y1) const {
    if (Y1 == 0 && G.IsSplitJoin) {
      const auto *SJ = cast<SplitJoin>(G.Container);
      if (SJ->splitter().Kind == Splitter::Duplicate)
        return flowIntoCell(G, X1, 0);
      int64_t Sum = 0;
      for (int X = X1; X <= X2; ++X)
        Sum += flowIntoCell(G, X, 0);
      return Sum;
    }
    int64_t Sum = 0;
    for (int X = X1; X <= X2; ++X)
      Sum += flowIntoCell(G, X, Y1);
    return Sum;
  }

  /// The combined linear node of a rect (the AnalysisManager's cached
  /// combination, shared rather than copied), or null if any cell is
  /// nonlinear or the combination exceeds the size limit.
  std::shared_ptr<const LinearNode> rectNode(const Grid &G, int X1, int X2,
                                             int Y1, int Y2) {
    auto Shared = [](std::shared_ptr<const std::optional<LinearNode>> R) {
      return R->has_value() ? std::shared_ptr<const LinearNode>(R, &**R)
                            : nullptr;
    };
    std::vector<LinearNode> Cols;
    for (int X = X1; X <= X2; ++X) {
      int Bottom = std::min(
          Y2, static_cast<int>(G.Columns[static_cast<size_t>(X)].size()) - 1);
      const LinearNode *Col = nullptr;        // the column combined so far
      std::shared_ptr<const LinearNode> Held; // owns Col once combined
      for (int Y = Y1; Y <= Bottom; ++Y) {
        const LinearNode *N =
            LA.nodeFor(*G.Columns[static_cast<size_t>(X)]
                                 [static_cast<size_t>(Y)]);
        if (!N)
          return nullptr;
        if (!Col) {
          Col = N;
          continue;
        }
        Held = Shared(
            AM.combinePipeline(*Col, *N, Opts.MaxMatrixElements));
        if (!Held)
          return nullptr;
        Col = Held.get();
      }
      // A one-column rect spans two or more cells (one cell descends).
      if (X1 == X2)
        return Held;
      Cols.push_back(*Col);
    }

    const auto *SJ = cast<SplitJoin>(G.Container);
    bool FullBottom = true;
    for (int X = X1; X <= X2; ++X)
      FullBottom =
          FullBottom &&
          Y2 >= static_cast<int>(G.Columns[static_cast<size_t>(X)].size()) - 1;

    // Joiner weights: original (subset) at the true bottom, interface
    // flows otherwise.
    std::vector<int> JoinW;
    if (FullBottom) {
      for (int X = X1; X <= X2; ++X)
        JoinW.push_back(SJ->joiner().Weights[static_cast<size_t>(X)]);
    } else {
      std::vector<int64_t> Flows;
      for (int X = X1; X <= X2; ++X)
        Flows.push_back(flowOutOfCell(G, X, Y2));
      JoinW = interfaceWeights(Flows);
    }

    if (Y1 == 0) {
      bool Dup = SJ->splitter().Kind == Splitter::Duplicate;
      std::vector<int> SplitW;
      if (!Dup)
        for (int X = X1; X <= X2; ++X)
          SplitW.push_back(SJ->splitter().Weights[static_cast<size_t>(X)]);
      return Shared(AM.combineSplitJoin(Cols, Dup, SplitW, JoinW,
                                        Opts.MaxMatrixElements));
    }
    // Mid-cut rect: the input is the interleaved interface stream.
    std::vector<int64_t> InFlows;
    for (int X = X1; X <= X2; ++X)
      InFlows.push_back(flowIntoCell(G, X, Y1));
    std::vector<int> SplitW = interfaceWeights(InFlows);
    return Shared(AM.combineSplitJoin(Cols, /*Duplicate=*/false, SplitW,
                                      JoinW, Opts.MaxMatrixElements));
  }

  /// Builds the splitjoin wrapper for a vertical cut at \p XPivot.
  StreamPtr makeVerticalWrapper(const Grid &G, int X1, int XPivot, int X2,
                                int Y1, int Y2, StreamPtr A, StreamPtr B) {
    const auto *SJ = cast<SplitJoin>(G.Container);
    // Splitter: duplicate stays duplicate; roundrobin gets per-part
    // chunk weights (when Y1 == 0); mid-cut rect inputs use interface
    // flows.
    Splitter Split;
    if (Y1 == 0 && SJ->splitter().Kind == Splitter::Duplicate) {
      Split = Splitter::duplicate();
    } else if (Y1 == 0) {
      // Chunk per original splitter cycle (unreduced sums).
      int64_t SumA = 0, SumB = 0;
      for (int X = X1; X <= XPivot; ++X)
        SumA += SJ->splitter().Weights[static_cast<size_t>(X)];
      for (int X = XPivot + 1; X <= X2; ++X)
        SumB += SJ->splitter().Weights[static_cast<size_t>(X)];
      Split = Splitter::roundRobin(
          {static_cast<int>(SumA), static_cast<int>(SumB)});
    } else {
      // Chunk per interface cycle (raw flow sums, unreduced).
      int64_t SumA = 0, SumB = 0;
      for (int X = X1; X <= XPivot; ++X)
        SumA += flowIntoCell(G, X, Y1);
      for (int X = XPivot + 1; X <= X2; ++X)
        SumB += flowIntoCell(G, X, Y1);
      Split = Splitter::roundRobin(
          {static_cast<int>(SumA), static_cast<int>(SumB)});
    }
    // Joiner: one part-cycle each.
    bool FullBottom = true;
    for (int X = X1; X <= X2; ++X)
      FullBottom =
          FullBottom &&
          Y2 >= static_cast<int>(G.Columns[static_cast<size_t>(X)].size()) - 1;
    int64_t OutA = 0, OutB = 0;
    if (FullBottom) {
      for (int X = X1; X <= XPivot; ++X)
        OutA += SJ->joiner().Weights[static_cast<size_t>(X)];
      for (int X = XPivot + 1; X <= X2; ++X)
        OutB += SJ->joiner().Weights[static_cast<size_t>(X)];
    } else {
      for (int X = X1; X <= XPivot; ++X)
        OutA += flowOutOfCell(G, X, Y2);
      for (int X = XPivot + 1; X <= X2; ++X)
        OutB += flowOutOfCell(G, X, Y2);
    }
    auto Out = std::make_unique<SplitJoin>(
        "vcut", Split,
        Joiner::roundRobin({static_cast<int>(OutA), static_cast<int>(OutB)}));
    Out->add(std::move(A));
    Out->add(std::move(B));
    return Out;
  }

  SelectionOptions Opts;
  int FeedbackDepth = 0;
  CostModel DefaultModel;
  const CostModel &Model;
  AnalysisManager &AM;
  std::unique_ptr<LinearAnalysis> OwnedLA; ///< null when Analysis provided
  const LinearAnalysis &LA;
  std::map<std::pair<const Stream *, int>, Config> StreamMemo;
  std::map<std::pair<RectKey, int>, Config> RectMemo;
  std::map<RectKey, RectPrice> Prices;
  std::map<const Stream *, Grid> Grids;
};

} // namespace

StreamPtr slin::selectOptimizations(const Stream &Root,
                                    const SelectionOptions &Opts) {
  Selector S(Root, Opts);
  return S.run(Root);
}
