//===- opt/Cleanup.cpp - Cleanup and verification passes --------------------==//

#include "opt/Cleanup.h"

#include "compiler/AnalysisManager.h"
#include "compiler/StructuralHash.h"
#include "sched/Rates.h"
#include "support/Diag.h"
#include "wir/Build.h"

#include <algorithm>
#include <cstdio>

using namespace slin;

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string CleanupStats::summary() const {
  if (!any())
    return "no change";
  std::string Out;
  char Buf[96];
  auto Append = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    if (!Out.empty())
      Out += ", ";
    Out += Buf;
  };
  if (ConstEmitters)
    Append("%d const emitter%s", ConstEmitters, ConstEmitters == 1 ? "" : "s");
  if (TrimmedFilters)
    Append("%d filter%s trimmed (-%lld peek rows)", TrimmedFilters,
           TrimmedFilters == 1 ? "" : "s",
           static_cast<long long>(TrimmedPeekRows));
  if (RemovedBranches)
    Append("%d dead branch%s removed", RemovedBranches,
           RemovedBranches == 1 ? "" : "es");
  if (DiscardSinks)
    Append("%d branch%s reduced to discard sinks", DiscardSinks,
           DiscardSinks == 1 ? "" : "es");
  if (CollapsedSplitJoins)
    Append("%d splitjoin%s collapsed", CollapsedSplitJoins,
           CollapsedSplitJoins == 1 ? "" : "s");
  return Out;
}

//===----------------------------------------------------------------------===//
// Observable effects
//===----------------------------------------------------------------------===//

namespace {

bool anyPrint(const wir::StmtList &Body) {
  for (const wir::StmtPtr &S : Body) {
    switch (S->kind()) {
    case wir::StmtKind::Print:
      return true;
    case wir::StmtKind::For:
      if (anyPrint(wir::cast<wir::ForStmt>(S.get())->Body))
        return true;
      break;
    case wir::StmtKind::If: {
      const auto *I = wir::cast<wir::IfStmt>(S.get());
      if (anyPrint(I->Then) || anyPrint(I->Else))
        return true;
      break;
    }
    case wir::StmtKind::Uncounted:
      if (anyPrint(wir::cast<wir::UncountedStmt>(S.get())->Body))
        return true;
      break;
    default:
      break;
    }
  }
  return false;
}

} // namespace

bool slin::hasObservableEffects(const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    if (F->isNative())
      return false; // natives only read and write their tapes
    if (anyPrint(F->work().Body))
      return true;
    return F->initWork() && anyPrint(F->initWork()->Body);
  }
  case StreamKind::Pipeline:
    for (const StreamPtr &C : cast<Pipeline>(&S)->children())
      if (hasObservableEffects(*C))
        return true;
    return false;
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : cast<SplitJoin>(&S)->children())
      if (hasObservableEffects(*C))
        return true;
    return false;
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    return hasObservableEffects(FB->body()) ||
           hasObservableEffects(FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

//===----------------------------------------------------------------------===//
// LinearConstFold
//===----------------------------------------------------------------------===//

namespace {

/// Deepest peek position with a nonzero coefficient, or -1 when A == 0.
int deepestUsedPeek(const LinearNode &N) {
  for (int P = N.peekRate() - 1; P >= 0; --P)
    for (int J = 0; J != N.pushRate(); ++J)
      if (N.coeff(P, J) != 0.0)
        return P;
  return -1;
}

/// \p N with its dead deep-peek rows removed: same pops, pushes and
/// coefficients, peek window shrunk to \p NewE.
LinearNode trimPeekWindow(const LinearNode &N, int NewE) {
  int E = N.peekRate(), U = N.pushRate();
  assert(NewE >= N.popRate() && NewE < E && "nothing to trim");
  Matrix A(static_cast<size_t>(NewE), static_cast<size_t>(U));
  for (int R = 0; R != NewE; ++R)
    for (int J = 0; J != U; ++J)
      A.at(static_cast<size_t>(R), static_cast<size_t>(J)) =
          N.matrix().at(static_cast<size_t>(E - NewE + R),
                        static_cast<size_t>(J));
  return LinearNode(std::move(A), N.vector(), NewE, N.popRate(), U);
}

class ConstFolder {
public:
  ConstFolder(AnalysisManager &AM, LinearCodeGenStyle Style,
              CleanupStats &Stats)
      : AM(AM), Style(Style), Stats(Stats) {}

  bool Changed = false;

  StreamPtr rewrite(const Stream &S) {
    switch (S.kind()) {
    case StreamKind::Filter:
      return rewriteFilter(*cast<Filter>(&S));
    case StreamKind::Pipeline: {
      auto Out = std::make_unique<Pipeline>(S.name());
      for (const StreamPtr &C : cast<Pipeline>(&S)->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::SplitJoin: {
      const auto *SJ = cast<SplitJoin>(&S);
      auto Out = std::make_unique<SplitJoin>(SJ->name(), SJ->splitter(),
                                             SJ->joiner());
      for (const StreamPtr &C : SJ->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::FeedbackLoop: {
      const auto *FB = cast<FeedbackLoop>(&S);
      return std::make_unique<FeedbackLoop>(
          FB->name(), FB->joiner(), rewrite(FB->body()), rewrite(FB->loop()),
          FB->splitter(), FB->enqueued());
    }
    }
    unreachable("unknown stream kind");
  }

private:
  StreamPtr rewriteFilter(const Filter &F) {
    // Only steady-state IR filters are foldable: natives hide their
    // arithmetic and init-work firings are outside the extracted node.
    if (F.isNative() || F.initWork())
      return F.clone();
    std::shared_ptr<const ExtractionResult> Ext = AM.extraction(F);
    if (!Ext->isLinear())
      return F.clone();
    const LinearNode &N = *Ext->Node;
    int Deepest = deepestUsedPeek(N);
    int NewE = std::max(N.popRate(), Deepest + 1);
    if (NewE >= N.peekRate())
      return F.clone(); // every deep peek position is live

    // Fold only filters that are verbatim outputs of our code generator:
    // regenerating the extracted node must reproduce the filter exactly
    // (structural hash ignores names). Then the trimmed rebuild is the
    // same code with a smaller declared peek window — outputs and FLOP
    // counts are bit-identical by construction. Hand-written filters
    // (e.g. regions the selection DP left uncollapsed) never match and
    // are left untouched.
    std::unique_ptr<Filter> Regen = makeLinearFilter(N, F.name(), Style);
    if (structuralHash(*Regen) != structuralHash(F))
      return F.clone();

    std::unique_ptr<Filter> Folded =
        makeLinearFilter(trimPeekWindow(N, NewE), F.name(), Style);
    if (Deepest < 0)
      ++Stats.ConstEmitters;
    else
      ++Stats.TrimmedFilters;
    Stats.TrimmedPeekRows += N.peekRate() - NewE;
    Changed = true;
    return Folded;
  }

  AnalysisManager &AM;
  LinearCodeGenStyle Style;
  CleanupStats &Stats;
};

} // namespace

StreamPtr slin::constFoldLinear(const Stream &Root, AnalysisManager &AM,
                                LinearCodeGenStyle Style,
                                CleanupStats &Stats) {
  ConstFolder Folder(AM, Style, Stats);
  StreamPtr Out = Folder.rewrite(Root);
  return Folder.Changed ? std::move(Out) : nullptr;
}

//===----------------------------------------------------------------------===//
// DeadChannelElim
//===----------------------------------------------------------------------===//

namespace {

/// Minimal replacement for a dead roundrobin branch: consumes its
/// splitter allotment and discards it. Pure buffer management — no
/// floating-point work survives.
std::unique_ptr<Filter> makeDiscardSink(int Pop) {
  using namespace wir;
  using namespace wir::build;
  WorkFunction W(Pop, Pop, 0,
                 stmts(loop("i", cst(0), cst(Pop), stmts(popStmt()))));
  return std::make_unique<Filter>("DeadBranchSink", std::vector<FieldDef>{},
                                  std::move(W));
}

class DeadChannelEliminator {
public:
  explicit DeadChannelEliminator(CleanupStats &Stats) : Stats(Stats) {}

  bool Changed = false;

  StreamPtr rewrite(const Stream &S) {
    switch (S.kind()) {
    case StreamKind::Filter:
      return S.clone();
    case StreamKind::Pipeline: {
      auto Out = std::make_unique<Pipeline>(S.name());
      for (const StreamPtr &C : cast<Pipeline>(&S)->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::SplitJoin:
      return rewriteSplitJoin(*cast<SplitJoin>(&S));
    case StreamKind::FeedbackLoop: {
      const auto *FB = cast<FeedbackLoop>(&S);
      return std::make_unique<FeedbackLoop>(
          FB->name(), FB->joiner(), rewrite(FB->body()), rewrite(FB->loop()),
          FB->splitter(), FB->enqueued());
    }
    }
    unreachable("unknown stream kind");
  }

private:
  /// A branch is dead when the joiner never reads from it and deleting
  /// it cannot be observed: no prints anywhere below, and (defensively —
  /// a zero-weight producing branch has no valid steady state anyway)
  /// no items produced.
  bool isDeadBranch(const Stream &Child, int JoinWeight) {
    if (JoinWeight != 0 || hasObservableEffects(Child))
      return false;
    Expected<RateSignature> R = tryComputeRates(Child);
    return R && R->Push == 0;
  }

  /// True if \p Child already is the minimal pop-and-discard sink for
  /// \p SplitW items (keeps the pass idempotent across recompiles).
  static bool isDiscardSink(const Stream &Child, int SplitW) {
    return Child.kind() == StreamKind::Filter &&
           !cast<Filter>(&Child)->isNative() &&
           structuralHash(Child) == structuralHash(*makeDiscardSink(SplitW));
  }

  StreamPtr rewriteSplitJoin(const SplitJoin &SJ) {
    const Splitter &Split = SJ.splitter();
    const Joiner &Join = SJ.joiner();
    const auto &Children = SJ.children();
    bool RR = Split.Kind == Splitter::RoundRobin;
    // Malformed weight vectors: rebuild verbatim, the verifier's job.
    if (Join.Weights.size() != Children.size() ||
        (RR && Split.Weights.size() != Children.size())) {
      auto Out = std::make_unique<SplitJoin>(SJ.name(), Split, Join);
      for (const StreamPtr &C : Children)
        Out->add(rewrite(*C));
      return Out;
    }

    std::vector<StreamPtr> NewChildren;
    std::vector<int> NewSplitW, NewJoinW;
    int Removed = 0, Sinks = 0;
    for (size_t K = 0; K != Children.size(); ++K) {
      int SplitW = RR ? Split.Weights[K] : 0;
      if (isDeadBranch(*Children[K], Join.Weights[K])) {
        if (!RR || SplitW == 0) {
          // Nothing is owed to this branch: delete it outright.
          ++Removed;
          continue;
        }
        if (!isDiscardSink(*Children[K], SplitW)) {
          // The splitter still deals this branch SplitW items per
          // cycle; keep the accounting with a minimal discard sink.
          ++Sinks;
          NewChildren.push_back(makeDiscardSink(SplitW));
          NewSplitW.push_back(SplitW);
          NewJoinW.push_back(0);
          continue;
        }
      }
      NewChildren.push_back(rewrite(*Children[K]));
      if (RR)
        NewSplitW.push_back(SplitW);
      NewJoinW.push_back(Join.Weights[K]);
    }
    // Never delete every branch: an empty splitjoin is unrepresentable.
    // (Stats are committed only past this point, so rolled-back
    // removals never show up in the pass note.)
    if (NewChildren.empty()) {
      auto Out = std::make_unique<SplitJoin>(SJ.name(), Split, Join);
      for (const StreamPtr &C : Children)
        Out->add(rewrite(*C));
      return Out;
    }
    bool RemovedHere = Removed || Sinks;
    Stats.RemovedBranches += Removed;
    Stats.DiscardSinks += Sinks;
    Changed = Changed || RemovedHere;

    // A splitjoin reduced to one branch is that branch: the splitter
    // forwards the whole input to it and the joiner forwards its whole
    // output.
    if (RemovedHere && NewChildren.size() == 1) {
      ++Stats.CollapsedSplitJoins;
      return std::move(NewChildren.front());
    }

    Splitter NewSplit = RR ? Splitter::roundRobin(std::move(NewSplitW))
                           : Splitter::duplicate();
    auto Out = std::make_unique<SplitJoin>(
        SJ.name(), std::move(NewSplit),
        Joiner::roundRobin(std::move(NewJoinW)));
    for (StreamPtr &C : NewChildren)
      Out->add(std::move(C));
    return Out;
  }

  CleanupStats &Stats;
};

} // namespace

StreamPtr slin::eliminateDeadChannels(const Stream &Root,
                                      CleanupStats &Stats) {
  DeadChannelEliminator E(Stats);
  StreamPtr Out = E.rewrite(Root);
  return E.Changed ? std::move(Out) : nullptr;
}

//===----------------------------------------------------------------------===//
// VerifyRates: hierarchy
//===----------------------------------------------------------------------===//

namespace {

/// Filter-level invariants the balance solver never looks at.
std::string checkFilterRates(const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    if (F->peekRate() < 0 || F->popRate() < 0 || F->pushRate() < 0)
      return "filter '" + F->name() + "': negative I/O rate";
    if (F->peekRate() < F->popRate())
      return "filter '" + F->name() + "': peek rate below pop rate";
    if (F->hasInitWork()) {
      if (F->initPeekRate() < 0 || F->initPopRate() < 0 ||
          F->initPushRate() < 0)
        return "filter '" + F->name() + "': negative init I/O rate";
      if (F->initPeekRate() < F->initPopRate())
        return "filter '" + F->name() + "': init peek rate below init pop";
    }
    return "";
  }
  case StreamKind::Pipeline:
    for (const StreamPtr &C : cast<Pipeline>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::SplitJoin:
    for (const StreamPtr &C : cast<SplitJoin>(&S)->children()) {
      std::string E = checkFilterRates(*C);
      if (!E.empty())
        return E;
    }
    return "";
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    std::string E = checkFilterRates(FB->body());
    if (!E.empty())
      return E;
    return checkFilterRates(FB->loop());
  }
  }
  unreachable("unknown stream kind");
}

} // namespace

std::string slin::verifyStreamRates(const Stream &Root) {
  std::string Err = checkFilterRates(Root);
  if (!Err.empty())
    return Err;
  // The balance solver recurses through every container, so one root
  // query validates all repetition vectors and splitter/joiner
  // consistency checks along the way.
  if (Expected<RateSignature> R = tryComputeRates(Root); !R)
    return R.status().message();
  return "";
}
