//===- exec/FlatGraph.cpp - Flattened stream graph --------------------------==//

#include "exec/FlatGraph.h"

#include "sched/Rates.h"
#include "support/Diag.h"

using namespace slin;
using namespace slin::flat;

//===----------------------------------------------------------------------===//
// Node rate queries
//===----------------------------------------------------------------------===//

int Node::peekNeedOn(int Chan, bool InitFiring) const {
  if (Chan < 0)
    return 0;
  switch (Kind) {
  case NodeKind::Filter:
    if (Chan != In)
      return 0;
    return InitFiring && F->hasInitWork() ? F->initPeekRate() : F->peekRate();
  case NodeKind::DupSplit:
    return Chan == In ? 1 : 0;
  case NodeKind::RRSplit:
    return Chan == In ? totalWeight() : 0;
  case NodeKind::RRJoin:
    for (size_t K = 0; K != Ins.size(); ++K)
      if (Ins[K] == Chan)
        return Weights[K];
    return 0;
  }
  unreachable("unknown node kind");
}

int Node::popsFrom(int Chan, bool InitFiring) const {
  if (Chan < 0)
    return 0;
  switch (Kind) {
  case NodeKind::Filter:
    if (Chan != In)
      return 0;
    return InitFiring && F->hasInitWork() ? F->initPopRate() : F->popRate();
  case NodeKind::DupSplit:
  case NodeKind::RRSplit:
  case NodeKind::RRJoin:
    return peekNeedOn(Chan, InitFiring);
  }
  unreachable("unknown node kind");
}

int Node::pushesTo(int Chan, bool InitFiring) const {
  if (Chan < 0)
    return 0;
  switch (Kind) {
  case NodeKind::Filter:
    if (Chan != Out)
      return 0;
    return InitFiring && F->hasInitWork() ? F->initPushRate() : F->pushRate();
  case NodeKind::DupSplit: {
    int N = 0;
    for (int C : Outs)
      if (C == Chan)
        ++N;
    return N;
  }
  case NodeKind::RRSplit: {
    int N = 0;
    for (size_t K = 0; K != Outs.size(); ++K)
      if (Outs[K] == Chan)
        N += Weights[K];
    return N;
  }
  case NodeKind::RRJoin:
    return Chan == Out ? totalWeight() : 0;
  }
  unreachable("unknown node kind");
}

std::vector<int> Node::inputChannels() const {
  std::vector<int> R;
  if (In >= 0)
    R.push_back(In);
  for (int C : Ins)
    if (C >= 0)
      R.push_back(C);
  return R;
}

std::vector<int> Node::outputChannels() const {
  std::vector<int> R;
  if (Out >= 0)
    R.push_back(Out);
  for (int C : Outs)
    if (C >= 0)
      R.push_back(C);
  return R;
}

//===----------------------------------------------------------------------===//
// Flattening
//===----------------------------------------------------------------------===//

FlatGraph::FlatGraph(const Stream &Root) {
  ExternalIn = makeChannel();
  ExternalOut = makeChannel();
  flatten(Root, ExternalIn, ExternalOut);
  RootProducesOutput = tryComputeRates(Root).orDie().Push > 0;
}

int FlatGraph::makeChannel() {
  InitialItems.emplace_back();
  return static_cast<int>(InitialItems.size() - 1);
}

void FlatGraph::flatten(const Stream &S, int InChan, int OutChan) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    Node N;
    N.Kind = NodeKind::Filter;
    N.Name = F->name();
    N.F = F;
    N.In = F->peekRate() == 0 && F->popRate() == 0 && F->initPeekRate() == 0 &&
                   F->initPopRate() == 0
               ? -1
               : InChan;
    N.Out = OutChan;
    Nodes.push_back(std::move(N));
    return;
  }
  case StreamKind::Pipeline: {
    const auto *P = cast<Pipeline>(&S);
    const auto &Children = P->children();
    assert(!Children.empty() && "empty pipeline");
    int Cur = InChan;
    for (size_t I = 0; I != Children.size(); ++I) {
      int Next = I + 1 == Children.size() ? OutChan : makeChannel();
      flatten(*Children[I], Cur, Next);
      Cur = Next;
    }
    return;
  }
  case StreamKind::SplitJoin: {
    const auto *SJ = cast<SplitJoin>(&S);
    const auto &Children = SJ->children();
    assert(!Children.empty() && "empty splitjoin");

    Node Split;
    Split.Kind = SJ->splitter().Kind == Splitter::Duplicate
                     ? NodeKind::DupSplit
                     : NodeKind::RRSplit;
    Split.Name = SJ->name() + ".split";
    Split.In = InChan;
    Split.Weights = SJ->splitter().Weights;

    Node Join;
    Join.Kind = NodeKind::RRJoin;
    Join.Name = SJ->name() + ".join";
    Join.Out = OutChan;
    Join.Weights = SJ->joiner().Weights;

    std::vector<std::pair<int, int>> ChildChans;
    for (size_t K = 0; K != Children.size(); ++K) {
      int CIn = makeChannel();
      int COut = makeChannel();
      Split.Outs.push_back(CIn);
      Join.Ins.push_back(COut);
      ChildChans.push_back({CIn, COut});
    }
    // A "null" roundrobin splitter (all weights zero; e.g. Radar's bank of
    // source channels) moves no data: omit the node entirely.
    bool NullSplit =
        Split.Kind == NodeKind::RRSplit && SJ->splitter().totalWeight() == 0;
    if (!NullSplit)
      Nodes.push_back(std::move(Split));
    for (size_t K = 0; K != Children.size(); ++K)
      flatten(*Children[K], ChildChans[K].first, ChildChans[K].second);
    Nodes.push_back(std::move(Join));
    return;
  }
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    int BodyIn = makeChannel();
    int BodyOut = makeChannel();
    int LoopIn = makeChannel();
    int LoopOut = makeChannel();

    Node Join;
    Join.Kind = NodeKind::RRJoin;
    Join.Name = FB->name() + ".join";
    Join.Ins = {InChan, LoopOut};
    Join.Weights = FB->joiner().Weights;
    Join.Out = BodyIn;
    Nodes.push_back(std::move(Join));

    flatten(FB->body(), BodyIn, BodyOut);

    Node Split;
    Split.Kind = FB->splitter().Kind == Splitter::Duplicate
                     ? NodeKind::DupSplit
                     : NodeKind::RRSplit;
    Split.Name = FB->name() + ".split";
    Split.In = BodyOut;
    Split.Outs = {OutChan, LoopIn};
    Split.Weights = FB->splitter().Weights;
    Nodes.push_back(std::move(Split));

    flatten(FB->loop(), LoopIn, LoopOut);

    // Pre-fill the feedback channel so the joiner can start.
    for (double V : FB->enqueued())
      InitialItems[static_cast<size_t>(LoopOut)].push_back(V);
    return;
  }
  }
  unreachable("unknown stream kind");
}
