//===- exec/Executor.cpp - Dynamic stream-graph executor --------------------==//
#include <algorithm>

#include "exec/Executor.h"

#include "support/Diag.h"

using namespace slin;
using namespace slin::flat;

Executor::~Executor() = default;

//===----------------------------------------------------------------------===//
// Tape adapter
//===----------------------------------------------------------------------===//

/// Adapts a node's input/output channels to the Tape interface seen by a
/// firing filter.
class Executor::NodeTape : public wir::Tape {
public:
  NodeTape(Executor &E, int InChan, int OutChan) : E(E) {
    In = InChan >= 0 ? &E.Channels[static_cast<size_t>(InChan)].Q : nullptr;
    Out = OutChan >= 0 ? &E.Channels[static_cast<size_t>(OutChan)].Q : nullptr;
  }

  double peek(int Index) override {
    assert(In && "peek on a source filter");
    assert(Index >= 0 && static_cast<size_t>(Index) < In->size() &&
           "peek beyond available input (scheduler bug)");
    return (*In)[static_cast<size_t>(Index)];
  }

  double pop() override {
    assert(In && !In->empty() && "pop beyond available input");
    double V = In->front();
    In->pop_front();
    return V;
  }

  void push(double Value) override {
    assert(Out && "push on a filter without an output channel");
    Out->push_back(Value);
  }

  void print(double Value) override { E.Printed.push_back(Value); }

private:
  Executor &E;
  std::deque<double> *In;
  std::deque<double> *Out;
};

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

Executor::Executor(const Stream &Root, Options Opts)
    : Opts(Opts), Graph(Root) {
  Channels.resize(Graph.numChannels());
  for (size_t C = 0; C != Channels.size(); ++C)
    for (double V : Graph.InitialItems[C])
      Channels[C].Q.push_back(V);
  States.resize(Graph.Nodes.size());
  for (size_t I = 0; I != Graph.Nodes.size(); ++I) {
    const Node &N = Graph.Nodes[I];
    if (N.Kind != NodeKind::Filter)
      continue;
    if (N.F->isNative())
      States[I].Native = N.F->native().clone();
    else
      States[I].Fields = wir::FieldStore(N.F->fields());
  }
  computeChannelCaps();
}

void Executor::computeChannelCaps() {
  for (Channel &C : Channels)
    C.Cap = Opts.ChannelCap;
  auto Require = [&](int Chan, size_t Need) {
    if (Chan < 0)
      return;
    Channel &C = Channels[static_cast<size_t>(Chan)];
    size_t Cap = std::max(Opts.MinChannelCap, 2 * Need);
    C.Cap = std::min(C.Cap, std::max(Cap, C.Q.size()));
  };
  for (const Node &N : Graph.Nodes) {
    switch (N.Kind) {
    case NodeKind::Filter: {
      int Need = std::max(std::max(N.F->peekRate(), N.F->initPeekRate()), 1);
      Require(N.In, static_cast<size_t>(Need));
      break;
    }
    case NodeKind::DupSplit:
      Require(N.In, 1);
      break;
    case NodeKind::RRSplit:
      Require(N.In, static_cast<size_t>(N.totalWeight()));
      break;
    case NodeKind::RRJoin:
      for (size_t K = 0; K != N.Ins.size(); ++K)
        Require(N.Ins[K], static_cast<size_t>(N.Weights[K]));
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Firing
//===----------------------------------------------------------------------===//

size_t Executor::inputAvailable(const Node &N) const {
  if (N.In < 0)
    return 0;
  return Channels[static_cast<size_t>(N.In)].Q.size();
}

bool Executor::canFire(size_t I) const {
  const Node &N = Graph.Nodes[I];
  auto OutHasRoom = [&](int Chan) {
    if (Chan < 0)
      return true;
    const Channel &C = Channels[static_cast<size_t>(Chan)];
    return C.Q.size() <= C.Cap;
  };
  switch (N.Kind) {
  case NodeKind::Filter: {
    bool Init = !States[I].FiredOnce && N.F->hasInitWork();
    size_t Need = static_cast<size_t>(
        Init ? N.F->initPeekRate() : N.F->peekRate());
    if (N.In >= 0 && inputAvailable(N) < Need)
      return false;
    if (N.In < 0 && Need > 0)
      return false;
    return OutHasRoom(N.Out);
  }
  case NodeKind::DupSplit: {
    if (inputAvailable(N) < 1)
      return false;
    for (int C : N.Outs)
      if (!OutHasRoom(C))
        return false;
    return true;
  }
  case NodeKind::RRSplit: {
    if (inputAvailable(N) < static_cast<size_t>(N.totalWeight()))
      return false;
    for (int C : N.Outs)
      if (!OutHasRoom(C))
        return false;
    return true;
  }
  case NodeKind::RRJoin: {
    for (size_t K = 0; K != N.Ins.size(); ++K)
      if (Channels[static_cast<size_t>(N.Ins[K])].Q.size() <
          static_cast<size_t>(N.Weights[K]))
        return false;
    return OutHasRoom(N.Out);
  }
  }
  unreachable("unknown node kind");
}

void Executor::fire(size_t I) {
  ++Firings;
  const Node &N = Graph.Nodes[I];
  switch (N.Kind) {
  case NodeKind::Filter: {
    NodeTape T(*this, N.In, N.Out);
    NodeState &S = States[I];
    bool Init = !S.FiredOnce && N.F->hasInitWork();
    S.FiredOnce = true;
    if (S.Native) {
      if (Init)
        S.Native->fireInit(T);
      else
        S.Native->fire(T);
      return;
    }
    const wir::WorkFunction &W = Init ? *N.F->initWork() : N.F->work();
    wir::interpret(W, N.F->fields(), S.Fields, T);
    return;
  }
  case NodeKind::DupSplit: {
    auto &In = Channels[static_cast<size_t>(N.In)].Q;
    double V = In.front();
    In.pop_front();
    for (int C : N.Outs)
      Channels[static_cast<size_t>(C)].Q.push_back(V);
    return;
  }
  case NodeKind::RRSplit: {
    auto &In = Channels[static_cast<size_t>(N.In)].Q;
    for (size_t K = 0; K != N.Outs.size(); ++K) {
      auto &Out = Channels[static_cast<size_t>(N.Outs[K])].Q;
      for (int J = 0; J != N.Weights[K]; ++J) {
        Out.push_back(In.front());
        In.pop_front();
      }
    }
    return;
  }
  case NodeKind::RRJoin: {
    auto &Out = Channels[static_cast<size_t>(N.Out)].Q;
    for (size_t K = 0; K != N.Ins.size(); ++K) {
      auto &In = Channels[static_cast<size_t>(N.Ins[K])].Q;
      for (int J = 0; J != N.Weights[K]; ++J) {
        Out.push_back(In.front());
        In.pop_front();
      }
    }
    return;
  }
  }
  unreachable("unknown node kind");
}

//===----------------------------------------------------------------------===//
// Driving
//===----------------------------------------------------------------------===//

void Executor::provideInput(const std::vector<double> &Items) {
  auto &Q = Channels[static_cast<size_t>(Graph.ExternalIn)].Q;
  for (double V : Items)
    Q.push_back(V);
}

size_t Executor::outputsProduced() const {
  if (Graph.RootProducesOutput)
    return Channels[static_cast<size_t>(Graph.ExternalOut)].Q.size();
  return Printed.size();
}

std::vector<double> Executor::outputSnapshot() const {
  const auto &Q = Channels[static_cast<size_t>(Graph.ExternalOut)].Q;
  return std::vector<double>(Q.begin(), Q.end());
}

Status Executor::tryRun(size_t NOutputs) {
  while (outputsProduced() < NOutputs) {
    bool AnyFired = false;
    for (size_t I = 0; I != Graph.Nodes.size(); ++I) {
      size_t Batch = 0;
      while (Batch < Opts.BatchLimit && canFire(I)) {
        fire(I);
        AnyFired = true;
        ++Batch;
      }
    }
    if (!AnyFired)
      return Status(ErrorCode::Deadlock,
                    "stream graph deadlocked: no node can fire (needed " +
                        std::to_string(NOutputs) + " outputs, have " +
                        std::to_string(outputsProduced()) + ")");
  }
  return Status::ok();
}
