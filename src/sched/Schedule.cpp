//===- sched/Schedule.cpp - Static steady-state firing programs -------------==//

#include "sched/Schedule.h"

#include "support/Diag.h"
#include "support/MathUtil.h"
#include "support/Serialize.h"

#include <algorithm>

using namespace slin;
using namespace slin::flat;

namespace {

/// The entry of \p Uses on \p Chan; a zero-rate entry when there is none.
const ChannelUse &useOn(const std::vector<ChannelUse> &Uses, int Chan) {
  static const ChannelUse None;
  for (const ChannelUse &U : Uses)
    if (U.Chan == Chan)
      return U;
  return None;
}

int64_t rateOn(const std::vector<ChannelUse> &Uses, int Chan) {
  return useOn(Uses, Chan).Rate;
}

/// Scales rationals to the minimal positive integer vector with the same
/// ratios (mirrors the hierarchical solver in Rates.cpp).
std::vector<int64_t> toMinimalIntegers(const std::vector<Rational> &Rats) {
  int64_t DenLcm = 1;
  for (const Rational &R : Rats) {
    if (R.num() <= 0)
      fatalError("non-positive repetition count while solving flat rates");
    DenLcm = lcm64(DenLcm, R.den());
  }
  std::vector<int64_t> Ints;
  Ints.reserve(Rats.size());
  int64_t NumGcd = 0;
  for (const Rational &R : Rats) {
    int64_t V = R.num() * (DenLcm / R.den());
    Ints.push_back(V);
    NumGcd = gcd64(NumGcd, V);
  }
  if (NumGcd > 1)
    for (int64_t &V : Ints)
      V /= NumGcd;
  return Ints;
}

/// Cumulative items consumed from \p Chan by the first \p T firings of
/// node \p I (the first firing of an init-work filter uses init rates).
int64_t cumPops(const RateTable &RT, size_t I, int Chan, int64_t T) {
  if (T <= 0)
    return 0;
  const NodeRates &R = RT.Nodes[I];
  if (R.HasInitWork)
    return rateOn(R.Init.In, Chan) + (T - 1) * rateOn(R.Steady.In, Chan);
  return T * rateOn(R.Steady.In, Chan);
}

/// Minimal T such that the first T firings of node \p I push at least
/// \p Need items onto \p Chan, or -1 if unreachable.
int64_t minFiringsToPush(const RateTable &RT, size_t I, int Chan,
                         int64_t Need) {
  if (Need <= 0)
    return 0;
  const NodeRates &R = RT.Nodes[I];
  int64_t Steady = rateOn(R.Steady.Out, Chan);
  if (R.HasInitWork) {
    int64_t First = rateOn(R.Init.Out, Chan);
    if (First >= Need)
      return 1;
    if (Steady <= 0)
      return -1;
    return 1 + ceilDiv(Need - First, Steady);
  }
  if (Steady <= 0)
    return -1;
  return ceilDiv(Need, Steady);
}

} // namespace

RateTable slin::declaredRates(const FlatGraph &G) {
  RateTable T;
  T.Nodes.resize(G.Nodes.size());
  T.Producer.assign(G.numChannels(), -1);
  T.Consumer.assign(G.numChannels(), -1);
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const Node &N = G.Nodes[I];
    NodeRates &NR = T.Nodes[I];
    NR.HasInitWork = N.Kind == NodeKind::Filter && N.F->hasInitWork();
    for (int C : N.inputChannels()) {
      NR.Steady.In.push_back({C, N.popsFrom(C, false), N.peekNeedOn(C, false)});
      NR.Init.In.push_back({C, N.popsFrom(C, true), N.peekNeedOn(C, true)});
      T.Consumer[static_cast<size_t>(C)] = static_cast<int>(I);
    }
    for (int C : N.outputChannels()) {
      NR.Steady.Out.push_back({C, N.pushesTo(C, false), 0});
      NR.Init.Out.push_back({C, N.pushesTo(C, true), 0});
      T.Producer[static_cast<size_t>(C)] = static_cast<int>(I);
    }
  }
  return T;
}

bool slin::isWellFormedStep(const FiringStep &Step, size_t NumNodes) {
  return Step.Node >= 0 && static_cast<size_t>(Step.Node) < NumNodes &&
         Step.Count >= 1;
}

//===----------------------------------------------------------------------===//
// Steady-state repetitions on the flat graph
//===----------------------------------------------------------------------===//

static std::vector<int64_t> flatRepetitions(const FlatGraph &G,
                                            const RateTable &RT) {
  size_t NumNodes = G.Nodes.size();
  std::vector<Rational> Reps(NumNodes, Rational(0));
  std::vector<bool> Visited(NumNodes, false);
  std::vector<int64_t> Result(NumNodes, 0);

  // Propagate balance constraints within each connected component, then
  // scale that component to minimal integers.
  for (size_t Start = 0; Start != NumNodes; ++Start) {
    if (Visited[Start])
      continue;
    std::vector<size_t> Component, Work = {Start};
    Visited[Start] = true;
    Reps[Start] = Rational(1);
    while (!Work.empty()) {
      size_t I = Work.back();
      Work.pop_back();
      Component.push_back(I);
      auto Relax = [&](int Chan) {
        int P = RT.Producer[static_cast<size_t>(Chan)];
        int C = RT.Consumer[static_cast<size_t>(Chan)];
        if (P < 0 || C < 0)
          return; // external endpoint or dead channel
        size_t PS = static_cast<size_t>(P), CS = static_cast<size_t>(C);
        int64_t U = rateOn(RT.Nodes[PS].Steady.Out, Chan);
        int64_t O = rateOn(RT.Nodes[CS].Steady.In, Chan);
        if (U == 0 && O == 0)
          return;
        if (U == 0 || O == 0)
          fatalError("no steady state: channel between '" + G.Nodes[PS].Name +
                     "' and '" + G.Nodes[CS].Name +
                     "' moves data in only one direction");
        if (Visited[PS] && Visited[CS]) {
          if (!(Reps[PS] * Rational(U) == Reps[CS] * Rational(O)))
            fatalError("no steady state: inconsistent rates between '" +
                       G.Nodes[PS].Name + "' and '" + G.Nodes[CS].Name + "'");
          return;
        }
        if (Visited[PS]) {
          Reps[CS] = Reps[PS] * Rational(U, O);
          Visited[CS] = true;
          Work.push_back(CS);
        } else if (Visited[CS]) {
          Reps[PS] = Reps[CS] * Rational(O, U);
          Visited[PS] = true;
          Work.push_back(PS);
        }
      };
      for (const ChannelUse &Use : RT.Nodes[I].Steady.In)
        Relax(Use.Chan);
      for (const ChannelUse &Use : RT.Nodes[I].Steady.Out)
        Relax(Use.Chan);
    }
    std::vector<Rational> CompReps;
    CompReps.reserve(Component.size());
    for (size_t I : Component)
      CompReps.push_back(Reps[I]);
    std::vector<int64_t> Ints = toMinimalIntegers(CompReps);
    for (size_t K = 0; K != Component.size(); ++K)
      Result[Component[K]] = Ints[K];
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Initialization firing counts
//===----------------------------------------------------------------------===//

/// Computes per-node init firing counts as a fixpoint over channel
/// demands: every init-work filter fires at least once, and every channel
/// must end the init phase holding at least its consumer's steady
/// peek - pop lookahead.
static std::vector<int64_t> initFiringCounts(const FlatGraph &G,
                                             const RateTable &RT) {
  size_t NumNodes = G.Nodes.size();
  std::vector<int64_t> T(NumNodes, 0);
  for (size_t I = 0; I != NumNodes; ++I)
    if (RT.Nodes[I].HasInitWork)
      T[I] = 1;

  const int MaxSweeps = 128;
  for (int Sweep = 0; Sweep != MaxSweeps; ++Sweep) {
    bool Changed = false;
    for (size_t C = 0; C != NumNodes; ++C) {
      const NodeRates &NR = RT.Nodes[C];
      for (const ChannelUse &Use : NR.Steady.In) {
        int P = RT.Producer[static_cast<size_t>(Use.Chan)];
        if (P < 0)
          continue; // fed externally
        int64_t Enqueued = static_cast<int64_t>(
            G.InitialItems[static_cast<size_t>(Use.Chan)].size());
        int64_t Need =
            cumPops(RT, C, Use.Chan, T[C]) + Use.Need - Use.Rate - Enqueued;
        // An init-work firing may peek further than it pops; its whole
        // window must be supplied too.
        if (NR.HasInitWork)
          Need = std::max(Need, useOn(NR.Init.In, Use.Chan).Need - Enqueued);
        int64_t Req =
            minFiringsToPush(RT, static_cast<size_t>(P), Use.Chan, Need);
        if (Req < 0)
          fatalError("cannot schedule initialization: '" +
                     G.Nodes[static_cast<size_t>(P)].Name +
                     "' can never satisfy the lookahead of '" +
                     G.Nodes[C].Name + "'");
        if (Req > T[static_cast<size_t>(P)]) {
          T[static_cast<size_t>(P)] = Req;
          Changed = true;
        }
      }
    }
    if (!Changed)
      return T;
  }
  fatalError("cannot schedule initialization: channel demands do not "
             "converge (deadlocked feedback loop?)");
}

//===----------------------------------------------------------------------===//
// Symbolic schedule replay
//===----------------------------------------------------------------------===//

namespace {

/// Symbolic channel state of one replay run, plus the per-program
/// accounting the derived schedule fields are computed from.
class ReplayState {
public:
  std::vector<int64_t> Live;      ///< live items per channel
  std::vector<int64_t> HighWater; ///< running max of Live
  // Per-program accounting, reset by beginProgram().
  std::vector<int64_t> Fired;     ///< firings per node
  std::vector<int64_t> Pushed;    ///< items appended per channel
  int64_t ExternalPops = 0;
  int64_t ExternalPushes = 0;
  std::string Err;

  ReplayState(const FlatGraph &G, const RateTable &T)
      : Live(G.numChannels(), 0), HighWater(G.numChannels(), 0),
        Fired(G.Nodes.size(), 0), Pushed(G.numChannels(), 0), G(G), T(T),
        FiredOnce(G.Nodes.size(), false) {
    for (size_t C = 0; C != G.numChannels(); ++C) {
      Live[C] = static_cast<int64_t>(G.InitialItems[C].size());
      HighWater[C] = Live[C];
    }
    // Bulk firing is exact only because a firing's pops never see its
    // own pushes.
    for (size_t I = 0; I != T.Nodes.size(); ++I)
      for (const FiringRates *F : {&T.Nodes[I].Steady, &T.Nodes[I].Init})
        for (const ChannelUse &U : F->In)
          if (useOn(F->Out, U.Chan).Chan == U.Chan)
            fail("node '" + G.Nodes[I].Name + "' reads and writes channel " +
                 std::to_string(U.Chan));
  }

  bool failed() const { return !Err.empty(); }

  void beginProgram() {
    std::fill(Fired.begin(), Fired.end(), 0);
    std::fill(Pushed.begin(), Pushed.end(), 0);
    ExternalPops = ExternalPushes = 0;
  }

  /// Max consecutive firings of node \p I right now, capped at \p Limit;
  /// a pending init firing goes alone.
  int64_t maxFirings(size_t I, int64_t Limit) const {
    if (Limit <= 0)
      return 0;
    bool Init = initPending(I);
    int64_t K = Init ? 1 : Limit;
    for (const ChannelUse &U : rates(I, Init).In) {
      if (U.Chan == G.ExternalIn)
        continue; // runtime guarantees availability
      int64_t Avail = Live[static_cast<size_t>(U.Chan)];
      if (Avail < U.Need)
        return 0;
      if (U.Rate > 0)
        K = std::min(K, (Avail - U.Need) / U.Rate + 1);
    }
    return K;
  }

  /// Fires node \p I \p K times, the first-ever firing of an init-work
  /// filter at its init rates.
  void step(size_t I, int64_t K, const char *Phase) {
    if (initPending(I)) {
      fire(I, 1, /*Init=*/true, Phase);
      --K;
    }
    FiredOnce[I] = true;
    if (K > 0)
      fire(I, K, /*Init=*/false, Phase);
  }

  void run(const FiringProgram &P, const char *Phase) {
    for (const FiringStep &S : P) {
      if (failed())
        return;
      if (!isWellFormedStep(S, G.Nodes.size())) {
        fail(std::string(Phase) + " program contains a malformed step (node " +
             std::to_string(S.Node) + ", count " + std::to_string(S.Count) +
             ")");
        return;
      }
      step(static_cast<size_t>(S.Node), S.Count, Phase);
    }
  }

  /// Greedily places \p Remaining firings per node, appending steps.
  void greedy(std::vector<int64_t> Remaining, FiringProgram &Program,
              const char *Phase) {
    bool AnyLeft = true;
    while (AnyLeft && !failed()) {
      AnyLeft = false;
      bool AnyFired = false;
      for (size_t I = 0; I != G.Nodes.size(); ++I) {
        while (Remaining[I] > 0) {
          int64_t K = maxFirings(I, Remaining[I]);
          if (K <= 0)
            break;
          step(I, K, Phase);
          Remaining[I] -= K;
          if (!Program.empty() && Program.back().Node == static_cast<int>(I))
            Program.back().Count += K;
          else
            Program.push_back({static_cast<int>(I), K});
          AnyFired = true;
        }
        if (Remaining[I] > 0)
          AnyLeft = true;
      }
      if (AnyLeft && !AnyFired)
        fail(std::string("cannot schedule ") + Phase +
             " program: no node can fire (deadlocked graph?)");
    }
  }

private:
  const FlatGraph &G;
  const RateTable &T;
  std::vector<bool> FiredOnce; ///< per node, across the whole run

  void fail(const std::string &M) {
    if (Err.empty())
      Err = M;
  }

  bool initPending(size_t I) const {
    return !FiredOnce[I] && T.Nodes[I].HasInitWork;
  }
  const FiringRates &rates(size_t I, bool Init) const {
    return Init ? T.Nodes[I].Init : T.Nodes[I].Steady;
  }

  /// Applies \p K same-rate firings of node \p I, checking every input
  /// window first.
  void fire(size_t I, int64_t K, bool Init, const char *Phase) {
    if (failed())
      return;
    const FiringRates &F = rates(I, Init);
    for (const ChannelUse &U : F.In) {
      if (U.Chan == G.ExternalIn)
        continue; // availability is the runtime's contract
      int64_t Avail = Live[static_cast<size_t>(U.Chan)];
      int64_t Need = std::max(U.Need + (K - 1) * U.Rate, K * U.Rate);
      if (Avail < Need) {
        fail(std::string(Phase) + " program fires '" + G.Nodes[I].Name +
             "' without its input window on channel " +
             std::to_string(U.Chan) + " (" + std::to_string(Avail) +
             " live, needs " + std::to_string(Need) + ")");
        return;
      }
    }
    for (const ChannelUse &U : F.In) {
      if (U.Chan == G.ExternalIn)
        ExternalPops += K * U.Rate;
      else
        Live[static_cast<size_t>(U.Chan)] -= K * U.Rate;
    }
    for (const ChannelUse &U : F.Out) {
      size_t C = static_cast<size_t>(U.Chan);
      Live[C] += K * U.Rate;
      Pushed[C] += K * U.Rate;
      HighWater[C] = std::max(HighWater[C], Live[C]);
      if (U.Chan == G.ExternalOut)
        ExternalPushes += K * U.Rate;
    }
    Fired[I] += K;
  }
};

} // namespace

std::string slin::replaySchedule(const FlatGraph &G, const RateTable &T,
                                 StaticSchedule &S, StepSource Steps) {
  size_t NumNodes = G.Nodes.size(), NumChans = G.numChannels();
  if (T.Nodes.size() != NumNodes || S.Repetitions.size() != NumNodes ||
      S.InitFirings.size() != NumNodes)
    return "schedule vectors are not sized to the graph";
  auto IsExternal = [&](size_t C) {
    return static_cast<int>(C) == G.ExternalIn ||
           static_cast<int>(C) == G.ExternalOut;
  };

  // Lookahead the first consumer of the external input requires beyond
  // what it pops (leftover items that must stay buffered), and the
  // deepest single-firing window any init-work firing peeks (which may
  // exceed its pops plus the steady lookahead).
  int64_t ExternalExtra = 0;
  int64_t InitPeekMax = 0;
  for (const NodeRates &NR : T.Nodes) {
    const ChannelUse &U = useOn(NR.Steady.In, G.ExternalIn);
    ExternalExtra = std::max(ExternalExtra, U.Need - U.Rate);
    InitPeekMax = std::max(InitPeekMax, useOn(NR.Init.In, G.ExternalIn).Need);
  }

  struct Program {
    const char *Name;
    FiringProgram &Steps;
    int64_t StatesPerRun; ///< steady states per run; 0 for init
    int64_t &ExternalPops, &ExternalNeed, &ExternalPushes;
  };
  Program Programs[] = {
      {"init", S.InitProgram, 0, S.InitExternalPops, S.InitExternalNeed,
       S.InitExternalPushes},
      {"batch", S.BatchProgram, S.BatchIterations, S.BatchExternalPops,
       S.BatchExternalNeed, S.BatchExternalPushes},
      {"steady", S.SteadyProgram, 1, S.SteadyExternalPops,
       S.SteadyExternalNeed, S.SteadyExternalPushes},
  };

  ReplayState R(G, T);
  S.ChannelBufSize.assign(NumChans, 0);
  for (Program &P : Programs) {
    bool Init = P.StatesPerRun == 0;
    std::vector<int64_t> Want(NumNodes);
    for (size_t I = 0; I != NumNodes; ++I)
      Want[I] = Init ? S.InitFirings[I] : S.Repetitions[I] * P.StatesPerRun;
    R.beginProgram();
    if (Steps == StepSource::Greedy)
      R.greedy(Want, P.Steps, P.Name);
    else
      R.run(P.Steps, P.Name);
    if (R.failed())
      return R.Err;
    for (size_t I = 0; I != NumNodes; ++I)
      if (R.Fired[I] != Want[I])
        return std::string(P.Name) + " program fires '" + G.Nodes[I].Name +
               "' " + std::to_string(R.Fired[I]) + " times, schedule says " +
               std::to_string(Want[I]);

    P.ExternalPops = R.ExternalPops;
    P.ExternalNeed = R.ExternalPops + ExternalExtra;
    if (Init)
      P.ExternalNeed = std::max(P.ExternalNeed, InitPeekMax);
    P.ExternalPushes = R.ExternalPushes;
    if (Init)
      S.PostInitLive = R.Live;
    for (size_t C = 0; C != NumChans; ++C) {
      if (!Init && !IsExternal(C) && R.Live[C] != S.PostInitLive[C])
        return std::string(P.Name) + " program does not return channel '" +
               std::to_string(C) + "' to its steady state";
      // The engine compacts buffers between program runs, and every run
      // after init starts from PostInitLive: a run's flat-buffer
      // positions reach its starting items plus everything it appends.
      int64_t Start = Init ? static_cast<int64_t>(G.InitialItems[C].size())
                           : S.PostInitLive[C];
      S.ChannelBufSize[C] = std::max(S.ChannelBufSize[C], Start + R.Pushed[C]);
    }
  }
  S.ChannelHighWater = R.HighWater;
  return "";
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

StaticSchedule slin::computeSchedule(const FlatGraph &G, int BatchIterations) {
  if (BatchIterations < 1)
    fatalError("batch iteration count must be positive");
  RateTable T = declaredRates(G);

  StaticSchedule S;
  S.BatchIterations = BatchIterations;
  S.Repetitions = flatRepetitions(G, T);
  S.InitFirings = initFiringCounts(G, T);
  std::string Err = replaySchedule(G, T, S, StepSource::Greedy);
  if (!Err.empty())
    fatalError(Err);
  return S;
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

std::string slin::verifySchedule(const FlatGraph &G, const StaticSchedule &S) {
  size_t NumNodes = G.Nodes.size();
  size_t NumChans = G.numChannels();
  auto Sized = [](const char *Name, size_t Got, size_t Want) {
    return Got == Want ? std::string()
                       : std::string(Name) + " sized " + std::to_string(Got) +
                             ", graph has " + std::to_string(Want);
  };
  std::string E;
  if (!(E = Sized("Repetitions", S.Repetitions.size(), NumNodes)).empty() ||
      !(E = Sized("InitFirings", S.InitFirings.size(), NumNodes)).empty() ||
      !(E = Sized("ChannelHighWater", S.ChannelHighWater.size(), NumChans))
           .empty() ||
      !(E = Sized("ChannelBufSize", S.ChannelBufSize.size(), NumChans))
           .empty() ||
      !(E = Sized("PostInitLive", S.PostInitLive.size(), NumChans)).empty())
    return E;
  if (S.BatchIterations < 1)
    return "non-positive batch iteration count";
  for (size_t I = 0; I != NumNodes; ++I) {
    if (S.Repetitions[I] < 1)
      return "node '" + G.Nodes[I].Name + "' has repetition count " +
             std::to_string(S.Repetitions[I]);
    if (S.InitFirings[I] < 0)
      return "node '" + G.Nodes[I].Name + "' has negative init firings";
  }

  // Independent balance re-derivation: on every channel with both ends
  // internal, the producer's steady output must equal the consumer's
  // steady intake under the cached repetition vector.
  RateTable T = declaredRates(G);
  for (size_t C = 0; C != NumChans; ++C) {
    int P = T.Producer[C], Q = T.Consumer[C];
    if (P < 0 || Q < 0)
      continue;
    size_t PS = static_cast<size_t>(P), QS = static_cast<size_t>(Q);
    int Chan = static_cast<int>(C);
    int64_t Out = S.Repetitions[PS] * rateOn(T.Nodes[PS].Steady.Out, Chan);
    int64_t In = S.Repetitions[QS] * rateOn(T.Nodes[QS].Steady.In, Chan);
    if (Out != In)
      return "balance equation violated on channel " + std::to_string(C) +
             " between '" + G.Nodes[PS].Name + "' (" + std::to_string(Out) +
             " pushed) and '" + G.Nodes[QS].Name + "' (" +
             std::to_string(In) + " popped) per steady state";
  }

  // Replay the stored programs; every field the replay derives must
  // match the stored one.
  StaticSchedule R = S;
  if (!(E = replaySchedule(G, T, R, StepSource::Stored)).empty())
    return E;
  auto Channels = [&](const char *Name, const std::vector<int64_t> &Replayed,
                      const std::vector<int64_t> &Stored) {
    for (size_t C = 0; C != NumChans; ++C)
      if (Replayed[C] != Stored[C])
        return std::string(Name) + " of channel " + std::to_string(C) +
               " is " + std::to_string(Stored[C]) + ", replay gives " +
               std::to_string(Replayed[C]);
    return std::string();
  };
  if (!(E = Channels("PostInitLive", R.PostInitLive, S.PostInitLive)).empty() ||
      !(E = Channels("ChannelHighWater", R.ChannelHighWater,
                     S.ChannelHighWater))
           .empty() ||
      !(E = Channels("ChannelBufSize", R.ChannelBufSize, S.ChannelBufSize))
           .empty())
    return E;
  const struct {
    const char *Name;
    int64_t Replayed, Stored;
  } Scalars[] = {
      {"InitExternalPops", R.InitExternalPops, S.InitExternalPops},
      {"InitExternalNeed", R.InitExternalNeed, S.InitExternalNeed},
      {"InitExternalPushes", R.InitExternalPushes, S.InitExternalPushes},
      {"BatchExternalPops", R.BatchExternalPops, S.BatchExternalPops},
      {"BatchExternalNeed", R.BatchExternalNeed, S.BatchExternalNeed},
      {"BatchExternalPushes", R.BatchExternalPushes, S.BatchExternalPushes},
      {"SteadyExternalPops", R.SteadyExternalPops, S.SteadyExternalPops},
      {"SteadyExternalNeed", R.SteadyExternalNeed, S.SteadyExternalNeed},
      {"SteadyExternalPushes", R.SteadyExternalPushes,
       S.SteadyExternalPushes},
  };
  for (const auto &F : Scalars)
    if (F.Replayed != F.Stored)
      return std::string(F.Name) + " is " + std::to_string(F.Stored) +
             ", replay gives " + std::to_string(F.Replayed);
  return "";
}

//===----------------------------------------------------------------------===//
// Shard-boundary state computation
//===----------------------------------------------------------------------===//
//
// How many steady iterations does it take for the whole graph's state to
// be a function of only those iterations' (exact) inputs? Per channel,
// the leftover items after an iteration are the newest PostInitLive[c],
// pushed within the last ceil(live / throughput) iterations; each of
// those pushes is exact once its producer's own state and inputs were
// exact when it fired. Propagating that recurrence down the (acyclic)
// flat graph gives the washout depth: the maximum, over nodes, of the
// node's own state depth plus the staleness of its input channels.

ShardBoundary slin::computeShardBoundary(
    const flat::FlatGraph &G, const StaticSchedule &S,
    const std::vector<int> &NodeStateDepth) {
  ShardBoundary B;
  assert(NodeStateDepth.size() == G.Nodes.size() &&
         "state depth per flat node");

  size_t NumNodes = G.Nodes.size();
  RateTable T = declaredRates(G);
  const std::vector<int> &Producer = T.Producer;
  std::vector<int64_t> Through(G.numChannels(), 0);
  for (size_t I = 0; I != NumNodes; ++I)
    for (const ChannelUse &U : T.Nodes[I].Steady.Out)
      Through[static_cast<size_t>(U.Chan)] = S.Repetitions[I] * U.Rate;

  // Flattening order puts every producer before its consumer except on
  // feedback-loop back edges; state cycles cannot be washed out.
  for (size_t I = 0; I != NumNodes; ++I)
    for (const ChannelUse &U : T.Nodes[I].Steady.In) {
      int P = Producer[static_cast<size_t>(U.Chan)];
      if (P >= static_cast<int>(I)) {
        B.Reason = "feedback loop: state cycles through '" +
                   G.Nodes[static_cast<size_t>(P)].Name + "'";
        return B;
      }
    }

  // Staleness of each node's output items, in iterations, once its
  // inputs are exact; computed in topological (= index) order.
  std::vector<int64_t> Depth(NumNodes, 0);
  int64_t Washout = 0;
  for (size_t I = 0; I != NumNodes; ++I) {
    if (NodeStateDepth[I] < 0) {
      B.Reason = "filter '" + G.Nodes[I].Name +
                 "' carries state that cannot be reconstructed";
      return B;
    }
    // The node's own state spans ceil(k / repetitions) iterations of its
    // input history; its inputs are stale by channel age plus the
    // producer's own staleness.
    int64_t Own = ceilDiv(static_cast<int64_t>(NodeStateDepth[I]),
                          std::max<int64_t>(S.Repetitions[I], 1));
    int64_t Stale = 0;
    for (const ChannelUse &U : T.Nodes[I].Steady.In) {
      size_t CS = static_cast<size_t>(U.Chan);
      if (U.Chan == G.ExternalIn)
        continue; // exact by construction (the worker's input slice)
      int P = Producer[CS];
      if (P < 0)
        continue;
      int64_t Live = S.PostInitLive[CS];
      int64_t Age = 0;
      if (Live > 0) {
        if (Through[CS] <= 0) {
          B.Reason = "channel into '" + G.Nodes[I].Name +
                     "' holds items that never drain";
          return B;
        }
        Age = ceilDiv(Live, Through[CS]);
      }
      Stale = std::max(Stale, Age + Depth[static_cast<size_t>(P)]);
    }
    int64_t D = Own + Stale;
    Depth[I] = D;
    Washout = std::max(Washout, D);
  }

  B.Feasible = true;
  B.WashoutIterations = Washout;
  return B;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

void writeProgram(serial::Writer &W, const FiringProgram &P) {
  W.u32(static_cast<uint32_t>(P.size()));
  for (const FiringStep &S : P) {
    W.i32(S.Node);
    W.i64(S.Count);
  }
}

bool readProgram(serial::Reader &R, FiringProgram &Out) {
  uint32_t N = R.u32();
  // Each step occupies 12 bytes on the wire.
  if (!R.ok() || static_cast<uint64_t>(N) * 12 > R.remaining()) {
    R.fail();
    return false;
  }
  Out.resize(N);
  for (FiringStep &S : Out) {
    S.Node = R.i32();
    S.Count = R.i64();
  }
  return R.ok();
}

} // namespace

void slin::serializeSchedule(serial::Writer &W, const StaticSchedule &S) {
  W.i64s(S.Repetitions);
  W.i64s(S.InitFirings);
  writeProgram(W, S.InitProgram);
  writeProgram(W, S.SteadyProgram);
  writeProgram(W, S.BatchProgram);
  W.i32(S.BatchIterations);
  W.i64s(S.ChannelHighWater);
  W.i64s(S.ChannelBufSize);
  W.i64s(S.PostInitLive);
  W.i64(S.InitExternalPops);
  W.i64(S.InitExternalNeed);
  W.i64(S.SteadyExternalPops);
  W.i64(S.SteadyExternalNeed);
  W.i64(S.BatchExternalPops);
  W.i64(S.BatchExternalNeed);
  W.i64(S.InitExternalPushes);
  W.i64(S.SteadyExternalPushes);
  W.i64(S.BatchExternalPushes);
}

bool slin::deserializeSchedule(serial::Reader &R, StaticSchedule &Out) {
  StaticSchedule S;
  S.Repetitions = R.i64s();
  S.InitFirings = R.i64s();
  if (!readProgram(R, S.InitProgram) || !readProgram(R, S.SteadyProgram) ||
      !readProgram(R, S.BatchProgram))
    return false;
  S.BatchIterations = R.i32();
  S.ChannelHighWater = R.i64s();
  S.ChannelBufSize = R.i64s();
  S.PostInitLive = R.i64s();
  S.InitExternalPops = R.i64();
  S.InitExternalNeed = R.i64();
  S.SteadyExternalPops = R.i64();
  S.SteadyExternalNeed = R.i64();
  S.BatchExternalPops = R.i64();
  S.BatchExternalNeed = R.i64();
  S.InitExternalPushes = R.i64();
  S.SteadyExternalPushes = R.i64();
  S.BatchExternalPushes = R.i64();
  if (!R.ok() || S.BatchIterations < 1 ||
      S.Repetitions.size() != S.InitFirings.size())
    return false;
  Out = std::move(S);
  return true;
}
