//===- sched/Rates.cpp - Steady-state scheduling ---------------------------==//

#include "sched/Rates.h"

#include "support/Diag.h"
#include "support/MathUtil.h"

using namespace slin;

namespace {

/// Error sink for the solver: the first failure wins and every caller
/// returns early once it is set, so a malformed graph produces one
/// precise message instead of a cascade (or an abort — the verifier pass
/// runs the solver over deliberately corrupted rewrites and must get the
/// diagnostic back as a value).
struct RateErr {
  std::string Msg;
  bool failed() const { return !Msg.empty(); }
  void set(const std::string &M) {
    if (Msg.empty())
      Msg = M;
  }
};

RateSignature ratesOf(const Stream &S, RateErr &E);
std::vector<int64_t> repsOf(const Stream &Container,
                            std::vector<RateSignature> &Kids, RateErr &E);

/// Scales a vector of positive rationals to the minimal integer vector
/// with the same ratios.
std::vector<int64_t> toMinimalIntegers(const std::vector<Rational> &Rats,
                                       RateErr &E) {
  int64_t DenLcm = 1;
  for (const Rational &R : Rats) {
    if (R.num() <= 0) {
      E.set("non-positive repetition count while solving rates");
      return {};
    }
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

std::vector<int64_t> pipelineRepetitions(const Pipeline &P,
                                         std::vector<RateSignature> &Kids,
                                         RateErr &E) {
  const auto &Children = P.children();
  if (Children.empty()) {
    E.set("empty pipeline '" + P.name() + "'");
    return {};
  }
  std::vector<Rational> Reps;
  Reps.push_back(Rational(1));
  Kids.push_back(ratesOf(*Children.front(), E));
  for (size_t I = 1; I != Children.size() && !E.failed(); ++I) {
    Kids.push_back(ratesOf(*Children[I], E));
    if (E.failed())
      break;
    const RateSignature &Prev = Kids[I - 1], &Cur = Kids[I];
    if (Prev.Push == 0) {
      E.set("pipeline '" + P.name() + "': child " + std::to_string(I - 1) +
            " pushes nothing but is not last");
      break;
    }
    if (Cur.Pop == 0) {
      E.set("pipeline '" + P.name() + "': child " + std::to_string(I) +
            " pops nothing but is not first");
      break;
    }
    Reps.push_back(Reps.back() * Rational(Prev.Push, Cur.Pop));
  }
  if (E.failed())
    return {};
  return toMinimalIntegers(Reps, E);
}

bool nonNegativeWeights(const std::vector<int> &Weights) {
  for (int W : Weights)
    if (W < 0)
      return false;
  return true;
}

std::vector<int64_t> splitJoinRepetitions(const SplitJoin &SJ,
                                          std::vector<RateSignature> &Rates,
                                          RateErr &E) {
  const auto &Children = SJ.children();
  size_t N = Children.size();
  if (N == 0) {
    E.set("empty splitjoin '" + SJ.name() + "'");
    return {};
  }
  const Splitter &Split = SJ.splitter();
  const Joiner &Join = SJ.joiner();
  if (Join.Weights.size() != N) {
    E.set("splitjoin '" + SJ.name() + "': joiner weight count mismatch");
    return {};
  }
  if (Split.Kind == Splitter::RoundRobin && Split.Weights.size() != N) {
    E.set("splitjoin '" + SJ.name() + "': splitter weight count mismatch");
    return {};
  }
  if (!nonNegativeWeights(Join.Weights) ||
      !nonNegativeWeights(Split.Weights)) {
    E.set("splitjoin '" + SJ.name() + "': negative splitter/joiner weight");
    return {};
  }

  Rates.reserve(N);
  for (const StreamPtr &C : Children) {
    Rates.push_back(ratesOf(*C, E));
    if (E.failed())
      return {};
  }

  // Derive child repetitions from the joiner when every child produces
  // output, otherwise from the splitter; verify the other side.
  std::vector<Rational> Reps(N);
  bool AllPush = true;
  for (const RateSignature &R : Rates)
    AllPush = AllPush && R.Push > 0;
  if (AllPush) {
    // r_k proportional to w_k / u_k.
    for (size_t K = 0; K != N; ++K)
      Reps[K] = Rational(Join.Weights[K], Rates[K].Push);
  } else if (Split.Kind == Splitter::RoundRobin) {
    for (size_t K = 0; K != N; ++K) {
      if (Rates[K].Pop == 0) {
        E.set("splitjoin '" + SJ.name() +
              "': child neither consumes nor produces");
        return {};
      }
      Reps[K] = Rational(Split.Weights[K], Rates[K].Pop);
    }
  } else {
    for (size_t K = 0; K != N; ++K) {
      if (Rates[K].Pop == 0) {
        E.set("splitjoin '" + SJ.name() +
              "': child neither consumes nor produces");
        return {};
      }
      Reps[K] = Rational(1, Rates[K].Pop);
    }
  }

  std::vector<int64_t> Ints = toMinimalIntegers(Reps, E);
  if (E.failed())
    return {};

  // Consistency checks on the side not used for derivation.
  if (Split.Kind == Splitter::Duplicate) {
    int64_t Consumed = Rates[0].Pop * Ints[0];
    for (size_t K = 1; K != N; ++K)
      if (Rates[K].Pop * Ints[K] != Consumed) {
        E.set("splitjoin '" + SJ.name() +
              "': duplicate children consume mismatched amounts");
        return {};
      }
  } else {
    Rational SplitRep(0);
    for (size_t K = 0; K != N; ++K) {
      if (Split.Weights[K] == 0) {
        if (Rates[K].Pop != 0) {
          E.set("splitjoin '" + SJ.name() +
                "': zero-weight child consumes input");
          return {};
        }
        continue;
      }
      Rational R(Rates[K].Pop * Ints[K], Split.Weights[K]);
      if (K == 0)
        SplitRep = R;
      else if (!(SplitRep == R)) {
        E.set("splitjoin '" + SJ.name() +
              "': roundrobin splitter rates inconsistent");
        return {};
      }
    }
  }
  if (AllPush) {
    // Joiner already used; nothing further to check.
  } else {
    for (size_t K = 0; K != N; ++K)
      if ((Rates[K].Push == 0) != (Join.Weights[K] == 0)) {
        E.set("splitjoin '" + SJ.name() +
              "': joiner weight for non-producing child");
        return {};
      }
  }

  // The minimal vector balances the children against each other, but a
  // steady state must also run the splitter and joiner for a whole
  // number of cycles. Weight vectors that are unreduced multiples of the
  // per-repetition flows (the selection DP's vertical-cut wrappers build
  // these) reduce to child repetitions implying fractional cycles; scale
  // back up by the implied cycle-count denominators.
  int64_t Scale = 1;
  if (Split.Kind == Splitter::RoundRobin) {
    for (size_t K = 0; K != N; ++K) {
      if (Split.Weights[K] == 0)
        continue;
      // Equal across children (verified above); one representative.
      Rational Cycles(Rates[K].Pop * Ints[K], Split.Weights[K]);
      Scale = lcm64(Scale, Cycles.den());
      break;
    }
  }
  for (size_t K = 0; K != N; ++K) {
    if (Join.Weights[K] == 0 || Rates[K].Push == 0)
      continue;
    Rational Cycles(Rates[K].Push * Ints[K], Join.Weights[K]);
    Scale = lcm64(Scale, Cycles.den());
    break;
  }
  if (Scale > 1)
    for (int64_t &V : Ints)
      V *= Scale;
  return Ints;
}

std::vector<int64_t> feedbackLoopRepetitions(const FeedbackLoop &FB,
                                             std::vector<RateSignature> &Kids,
                                             RateErr &E) {
  Kids.push_back(ratesOf(FB.body(), E));
  Kids.push_back(ratesOf(FB.loop(), E));
  if (E.failed())
    return {};
  const RateSignature &Body = Kids[0], &Loop = Kids[1];
  const Joiner &Join = FB.joiner();
  const Splitter &Split = FB.splitter();
  if (Join.Weights.size() != 2) {
    E.set("feedbackloop '" + FB.name() + "': joiner needs two weights");
    return {};
  }
  if (Split.Kind != Splitter::RoundRobin || Split.Weights.size() != 2) {
    E.set("feedbackloop '" + FB.name() +
          "': splitter must be roundrobin with two weights");
    return {};
  }
  if (!nonNegativeWeights(Join.Weights) ||
      !nonNegativeWeights(Split.Weights)) {
    E.set("feedbackloop '" + FB.name() +
          "': negative splitter/joiner weight");
    return {};
  }
  if (Join.totalWeight() == 0 || Split.totalWeight() == 0 ||
      Loop.Pop == 0) {
    E.set("feedbackloop '" + FB.name() +
          "': joiner, splitter or loop stream moves no items");
    return {};
  }

  // Unknowns: body reps B, loop reps L, joiner cycles J, splitter cycles S.
  //   o_b * B = (w0 + w1) * J      u_b * B = (s0 + s1) * S
  //   o_l * L = s1 * S             u_l * L = w1 * J
  Rational B(1);
  Rational J = Rational(Body.Pop) / Rational(Join.totalWeight());
  Rational S = Rational(Body.Push) / Rational(Split.totalWeight());
  Rational L = Rational(Split.Weights[1]) * S / Rational(Loop.Pop);
  if (!(Rational(Loop.Push) * L == Rational(Join.Weights[1]) * J)) {
    E.set("feedbackloop '" + FB.name() + "': inconsistent loop rates");
    return {};
  }
  return toMinimalIntegers({B, L}, E);
}

/// Solves \p Container's balance equations. Each child is rated exactly
/// once, in order, and its signature appended to \p Kids, so rating a
/// nest visits every stream once however deep it is.
std::vector<int64_t> repsOf(const Stream &Container,
                            std::vector<RateSignature> &Kids, RateErr &E) {
  switch (Container.kind()) {
  case StreamKind::Filter:
    return {};
  case StreamKind::Pipeline:
    return pipelineRepetitions(*cast<Pipeline>(&Container), Kids, E);
  case StreamKind::SplitJoin:
    return splitJoinRepetitions(*cast<SplitJoin>(&Container), Kids, E);
  case StreamKind::FeedbackLoop:
    return feedbackLoopRepetitions(*cast<FeedbackLoop>(&Container), Kids, E);
  }
  unreachable("unknown stream kind");
}

RateSignature ratesOf(const Stream &S, RateErr &E) {
  if (E.failed())
    return {};
  if (const auto *F = dynCast<Filter>(&S))
    return {F->peekRate(), F->popRate(), F->pushRate()};
  std::vector<RateSignature> Kids;
  std::vector<int64_t> Reps = repsOf(S, Kids, E);
  if (E.failed())
    return {};
  switch (S.kind()) {
  case StreamKind::Filter:
    break;
  case StreamKind::Pipeline: {
    const RateSignature &First = Kids.front(), &Last = Kids.back();
    RateSignature R;
    R.Pop = mulSat64(First.Pop, Reps.front());
    R.Peek = addSat64(R.Pop, First.Peek - First.Pop);
    R.Push = mulSat64(Last.Push, Reps.back());
    return R;
  }
  case StreamKind::SplitJoin: {
    const auto *SJ = cast<SplitJoin>(&S);
    RateSignature R;
    R.Push = 0;
    for (size_t K = 0; K != Kids.size(); ++K)
      R.Push = addSat64(R.Push, mulSat64(Kids[K].Push, Reps[K]));

    if (SJ->splitter().Kind == Splitter::Duplicate) {
      int64_t MaxPeek = 0;
      int64_t Consumed = 0;
      for (size_t K = 0; K != Kids.size(); ++K) {
        const RateSignature &C = Kids[K];
        Consumed = mulSat64(C.Pop, Reps[K]);
        MaxPeek = std::max(MaxPeek, addSat64(Consumed, C.Peek - C.Pop));
      }
      R.Pop = Consumed;
      R.Peek = MaxPeek;
    } else {
      // Roundrobin: one splitter cycle distributes totalWeight items.
      int64_t VTot = SJ->splitter().totalWeight();
      int64_t SplitRep = 0;
      int64_t ExtraPeek = 0;
      for (size_t K = 0; K != Kids.size(); ++K) {
        if (SJ->splitter().Weights[K] == 0)
          continue;
        const RateSignature &C = Kids[K];
        SplitRep = mulSat64(C.Pop, Reps[K]) / SJ->splitter().Weights[K];
        ExtraPeek = std::max(ExtraPeek, C.Peek - C.Pop);
      }
      R.Pop = mulSat64(SplitRep, VTot);
      // Approximation: extra peeking by a child requires up to a full
      // extra splitter cycle of lookahead per extra item window.
      R.Peek =
          addSat64(R.Pop, ExtraPeek > 0 ? mulSat64(ExtraPeek, VTot) : 0);
    }
    return R;
  }
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    const RateSignature &Body = Kids[0];
    int64_t JoinCycles =
        mulSat64(Body.Pop, Reps[0]) / FB->joiner().totalWeight();
    int64_t SplitCycles =
        mulSat64(Body.Push, Reps[0]) / FB->splitter().totalWeight();
    RateSignature R;
    R.Pop = FB->joiner().Weights[0] * JoinCycles;
    R.Peek = R.Pop;
    R.Push = FB->splitter().Weights[0] * SplitCycles;
    return R;
  }
  }
  unreachable("unknown stream kind");
}

} // namespace

Expected<RateSignature> slin::tryComputeRates(const Stream &S) {
  RateErr E;
  RateSignature R = ratesOf(S, E);
  if (E.failed())
    return Status(ErrorCode::RateError, E.Msg);
  return R;
}

Expected<std::vector<int64_t>>
slin::tryChildRepetitions(const Stream &Container) {
  RateErr E;
  std::vector<RateSignature> Kids;
  std::vector<int64_t> R = repsOf(Container, Kids, E);
  if (E.failed())
    return Status(ErrorCode::RateError, E.Msg);
  return R;
}
