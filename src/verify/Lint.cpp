//===- verify/Lint.cpp - WIR abstract-interpretation linter ---------------===//

#include "verify/Lint.h"

#include "exec/CompiledExecutor.h"
#include "graph/Stream.h"
#include "linear/Extract.h"
#include "sched/Schedule.h"
#include "support/OpCounters.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

using namespace slin;
using namespace slin::verify;

//===----------------------------------------------------------------------===//
// LintReport
//===----------------------------------------------------------------------===//

size_t LintReport::errorCount() const {
  size_t N = 0;
  for (const Finding &F : Findings)
    N += F.Sev == Finding::Severity::Error;
  return N;
}

size_t LintReport::noteCount() const {
  return Findings.size() - errorCount();
}

std::string LintReport::firstError() const {
  for (const Finding &F : Findings)
    if (F.Sev == Finding::Severity::Error)
      return F.Message;
  return "";
}

std::string LintReport::text() const {
  std::string Out;
  for (const Finding &F : Findings) {
    Out += F.Sev == Finding::Severity::Error ? "error" : "note";
    Out += " [" + F.Pass + "] " + F.Where;
    if (F.Pc >= 0)
      Out += " @pc " + std::to_string(F.Pc);
    Out += ": " + F.Message + "\n";
  }
  Out += std::to_string(errorCount()) + " error(s), " +
         std::to_string(noteCount()) + " note(s)\n";
  return Out;
}

static std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string LintReport::json() const {
  std::string Out = "{\"errors\":" + std::to_string(errorCount()) +
                    ",\"notes\":" + std::to_string(noteCount()) +
                    ",\"findings\":[";
  bool First = true;
  for (const Finding &F : Findings) {
    if (!First)
      Out += ",";
    First = false;
    Out += std::string("{\"severity\":\"") +
           (F.Sev == Finding::Severity::Error ? "error" : "note") +
           "\",\"pass\":\"" + jsonEscape(F.Pass) + "\",\"where\":\"" +
           jsonEscape(F.Where) + "\",\"pc\":" + std::to_string(F.Pc) +
           ",\"message\":\"" + jsonEscape(F.Message) + "\"}";
  }
  Out += "]}";
  return Out;
}

//===----------------------------------------------------------------------===//
// verify-linear: the linearity oracle
//===----------------------------------------------------------------------===//

namespace {

/// Why the abstract execution says the tape is not input-affine; empty
/// when it is. Also yields a witness pc where one exists.
std::string notAffineWitness(const wir::OpProgram &Tape,
                             const TapeSummary &Sum, int &Pc) {
  Pc = -1;
  if (!Sum.Faults.empty()) {
    Pc = Sum.Faults.front().Pc;
    return Sum.Faults.front().Msg;
  }
  if (Sum.Exploded)
    return "abstract execution exhausted its budget";
  if (!Sum.Completed)
    return "no execution path reaches Halt";
  if (Sum.HasPrint)
    return "tape prints (side effect outside the affine form)";
  if (Sum.Pops != Tape.popRate() || Sum.PushCount != Tape.pushRate())
    return "pop/push counts disagree with the declared rates";
  for (size_t J = 0; J != Sum.Pushes.size(); ++J) {
    const AffineValue &V = Sum.Pushes[J];
    if (V.isTop()) {
      Pc = Sum.FirstForkPc;
      return "push " + std::to_string(J) +
             " has no affine form (nonlinear op or data-dependent paths)";
    }
    if (!V.isInputAffine())
      return "push " + std::to_string(J) +
             " depends on mutable state: " + V.str(&Tape.fieldNames());
  }
  return "";
}

/// The pass-summary convention of opt/Cleanup.h: "" when no new error
/// findings were added, else a one-line roll-up. \p FindingsBefore is the
/// findings() size when the pass started.
std::string passResult(const LintReport &R, size_t FindingsBefore,
                       const char *Pass) {
  size_t New = 0;
  std::string First;
  for (size_t I = FindingsBefore; I < R.findings().size(); ++I) {
    const Finding &F = R.findings()[I];
    if (F.Sev != Finding::Severity::Error)
      continue;
    if (New++ == 0)
      First = F.Where + ": " + F.Message;
  }
  if (New == 0)
    return "";
  return std::string(Pass) + ": " + std::to_string(New) + " finding(s); " +
         First;
}

} // namespace

void verify::lintTapeLinear(const wir::OpProgram &Tape, const Filter &F,
                            const std::string &Where, LintReport &R) {
  const char *Pass = "verify-linear";
  ExtractionResult Ext = extractLinearNode(F);
  TapeSummary Sum = abstractExecute(Tape, F.fields());
  int WitnessPc = -1;
  std::string Witness = notAffineWitness(Tape, Sum, WitnessPc);
  bool TapeAffine = Witness.empty();

  if (!Ext.isLinear()) {
    // Agreeing on "not linear" is success. A tape that *is* affine where
    // extraction declined for a structural reason (init work, zero push
    // rate) is expected; anything else is worth a look.
    if (TapeAffine && !F.hasInitWork() && F.pushRate() > 0)
      R.note(Pass, Where, -1,
             "tape is input-affine but extraction reports nonlinear (" +
                 Ext.FailureReason + ")");
    return;
  }

  const LinearNode &LN = *Ext.Node;
  if (!TapeAffine) {
    R.error(Pass, Where, WitnessPc,
            "extraction claims linear but the tape is not affine: " +
                Witness);
    return;
  }
  int E = std::max(Tape.peekRate(), Tape.popRate());
  if (LN.peekRate() != E || LN.popRate() != Tape.popRate() ||
      LN.pushRate() != Tape.pushRate()) {
    R.error(Pass, Where, -1,
            "linear node rates (e=" + std::to_string(LN.peekRate()) + ", o=" +
                std::to_string(LN.popRate()) + ", u=" +
                std::to_string(LN.pushRate()) + ") disagree with the tape (e=" +
                std::to_string(E) + ", o=" + std::to_string(Tape.popRate()) +
                ", u=" + std::to_string(Tape.pushRate()) + ")");
    return;
  }
  // Exact [A, b] cross-check, coefficient by coefficient.
  const size_t MaxReported = 16;
  size_t Mismatches = 0;
  auto Report = [&](const std::string &Msg) {
    if (++Mismatches <= MaxReported)
      R.error(Pass, Where, -1, Msg);
  };
  for (int J = 0; J != LN.pushRate(); ++J) {
    const AffineValue &V = Sum.Pushes[static_cast<size_t>(J)];
    for (int P = 0; P != E; ++P) {
      double Want = LN.coeff(P, J);
      double Got = V.In[static_cast<size_t>(P)];
      if (Want != Got)
        Report("push " + std::to_string(J) + ", coefficient of peek(" +
               std::to_string(P) + "): extraction says " +
               std::to_string(Want) + ", tape derives " + std::to_string(Got));
    }
    if (LN.offset(J) != V.Const)
      Report("push " + std::to_string(J) + " offset: extraction says " +
             std::to_string(LN.offset(J)) + ", tape derives " +
             std::to_string(V.Const));
  }
  if (Mismatches > MaxReported)
    R.error(Pass, Where, -1,
            "... and " + std::to_string(Mismatches - MaxReported) +
                " more coefficient mismatches");
}

std::string verify::verifyLinear(const CompiledProgram &P, LintReport &R) {
  size_t Before = R.findings().size();
  const flat::FlatGraph &G = P.graph();
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const flat::Node &N = G.Nodes[I];
    if (N.Kind != flat::NodeKind::Filter || !N.F || N.F->isNative())
      continue;
    const CompiledProgram::FilterArtifact &Art = P.filterArtifact(I);
    if (Art.Work.empty())
      continue;
    lintTapeLinear(Art.Work, *N.F, N.Name, R);
  }
  return passResult(R, Before, "verify-linear");
}

//===----------------------------------------------------------------------===//
// verify-bounds: the bounds & rate proof
//===----------------------------------------------------------------------===//

namespace {

/// Per-tape bounds pass; returns the summary so the schedule replay can
/// reuse the derived peek extent.
TapeSummary boundsOneTape(const wir::OpProgram &Tape,
                          const std::vector<wir::FieldDef> &Fields,
                          const std::string &Where, LintReport &R) {
  const char *Pass = "verify-bounds";
  TapeSummary Sum = abstractExecute(Tape, Fields);
  for (const TapeFault &F : Sum.Faults)
    R.error(Pass, Where, F.Pc, F.Msg);
  if (Sum.Faults.empty() && !Sum.Exploded && !Sum.Completed)
    R.error(Pass, Where, -1, "no execution path reaches Halt");
  return Sum;
}

} // namespace

void verify::lintTapeBounds(const wir::OpProgram &Tape,
                            const std::vector<wir::FieldDef> &Fields,
                            const std::string &Where, LintReport &R) {
  boundsOneTape(Tape, Fields, Where, R);
}

std::string verify::verifyBounds(const CompiledProgram &P, LintReport &R) {
  const char *Pass = "verify-bounds";
  size_t Before = R.findings().size();
  const flat::FlatGraph &G = P.graph();
  const StaticSchedule &S = P.schedule();

  // The derived rate table: declared rates, except that a tape filter's
  // own channels carry its tapes' rates and deepest peek.
  RateTable Derived = declaredRates(G);
  auto Derive = [](FiringRates &F, const flat::Node &N,
                   const wir::OpProgram &Tape, const TapeSummary &Sum) {
    for (ChannelUse &U : F.In)
      if (U.Chan == N.In) {
        U.Rate = Tape.popRate();
        U.Need = std::max<int64_t>(Sum.MaxPeekPos + 1, U.Rate);
      }
    for (ChannelUse &U : F.Out)
      if (U.Chan == N.Out)
        U.Rate = Tape.pushRate();
  };

  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const flat::Node &N = G.Nodes[I];
    if (N.Kind != flat::NodeKind::Filter || !N.F || N.F->isNative())
      continue;
    const Filter &F = *N.F;
    const CompiledProgram::FilterArtifact &Art = P.filterArtifact(I);
    if (Art.Work.empty())
      continue;
    TapeSummary Sum = boundsOneTape(Art.Work, F.fields(), N.Name, R);
    if (Art.Work.peekRate() != F.peekRate() ||
        Art.Work.popRate() != F.popRate() ||
        Art.Work.pushRate() != F.pushRate())
      R.error(Pass, N.Name, -1,
              "tape rates (peek " + std::to_string(Art.Work.peekRate()) +
                  ", pop " + std::to_string(Art.Work.popRate()) + ", push " +
                  std::to_string(Art.Work.pushRate()) +
                  ") disagree with the filter's declared rates (peek " +
                  std::to_string(F.peekRate()) + ", pop " +
                  std::to_string(F.popRate()) + ", push " +
                  std::to_string(F.pushRate()) + ")");
    NodeRates &NR = Derived.Nodes[I];
    Derive(NR.Steady, N, Art.Work, Sum);
    if (Art.InitWork.empty()) {
      Derive(NR.Init, N, Art.Work, Sum);
      continue;
    }
    TapeSummary ISum =
        boundsOneTape(Art.InitWork, F.fields(), N.Name + " [init]", R);
    Derive(NR.Init, N, Art.InitWork, ISum);
    if (Art.InitWork.popRate() != F.initPopRate() ||
        Art.InitWork.pushRate() != F.initPushRate())
      R.error(Pass, N.Name + " [init]", -1,
              "init tape rates disagree with the filter's declared init "
              "rates");
  }

  // Replay the firing programs with the derived rates: every channel
  // read stays covered by live items, and live counts stay within the
  // schedule's high-water marks and buffer capacities — the flat-buffer
  // positions CxxEmit's emitted code indexes with.
  size_t NumChans = G.numChannels();
  if (S.ChannelHighWater.size() != NumChans ||
      S.ChannelBufSize.size() != NumChans) {
    R.error(Pass, "schedule", -1,
            "schedule vectors are not sized to the graph");
    return passResult(R, Before, "verify-bounds");
  }
  StaticSchedule Replayed = S;
  std::string Err = replaySchedule(G, Derived, Replayed, StepSource::Stored);
  if (!Err.empty()) {
    R.error(Pass, "schedule", -1, Err);
    return passResult(R, Before, "verify-bounds");
  }
  for (size_t C = 0; C != NumChans; ++C) {
    if (static_cast<int>(C) == G.ExternalIn ||
        static_cast<int>(C) == G.ExternalOut)
      continue;
    if (Replayed.ChannelHighWater[C] > S.ChannelHighWater[C])
      R.error(Pass, "schedule", -1,
              "channel " + std::to_string(C) + " holds " +
                  std::to_string(Replayed.ChannelHighWater[C]) +
                  " items, above its high-water mark " +
                  std::to_string(S.ChannelHighWater[C]));
    if (Replayed.ChannelBufSize[C] > S.ChannelBufSize[C])
      R.error(Pass, "schedule", -1,
              "flat-buffer positions on channel " + std::to_string(C) +
                  " reach " + std::to_string(Replayed.ChannelBufSize[C]) +
                  ", capacity is " + std::to_string(S.ChannelBufSize[C]));
  }
  return passResult(R, Before, "verify-bounds");
}

//===----------------------------------------------------------------------===//
// verify-state: the shard-recipe audit
//===----------------------------------------------------------------------===//

namespace {

bool sameBits(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

/// What a run adds to the external output channel and the print log.
struct Observed {
  std::vector<double> Out, Printed;
  bool operator==(const Observed &O) const {
    return sameBits(Out, O.Out) && sameBits(Printed, O.Printed);
  }
};

/// Runs \p Iters more steady iterations of \p E, observing them.
Status runObserved(CompiledExecutor &E, int64_t Iters, Observed &Obs) {
  size_t Out = E.externalOutputCount(), Printed = E.printed().size();
  if (Status St = E.tryRunIterations(Iters); !St.isOk())
    return St;
  std::vector<double> All = E.outputSnapshot();
  Obs.Out.assign(All.begin() + static_cast<ptrdiff_t>(Out), All.end());
  Obs.Printed.assign(E.printed().begin() + static_cast<ptrdiff_t>(Printed),
                     E.printed().end());
  return Status::ok();
}

/// Runs the shard recipe: a worker seeded at steady iteration K replays
/// the washout, then must match a sequential run over the next few
/// iterations bit for bit. Any K > 0 is a boundary the backend may seed;
/// K = washout + 1 keeps the audit a fixed function of the program. Both
/// sides read zeros from any external input. Returns "" on agreement.
std::string replayShard(const CompiledProgram &P) {
  const int64_t Washout = P.shardInfo().WashoutIterations;
  const int64_t K = Washout + 1, Audited = 4;
  const StaticSchedule &S = P.schedule();
  auto Zeros = [&](int64_t Iters) {
    return std::vector<double>(static_cast<size_t>(
        S.InitExternalNeed + (Iters + 1) * S.SteadyExternalNeed +
        S.BatchExternalNeed));
  };
  // Executors share the artifact without owning it.
  CompiledProgramRef Ref(CompiledProgramRef(), &P);
  ops::CountingScope Uncounted(false);

  CompiledExecutor Seq(Ref);
  Seq.provideInput(Zeros(K + Washout + Audited));
  Observed SeqTail;
  Status St = Seq.tryRunIterations(K + Washout);
  if (St.isOk())
    St = runObserved(Seq, Audited, SeqTail);
  if (!St.isOk())
    return "sequential run failed: " + St.str();

  CompiledExecutor Shard(Ref);
  Shard.provideInput(Zeros(Washout + Audited));
  Observed ShardTail;
  St = Shard.trySeedSteadyState(K);
  if (St.isOk())
    St = Shard.tryRunIterations(Washout);
  if (St.isOk())
    St = runObserved(Shard, Audited, ShardTail);
  if (!St.isOk())
    return "seeded run failed: " + St.str();

  if (!(ShardTail == SeqTail))
    return "a shard seeded at iteration " + std::to_string(K) +
           " and washed out for " + std::to_string(Washout) +
           " iterations diverges from the sequential run";
  return "";
}

} // namespace

std::string verify::verifyState(const CompiledProgram &P, LintReport &R) {
  const char *Pass = "verify-state";
  size_t Before = R.findings().size();
  const CompiledProgram::ShardInfo &Sh = P.shardInfo();
  if (!Sh.Shardable)
    return ""; // nothing is seeded; the backend runs sequentially
  const flat::FlatGraph &G = P.graph();
  std::map<size_t, SteadyStateInfo> ClassByNode;
  for (size_t I = 0; I != G.Nodes.size(); ++I) {
    const flat::Node &N = G.Nodes[I];
    if (N.Kind != flat::NodeKind::Filter || !N.F || N.F->isNative())
      continue;
    const CompiledProgram::FilterArtifact &Art = P.filterArtifact(I);
    if (Art.Work.empty())
      continue;
    SteadyStateInfo Class = classifySteadyState(Art.Work, N.F->fields());
    if (!Class.Reconstructable)
      R.error(Pass, N.Name, -1,
              "program is marked shardable, but the filter's state cannot "
              "be reconstructed: " + Class.Reason);
    ClassByNode.emplace(I, std::move(Class));
  }

  // Each seed must follow its field's state class.
  for (const CompiledProgram::ShardInfo::FieldSeed &Seed : Sh.Seeds) {
    auto It = ClassByNode.find(static_cast<size_t>(Seed.Node));
    if (It == ClassByNode.end())
      continue; // native filter seeds are out of tape scope
    const flat::Node &N = G.Nodes[static_cast<size_t>(Seed.Node)];
    const SteadyStateInfo::FieldUpdate *U = It->second.updateFor(Seed.Field);
    if (!U) {
      R.error(Pass, N.Name, -1,
              "shard seed for field " + std::to_string(Seed.Field) +
                  " has no matching state class");
      continue;
    }
    bool DeltaOk = Seed.DeltaRest == U->Delta;
    bool ModOk = U->Kind == SteadyStateInfo::FieldKind::ModAffine
                     ? Seed.Modulus == U->Mod
                     : Seed.Modulus == 0.0;
    if (U->Kind == SteadyStateInfo::FieldKind::InputDetermined)
      R.error(Pass, N.Name, -1,
              "shard seed exists for input-determined field " +
                  std::to_string(Seed.Field));
    else if (!DeltaOk || !ModOk)
      R.error(Pass, N.Name, -1,
              "shard seed (delta " + std::to_string(Seed.DeltaRest) +
                  ", mod " + std::to_string(Seed.Modulus) +
                  ") disagrees with the tape's state class (delta " +
                  std::to_string(U->Delta) + ", mod " +
                  std::to_string(U->Mod) + ")");
    if (!N.F->hasInitWork()) {
      const wir::FieldDef &FD = N.F->fields()[static_cast<size_t>(Seed.Field)];
      if (!FD.Init.empty() && Seed.Base != FD.Init[0])
        R.error(Pass, N.Name, -1,
                "shard seed base " + std::to_string(Seed.Base) +
                    " disagrees with field initializer " +
                    std::to_string(FD.Init[0]));
      if (Seed.DeltaFirst != Seed.DeltaRest)
        R.error(Pass, N.Name, -1,
                "shard seed's first step " + std::to_string(Seed.DeltaFirst) +
                    " differs from its steady step, with no init work");
    }
  }

  // A program with any error so far, in this pass or an earlier one, is
  // not executed: a wrong seed or a faulting tape can drive an index out
  // of range, which the engine treats as fatal.
  if (R.errorCount() == 0) {
    std::string Err = replayShard(P);
    if (!Err.empty())
      R.error(Pass, "shards", -1, Err);
  }
  return passResult(R, Before, "verify-state");
}

//===----------------------------------------------------------------------===//
// Whole-program lint
//===----------------------------------------------------------------------===//

LintReport verify::lintProgram(const CompiledProgram &P) {
  LintReport R;
  verifyLinear(P, R);
  verifyBounds(P, R);
  verifyState(P, R);
  return R;
}
