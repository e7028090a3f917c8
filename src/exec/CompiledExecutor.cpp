//===- exec/CompiledExecutor.cpp - Batched compiled executor ----------------==//

#include "exec/CompiledExecutor.h"

#include "support/Diag.h"
#include "support/OpCounters.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

using namespace slin;
using namespace slin::flat;

CompiledExecutor::~CompiledExecutor() = default;

//===----------------------------------------------------------------------===//
// Native-filter tape adapter
//===----------------------------------------------------------------------===//

/// Raw-pointer tape for per-firing native execution (init firings and
/// native filters without a batched path).
class CompiledExecutor::PtrTape : public wir::Tape {
public:
  PtrTape(const double *In, double *Out, std::vector<double> &Printed)
      : In(In), Out(Out), Printed(Printed) {}

  double peek(int Index) override {
    assert(In && Index >= 0 && "peek on a source filter");
    return In[Pos + static_cast<size_t>(Index)];
  }
  double pop() override {
    assert(In && "pop on a source filter");
    return In[Pos++];
  }
  void push(double Value) override {
    assert(Out && "push on a filter without an output channel");
    Out[OutPos++] = Value;
  }
  void print(double Value) override { Printed.push_back(Value); }

private:
  const double *In;
  size_t Pos = 0;
  double *Out;
  size_t OutPos = 0;
  std::vector<double> &Printed;
};

//===----------------------------------------------------------------------===//
// Native-module host services
//===----------------------------------------------------------------------===//

namespace {

/// Print thunk handed to emitted code; Sink is the executor's Printed
/// vector, so native prints interleave exactly like tape prints.
void nativePrint(void *Sink, double V) {
  static_cast<std::vector<double> *>(Sink)->push_back(V);
}

/// Failure thunk: emitted bounds/rate checks land on the same fatal
/// ladder (and the same message text) as the op-tape interpreter's.
void nativeFail(const char *Msg) { fatalError(Msg); }

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

CompiledExecutor::CompiledExecutor(const Stream &Root, Options Opts)
    : CompiledExecutor(std::make_shared<const CompiledProgram>(Root, Opts)) {}

CompiledExecutor::CompiledExecutor(CompiledProgramRef Program)
    : Prog(std::move(Program)), Graph(Prog->graph()),
      Sched(Prog->schedule()) {
  Channels.resize(Graph.numChannels());
  for (size_t C = 0; C != Graph.numChannels(); ++C) {
    if (static_cast<int>(C) == Graph.ExternalIn ||
        static_cast<int>(C) == Graph.ExternalOut)
      continue;
    ChannelBuf &B = Channels[C];
    B.Buf.assign(static_cast<size_t>(Sched.ChannelBufSize[C]), 0.0);
    const std::vector<double> &Init = Graph.InitialItems[C];
    std::copy(Init.begin(), Init.end(), B.Buf.begin());
    B.Tail = Init.size();
  }

  States.resize(Graph.Nodes.size());
  for (size_t I = 0; I != Graph.Nodes.size(); ++I) {
    const Node &N = Graph.Nodes[I];
    if (N.Kind != NodeKind::Filter)
      continue;
    const CompiledProgram::FilterArtifact &A = Prog->filterArtifact(I);
    FilterState &S = States[I];
    if (A.Native) {
      S.Native = A.Native->clone();
      continue;
    }
    S.Fields = wir::FieldStore(N.F->fields());
    S.Work = &A.Work;
    S.Work->prepareFrame(S.Frame);
    if (!A.InitWork.empty()) {
      S.InitWork = &A.InitWork;
      S.InitWork->prepareFrame(S.Frame);
    }
  }
}

//===----------------------------------------------------------------------===//
// Channel access
//===----------------------------------------------------------------------===//

const double *CompiledExecutor::readBase(int Chan) const {
  if (Chan == Graph.ExternalIn)
    return ExtIn.data() + ExtInPos;
  const ChannelBuf &B = Channels[static_cast<size_t>(Chan)];
  return B.Buf.data() + B.Head;
}

void CompiledExecutor::advanceRead(int Chan, size_t N) {
  if (Chan == Graph.ExternalIn) {
    ExtInPos += N;
    assert(ExtInPos <= ExtIn.size() && "external input overrun");
    return;
  }
  ChannelBuf &B = Channels[static_cast<size_t>(Chan)];
  B.Head += N;
  assert(B.Head <= B.Tail && "channel underflow (schedule bug)");
}

double *CompiledExecutor::writePtr(int Chan, size_t N) {
  if (Chan == Graph.ExternalOut) {
    size_t Old = ExtOut.size();
    ExtOut.resize(Old + N);
    return ExtOut.data() + Old;
  }
  ChannelBuf &B = Channels[static_cast<size_t>(Chan)];
  assert(B.Tail + N <= B.Buf.size() && "channel overflow (schedule bug)");
  double *P = B.Buf.data() + B.Tail;
  B.Tail += N;
  return P;
}

void CompiledExecutor::compact() {
  for (size_t C = 0; C != Channels.size(); ++C) {
    if (static_cast<int>(C) == Graph.ExternalIn ||
        static_cast<int>(C) == Graph.ExternalOut)
      continue;
    ChannelBuf &B = Channels[C];
    if (B.Head == 0)
      continue;
    size_t Live = B.live();
    if (Live)
      std::memmove(B.Buf.data(), B.Buf.data() + B.Head,
                   Live * sizeof(double));
    B.Head = 0;
    B.Tail = Live;
  }
  // Drop the consumed prefix of the external input.
  if (ExtInPos) {
    ExtIn.erase(ExtIn.begin(),
                ExtIn.begin() + static_cast<ptrdiff_t>(ExtInPos));
    ExtInPos = 0;
  }
}

//===----------------------------------------------------------------------===//
// Firing
//===----------------------------------------------------------------------===//

void CompiledExecutor::fireFilterStep(size_t NodeIdx, int64_t K) {
  const Node &N = Graph.Nodes[NodeIdx];
  FilterState &S = States[NodeIdx];
  const Filter *F = N.F;

  bool InitPending = !S.FiredOnce && F->hasInitWork();
  int64_t SteadyK = K - (InitPending ? 1 : 0);
  int InitPop = InitPending ? F->initPopRate() : 0;
  int InitPush = InitPending ? F->initPushRate() : 0;
  int Pop = F->popRate();
  int Push = F->pushRate();
  size_t TotalPop =
      static_cast<size_t>(InitPop) + static_cast<size_t>(SteadyK) * Pop;
  size_t TotalPush =
      static_cast<size_t>(InitPush) + static_cast<size_t>(SteadyK) * Push;

  const double *In = N.In >= 0 ? readBase(N.In) : nullptr;
  double *Out = N.Out >= 0 && TotalPush ? writePtr(N.Out, TotalPush) : nullptr;

  // Emitted entry points take over only outside counting runs: native
  // code does no op accounting, so FLOP numbers keep their interpreter
  // meaning (timing runs never count; see exec/Measure.cpp).
  const codegen::NodeFns *NF = NativeMod && !ops::isCounting()
                                   ? &NativeMod->node(NodeIdx)
                                   : nullptr;

  if (S.Native) {
    const double *Ip = In;
    double *Op = Out;
    if (InitPending) {
      PtrTape T(Ip, Op, Printed);
      S.Native->fireInit(T);
      Ip = Ip ? Ip + InitPop : nullptr;
      Op = Op ? Op + InitPush : nullptr;
    }
    if (SteadyK > 0) {
      bool Batched = false;
      if (SteadyK > 1 && Ip && Op) {
        if (NF && NF->Batch) {
          NF->Batch(Ip, Op, static_cast<long>(SteadyK));
          Batched = true;
        } else {
          Batched = S.Native->fireBatch(Ip, Op, static_cast<int>(SteadyK));
        }
      }
      if (!Batched) {
        for (int64_t I = 0; I != SteadyK; ++I) {
          PtrTape T(Ip, Op, Printed);
          S.Native->fire(T);
          Ip = Ip ? Ip + Pop : nullptr;
          Op = Op ? Op + Push : nullptr;
        }
      }
    }
  } else if (NF && NF->Work) {
    const double *Ip = In;
    double *Op = Out;
    // Fill the frame's field-pointer cache exactly as OpProgram::run
    // does; emitted code indexes the same vectors through NativeCtx.
    wir::WorkFrame &Fr = S.Frame;
    size_t NumFlds = std::min(Fr.FldPtrs.size(), S.Fields.Values.size());
    for (size_t I = 0; I != NumFlds; ++I) {
      Fr.FldPtrs[I] = S.Fields.Values[I].data();
      Fr.FldSizes[I] = static_cast<int32_t>(S.Fields.Values[I].size());
    }
    codegen::NativeCtx Ctx{Fr.FldPtrs.data(), Fr.FldSizes.data(), &Printed,
                           nativePrint, nativeFail};
    if (InitPending) {
      if (NF->Init)
        NF->Init(&Ctx, Ip, Op, 1);
      else
        S.InitWork->run(S.Frame, S.Fields, Ip, Op, Printed);
      Ip = Ip ? Ip + InitPop : nullptr;
      Op = Op ? Op + InitPush : nullptr;
    }
    if (SteadyK > 0)
      NF->Work(&Ctx, Ip, Op, static_cast<long>(SteadyK));
  } else {
    const double *Ip = In;
    double *Op = Out;
    if (InitPending) {
      S.InitWork->run(S.Frame, S.Fields, Ip, Op, Printed);
      Ip = Ip ? Ip + InitPop : nullptr;
      Op = Op ? Op + InitPush : nullptr;
    }
    for (int64_t I = 0; I != SteadyK; ++I) {
      S.Work->run(S.Frame, S.Fields, Ip, Op, Printed);
      Ip = Ip ? Ip + Pop : nullptr;
      Op = Op ? Op + Push : nullptr;
    }
  }

  S.FiredOnce = true;
  if (N.In >= 0)
    advanceRead(N.In, TotalPop);
  Firings += static_cast<uint64_t>(K);
}

void CompiledExecutor::fireSplitJoinStep(size_t NodeIdx, int64_t K) {
  const Node &N = Graph.Nodes[NodeIdx];
  Firings += static_cast<uint64_t>(K);
  switch (N.Kind) {
  case NodeKind::DupSplit: {
    size_t KN = static_cast<size_t>(K);
    const double *In = readBase(N.In);
    for (int OutChan : N.Outs) {
      double *Dst = writePtr(OutChan, KN);
      std::copy(In, In + KN, Dst);
    }
    advanceRead(N.In, KN);
    return;
  }
  case NodeKind::RRSplit: {
    size_t Tot = static_cast<size_t>(N.totalWeight());
    const double *In = readBase(N.In);
    if (WriteCursors.size() < N.Outs.size())
      WriteCursors.resize(N.Outs.size());
    double **Dst = WriteCursors.data();
    for (size_t C = 0; C != N.Outs.size(); ++C)
      Dst[C] = writePtr(N.Outs[C],
                        static_cast<size_t>(K) *
                            static_cast<size_t>(N.Weights[C]));
    for (int64_t I = 0; I != K; ++I)
      for (size_t C = 0; C != N.Outs.size(); ++C)
        for (int W = 0; W != N.Weights[C]; ++W)
          *Dst[C]++ = *In++;
    advanceRead(N.In, static_cast<size_t>(K) * Tot);
    return;
  }
  case NodeKind::RRJoin: {
    size_t Tot = static_cast<size_t>(N.totalWeight());
    if (ReadCursors.size() < N.Ins.size())
      ReadCursors.resize(N.Ins.size());
    const double **Src = ReadCursors.data();
    for (size_t C = 0; C != N.Ins.size(); ++C)
      Src[C] = readBase(N.Ins[C]);
    double *Out = writePtr(N.Out, static_cast<size_t>(K) * Tot);
    for (int64_t I = 0; I != K; ++I)
      for (size_t C = 0; C != N.Ins.size(); ++C)
        for (int W = 0; W != N.Weights[C]; ++W)
          *Out++ = *Src[C]++;
    for (size_t C = 0; C != N.Ins.size(); ++C)
      advanceRead(N.Ins[C],
                  static_cast<size_t>(K) * static_cast<size_t>(N.Weights[C]));
    return;
  }
  case NodeKind::Filter:
    break;
  }
  unreachable("not a splitter/joiner node");
}

void CompiledExecutor::runProgram(const FiringProgram &Prog) {
  for (const FiringStep &Step : Prog) {
    size_t I = static_cast<size_t>(Step.Node);
    if (Graph.Nodes[I].Kind == NodeKind::Filter)
      fireFilterStep(I, Step.Count);
    else
      fireSplitJoinStep(I, Step.Count);
  }
}

//===----------------------------------------------------------------------===//
// Driving
//===----------------------------------------------------------------------===//

void CompiledExecutor::provideInput(const std::vector<double> &Items) {
  ExtIn.insert(ExtIn.end(), Items.begin(), Items.end());
}

size_t CompiledExecutor::outputsProduced() const {
  if (Graph.RootProducesOutput)
    return ExtOut.size();
  return Printed.size();
}

namespace {

/// Deadline poll shared by the try* run loops, at firing-program
/// granularity (a batch is microseconds; the check is a clock read).
/// The exec-hang fault point simulates a wedged run: it parks the
/// thread until the deadline trips — never indefinitely, so an unarmed
/// or deadline-less test cannot wedge itself.
Status checkDeadline(const faults::RunDeadline *DL) {
  if (faults::shouldFail(faults::Point::ExecHang) && DL) {
    while (!DL->expired())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!DL)
    return Status::ok();
  if (DL->cancelled())
    return Status(ErrorCode::Cancelled, "run cancelled");
  if (DL->timedOut())
    return Status(ErrorCode::Timeout, "run deadline expired");
  return Status::ok();
}

} // namespace

Status CompiledExecutor::ensureInit() {
  if (InitDone)
    return Status::ok();
  if (extInAvailable() < static_cast<size_t>(Sched.InitExternalNeed))
    return Status(ErrorCode::Deadlock,
                  "stream graph deadlocked: initialization needs " +
                      std::to_string(Sched.InitExternalNeed) +
                      " external input items, have " +
                      std::to_string(extInAvailable()));
  runProgram(Sched.InitProgram);
  compact();
  InitDone = true;
  return Status::ok();
}

Status CompiledExecutor::steadyShortfall(const std::string &Progress) const {
  return Status(ErrorCode::Deadlock,
                "stream graph deadlocked: a steady-state iteration needs " +
                    std::to_string(Sched.SteadyExternalNeed) +
                    " external input items, have " +
                    std::to_string(extInAvailable()) + " (" + Progress +
                    ")");
}

Status CompiledExecutor::tryRunIterations(int64_t Iters,
                                          const faults::RunDeadline *DL) {
  if (Status St = ensureInit(); !St.isOk())
    return St;
  while (Iters > 0) {
    if (Status St = checkDeadline(DL); !St.isOk())
      return St;
    if (Iters >= Sched.BatchIterations &&
        extInAvailable() >= static_cast<size_t>(Sched.BatchExternalNeed)) {
      runProgram(Sched.BatchProgram);
      Iters -= Sched.BatchIterations;
    } else if (extInAvailable() >=
               static_cast<size_t>(Sched.SteadyExternalNeed)) {
      runProgram(Sched.SteadyProgram);
      --Iters;
    } else {
      return steadyShortfall(std::to_string(Iters) +
                             " iterations remaining");
    }
    compact();
  }
  return Status::ok();
}

Status CompiledExecutor::trySeedSteadyState(int64_t StartIteration) {
  const CompiledProgram::ShardInfo &SI = Prog->shardInfo();
  // Checked, not asserted: a worker thread must hand a seeding anomaly
  // back to the parallel backend (which owns the sequential fallback),
  // not abort the process.
  if (!SI.Shardable)
    return Status(ErrorCode::ShardAnomaly,
                  "seeding requires a shardable program (" + SI.Reason +
                      ")");
  if (InitDone || Firings != 0)
    return Status(ErrorCode::ShardAnomaly, "seed only a fresh executor");
  for (const CompiledProgram::ShardInfo::FieldSeed &Seed : SI.Seeds) {
    if (Seed.Node < 0 ||
        static_cast<size_t>(Seed.Node) >= States.size() ||
        Graph.Nodes[static_cast<size_t>(Seed.Node)].Kind !=
            flat::NodeKind::Filter ||
        Seed.Field < 0 ||
        static_cast<size_t>(Seed.Field) >=
            States[static_cast<size_t>(Seed.Node)].Fields.Values.size())
      return Status(ErrorCode::ShardAnomaly,
                    "shard seed recipe references node " +
                        std::to_string(Seed.Node) + " field " +
                        std::to_string(Seed.Field) +
                        " outside the program");
  }
  if (faults::shouldFail(faults::Point::ShardSeedCorrupt))
    return Status(ErrorCode::ShardAnomaly,
                  "injected shard-seed corruption");

  for (size_t C = 0; C != Channels.size(); ++C) {
    if (static_cast<int>(C) == Graph.ExternalIn ||
        static_cast<int>(C) == Graph.ExternalOut)
      continue;
    ChannelBuf &B = Channels[C];
    std::fill(B.Buf.begin(), B.Buf.end(), 0.0);
    B.Head = 0;
    B.Tail = static_cast<size_t>(Sched.PostInitLive[C]);
  }

  // Every filter has logically fired (init work happened long before any
  // shard boundary); its closed-form state is a function of its global
  // firing count alone.
  for (size_t I = 0; I != States.size(); ++I)
    if (Graph.Nodes[I].Kind == flat::NodeKind::Filter)
      States[I].FiredOnce = true;
  for (const CompiledProgram::ShardInfo::FieldSeed &Seed : SI.Seeds) {
    int64_t T = Sched.InitFirings[static_cast<size_t>(Seed.Node)] +
                StartIteration *
                    Sched.Repetitions[static_cast<size_t>(Seed.Node)];
    double V = Seed.Base;
    if (T > 0 && Seed.Modulus > 0) {
      // All components are non-negative integers (enforced by
      // computeShardInfo), so exact int64 modular arithmetic reproduces
      // the per-firing fmod reduction's representative for any T.
      int64_t M = static_cast<int64_t>(Seed.Modulus);
      int64_t Acc = (static_cast<int64_t>(Seed.Base) +
                     static_cast<int64_t>(Seed.DeltaFirst)) %
                    M;
      int64_t Step = static_cast<int64_t>(Seed.DeltaRest) % M;
      Acc = (Acc + ((T - 1) % M) * Step) % M;
      V = static_cast<double>(Acc);
    } else if (T > 0) {
      V = Seed.Base + Seed.DeltaFirst +
          static_cast<double>(T - 1) * Seed.DeltaRest;
    }
    States[static_cast<size_t>(Seed.Node)]
        .Fields.Values[static_cast<size_t>(Seed.Field)][0] = V;
  }
  InitDone = true;
  return Status::ok();
}

Status CompiledExecutor::runToOutputs(size_t NOutputs,
                                      const faults::RunDeadline *DL,
                                      bool SingleIterations,
                                      double *FirstOutputSeconds) {
  if (outputsProduced() >= NOutputs)
    return Status::ok();
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Start =
      FirstOutputSeconds ? Clock::now() : Clock::time_point();
  const size_t Initial = outputsProduced();
  // Records the time to the first new output once, then stops looking.
  auto NoteFirstOutput = [&] {
    if (!FirstOutputSeconds || outputsProduced() <= Initial)
      return;
    *FirstOutputSeconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
    FirstOutputSeconds = nullptr;
  };
  if (Status St = ensureInit(); !St.isOk())
    return St;
  NoteFirstOutput();
  while (outputsProduced() < NOutputs) {
    if (Status St = checkDeadline(DL); !St.isOk())
      return St;
    size_t Before = outputsProduced();
    if (!SingleIterations &&
        extInAvailable() >= static_cast<size_t>(Sched.BatchExternalNeed))
      runProgram(Sched.BatchProgram);
    else if (extInAvailable() >=
             static_cast<size_t>(Sched.SteadyExternalNeed))
      runProgram(Sched.SteadyProgram);
    else
      return steadyShortfall("needed " + std::to_string(NOutputs) +
                             " outputs, have " +
                             std::to_string(outputsProduced()));
    compact();
    if (outputsProduced() == Before)
      return Status(ErrorCode::Deadlock,
                    "stream graph deadlocked: steady state produces no "
                    "observable output");
    NoteFirstOutput();
  }
  return Status::ok();
}
