//===- linear/AbstractExec.cpp - Abstract op-tape executor ----------------===//

#include "linear/AbstractExec.h"

#include <algorithm>
#include <cmath>

using namespace slin;
using wir::Inst;
using wir::Op;

namespace {

/// One in-flight execution path: the full abstract machine state.
struct Path {
  size_t PC = 0;
  std::vector<AffineValue> Regs;
  std::vector<AffineValue> Arr;        ///< flat local-array store
  std::vector<int32_t> ASz;            ///< logical sizes (0 before ZeroArr)
  std::vector<std::vector<AffineValue>> Fld;
  int Pops = 0;
  std::vector<AffineValue> Pushes;
  bool Printed = false;
  /// Top carrying the fields that every data-dependent branch condition
  /// this path followed depended on.
  AffineValue Guard = AffineValue::top();
};

bool regOk(const wir::OpProgram &P, int32_t R) {
  return R >= 0 && R < P.numRegs();
}

bool constIndex(const AffineValue &V, bool IntIdx, long &Out) {
  if (!V.isConst())
    return false;
  Out = IntIdx ? static_cast<long>(V.Const) : std::lround(V.Const);
  return true;
}

/// Comparison / logical ops (Lt..Ne, Bool, Not): constant-foldable only,
/// with the tape's exact 1.0/0.0 semantics.
AffineValue affCompare(Op K, const AffineValue &L, const AffineValue &R) {
  auto Fold = [&](bool B) {
    return AffineValue::constant(B ? 1.0 : 0.0, L.In.size());
  };
  switch (K) {
  case Op::Bool:
    if (L.isConst())
      return Fold(L.Const != 0.0);
    return AffineValue::topOf(L);
  case Op::Not:
    if (L.isConst())
      return Fold(L.Const == 0.0);
    return AffineValue::topOf(L);
  default:
    break;
  }
  if (!L.isConst() || !R.isConst())
    return AffineValue::topOf(L, R);
  switch (K) {
  case Op::Lt:
    return Fold(L.Const < R.Const);
  case Op::Le:
    return Fold(L.Const <= R.Const);
  case Op::Gt:
    return Fold(L.Const > R.Const);
  case Op::Ge:
    return Fold(L.Const >= R.Const);
  case Op::Eq:
    return Fold(L.Const == R.Const);
  case Op::Ne:
    return Fold(L.Const != R.Const);
  default:
    return AffineValue::top();
  }
}

} // namespace

bool slin::checkWellFormed(const wir::OpProgram &P,
                           const std::vector<wir::FieldDef> &Fields,
                           std::vector<TapeFault> &Faults) {
  size_t Before = Faults.size();
  auto Fault = [&](int Pc, std::string Msg) {
    Faults.push_back({Pc, std::move(Msg)});
  };
  if (P.empty()) {
    Fault(-1, "empty tape");
    return false;
  }
  if (P.code().back().K != Op::Halt)
    Fault(static_cast<int>(P.size()) - 1,
          "tape does not end in Halt (can run off the end)");
  if (static_cast<size_t>(P.fieldCount()) != Fields.size())
    Fault(-1, "tape was compiled against " + std::to_string(P.fieldCount()) +
                  " fields, filter declares " +
                  std::to_string(Fields.size()));
  for (int A = 0; A != P.arrayCount(); ++A)
    if (P.arrayBase(A) < 0 || P.arrayDeclSize(A) < 0 ||
        P.arrayBase(A) + P.arrayDeclSize(A) > P.arrayStoreSize())
      Fault(-1, "array slot " + std::to_string(A) +
                    " overflows the array store");
  const std::vector<Inst> &Code = P.code();
  long N = static_cast<long>(Code.size());
  // Registers and local arrays written so far in tape order: a read of
  // anything else would see the previous firing's frame.
  std::vector<bool> Written(static_cast<size_t>(std::max(P.numRegs(), 0)));
  std::vector<bool> Zeroed(static_cast<size_t>(P.arrayCount()));
  for (long Pc = 0; Pc != N; ++Pc) {
    const Inst &I = Code[static_cast<size_t>(Pc)];
    auto Reg = [&](int32_t R, const char *Which) {
      if (regOk(P, R))
        return true;
      Fault(static_cast<int>(Pc), std::string("register operand ") + Which +
                                      " out of range (" + std::to_string(R) +
                                      " of " + std::to_string(P.numRegs()) +
                                      ")");
      return false;
    };
    auto Use = [&](int32_t R, const char *Which) {
      if (Reg(R, Which) && !Written[static_cast<size_t>(R)])
        Fault(static_cast<int>(Pc), std::string("register operand ") + Which +
                                        " (r" + std::to_string(R) +
                                        ") is read before any write in the "
                                        "firing");
    };
    int32_t Defined = -1; // marked written after the reads
    auto Def = [&](int32_t R) {
      if (Reg(R, "A"))
        Defined = R;
    };
    auto FieldSlot = [&](int32_t F) {
      if (F < 0 || static_cast<size_t>(F) >= Fields.size()) {
        Fault(static_cast<int>(Pc),
              "field operand out of range (" + std::to_string(F) + " of " +
                  std::to_string(Fields.size()) + ")");
        return false;
      }
      return true;
    };
    auto ArrSlot = [&](int32_t A) {
      if (A >= 0 && A < P.arrayCount())
        return true;
      Fault(static_cast<int>(Pc),
            "array slot out of range (" + std::to_string(A) + " of " +
                std::to_string(P.arrayCount()) + ")");
      return false;
    };
    auto Target = [&](int32_t T) {
      if (T < 0 || T >= N)
        Fault(static_cast<int>(Pc),
              "jump target out of range (" + std::to_string(T) + " of " +
                  std::to_string(N) + ")");
    };
    switch (I.K) {
    case Op::Const:
    case Op::PeekImm:
    case Op::Pop:
      Def(I.A);
      break;
    case Op::Copy:
    case Op::Bool:
    case Op::Not:
    case Op::Round:
    case Op::Neg:
    case Op::AddImm:
      Use(I.B, "B");
      Def(I.A);
      break;
    case Op::Peek:
      Use(I.C, "C");
      Def(I.A);
      break;
    case Op::Push:
    case Op::Print:
      Use(I.A, "A");
      break;
    case Op::PopDiscard:
    case Op::Halt:
      break;
    case Op::LoadFld:
    case Op::StoreFld:
      if (I.K == Op::StoreFld)
        Use(I.A, "A");
      else
        Def(I.A);
      if (FieldSlot(I.B) && Fields[static_cast<size_t>(I.B)].Init.empty())
        Fault(static_cast<int>(Pc), "scalar access to an empty field '" +
                                        Fields[static_cast<size_t>(I.B)].Name +
                                        "'");
      break;
    case Op::LoadFldIdx:
      Use(I.C, "C");
      Def(I.A);
      FieldSlot(I.B);
      break;
    case Op::StoreFldIdx:
      Use(I.A, "A");
      Use(I.C, "C");
      FieldSlot(I.B);
      break;
    case Op::LoadArr:
      Use(I.C, "C");
      Def(I.A);
      if (ArrSlot(I.B) && !Zeroed[static_cast<size_t>(I.B)])
        Fault(static_cast<int>(Pc),
              "local array '" + P.arrayName(I.B) +
                  "' is read before its declaration zero-fill");
      break;
    case Op::StoreArr:
      Use(I.A, "A");
      Use(I.C, "C");
      ArrSlot(I.B);
      break;
    case Op::ZeroArr:
      if (ArrSlot(I.A))
        Zeroed[static_cast<size_t>(I.A)] = true;
      break;
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::Eq:
    case Op::Ne:
      Use(I.B, "B");
      Use(I.C, "C");
      Def(I.A);
      break;
    case Op::Intrin:
      Use(I.C, "C");
      Def(I.A);
      if (I.B < 0 || I.B > static_cast<int32_t>(wir::Intrinsic::Round))
        Fault(static_cast<int>(Pc),
              "unknown intrinsic id " + std::to_string(I.B));
      break;
    case Op::MulAdd:
      Use(I.B, "B");
      Use(I.C, "C");
      Use(I.D, "D");
      Def(I.A);
      break;
    case Op::MacFldPeek:
      Use(I.A, "A");
      Use(I.C, "C");
      FieldSlot(I.B);
      break;
    case Op::Jump:
      Target(I.A);
      break;
    case Op::JumpIfZero:
      Use(I.A, "A");
      Target(I.B);
      break;
    case Op::JumpIfGe:
      Use(I.A, "A");
      Use(I.B, "B");
      Target(I.C);
      break;
    case Op::IncJump:
      Use(I.A, "A");
      Target(I.B);
      break;
    }
    if (Defined != -1)
      Written[static_cast<size_t>(Defined)] = true;
  }
  return Faults.size() == Before;
}

TapeSummary slin::abstractExecute(const wir::OpProgram &P,
                                  const std::vector<wir::FieldDef> &Fields) {
  TapeSummary S;
  if (!checkWellFormed(P, Fields, S.Faults))
    return S;

  const std::vector<Inst> &Code = P.code();
  const size_t E = static_cast<size_t>(
      std::max(P.peekRate(), P.popRate())); // input window, Extract's Peek

  auto Fault = [&](int Pc, const std::string &Msg) {
    for (const TapeFault &F : S.Faults)
      if (F.Pc == Pc && F.Msg == Msg)
        return;
    S.Faults.push_back({Pc, Msg});
  };
  auto NoteFork = [&](size_t Pc) {
    if (!S.Forked)
      S.FirstForkPc = static_cast<int>(Pc);
    S.Forked = true;
  };
  auto NotePeek = [&](int Pos) {
    S.MaxPeekPos = std::max(S.MaxPeekPos, Pos);
  };

  Path Init;
  Init.Regs.assign(static_cast<size_t>(P.numRegs()),
                   AffineValue::constant(0.0, E));
  Init.Arr.assign(static_cast<size_t>(P.arrayStoreSize()),
                  AffineValue::top());
  Init.ASz.assign(static_cast<size_t>(P.arrayCount()), 0);
  Init.Fld.resize(Fields.size());
  for (size_t F = 0; F != Fields.size(); ++F) {
    const wir::FieldDef &D = Fields[F];
    Init.Fld[F].reserve(D.Init.size());
    for (size_t J = 0; J != D.Init.size(); ++J)
      Init.Fld[F].push_back(D.IsMutable
                                ? AffineValue::initialState(
                                      static_cast<int>(F),
                                      static_cast<int>(J), E)
                                : AffineValue::constant(D.Init[J], E));
  }

  // The step budget bounds total abstract work (loops unroll concretely;
  // a corrupted back-edge could otherwise spin forever). The path budget
  // bounds data-dependent forking (2^branches).
  const size_t MaxSteps = 8u << 20;
  const size_t MaxPaths = 128;

  std::vector<Path> Work;
  std::vector<Path> Done;
  Work.push_back(std::move(Init));
  size_t Steps = 0;

  while (!Work.empty() && !S.Exploded) {
    Path Pt = std::move(Work.back());
    Work.pop_back();
    ++S.PathsExplored;
    bool Live = true;
    while (Live) {
      if (++Steps > MaxSteps) {
        Fault(static_cast<int>(Pt.PC),
              "abstract-execution step budget exceeded "
              "(divergent loop or extreme trip count)");
        S.Exploded = true;
        break;
      }
      const Inst &I = Code[Pt.PC];
      const int Pc = static_cast<int>(Pt.PC);
      size_t NextPC = Pt.PC + 1;
      auto Rd = [&](int32_t R) -> const AffineValue & {
        return Pt.Regs[static_cast<size_t>(R)];
      };
      auto Wr = [&](int32_t R, AffineValue V) {
        Pt.Regs[static_cast<size_t>(R)] = std::move(V);
      };
      // Reads In[Pops + Off] abstractly: window check + peek coefficient.
      auto ReadInput = [&](long Off, const char *What) -> AffineValue {
        long Pos = Pt.Pops + Off;
        if (Off < 0)
          Fault(Pc, std::string(What) + " offset is negative (" +
                        std::to_string(Off) + ")");
        if (Pos < 0 || Pos >= static_cast<long>(E)) {
          Fault(Pc, std::string(What) + " reads input position " +
                        std::to_string(Pos) + ", outside the window [0, " +
                        std::to_string(E) + ")");
          return AffineValue::top();
        }
        NotePeek(static_cast<int>(Pos));
        return AffineValue::input(static_cast<size_t>(Pos), E);
      };
      switch (I.K) {
      case Op::Const:
        Wr(I.A, AffineValue::constant(I.Imm, E));
        break;
      case Op::Copy:
        Wr(I.A, Rd(I.B));
        break;
      case Op::Peek: {
        long Idx;
        if (!constIndex(Rd(I.C), I.IntIdx, Idx)) {
          Fault(Pc, "peek index is not statically constant");
          Wr(I.A, AffineValue::topOf(Rd(I.C)));
        } else {
          Wr(I.A, ReadInput(Idx, "peek"));
        }
        break;
      }
      case Op::PeekImm:
        Wr(I.A, ReadInput(I.B, "peek"));
        break;
      case Op::Pop: {
        AffineValue V = ReadInput(0, "pop");
        ++Pt.Pops;
        Wr(I.A, std::move(V));
        break;
      }
      case Op::PopDiscard:
        if (Pt.Pops >= static_cast<int>(E))
          Fault(Pc, "pop advances past the input window [0, " +
                        std::to_string(E) + ")");
        ++Pt.Pops;
        break;
      case Op::Push:
        if (static_cast<int>(Pt.Pushes.size()) >= P.pushRate())
          Fault(Pc, "push beyond the declared push rate " +
                        std::to_string(P.pushRate()));
        Pt.Pushes.push_back(Rd(I.A));
        break;
      case Op::Print:
        Pt.Printed = true;
        break;
      case Op::LoadFld:
        Wr(I.A, Pt.Fld[static_cast<size_t>(I.B)][0]);
        break;
      case Op::StoreFld:
        if (!Fields[static_cast<size_t>(I.B)].IsMutable)
          Fault(Pc, "store to constant field '" +
                        Fields[static_cast<size_t>(I.B)].Name + "'");
        Pt.Fld[static_cast<size_t>(I.B)][0] = Rd(I.A);
        break;
      case Op::LoadFldIdx: {
        long Idx;
        auto &Elems = Pt.Fld[static_cast<size_t>(I.B)];
        if (!constIndex(Rd(I.C), I.IntIdx, Idx)) {
          // State-dependent index (e.g. a cursor field). The dispatch
          // bounds-checks this op at runtime, so "unproven" is safe —
          // no finding, value unknown: any element may be the one read.
          AffineValue V = AffineValue::topOf(Rd(I.C));
          for (const AffineValue &E : Elems)
            V.absorbDeps(E);
          Wr(I.A, std::move(V));
        } else if (Idx < 0 || Idx >= static_cast<long>(Elems.size())) {
          Fault(Pc, "field '" + Fields[static_cast<size_t>(I.B)].Name +
                        "' index " + std::to_string(Idx) +
                        " out of range [0, " + std::to_string(Elems.size()) +
                        ")");
          Wr(I.A, AffineValue::top());
        } else {
          Wr(I.A, Elems[static_cast<size_t>(Idx)]);
        }
        break;
      }
      case Op::StoreFldIdx: {
        long Idx;
        auto &Elems = Pt.Fld[static_cast<size_t>(I.B)];
        if (!Fields[static_cast<size_t>(I.B)].IsMutable)
          Fault(Pc, "store to constant field '" +
                        Fields[static_cast<size_t>(I.B)].Name + "'");
        if (!constIndex(Rd(I.C), I.IntIdx, Idx)) {
          // Runtime-checked store with an unknown index: any element may
          // be overwritten. No finding; the whole field is unknown.
          for (AffineValue &V : Elems) {
            V = AffineValue::topOf(V, Rd(I.A));
            V.absorbDeps(Rd(I.C));
          }
        } else if (Idx < 0 || Idx >= static_cast<long>(Elems.size())) {
          Fault(Pc, "field '" + Fields[static_cast<size_t>(I.B)].Name +
                        "' index " + std::to_string(Idx) +
                        " out of range [0, " + std::to_string(Elems.size()) +
                        ")");
        } else {
          Elems[static_cast<size_t>(Idx)] = Rd(I.A);
        }
        break;
      }
      case Op::LoadArr:
      case Op::StoreArr: {
        long Idx;
        int32_t Slot = I.B;
        long Sz = Pt.ASz[static_cast<size_t>(Slot)];
        if (!constIndex(Rd(I.C), I.IntIdx, Idx)) {
          // Runtime-checked, like the field-index ops: unproven, silent.
          AffineValue *Elems = Pt.Arr.data() + P.arrayBase(Slot);
          AffineValue V = AffineValue::topOf(Rd(I.C));
          if (I.K == Op::StoreArr)
            V.absorbDeps(Rd(I.A));
          for (long J = 0; J != Sz; ++J)
            V.absorbDeps(Elems[J]);
          if (I.K == Op::LoadArr)
            Wr(I.A, std::move(V));
          else
            std::fill(Elems, Elems + Sz, V);
        } else if (Idx < 0 || Idx >= Sz) {
          Fault(Pc, "array '" + P.arrayName(Slot) + "' index " +
                        std::to_string(Idx) + " out of range [0, " +
                        std::to_string(Sz) + ")" +
                        (Sz == 0 ? " (used before its declaration)" : ""));
          if (I.K == Op::LoadArr)
            Wr(I.A, AffineValue::top());
        } else if (I.K == Op::LoadArr) {
          Wr(I.A, Pt.Arr[static_cast<size_t>(P.arrayBase(Slot) + Idx)]);
        } else {
          Pt.Arr[static_cast<size_t>(P.arrayBase(Slot) + Idx)] = Rd(I.A);
        }
        break;
      }
      case Op::ZeroArr: {
        int32_t Slot = I.A;
        int32_t Decl = P.arrayDeclSize(Slot);
        for (int32_t J = 0; J != Decl; ++J)
          Pt.Arr[static_cast<size_t>(P.arrayBase(Slot) + J)] =
              AffineValue::constant(0.0, E);
        Pt.ASz[static_cast<size_t>(Slot)] = Decl;
        break;
      }
      case Op::Add:
        Wr(I.A, affAdd(Rd(I.B), Rd(I.C), 1.0));
        break;
      case Op::Sub:
        Wr(I.A, affAdd(Rd(I.B), Rd(I.C), -1.0));
        break;
      case Op::Mul:
        Wr(I.A, affMul(Rd(I.B), Rd(I.C)));
        break;
      case Op::Div:
        Wr(I.A, affDiv(Rd(I.B), Rd(I.C)));
        break;
      case Op::Mod:
        Wr(I.A, affModOp(Rd(I.B), Rd(I.C)));
        break;
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
      case Op::Eq:
      case Op::Ne:
        Wr(I.A, affCompare(I.K, Rd(I.B), Rd(I.C)));
        break;
      case Op::Bool:
      case Op::Not:
        Wr(I.A, affCompare(I.K, Rd(I.B), Rd(I.B)));
        break;
      case Op::Round: {
        const AffineValue &V = Rd(I.B);
        Wr(I.A, V.isConst()
                    ? AffineValue::constant(
                          static_cast<double>(std::lround(V.Const)), E)
                    : AffineValue::topOf(V));
        break;
      }
      case Op::Neg:
        Wr(I.A, affNeg(Rd(I.B)));
        break;
      case Op::Intrin: {
        const AffineValue &V = Rd(I.C);
        Wr(I.A, V.isConst()
                    ? AffineValue::constant(
                          wir::evalIntrinsic(
                              static_cast<wir::Intrinsic>(I.B), V.Const),
                          E)
                    : AffineValue::topOf(V));
        break;
      }
      case Op::MulAdd:
        Wr(I.A, affAdd(Rd(I.D), affMul(Rd(I.B), Rd(I.C)), 1.0));
        break;
      case Op::MacFldPeek: {
        long Idx;
        auto &Elems = Pt.Fld[static_cast<size_t>(I.B)];
        if (!constIndex(Rd(I.C), I.IntIdx, Idx)) {
          Fault(Pc, "mac index is not statically constant");
          Wr(I.A, AffineValue::topOf(Rd(I.A), Rd(I.C)));
          break;
        }
        if (Idx < 0 || Idx >= static_cast<long>(Elems.size())) {
          Fault(Pc, "field '" + Fields[static_cast<size_t>(I.B)].Name +
                        "' index " + std::to_string(Idx) +
                        " out of range [0, " + std::to_string(Elems.size()) +
                        ")");
          Wr(I.A, AffineValue::top());
          break;
        }
        AffineValue X = ReadInput(Idx, "peek");
        Wr(I.A, affAdd(Rd(I.A),
                       affMul(Elems[static_cast<size_t>(Idx)], X), 1.0));
        break;
      }
      case Op::AddImm:
        Wr(I.A, affAdd(Rd(I.B), AffineValue::constant(I.Imm, E), 1.0));
        break;
      case Op::Jump:
        NextPC = static_cast<size_t>(I.A);
        break;
      case Op::JumpIfZero: {
        const AffineValue &C = Rd(I.A);
        if (C.isConst()) {
          if (C.Const == 0.0)
            NextPC = static_cast<size_t>(I.B);
        } else {
          NoteFork(Pt.PC);
          if (Done.size() + Work.size() + 2 > MaxPaths) {
            // Too many data-dependent paths (argmax-style loops reach
            // 2^trips). Every property becomes "unproven", which is not
            // a finding — Exploded tells the analyses to stay silent.
            S.Exploded = true;
            Live = false;
            break;
          }
          Pt.Guard.absorbDeps(C);
          Path Taken = Pt;
          Taken.PC = static_cast<size_t>(I.B);
          Work.push_back(std::move(Taken));
        }
        break;
      }
      case Op::JumpIfGe: {
        const AffineValue &L = Rd(I.A);
        const AffineValue &R = Rd(I.B);
        if (L.isConst() && R.isConst()) {
          if (L.Const >= R.Const)
            NextPC = static_cast<size_t>(I.C);
        } else {
          NoteFork(Pt.PC);
          if (Done.size() + Work.size() + 2 > MaxPaths) {
            // Too many data-dependent paths (argmax-style loops reach
            // 2^trips). Every property becomes "unproven", which is not
            // a finding — Exploded tells the analyses to stay silent.
            S.Exploded = true;
            Live = false;
            break;
          }
          Pt.Guard.absorbDeps(L);
          Pt.Guard.absorbDeps(R);
          Path Taken = Pt;
          Taken.PC = static_cast<size_t>(I.C);
          Work.push_back(std::move(Taken));
        }
        break;
      }
      case Op::IncJump:
        Wr(I.A, affAdd(Rd(I.A), AffineValue::constant(1.0, E), 1.0));
        NextPC = static_cast<size_t>(I.B);
        break;
      case Op::Halt:
        if (Pt.Pops != P.popRate())
          Fault(Pc, "tape pops " + std::to_string(Pt.Pops) +
                        " items, declared pop rate is " +
                        std::to_string(P.popRate()));
        if (static_cast<int>(Pt.Pushes.size()) != P.pushRate())
          Fault(Pc, "tape pushes " + std::to_string(Pt.Pushes.size()) +
                        " items, declared push rate is " +
                        std::to_string(P.pushRate()));
        Done.push_back(std::move(Pt));
        Live = false;
        break;
      }
      if (!Live)
        break;
      Pt.PC = NextPC;
      S.HasPrint = S.HasPrint || Pt.Printed;
    }
  }

  if (S.Exploded)
    return S;
  if (Done.empty()) {
    // Every path died on a hard fault; the faults tell the story.
    return S;
  }
  S.Completed = true;

  // Join observable results across completed paths with exact equality
  // (Extract's confluence): any disagreement is data-dependent behaviour.
  // A joined Top depends on what every path's value depended on, and on
  // the branch conditions that split the paths.
  const Path &Base = Done.front();
  S.Pops = Base.Pops;
  S.PushCount = static_cast<int>(Base.Pushes.size());
  S.Pushes = Base.Pushes;
  S.FieldFinal = Base.Fld;
  S.HasPrint = S.HasPrint || Base.Printed;
  AffineValue Guards = AffineValue::top();
  auto Join = [](AffineValue &Acc, const AffineValue &V) {
    if (!Acc.sameValue(V) || Acc.isTop())
      Acc = AffineValue::topOf(Acc, V);
  };
  for (const Path &Pt : Done) {
    Guards.absorbDeps(Pt.Guard);
    S.HasPrint = S.HasPrint || Pt.Printed;
    if (Pt.Pops != Base.Pops ||
        Pt.Pushes.size() != Base.Pushes.size()) {
      Fault(S.FirstForkPc, "pop/push counts differ across data-dependent "
                           "paths");
      continue;
    }
    for (size_t J = 0; J != S.Pushes.size(); ++J)
      Join(S.Pushes[J], Pt.Pushes[J]);
    for (size_t F = 0; F != S.FieldFinal.size(); ++F)
      for (size_t J = 0; J != S.FieldFinal[F].size(); ++J)
        Join(S.FieldFinal[F][J], Pt.Fld[F][J]);
  }
  for (std::vector<AffineValue> &Elems : S.FieldFinal)
    for (AffineValue &V : Elems)
      if (V.isTop())
        V.absorbDeps(Guards);
  return S;
}

//===----------------------------------------------------------------------===//
// Cross-firing state classification
//===----------------------------------------------------------------------===//

namespace {

/// Exactly {state(Field, 0): 1.0} plus constants: the value of \p Field
/// before the firing, moved by a fixed amount.
bool ownSymbolOnly(const AffineValue &V, int Field) {
  if (V.isTop() || V.In.countNonZero() != 0)
    return false;
  for (const auto &KV : V.State)
    if (KV.second != (KV.first == stateSym(Field, 0) ? 1.0 : 0.0))
      return false;
  auto It = V.State.find(stateSym(Field, 0));
  return It != V.State.end();
}

} // namespace

SteadyStateInfo slin::classifySteadyState(
    const wir::OpProgram &P, const std::vector<wir::FieldDef> &Fields) {
  SteadyStateInfo Info;
  auto Fail = [&](std::string Why) {
    Info.Reconstructable = false;
    Info.Reason = std::move(Why);
    Info.Updates.clear();
    return Info;
  };

  std::vector<TapeFault> Faults;
  if (!checkWellFormed(P, Fields, Faults))
    return Fail(Faults.front().Msg);
  std::vector<bool> Stored(Fields.size(), false);
  bool StoresAny = false;
  for (const Inst &I : P.code()) {
    // Ring buffers (delay lines, the redundancy rewrite's product
    // caches) keep their elements across firings. Refused before
    // execution: every path would copy every element's affine form.
    if (I.K == Op::StoreFldIdx)
      return Fail("indexed store to a mutable field array");
    if (I.K == Op::StoreFld)
      Stored[static_cast<size_t>(I.B)] = StoresAny = true;
  }
  if (!StoresAny) {
    // Nothing crosses firings: the frame cannot (checkWellFormed) and no
    // field is written. Skipping execution also keeps stateless tapes
    // with argmax-style branching clear of the path budget.
    Info.Reconstructable = true;
    return Info;
  }

  TapeSummary S = abstractExecute(P, Fields);
  if (S.faulted())
    return Fail(S.Faults.front().Msg);
  if (S.Exploded)
    return Fail("abstract execution exhausted its budget");
  if (!S.Completed)
    return Fail("no execution path reaches Halt");

  // Closed forms first: input-determined fields may read them, since
  // workers seed them exactly.
  using FieldKind = SteadyStateInfo::FieldKind;
  std::vector<bool> ClosedForm(Fields.size(), false);
  for (size_t F = 0; F != Fields.size(); ++F) {
    const std::vector<AffineValue> &Final = S.FieldFinal[F];
    if (!Stored[F] || Final.size() != 1 ||
        !ownSymbolOnly(Final[0], static_cast<int>(F)))
      continue;
    const AffineValue &V = Final[0];
    Info.Updates.push_back({static_cast<int>(F),
                            V.isModVal() ? FieldKind::ModAffine
                                         : FieldKind::Affine,
                            V.Const, V.isModVal() ? V.Mod : 0.0});
    ClosedForm[F] = true;
  }

  // Every other stored field must be rewritten from the current inputs,
  // constants and state that is itself reconstructable.
  uint64_t Rewritten = 0;
  for (size_t F = 0; F != Fields.size(); ++F)
    if (Stored[F] && !ClosedForm[F])
      Rewritten |= AffineValue::fieldBit(static_cast<int>(F));
  for (size_t F = 0; F != Fields.size(); ++F) {
    if (!Stored[F] || ClosedForm[F])
      continue;
    for (const AffineValue &V : S.FieldFinal[F])
      if (AffineValue::topOf(V).DepFields & Rewritten)
        return Fail("field store depends on prior-firing state");
    Info.Updates.push_back(
        {static_cast<int>(F), FieldKind::InputDetermined, 0.0, 0.0});
  }
  Info.Reconstructable = true;
  return Info;
}
