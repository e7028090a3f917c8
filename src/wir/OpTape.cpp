//===- wir/OpTape.cpp - Flattened work-function op tape ---------------------==//

#include "wir/OpTape.h"

#include "support/Diag.h"
#include "support/OpCounters.h"
#include "support/Serialize.h"

#include <cmath>

using namespace slin;
using namespace slin::wir;

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace slin {
namespace wir {

/// Single-pass tree-to-tape compiler. Emission order mirrors the tree
/// interpreter's evaluation order exactly, and instructions emitted while
/// the interpreter would hold CountingScope(false) are tagged uncounted.
///
/// Two peepholes fuse the patterns that dominate linear DSP code (the
/// multiply-accumulate of a convolution sum and the constant-offset index
/// add), and a post-pass marks index registers that provably hold exact
/// integers so dispatch can use a plain cast instead of lround. All three
/// preserve values, evaluation order and op counts exactly.
class OpTapeCompiler {
public:
  OpTapeCompiler(const WorkFunction &Work, const std::vector<FieldDef> &Fields,
                 OpProgram &P)
      : Work(Work), P(P) {
    P.PeekRate = Work.PeekRate;
    P.PopRate = Work.PopRate;
    P.PushRate = Work.PushRate;
    P.NumRegs = std::max(Work.NumScalarSlots, 1);
    FrameBase = Work.NumScalarSlots;
    TempTop = FrameBase;
    P.ArrBase.assign(static_cast<size_t>(Work.NumArraySlots), -1);
    P.ArrDeclSize.assign(static_cast<size_t>(Work.NumArraySlots), 0);
    P.ArrNames.assign(static_cast<size_t>(Work.NumArraySlots), "");
    P.FieldNames.reserve(Fields.size());
    for (const FieldDef &F : Fields)
      P.FieldNames.push_back(F.Name);
  }

  void run() {
    compileBody(Work.Body);
    emit(Op::Halt);
    markIntRegs();
  }

private:
  int nextIndex() const { return static_cast<int>(P.Code.size()); }

  /// Forbids peephole fusion from touching instructions before \p Index:
  /// called at every jump-target definition, since popping or rewriting
  /// a landing-pad instruction would detach the jumps aimed at it.
  void fusionBarrier(int Index) {
    FusionBarrier = std::max(FusionBarrier, Index);
  }

  /// True when the last \p N instructions are all past the barrier.
  bool fusible(size_t N) const {
    return P.Code.size() >= N &&
           P.Code.size() - N >= static_cast<size_t>(FusionBarrier);
  }

  int emit(Op K, int A = 0, int B = 0, int C = 0, double Imm = 0.0) {
    Inst I;
    I.K = K;
    I.Counted = UncountedDepth == 0;
    I.A = A;
    I.B = B;
    I.C = C;
    I.Imm = Imm;
    P.Code.push_back(I);
    return static_cast<int>(P.Code.size() - 1);
  }

  int allocTemp() {
    int T = TempTop++;
    P.NumRegs = std::max(P.NumRegs, TempTop);
    return T;
  }

  /// True for registers holding only intermediate values of the current
  /// statement (named locals and live loop counters sit below FrameBase).
  bool isTemp(int R) const { return R >= FrameBase; }

  static int toIndex(double V) { return static_cast<int>(std::lround(V)); }

  /// Compiles \p E into some register and returns it (a variable's slot
  /// when possible, else a fresh temp).
  int compileExpr(const Expr &E) {
    if (const auto *V = dynCast<VarRefExpr>(&E))
      return V->Slot;
    int T = allocTemp();
    compileExprInto(E, T);
    return T;
  }

  /// Compiles an index/bound expression (uncounted, like evalUncounted).
  int compileIndex(const Expr &E) {
    ++UncountedDepth;
    int R = compileExpr(E);
    --UncountedDepth;
    return R;
  }

  /// Emits Dst = L op R, fusing multiply-accumulate and constant-add
  /// patterns. The fused forms compute bit-identical values and count
  /// identical ops (a MulAdd counts its multiply and its add).
  void emitBin(Op K, int Dst, int L, int R) {
    bool Counted = UncountedDepth == 0;
    if (K == Op::Add && fusible(1)) {
      Inst &Prev = P.Code.back();
      // Const temp + x  ->  AddImm (same two operands, same rounding).
      if (Prev.K == Op::Const && isTemp(Prev.A) && (Prev.A == L) != (Prev.A == R)) {
        int Other = Prev.A == L ? R : L;
        double Imm = Prev.Imm;
        P.Code.pop_back();
        emit(Op::AddImm, Dst, Other, 0, Imm);
        return;
      }
      // x + (a*b) in a temp  ->  MulAdd; when it accumulates onto the
      // destination and the factors are a fresh field load and a peek at
      // the same index, collapse further into MacFldPeek.
      if (Prev.K == Op::Mul && isTemp(Prev.A) && Prev.Counted == Counted &&
          (Prev.A == L) != (Prev.A == R)) {
        int Addend = Prev.A == L ? R : L;
        int MB = Prev.B, MC = Prev.C;
        P.Code.pop_back();
        if (Addend == Dst && fusible(2)) {
          Inst &Pk = P.Code.back();
          Inst &Ld = P.Code[P.Code.size() - 2];
          if (Pk.K == Op::Peek && Pk.A == MC && isTemp(MC) &&
              Ld.K == Op::LoadFldIdx && Ld.A == MB && isTemp(MB) &&
              Pk.C == Ld.C) {
            int Fld = Ld.B, Idx = Ld.C;
            P.Code.pop_back();
            P.Code.pop_back();
            emit(Op::MacFldPeek, Dst, Fld, Idx);
            return;
          }
        }
        int I = emit(Op::MulAdd, Dst, MB, MC);
        P.Code[static_cast<size_t>(I)].D = Addend;
        return;
      }
    }
    emit(K, Dst, L, R);
  }

  void compileExprInto(const Expr &E, int Dst) {
    switch (E.kind()) {
    case ExprKind::Const:
      emit(Op::Const, Dst, 0, 0, cast<ConstExpr>(&E)->Value);
      return;
    case ExprKind::VarRef:
      emit(Op::Copy, Dst, cast<VarRefExpr>(&E)->Slot);
      return;
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRefExpr>(&E);
      int Idx = compileIndex(*A->Index);
      emit(Op::LoadArr, Dst, A->Slot, Idx);
      return;
    }
    case ExprKind::FieldRef: {
      const auto *F = cast<FieldRefExpr>(&E);
      if (!F->Index) {
        emit(Op::LoadFld, Dst, F->FieldIndex);
        return;
      }
      int Idx = compileIndex(*F->Index);
      emit(Op::LoadFldIdx, Dst, F->FieldIndex, Idx);
      return;
    }
    case ExprKind::Peek: {
      const auto *Pk = cast<PeekExpr>(&E);
      if (const auto *CI = dynCast<ConstExpr>(Pk->Index.get())) {
        emit(Op::PeekImm, Dst, toIndex(CI->Value));
        return;
      }
      int Idx = compileIndex(*Pk->Index);
      emit(Op::Peek, Dst, 0, Idx);
      return;
    }
    case ExprKind::Pop:
      emit(Op::Pop, Dst);
      return;
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      // Short-circuit logical operators (integer ops on IA-32; uncounted).
      if (B->Op == BinOp::LAnd) {
        int L = compileExpr(*B->LHS);
        ++UncountedDepth;
        int JFalse = emit(Op::JumpIfZero, L);
        --UncountedDepth;
        int R = compileExpr(*B->RHS);
        ++UncountedDepth;
        emit(Op::Bool, Dst, R);
        int JEnd = emit(Op::Jump);
        P.Code[static_cast<size_t>(JFalse)].B = nextIndex();
        fusionBarrier(nextIndex());
        emit(Op::Const, Dst, 0, 0, 0.0);
        P.Code[static_cast<size_t>(JEnd)].A = nextIndex();
        fusionBarrier(nextIndex());
        --UncountedDepth;
        return;
      }
      if (B->Op == BinOp::LOr) {
        int L = compileExpr(*B->LHS);
        ++UncountedDepth;
        int JRhs = emit(Op::JumpIfZero, L);
        emit(Op::Const, Dst, 0, 0, 1.0);
        int JEnd = emit(Op::Jump);
        P.Code[static_cast<size_t>(JRhs)].B = nextIndex();
        fusionBarrier(nextIndex());
        --UncountedDepth;
        int R = compileExpr(*B->RHS);
        ++UncountedDepth;
        emit(Op::Bool, Dst, R);
        P.Code[static_cast<size_t>(JEnd)].A = nextIndex();
        fusionBarrier(nextIndex());
        --UncountedDepth;
        return;
      }
      int L = compileExpr(*B->LHS);
      int R = compileExpr(*B->RHS);
      Op K;
      switch (B->Op) {
      case BinOp::Add: K = Op::Add; break;
      case BinOp::Sub: K = Op::Sub; break;
      case BinOp::Mul: K = Op::Mul; break;
      case BinOp::Div: K = Op::Div; break;
      case BinOp::Mod: K = Op::Mod; break;
      case BinOp::Lt:  K = Op::Lt; break;
      case BinOp::Le:  K = Op::Le; break;
      case BinOp::Gt:  K = Op::Gt; break;
      case BinOp::Ge:  K = Op::Ge; break;
      case BinOp::Eq:  K = Op::Eq; break;
      case BinOp::Ne:  K = Op::Ne; break;
      case BinOp::LAnd:
      case BinOp::LOr:
      default:
        unreachable("logical op handled above");
      }
      emitBin(K, Dst, L, R);
      return;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      int V = compileExpr(*U->Operand);
      if (U->Op == UnOp::Neg)
        emit(Op::Neg, Dst, V); // FCHS, counted as a subtract
      else {
        ++UncountedDepth;
        emit(Op::Not, Dst, V);
        --UncountedDepth;
      }
      return;
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      int A = compileExpr(*C->Arg);
      emit(Op::Intrin, Dst, static_cast<int>(C->Fn), A);
      return;
    }
    }
    unreachable("unknown expr kind");
  }

  void compileBody(const StmtList &Body) {
    for (const StmtPtr &S : Body) {
      TempTop = FrameBase;
      compileStmt(*S);
    }
  }

  void compileStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      compileExprInto(*A->Value, A->Slot);
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = cast<ArrayAssignStmt>(&S);
      int Idx = compileIndex(*A->Index);
      int V = compileExpr(*A->Value);
      emit(Op::StoreArr, V, A->Slot, Idx);
      return;
    }
    case StmtKind::FieldAssign: {
      const auto *F = cast<FieldAssignStmt>(&S);
      if (!F->Index) {
        int V = compileExpr(*F->Value);
        emit(Op::StoreFld, V, F->FieldIndex);
        return;
      }
      int Idx = compileIndex(*F->Index);
      int V = compileExpr(*F->Value);
      emit(Op::StoreFldIdx, V, F->FieldIndex, Idx);
      return;
    }
    case StmtKind::LocalArray: {
      const auto *L = cast<LocalArrayStmt>(&S);
      size_t Slot = static_cast<size_t>(L->Slot);
      if (P.ArrBase[Slot] < 0) {
        P.ArrBase[Slot] = P.ArrStoreSize;
        P.ArrDeclSize[Slot] = L->Size;
        P.ArrNames[Slot] = L->Name;
        P.ArrStoreSize += L->Size;
      }
      emit(Op::ZeroArr, L->Slot);
      return;
    }
    case StmtKind::Push: {
      int V = compileExpr(*cast<PushStmt>(&S)->Value);
      emit(Op::Push, V);
      return;
    }
    case StmtKind::PopDiscard:
      emit(Op::PopDiscard);
      return;
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      // Two frame slots (counter, bound) live for the whole loop; body
      // statements allocate their temps above them.
      int SavedBase = FrameBase;
      int Cnt = FrameBase++;
      int End = FrameBase++;
      P.NumRegs = std::max(P.NumRegs, FrameBase);
      TempTop = FrameBase;
      ++UncountedDepth;
      int B = compileExpr(*F->Begin);
      emit(Op::Round, Cnt, B);
      TempTop = FrameBase;
      int E = compileExpr(*F->End);
      emit(Op::Round, End, E);
      int Head = nextIndex();
      fusionBarrier(Head);
      int CondJ = emit(Op::JumpIfGe, Cnt, End);
      emit(Op::Copy, F->Slot, Cnt);
      --UncountedDepth;
      compileBody(F->Body);
      ++UncountedDepth;
      emit(Op::IncJump, Cnt, Head);
      --UncountedDepth;
      P.Code[static_cast<size_t>(CondJ)].C = nextIndex();
      fusionBarrier(nextIndex());
      FrameBase = SavedBase;
      TempTop = FrameBase;
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      int C = compileExpr(*I->Cond);
      ++UncountedDepth;
      int JElse = emit(Op::JumpIfZero, C);
      --UncountedDepth;
      compileBody(I->Then);
      ++UncountedDepth;
      int JEnd = emit(Op::Jump);
      --UncountedDepth;
      P.Code[static_cast<size_t>(JElse)].B = nextIndex();
      fusionBarrier(nextIndex());
      compileBody(I->Else);
      P.Code[static_cast<size_t>(JEnd)].A = nextIndex();
      fusionBarrier(nextIndex());
      return;
    }
    case StmtKind::Print: {
      int V = compileExpr(*cast<PrintStmt>(&S)->Value);
      emit(Op::Print, V);
      return;
    }
    case StmtKind::Uncounted: {
      ++UncountedDepth;
      compileBody(cast<UncountedStmt>(&S)->Body);
      --UncountedDepth;
      return;
    }
    }
    unreachable("unknown stmt kind");
  }

  /// Greatest-fixpoint analysis: a register is integer-valued when every
  /// write to it provably produces an exact integral double. For such
  /// index registers lround(x) == (long)x, so dispatch can use the cast.
  void markIntRegs() {
    auto Integral = [](double V) {
      return V == std::floor(V) && std::fabs(V) < 9.0e15;
    };
    std::vector<char> IntVal(static_cast<size_t>(P.NumRegs), 1);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const Inst &I : P.Code) {
        int Dst = -1;
        bool IsInt = false;
        switch (I.K) {
        case Op::Const:   Dst = I.A; IsInt = Integral(I.Imm); break;
        case Op::Copy:    Dst = I.A; IsInt = IntVal[I.B]; break;
        case Op::Round:   Dst = I.A; IsInt = true; break;
        case Op::Bool:
        case Op::Not:
        case Op::Lt: case Op::Le: case Op::Gt:
        case Op::Ge: case Op::Eq: case Op::Ne:
          Dst = I.A; IsInt = true; break;
        case Op::Add:
        case Op::Sub:
        case Op::Mul:     Dst = I.A; IsInt = IntVal[I.B] && IntVal[I.C]; break;
        case Op::AddImm:  Dst = I.A; IsInt = IntVal[I.B] && Integral(I.Imm); break;
        case Op::Neg:     Dst = I.A; IsInt = IntVal[I.B]; break;
        case Op::IncJump: Dst = I.A; IsInt = IntVal[I.A]; break;
        case Op::MulAdd:
          Dst = I.A; IsInt = IntVal[I.B] && IntVal[I.C] && IntVal[I.D];
          break;
        // Data loads, division and intrinsics poison.
        case Op::Peek: case Op::PeekImm: case Op::Pop:
        case Op::LoadFld: case Op::LoadFldIdx: case Op::LoadArr:
        case Op::Div: case Op::Mod: case Op::Intrin:
        case Op::MacFldPeek:
          Dst = I.A; IsInt = false; break;
        default:
          break; // no register write
        }
        if (Dst >= 0 && IntVal[static_cast<size_t>(Dst)] && !IsInt) {
          IntVal[static_cast<size_t>(Dst)] = 0;
          Changed = true;
        }
      }
    }
    for (Inst &I : P.Code)
      switch (I.K) {
      case Op::Peek: case Op::LoadFldIdx: case Op::StoreFldIdx:
      case Op::LoadArr: case Op::StoreArr: case Op::MacFldPeek:
        I.IntIdx = IntVal[static_cast<size_t>(I.C)] != 0;
        break;
      default:
        break;
      }
  }

  const WorkFunction &Work;
  OpProgram &P;
  int FusionBarrier = 0;
  int FrameBase = 0;
  int TempTop = 0;
  int UncountedDepth = 0;
};

} // namespace wir
} // namespace slin

OpProgram OpProgram::compile(const WorkFunction &Work,
                             const std::vector<FieldDef> &Fields) {
  if (!Work.Resolved)
    resolve(Work, Fields);
  OpProgram P;
  OpTapeCompiler(Work, Fields, P).run();
  return P;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

void OpProgram::prepareFrame(WorkFrame &F) const {
#ifndef NDEBUG
  // Debug builds re-check register and slot operands against the frame
  // layout before the first firing — the dispatch loop indexes raw
  // arrays with them unchecked. (Deserialized tapes additionally go
  // through the verify/ linter's structural checks.)
  for (const Inst &I : Code) {
    switch (I.K) {
    case Op::LoadFld:
    case Op::StoreFld:
    case Op::LoadFldIdx:
    case Op::StoreFldIdx:
    case Op::MacFldPeek:
      assert(I.B >= 0 && static_cast<size_t>(I.B) < FieldNames.size() &&
             "field slot out of range");
      break;
    case Op::LoadArr:
    case Op::StoreArr:
      assert(I.B >= 0 && static_cast<size_t>(I.B) < ArrBase.size() &&
             "array slot out of range");
      break;
    case Op::ZeroArr:
      assert(I.A >= 0 && static_cast<size_t>(I.A) < ArrBase.size() &&
             "array slot out of range");
      break;
    default:
      break;
    }
    if (I.K != Op::Jump && I.K != Op::ZeroArr && I.K != Op::Halt &&
        I.K != Op::PopDiscard)
      assert(I.A >= 0 && I.A < NumRegs && "register operand out of range");
  }
#endif
  if (F.Regs.size() < static_cast<size_t>(NumRegs))
    F.Regs.assign(static_cast<size_t>(NumRegs), 0.0);
  if (F.ArrStore.size() < static_cast<size_t>(ArrStoreSize))
    F.ArrStore.assign(static_cast<size_t>(ArrStoreSize), 0.0);
  if (F.ArrSizes.size() < ArrBase.size())
    F.ArrSizes.assign(ArrBase.size(), 0);
  if (F.FldPtrs.size() < FieldNames.size()) {
    F.FldPtrs.resize(FieldNames.size());
    F.FldSizes.resize(FieldNames.size());
  }
}

namespace {

[[noreturn]] __attribute__((cold, noinline)) void
boundsError(const char *What, const std::string &Name) {
  fatalError(std::string(What) + " '" + Name + "' index out of range");
}

[[noreturn]] __attribute__((cold, noinline)) void
rateError(size_t Popped, int Pop, ptrdiff_t Pushed, int Push) {
  fatalError("work function violated its declared rates (popped " +
             std::to_string(Popped) + "/" + std::to_string(Pop) +
             ", pushed " + std::to_string(Pushed) + "/" +
             std::to_string(Push) + ")");
}

} // namespace

// Threaded (computed-goto) dispatch on GCC/Clang, plain switch elsewhere.
#if defined(__GNUC__) || defined(__clang__)
#define SLIN_TAPE_CGOTO 1
#else
#define SLIN_TAPE_CGOTO 0
#endif

template <bool CountOps>
void OpProgram::runImpl(WorkFrame &F, const double *In, double *Out,
                        std::vector<double> &Printed) const {
  double *R = F.Regs.data();
  double *AS = F.ArrStore.data();
  int32_t *ASz = F.ArrSizes.data();
  const int32_t *AB = ArrBase.data();
  const int32_t *ADS = ArrDeclSize.data();
  double *const *Fld = F.FldPtrs.data();
  const int32_t *FldSz = F.FldSizes.data();
  const Inst *Code = this->Code.data();

  // Local variables start fresh each firing, as in the interpreter.
  std::fill_n(R, static_cast<size_t>(NumRegs), 0.0);
  std::fill_n(ASz, ArrBase.size(), 0);

  size_t InPos = 0;
  double *OutCur = Out;
  size_t PC = 0;
  const Inst *Ip;

  // Debug-build bounds assertions: input-window and push-cursor indices
  // have no release-mode runtime check (unlike field/array accesses) —
  // they are proven statically by the abstract-interpretation linter
  // (src/verify/), and debug builds stop at the exact faulting op.
#ifndef NDEBUG
  const size_t Window = static_cast<size_t>(std::max(PeekRate, PopRate));
#endif

  // IDX(): index-register conversion; the int-register analysis proved
  // IntIdx registers hold exact integers, making the cast == lround.
#define IDX()                                                                  \
  (Ip->IntIdx ? static_cast<long>(R[Ip->C]) : std::lround(R[Ip->C]))

#if SLIN_TAPE_CGOTO
  static const void *Labels[] = {
      &&L_Const, &&L_Copy, &&L_Peek, &&L_PeekImm, &&L_Pop, &&L_PopDiscard,
      &&L_Push, &&L_Print, &&L_LoadFld, &&L_StoreFld, &&L_LoadFldIdx,
      &&L_StoreFldIdx, &&L_LoadArr, &&L_StoreArr, &&L_ZeroArr, &&L_Add,
      &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod, &&L_Lt, &&L_Le, &&L_Gt, &&L_Ge,
      &&L_Eq, &&L_Ne, &&L_Bool, &&L_Not, &&L_Round, &&L_Neg, &&L_Intrin,
      &&L_MulAdd, &&L_MacFldPeek, &&L_AddImm, &&L_Jump, &&L_JumpIfZero,
      &&L_JumpIfGe, &&L_IncJump, &&L_Halt};
#define OPCASE(name) L_##name
#define NEXT                                                                   \
  {                                                                            \
    Ip = Code + (++PC);                                                        \
    goto *Labels[static_cast<size_t>(Ip->K)];                                  \
  }
#define JUMPTO(T)                                                              \
  {                                                                            \
    PC = static_cast<size_t>(T);                                               \
    Ip = Code + PC;                                                            \
    goto *Labels[static_cast<size_t>(Ip->K)];                                  \
  }
  Ip = Code;
  goto *Labels[static_cast<size_t>(Ip->K)];
#else
#define OPCASE(name) case Op::name
#define NEXT                                                                   \
  {                                                                            \
    ++PC;                                                                      \
    break;                                                                     \
  }
#define JUMPTO(T)                                                              \
  {                                                                            \
    PC = static_cast<size_t>(T);                                               \
    break;                                                                     \
  }
  for (;;) {
    Ip = Code + PC;
    switch (Ip->K) {
#endif

  OPCASE(Const):
    R[Ip->A] = Ip->Imm;
    NEXT;
  OPCASE(Copy):
    R[Ip->A] = R[Ip->B];
    NEXT;
  OPCASE(Peek): {
    long Idx = IDX();
    assert(In && Idx >= 0 && "peek out of range (scheduler bug)");
    assert(InPos + static_cast<size_t>(Idx) < Window &&
           "peek past the input window");
    R[Ip->A] = In[InPos + static_cast<size_t>(Idx)];
    NEXT;
  }
  OPCASE(PeekImm):
    assert(In && "peek on a source filter");
    assert(InPos + static_cast<size_t>(Ip->B) < Window &&
           "peek past the input window");
    R[Ip->A] = In[InPos + static_cast<size_t>(Ip->B)];
    NEXT;
  OPCASE(Pop):
    assert(In && "pop on a source filter");
    assert(InPos < static_cast<size_t>(PopRate) &&
           "pop past the declared pop rate");
    R[Ip->A] = In[InPos++];
    NEXT;
  OPCASE(PopDiscard):
    assert(InPos < static_cast<size_t>(PopRate) &&
           "pop past the declared pop rate");
    ++InPos;
    NEXT;
  OPCASE(Push):
    assert(OutCur - Out < static_cast<ptrdiff_t>(PushRate) &&
           "push past the declared push rate");
    *OutCur++ = R[Ip->A];
    NEXT;
  OPCASE(Print):
    Printed.push_back(R[Ip->A]);
    NEXT;
  OPCASE(LoadFld):
    R[Ip->A] = Fld[Ip->B][0];
    NEXT;
  OPCASE(StoreFld):
    Fld[Ip->B][0] = R[Ip->A];
    NEXT;
  OPCASE(LoadFldIdx): {
    long Idx = IDX();
    if (Idx < 0 || Idx >= FldSz[Ip->B])
      boundsError("field", FieldNames[static_cast<size_t>(Ip->B)]);
    R[Ip->A] = Fld[Ip->B][Idx];
    NEXT;
  }
  OPCASE(StoreFldIdx): {
    long Idx = IDX();
    if (Idx < 0 || Idx >= FldSz[Ip->B])
      boundsError("field", FieldNames[static_cast<size_t>(Ip->B)]);
    Fld[Ip->B][Idx] = R[Ip->A];
    NEXT;
  }
  OPCASE(LoadArr): {
    long Idx = IDX();
    if (Idx < 0 || Idx >= ASz[Ip->B])
      boundsError("array", ArrNames[static_cast<size_t>(Ip->B)]);
    R[Ip->A] = AS[AB[Ip->B] + Idx];
    NEXT;
  }
  OPCASE(StoreArr): {
    long Idx = IDX();
    if (Idx < 0 || Idx >= ASz[Ip->B])
      boundsError("array", ArrNames[static_cast<size_t>(Ip->B)]);
    AS[AB[Ip->B] + Idx] = R[Ip->A];
    NEXT;
  }
  OPCASE(ZeroArr):
    std::fill_n(AS + AB[Ip->A], ADS[Ip->A], 0.0);
    ASz[Ip->A] = ADS[Ip->A];
    NEXT;
  OPCASE(Add):
    R[Ip->A] = CountOps && Ip->Counted ? ops::add(R[Ip->B], R[Ip->C])
                                       : R[Ip->B] + R[Ip->C];
    NEXT;
  OPCASE(Sub):
    R[Ip->A] = CountOps && Ip->Counted ? ops::sub(R[Ip->B], R[Ip->C])
                                       : R[Ip->B] - R[Ip->C];
    NEXT;
  OPCASE(Mul):
    R[Ip->A] = CountOps && Ip->Counted ? ops::mul(R[Ip->B], R[Ip->C])
                                       : R[Ip->B] * R[Ip->C];
    NEXT;
  OPCASE(Div):
    R[Ip->A] = CountOps && Ip->Counted ? ops::div(R[Ip->B], R[Ip->C])
                                       : R[Ip->B] / R[Ip->C];
    NEXT;
  OPCASE(Mod):
    R[Ip->A] = CountOps && Ip->Counted ? ops::mod(R[Ip->B], R[Ip->C])
                                       : std::fmod(R[Ip->B], R[Ip->C]);
    NEXT;
  OPCASE(Lt): {
    bool V = R[Ip->B] < R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Le): {
    bool V = R[Ip->B] <= R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Gt): {
    bool V = R[Ip->B] > R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Ge): {
    bool V = R[Ip->B] >= R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Eq): {
    bool V = R[Ip->B] == R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Ne): {
    bool V = R[Ip->B] != R[Ip->C];
    if (CountOps && Ip->Counted)
      ops::cmp(V);
    R[Ip->A] = V ? 1.0 : 0.0;
    NEXT;
  }
  OPCASE(Bool):
    R[Ip->A] = R[Ip->B] != 0.0 ? 1.0 : 0.0;
    NEXT;
  OPCASE(Not):
    R[Ip->A] = R[Ip->B] == 0.0 ? 1.0 : 0.0;
    NEXT;
  OPCASE(Round):
    R[Ip->A] = static_cast<double>(std::lround(R[Ip->B]));
    NEXT;
  OPCASE(Neg):
    R[Ip->A] =
        CountOps && Ip->Counted ? ops::sub(0.0, R[Ip->B]) : 0.0 - R[Ip->B];
    NEXT;
  OPCASE(Intrin): {
    double V = evalIntrinsic(static_cast<Intrinsic>(Ip->B), R[Ip->C]);
    R[Ip->A] = CountOps && Ip->Counted ? ops::trans(V) : V;
    NEXT;
  }
  OPCASE(MulAdd):
    R[Ip->A] = CountOps && Ip->Counted
                   ? ops::fma(R[Ip->D], R[Ip->B], R[Ip->C])
                   : R[Ip->D] + R[Ip->B] * R[Ip->C];
    NEXT;
  OPCASE(MacFldPeek): {
    long Idx = IDX();
    if (Idx < 0 || Idx >= FldSz[Ip->B])
      boundsError("field", FieldNames[static_cast<size_t>(Ip->B)]);
    assert(In && "peek on a source filter");
    assert(InPos + static_cast<size_t>(Idx) < Window &&
           "peek past the input window");
    double C = Fld[Ip->B][Idx];
    double X = In[InPos + static_cast<size_t>(Idx)];
    R[Ip->A] = CountOps && Ip->Counted ? ops::fma(R[Ip->A], C, X)
                                       : R[Ip->A] + C * X;
    NEXT;
  }
  OPCASE(AddImm):
    R[Ip->A] = CountOps && Ip->Counted ? ops::add(R[Ip->B], Ip->Imm)
                                       : R[Ip->B] + Ip->Imm;
    NEXT;
  OPCASE(Jump):
    JUMPTO(Ip->A);
  OPCASE(JumpIfZero):
    if (R[Ip->A] == 0.0)
      JUMPTO(Ip->B);
    NEXT;
  OPCASE(JumpIfGe):
    if (R[Ip->A] >= R[Ip->B])
      JUMPTO(Ip->C);
    NEXT;
  OPCASE(IncJump):
    R[Ip->A] += 1.0;
    JUMPTO(Ip->B);
  OPCASE(Halt):
    if (InPos != static_cast<size_t>(PopRate) ||
        OutCur - Out != static_cast<ptrdiff_t>(PushRate))
      rateError(InPos, PopRate, OutCur - Out, PushRate);
    return;

#if !SLIN_TAPE_CGOTO
    }
  }
#endif
#undef OPCASE
#undef NEXT
#undef JUMPTO
#undef IDX
}

void OpProgram::run(WorkFrame &F, FieldStore &State, const double *In,
                    double *Out, std::vector<double> &Printed) const {
  assert(State.Values.size() == FieldNames.size() &&
         "field store does not match compiled field list");
  for (size_t I = 0; I != FieldNames.size(); ++I) {
    F.FldPtrs[I] = State.Values[I].data();
    F.FldSizes[I] = static_cast<int32_t>(State.Values[I].size());
  }
  if (ops::isCounting()) {
    runImpl<true>(F, In, Out, Printed);
    return;
  }
  runImpl<false>(F, In, Out, Printed);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void OpProgram::serialize(serial::Writer &W) const {
  W.u32(static_cast<uint32_t>(Code.size()));
  for (const Inst &I : Code) {
    W.u8(static_cast<uint8_t>(I.K));
    W.u8(static_cast<uint8_t>((I.Counted ? 1 : 0) | (I.IntIdx ? 2 : 0)));
    W.i32(I.A);
    W.i32(I.B);
    W.i32(I.C);
    W.i32(I.D);
    W.f64(I.Imm);
  }
  W.i32s(ArrBase);
  W.i32s(ArrDeclSize);
  W.strs(ArrNames);
  W.strs(FieldNames);
  W.i32(NumRegs);
  W.i32(ArrStoreSize);
  W.i32(PeekRate);
  W.i32(PopRate);
  W.i32(PushRate);
}

bool OpProgram::deserialize(serial::Reader &R, OpProgram &Out) {
  OpProgram P;
  uint32_t N = R.u32();
  // Each instruction occupies 26 bytes on the wire.
  if (!R.ok() || static_cast<uint64_t>(N) * 26 > R.remaining()) {
    R.fail();
    return false;
  }
  P.Code.resize(N);
  for (Inst &I : P.Code) {
    uint8_t K = R.u8();
    uint8_t Flags = R.u8();
    if (K > static_cast<uint8_t>(Op::Halt) || Flags > 3) {
      R.fail();
      return false;
    }
    I.K = static_cast<Op>(K);
    I.Counted = (Flags & 1) != 0;
    I.IntIdx = (Flags & 2) != 0;
    I.A = R.i32();
    I.B = R.i32();
    I.C = R.i32();
    I.D = R.i32();
    I.Imm = R.f64();
    // Control flow must stay on the tape (the dispatch loop trusts pc).
    int32_t Target = I.K == Op::Jump ? I.A
                     : I.K == Op::JumpIfZero || I.K == Op::IncJump ? I.B
                     : I.K == Op::JumpIfGe ? I.C
                                           : 0;
    if (Target < 0 || static_cast<uint32_t>(Target) >= N) {
      R.fail();
      return false;
    }
  }
  P.ArrBase = R.i32s();
  P.ArrDeclSize = R.i32s();
  P.ArrNames = R.strs();
  P.FieldNames = R.strs();
  P.NumRegs = R.i32();
  P.ArrStoreSize = R.i32();
  P.PeekRate = R.i32();
  P.PopRate = R.i32();
  P.PushRate = R.i32();
  if (!R.ok() || P.NumRegs < 0 || P.ArrStoreSize < 0 || P.PeekRate < 0 ||
      P.PopRate < 0 || P.PushRate < 0 ||
      P.ArrBase.size() != P.ArrDeclSize.size() ||
      P.ArrBase.size() != P.ArrNames.size())
    return false;
  Out = std::move(P);
  return true;
}
