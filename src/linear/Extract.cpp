//===- linear/Extract.cpp - Linear extraction analysis ----------------------==//

#include "linear/Extract.h"

#include "linear/AffineValue.h"
#include "support/Diag.h"
#include "wir/Interp.h"

#include <cmath>

using namespace slin;
using namespace slin::wir;

namespace {

/// A variable-store slot: ⊥ (unassigned, nullopt) or an affine value.
using Slot = std::optional<AffineValue>;

Slot join(const Slot &A, const Slot &B) {
  if (!A)
    return B;
  if (!B)
    return A;
  if (A->sameValue(*B))
    return A;
  return AffineValue::top();
}

/// popcount/pushcount live in the lattice constant-int domain.
struct LatticeInt {
  enum KindTy { Val, Top } Kind = Val;
  int Value = 0;

  static LatticeInt top() { return {Top, 0}; }
};

LatticeInt join(LatticeInt A, LatticeInt B) {
  if (A.Kind == LatticeInt::Top || B.Kind == LatticeInt::Top ||
      A.Value != B.Value)
    return LatticeInt::top();
  return A;
}

/// An A/b cell: ⊥, a known constant, or ⊤.
struct Cell {
  enum KindTy { Bot, Val, Top } Kind = Bot;
  double Value = 0.0;
};

Cell join(const Cell &A, const Cell &B) {
  if (A.Kind == Cell::Bot)
    return B;
  if (B.Kind == Cell::Bot)
    return A;
  if (A.Kind == Cell::Top || B.Kind == Cell::Top || A.Value != B.Value)
    return {Cell::Top, 0.0};
  return A;
}

/// Thrown-free failure signalling: the extractor sets Failed/Reason and
/// unwinds by checking at each step.
class Extractor {
public:
  explicit Extractor(const Filter &F) : F(F), Work(F.work()) {
    Peek = std::max(Work.PeekRate, Work.PopRate);
    Pop = Work.PopRate;
    Push = Work.PushRate;
  }

  ExtractionResult run() {
    if (Push <= 0)
      return fail("filter pushes nothing");
    if (!Work.Resolved)
      resolve(Work, F.fields());

    State S;
    S.Scalars.assign(static_cast<size_t>(Work.NumScalarSlots), Slot());
    S.Arrays.assign(static_cast<size_t>(Work.NumArraySlots), {});
    S.A.assign(static_cast<size_t>(Peek) * Push, Cell());
    S.BVec.assign(static_cast<size_t>(Push), Cell());

    execBody(Work.Body, S);
    if (Failed)
      return {std::nullopt, Reason};

    if (S.PopCount.Kind == LatticeInt::Top || S.PopCount.Value != Pop)
      return fail("pop count does not match declared pop rate");
    if (S.PushCount.Kind == LatticeInt::Top || S.PushCount.Value != Push)
      return fail("push count does not match declared push rate");

    Matrix A(static_cast<size_t>(Peek), static_cast<size_t>(Push));
    Vector B(static_cast<size_t>(Push));
    for (int R = 0; R != Peek; ++R)
      for (int C = 0; C != Push; ++C) {
        const Cell &CellV = S.A[static_cast<size_t>(R) * Push + C];
        if (CellV.Kind != Cell::Val)
          return fail("A contains a non-constant entry");
        A.at(static_cast<size_t>(R), static_cast<size_t>(C)) = CellV.Value;
      }
    for (int C = 0; C != Push; ++C) {
      if (S.BVec[static_cast<size_t>(C)].Kind != Cell::Val)
        return fail("b contains a non-constant entry");
      B[static_cast<size_t>(C)] = S.BVec[static_cast<size_t>(C)].Value;
    }
    ExtractionResult R;
    R.Node = LinearNode(std::move(A), std::move(B), Peek, Pop, Push);
    return R;
  }

private:
  struct State {
    std::vector<Slot> Scalars;
    std::vector<std::vector<Slot>> Arrays;
    std::vector<Cell> A;    ///< Peek x Push, row-major, paper orientation
    std::vector<Cell> BVec; ///< Push entries, paper orientation
    LatticeInt PopCount;
    LatticeInt PushCount;
  };

  ExtractionResult fail(const std::string &Why) {
    Failed = true;
    if (Reason.empty())
      Reason = Why;
    return {std::nullopt, Reason};
  }

  /// BuildCoeff (Algorithm 1): unit coefficient for peek(Pos), expressed
  /// naturally (In[p] multiplies peek(p)); the paper-orientation reversal
  /// happens when columns are stored.
  AffineValue buildCoeff(int Pos) const {
    return AffineValue::input(static_cast<size_t>(Pos),
                              static_cast<size_t>(Peek));
  }

  AffineValue constant(double C) const {
    return AffineValue::constant(C, static_cast<size_t>(Peek));
  }

  AffineValue evalExpr(const Expr &E, State &S) {
    if (Failed)
      return AffineValue::top();
    switch (E.kind()) {
    case ExprKind::Const:
      return constant(wir::cast<ConstExpr>(&E)->Value);
    case ExprKind::VarRef: {
      const auto *V = wir::cast<VarRefExpr>(&E);
      const Slot &F = S.Scalars[static_cast<size_t>(V->Slot)];
      if (!F) {
        fail("read of unassigned variable '" + V->Name + "'");
        return AffineValue::top();
      }
      return *F;
    }
    case ExprKind::ArrayRef: {
      const auto *A = wir::cast<ArrayRefExpr>(&E);
      AffineValue Idx = evalExpr(*A->Index, S);
      if (!Idx.isConst()) {
        fail("array index not a compile-time constant");
        return AffineValue::top();
      }
      auto &Arr = S.Arrays[static_cast<size_t>(A->Slot)];
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size()) {
        fail("array read out of range");
        return AffineValue::top();
      }
      if (!Arr[static_cast<size_t>(I)]) {
        fail("read of unassigned array element");
        return AffineValue::top();
      }
      return *Arr[static_cast<size_t>(I)];
    }
    case ExprKind::FieldRef: {
      const auto *FR = wir::cast<FieldRefExpr>(&E);
      const FieldDef &FD = F.fields()[static_cast<size_t>(FR->FieldIndex)];
      // Persistent (mutable) state: any access is ⊤ (Section 3.2).
      if (FD.IsMutable)
        return AffineValue::top();
      if (!FR->Index)
        return constant(FD.Init[0]);
      AffineValue Idx = evalExpr(*FR->Index, S);
      if (!Idx.isConst())
        return AffineValue::top();
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= FD.Init.size()) {
        fail("const field read out of range");
        return AffineValue::top();
      }
      return constant(FD.Init[static_cast<size_t>(I)]);
    }
    case ExprKind::Peek: {
      AffineValue Idx = evalExpr(*wir::cast<PeekExpr>(&E)->Index, S);
      if (!Idx.isConst()) {
        fail("peek index not a compile-time constant");
        return AffineValue::top();
      }
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("peek with unresolved pop count");
        return AffineValue::top();
      }
      int Pos = S.PopCount.Value + static_cast<int>(std::lround(Idx.Const));
      if (Pos < 0 || Pos >= Peek) {
        fail("peek beyond declared peek rate");
        return AffineValue::top();
      }
      return buildCoeff(Pos);
    }
    case ExprKind::Pop: {
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("pop with unresolved pop count");
        return AffineValue::top();
      }
      if (S.PopCount.Value >= Peek) {
        fail("pop beyond declared rates");
        return AffineValue::top();
      }
      AffineValue V = buildCoeff(S.PopCount.Value);
      ++S.PopCount.Value;
      return V;
    }
    case ExprKind::Binary:
      return evalBinary(*wir::cast<BinaryExpr>(&E), S);
    case ExprKind::Unary: {
      const auto *U = wir::cast<UnaryExpr>(&E);
      AffineValue V = evalExpr(*U->Operand, S);
      if (U->Op == UnOp::Neg)
        return affNeg(V);
      // Logical not: constant-foldable only.
      if (V.isConst())
        return constant(V.Const == 0.0 ? 1.0 : 0.0);
      return AffineValue::top();
    }
    case ExprKind::Call: {
      const auto *C = wir::cast<CallExpr>(&E);
      AffineValue V = evalExpr(*C->Arg, S);
      if (V.isConst())
        return constant(evalIntrinsic(C->Fn, V.Const));
      return AffineValue::top();
    }
    }
    unreachable("unknown expr kind");
  }

  AffineValue evalBinary(const BinaryExpr &B, State &S) {
    if (B.Op == BinOp::LAnd || B.Op == BinOp::LOr)
      return evalShortCircuit(B, S);
    AffineValue L = evalExpr(*B.LHS, S);
    AffineValue R = evalExpr(*B.RHS, S);
    if (Failed)
      return AffineValue::top();
    switch (B.Op) {
    case BinOp::Add:
      return affAdd(L, R, 1.0);
    case BinOp::Sub:
      return affAdd(L, R, -1.0);
    case BinOp::Mul:
      return affMul(L, R);
    case BinOp::Div:
      return affDiv(L, R);
    case BinOp::Mod:
      // A ModVal result is not Val, so every check treats it as ⊤.
      return affModOp(L, R);
    default:
      // Comparisons: constants fold.
      if (L.isConst() && R.isConst())
        return constant(foldCompare(B.Op, L.Const, R.Const));
      return AffineValue::top();
    }
  }

  /// && and ||: the right operand runs only when the left one does not
  /// decide the result, as in the interpreter and the op tape. When the
  /// left one is data-dependent, the right one runs on a forked state
  /// joined with the untaken one, as an If would (a pop there makes the
  /// pop count ⊤).
  AffineValue evalShortCircuit(const BinaryExpr &B, State &S) {
    AffineValue L = evalExpr(*B.LHS, S);
    if (Failed)
      return AffineValue::top();
    bool IsAnd = B.Op == BinOp::LAnd;
    if (L.isConst()) {
      if ((L.Const != 0.0) != IsAnd)
        return constant(IsAnd ? 0.0 : 1.0);
      AffineValue R = evalExpr(*B.RHS, S);
      if (R.isConst())
        return constant(R.Const != 0.0 ? 1.0 : 0.0);
      return AffineValue::top();
    }
    State Taken = S;
    (void)evalExpr(*B.RHS, Taken);
    if (!Failed)
      S = joinStates(Taken, S);
    return AffineValue::top();
  }

  static double foldCompare(BinOp Op, double L, double R) {
    switch (Op) {
    case BinOp::Lt:   return L < R ? 1.0 : 0.0;
    case BinOp::Le:   return L <= R ? 1.0 : 0.0;
    case BinOp::Gt:   return L > R ? 1.0 : 0.0;
    case BinOp::Ge:   return L >= R ? 1.0 : 0.0;
    case BinOp::Eq:   return L == R ? 1.0 : 0.0;
    case BinOp::Ne:   return L != R ? 1.0 : 0.0;
    default:
      unreachable("not a comparison");
    }
  }

  void execBody(const StmtList &Body, State &S) {
    for (const StmtPtr &St : Body) {
      if (Failed)
        return;
      execStmt(*St, S);
    }
  }

  void execStmt(const Stmt &St, State &S) {
    switch (St.kind()) {
    case StmtKind::Assign: {
      const auto *A = wir::cast<AssignStmt>(&St);
      AffineValue V = evalExpr(*A->Value, S);
      if (!Failed)
        S.Scalars[static_cast<size_t>(A->Slot)] = V;
      return;
    }
    case StmtKind::ArrayAssign: {
      const auto *A = wir::cast<ArrayAssignStmt>(&St);
      AffineValue Idx = evalExpr(*A->Index, S);
      AffineValue V = evalExpr(*A->Value, S);
      if (Failed)
        return;
      if (!Idx.isConst()) {
        fail("array store index not a compile-time constant");
        return;
      }
      auto &Arr = S.Arrays[static_cast<size_t>(A->Slot)];
      int I = static_cast<int>(std::lround(Idx.Const));
      if (I < 0 || static_cast<size_t>(I) >= Arr.size()) {
        fail("array store out of range");
        return;
      }
      Arr[static_cast<size_t>(I)] = V;
      return;
    }
    case StmtKind::FieldAssign: {
      // Writing persistent state: evaluate operands for their tape
      // effects; the store itself is irrelevant since every read of
      // mutable state is already ⊤.
      const auto *FA = wir::cast<FieldAssignStmt>(&St);
      if (FA->Index)
        (void)evalExpr(*FA->Index, S);
      (void)evalExpr(*FA->Value, S);
      return;
    }
    case StmtKind::LocalArray: {
      const auto *L = wir::cast<LocalArrayStmt>(&St);
      S.Arrays[static_cast<size_t>(L->Slot)].assign(
          static_cast<size_t>(L->Size), Slot());
      return;
    }
    case StmtKind::Push: {
      AffineValue V = evalExpr(*wir::cast<PushStmt>(&St)->Value, S);
      if (Failed)
        return;
      if (!V.isVal()) {
        fail("pushed value is not an affine function of the input");
        return;
      }
      if (S.PushCount.Kind == LatticeInt::Top) {
        fail("push with unresolved push count");
        return;
      }
      if (S.PushCount.Value >= Push) {
        fail("push beyond declared push rate");
        return;
      }
      // Column Push-1-pushcount of A gets the coefficient vector with the
      // paper-orientation row reversal: A[e-1-p, col] = In[p].
      int Col = Push - 1 - S.PushCount.Value;
      for (int P = 0; P != Peek; ++P) {
        Cell &C = S.A[static_cast<size_t>(Peek - 1 - P) * Push + Col];
        assert(C.Kind == Cell::Bot && "column written twice");
        C = {Cell::Val, V.In[static_cast<size_t>(P)]};
      }
      Cell &BC = S.BVec[static_cast<size_t>(Col)];
      assert(BC.Kind == Cell::Bot && "offset written twice");
      BC = {Cell::Val, V.Const};
      ++S.PushCount.Value;
      return;
    }
    case StmtKind::PopDiscard: {
      if (S.PopCount.Kind == LatticeInt::Top) {
        fail("pop with unresolved pop count");
        return;
      }
      ++S.PopCount.Value;
      return;
    }
    case StmtKind::For: {
      const auto *F2 = wir::cast<ForStmt>(&St);
      AffineValue Begin = evalExpr(*F2->Begin, S);
      AffineValue End = evalExpr(*F2->End, S);
      if (Failed)
        return;
      if (!Begin.isConst() || !End.isConst()) {
        fail("loop bounds not compile-time constants");
        return;
      }
      int B = static_cast<int>(std::lround(Begin.Const));
      int E = static_cast<int>(std::lround(End.Const));
      if (E - B > (1 << 20)) {
        fail("loop trip count too large to unroll");
        return;
      }
      for (int I = B; I < E && !Failed; ++I) {
        S.Scalars[static_cast<size_t>(F2->Slot)] = constant(I);
        execBody(F2->Body, S);
      }
      return;
    }
    case StmtKind::If: {
      const auto *I = wir::cast<IfStmt>(&St);
      AffineValue Cond = evalExpr(*I->Cond, S);
      if (Failed)
        return;
      // Constant condition: execute only the taken arm.
      if (Cond.isConst()) {
        execBody(Cond.Const != 0.0 ? I->Then : I->Else, S);
        return;
      }
      // Data-dependent condition: execute both arms and join.
      State SThen = S;
      State SElse = std::move(S);
      execBody(I->Then, SThen);
      execBody(I->Else, SElse);
      if (Failed)
        return;
      S = joinStates(SThen, SElse);
      return;
    }
    case StmtKind::Print:
      // External side effect: the filter is not a pure affine map.
      fail("print statement (external side effect)");
      return;
    case StmtKind::Uncounted:
      execBody(wir::cast<UncountedStmt>(&St)->Body, S);
      return;
    }
    unreachable("unknown stmt kind");
  }

  State joinStates(const State &A, const State &B) {
    State R;
    R.Scalars.resize(A.Scalars.size());
    for (size_t I = 0; I != A.Scalars.size(); ++I)
      R.Scalars[I] = join(A.Scalars[I], B.Scalars[I]);
    R.Arrays.resize(A.Arrays.size());
    for (size_t I = 0; I != A.Arrays.size(); ++I) {
      if (A.Arrays[I].size() != B.Arrays[I].size()) {
        R.Arrays[I].assign(std::max(A.Arrays[I].size(), B.Arrays[I].size()),
                           Slot(AffineValue::top()));
        continue;
      }
      R.Arrays[I].resize(A.Arrays[I].size());
      for (size_t J = 0; J != A.Arrays[I].size(); ++J)
        R.Arrays[I][J] = join(A.Arrays[I][J], B.Arrays[I][J]);
    }
    R.A.resize(A.A.size());
    for (size_t I = 0; I != A.A.size(); ++I)
      R.A[I] = join(A.A[I], B.A[I]);
    R.BVec.resize(A.BVec.size());
    for (size_t I = 0; I != A.BVec.size(); ++I)
      R.BVec[I] = join(A.BVec[I], B.BVec[I]);
    R.PopCount = join(A.PopCount, B.PopCount);
    R.PushCount = join(A.PushCount, B.PushCount);
    return R;
  }

  const Filter &F;
  const WorkFunction &Work;
  int Peek, Pop, Push;
  bool Failed = false;
  std::string Reason;
};

} // namespace

ExtractionResult slin::extractLinearNode(const Filter &F) {
  if (F.isNative())
    return {std::nullopt, "native filter (no work IR)"};
  if (F.hasInitWork())
    return {std::nullopt, "filter has a distinct init work function"};
  return Extractor(F).run();
}
