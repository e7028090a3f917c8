//===- wir/IRSerialize.cpp - Work-IR binary encoding -------------------------==//

#include "wir/IRSerialize.h"

#include "support/Diag.h"

using namespace slin;
using namespace slin::serial;
using namespace slin::wir;

namespace {

void writeExpr(Writer &W, const Expr &E);

void writeExprOpt(Writer &W, const Expr *E) {
  W.boolean(E != nullptr);
  if (E)
    writeExpr(W, *E);
}

void writeExpr(Writer &W, const Expr &E) {
  W.u8(static_cast<uint8_t>(E.kind()));
  switch (E.kind()) {
  case ExprKind::Const:
    W.f64(wir::cast<ConstExpr>(&E)->Value);
    return;
  case ExprKind::VarRef:
    W.str(wir::cast<VarRefExpr>(&E)->Name);
    return;
  case ExprKind::ArrayRef: {
    const auto *A = wir::cast<ArrayRefExpr>(&E);
    W.str(A->Name);
    writeExpr(W, *A->Index);
    return;
  }
  case ExprKind::FieldRef: {
    const auto *F = wir::cast<FieldRefExpr>(&E);
    W.str(F->Name);
    writeExprOpt(W, F->Index.get());
    return;
  }
  case ExprKind::Peek:
    writeExpr(W, *wir::cast<PeekExpr>(&E)->Index);
    return;
  case ExprKind::Pop:
    return;
  case ExprKind::Binary: {
    const auto *B = wir::cast<BinaryExpr>(&E);
    W.u8(static_cast<uint8_t>(B->Op));
    writeExpr(W, *B->LHS);
    writeExpr(W, *B->RHS);
    return;
  }
  case ExprKind::Unary: {
    const auto *U = wir::cast<UnaryExpr>(&E);
    W.u8(static_cast<uint8_t>(U->Op));
    writeExpr(W, *U->Operand);
    return;
  }
  case ExprKind::Call: {
    const auto *C = wir::cast<CallExpr>(&E);
    W.u8(static_cast<uint8_t>(C->Fn));
    writeExpr(W, *C->Arg);
    return;
  }
  }
  unreachable("unknown expr kind");
}

ExprPtr readExpr(Reader &R, int Depth);

ExprPtr readExprOpt(Reader &R, int Depth) {
  if (!R.boolean())
    return nullptr;
  return readExpr(R, Depth);
}

ExprPtr readExpr(Reader &R, int Depth) {
  if (Depth > MaxTreeDepth) {
    R.fail();
    return nullptr;
  }
  uint8_t Kind = R.u8();
  if (!R.ok() || Kind > static_cast<uint8_t>(ExprKind::Call)) {
    R.fail();
    return nullptr;
  }
  switch (static_cast<ExprKind>(Kind)) {
  case ExprKind::Const:
    return std::make_unique<ConstExpr>(R.f64());
  case ExprKind::VarRef:
    return std::make_unique<VarRefExpr>(R.str());
  case ExprKind::ArrayRef: {
    std::string Name = R.str();
    ExprPtr Index = readExpr(R, Depth + 1);
    if (!Index)
      return nullptr;
    return std::make_unique<ArrayRefExpr>(std::move(Name), std::move(Index));
  }
  case ExprKind::FieldRef: {
    std::string Name = R.str();
    bool HasIndex = R.boolean();
    ExprPtr Index;
    if (HasIndex) {
      Index = readExpr(R, Depth + 1);
      if (!Index)
        return nullptr;
    }
    if (!R.ok())
      return nullptr;
    return std::make_unique<FieldRefExpr>(std::move(Name), std::move(Index));
  }
  case ExprKind::Peek: {
    ExprPtr Index = readExpr(R, Depth + 1);
    if (!Index)
      return nullptr;
    return std::make_unique<PeekExpr>(std::move(Index));
  }
  case ExprKind::Pop:
    return std::make_unique<PopExpr>();
  case ExprKind::Binary: {
    uint8_t Op = R.u8();
    if (Op > static_cast<uint8_t>(BinOp::LOr)) {
      R.fail();
      return nullptr;
    }
    ExprPtr LHS = readExpr(R, Depth + 1);
    ExprPtr RHS = LHS ? readExpr(R, Depth + 1) : nullptr;
    if (!RHS)
      return nullptr;
    return std::make_unique<BinaryExpr>(static_cast<BinOp>(Op),
                                        std::move(LHS), std::move(RHS));
  }
  case ExprKind::Unary: {
    uint8_t Op = R.u8();
    if (Op > static_cast<uint8_t>(UnOp::LNot)) {
      R.fail();
      return nullptr;
    }
    ExprPtr Operand = readExpr(R, Depth + 1);
    if (!Operand)
      return nullptr;
    return std::make_unique<UnaryExpr>(static_cast<UnOp>(Op),
                                       std::move(Operand));
  }
  case ExprKind::Call: {
    uint8_t Fn = R.u8();
    if (Fn > static_cast<uint8_t>(Intrinsic::Round)) {
      R.fail();
      return nullptr;
    }
    ExprPtr Arg = readExpr(R, Depth + 1);
    if (!Arg)
      return nullptr;
    return std::make_unique<CallExpr>(static_cast<Intrinsic>(Fn),
                                      std::move(Arg));
  }
  }
  unreachable("unknown expr kind");
}

void writeStmts(Writer &W, const StmtList &Body);

void writeStmt(Writer &W, const Stmt &S) {
  W.u8(static_cast<uint8_t>(S.kind()));
  switch (S.kind()) {
  case StmtKind::Assign: {
    const auto *A = wir::cast<AssignStmt>(&S);
    W.str(A->Name);
    writeExpr(W, *A->Value);
    return;
  }
  case StmtKind::ArrayAssign: {
    const auto *A = wir::cast<ArrayAssignStmt>(&S);
    W.str(A->Name);
    writeExpr(W, *A->Index);
    writeExpr(W, *A->Value);
    return;
  }
  case StmtKind::FieldAssign: {
    const auto *F = wir::cast<FieldAssignStmt>(&S);
    W.str(F->Name);
    writeExprOpt(W, F->Index.get());
    writeExpr(W, *F->Value);
    return;
  }
  case StmtKind::LocalArray: {
    const auto *L = wir::cast<LocalArrayStmt>(&S);
    W.str(L->Name);
    W.i32(L->Size);
    return;
  }
  case StmtKind::Push:
    writeExpr(W, *wir::cast<PushStmt>(&S)->Value);
    return;
  case StmtKind::PopDiscard:
    return;
  case StmtKind::For: {
    const auto *F = wir::cast<ForStmt>(&S);
    W.str(F->Var);
    writeExpr(W, *F->Begin);
    writeExpr(W, *F->End);
    writeStmts(W, F->Body);
    return;
  }
  case StmtKind::If: {
    const auto *I = wir::cast<IfStmt>(&S);
    writeExpr(W, *I->Cond);
    writeStmts(W, I->Then);
    writeStmts(W, I->Else);
    return;
  }
  case StmtKind::Print:
    writeExpr(W, *wir::cast<PrintStmt>(&S)->Value);
    return;
  case StmtKind::Uncounted:
    writeStmts(W, wir::cast<UncountedStmt>(&S)->Body);
    return;
  }
  unreachable("unknown stmt kind");
}

void writeStmts(Writer &W, const StmtList &Body) {
  W.u32(static_cast<uint32_t>(Body.size()));
  for (const StmtPtr &S : Body)
    writeStmt(W, *S);
}

bool readStmts(Reader &R, StmtList &Out, int Depth);

StmtPtr readStmt(Reader &R, int Depth) {
  if (Depth > MaxTreeDepth) {
    R.fail();
    return nullptr;
  }
  uint8_t Kind = R.u8();
  if (!R.ok() || Kind > static_cast<uint8_t>(StmtKind::Uncounted)) {
    R.fail();
    return nullptr;
  }
  switch (static_cast<StmtKind>(Kind)) {
  case StmtKind::Assign: {
    std::string Name = R.str();
    ExprPtr Value = readExpr(R, Depth + 1);
    if (!Value)
      return nullptr;
    return std::make_unique<AssignStmt>(std::move(Name), std::move(Value));
  }
  case StmtKind::ArrayAssign: {
    std::string Name = R.str();
    ExprPtr Index = readExpr(R, Depth + 1);
    ExprPtr Value = Index ? readExpr(R, Depth + 1) : nullptr;
    if (!Value)
      return nullptr;
    return std::make_unique<ArrayAssignStmt>(std::move(Name),
                                             std::move(Index),
                                             std::move(Value));
  }
  case StmtKind::FieldAssign: {
    std::string Name = R.str();
    ExprPtr Index = readExprOpt(R, Depth + 1);
    if (!R.ok())
      return nullptr;
    ExprPtr Value = readExpr(R, Depth + 1);
    if (!Value)
      return nullptr;
    return std::make_unique<FieldAssignStmt>(std::move(Name),
                                             std::move(Index),
                                             std::move(Value));
  }
  case StmtKind::LocalArray: {
    std::string Name = R.str();
    int Size = R.i32();
    if (!R.ok() || Size < 0)
      return nullptr;
    return std::make_unique<LocalArrayStmt>(std::move(Name), Size);
  }
  case StmtKind::Push: {
    ExprPtr Value = readExpr(R, Depth + 1);
    if (!Value)
      return nullptr;
    return std::make_unique<PushStmt>(std::move(Value));
  }
  case StmtKind::PopDiscard:
    return std::make_unique<PopDiscardStmt>();
  case StmtKind::For: {
    std::string Var = R.str();
    ExprPtr Begin = readExpr(R, Depth + 1);
    ExprPtr End = Begin ? readExpr(R, Depth + 1) : nullptr;
    StmtList Body;
    if (!End || !readStmts(R, Body, Depth + 1))
      return nullptr;
    return std::make_unique<ForStmt>(std::move(Var), std::move(Begin),
                                     std::move(End), std::move(Body));
  }
  case StmtKind::If: {
    ExprPtr Cond = readExpr(R, Depth + 1);
    StmtList Then, Else;
    if (!Cond || !readStmts(R, Then, Depth + 1) ||
        !readStmts(R, Else, Depth + 1))
      return nullptr;
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else));
  }
  case StmtKind::Print: {
    ExprPtr Value = readExpr(R, Depth + 1);
    if (!Value)
      return nullptr;
    return std::make_unique<PrintStmt>(std::move(Value));
  }
  case StmtKind::Uncounted: {
    StmtList Body;
    if (!readStmts(R, Body, Depth + 1))
      return nullptr;
    return std::make_unique<UncountedStmt>(std::move(Body));
  }
  }
  unreachable("unknown stmt kind");
}

bool readStmts(Reader &R, StmtList &Out, int Depth) {
  uint32_t N = R.u32();
  if (!R.ok() || N > R.remaining()) { // each stmt needs >= 1 byte
    R.fail();
    return false;
  }
  Out.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    StmtPtr S = readStmt(R, Depth);
    if (!S)
      return false;
    Out.push_back(std::move(S));
  }
  return true;
}

void writeWork(Writer &W, const WorkFunction &Fn) {
  W.i32(Fn.PeekRate);
  W.i32(Fn.PopRate);
  W.i32(Fn.PushRate);
  writeStmts(W, Fn.Body);
}

bool readWork(Reader &R, WorkFunction &Out) {
  int Peek = R.i32();
  int Pop = R.i32();
  int Push = R.i32();
  StmtList Body;
  if (!readStmts(R, Body, 0))
    return false;
  if (Peek < 0 || Pop < 0 || Push < 0)
    return false;
  Out = WorkFunction(Peek, Pop, Push, std::move(Body));
  return true;
}

void writeFields(Writer &W, const std::vector<FieldDef> &Fields) {
  W.u32(static_cast<uint32_t>(Fields.size()));
  for (const FieldDef &F : Fields) {
    W.str(F.Name);
    W.boolean(F.IsArray);
    W.boolean(F.IsMutable);
    W.f64s(F.Init);
  }
}

bool readFields(Reader &R, std::vector<FieldDef> &Out) {
  uint32_t N = R.u32();
  if (!R.ok() || N > R.remaining()) {
    R.fail();
    return false;
  }
  Out.resize(N);
  for (FieldDef &F : Out) {
    F.Name = R.str();
    F.IsArray = R.boolean();
    F.IsMutable = R.boolean();
    F.Init = R.f64s();
  }
  return R.ok();
}

} // namespace

void wir::writeFilterBody(Writer &W, const std::vector<FieldDef> &Fields,
                          const WorkFunction &Work, const WorkFunction *Init) {
  writeFields(W, Fields);
  writeWork(W, Work);
  W.boolean(Init != nullptr);
  if (Init)
    writeWork(W, *Init);
}

bool wir::readFilterBody(Reader &R, std::vector<FieldDef> &Fields,
                         WorkFunction &Work,
                         std::optional<WorkFunction> &Init) {
  if (!readFields(R, Fields) || !readWork(R, Work))
    return false;
  if (R.boolean()) {
    Init.emplace();
    if (!readWork(R, *Init))
      return false;
  }
  return R.ok();
}
