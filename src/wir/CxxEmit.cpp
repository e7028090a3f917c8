//===- wir/CxxEmit.cpp - Op tape to C++ lowering ----------------------------==//

#include "wir/CxxEmit.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace slin;
using namespace slin::wir;

std::string wir::cxxDoubleLiteral(double V) {
  if (!std::isfinite(V)) {
    // Bit-exact reconstruction through the TU preamble's slin_bits_
    // helper; hexfloat literals cannot spell NaN payloads or infinities.
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "slin_bits_(0x%016llxULL)",
                  static_cast<unsigned long long>(Bits));
    return Buf;
  }
  // Hexfloat round-trips every finite double exactly under any
  // conforming compiler's literal parsing.
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

namespace {

std::string escapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\' || C == '"')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\%03o",
                    static_cast<unsigned>(static_cast<unsigned char>(C)));
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

/// Emission context for one tape: a line-oriented string builder.
class Body {
public:
  void line(const std::string &S) {
    Out += "  ";
    Out += S;
    Out += '\n';
  }
  void inner(const std::string &S) {
    Out += "    ";
    Out += S;
    Out += '\n';
  }
  std::string Out;
};

std::string reg(int32_t R) { return "R[" + std::to_string(R) + "]"; }

/// The IDX() conversion of the dispatch loop: the int-register analysis
/// proved IntIdx registers hold exact integers, so the cast == lround.
std::string idxExpr(const Inst &I) {
  if (I.IntIdx)
    return "(long)" + reg(I.C);
  return "lround(" + reg(I.C) + ")";
}

const char *intrinsicCall(int32_t Fn) {
  switch (static_cast<Intrinsic>(Fn)) {
  case Intrinsic::Sin:
    return "sin";
  case Intrinsic::Cos:
    return "cos";
  case Intrinsic::Tan:
    return "tan";
  case Intrinsic::Atan:
    return "atan";
  case Intrinsic::Sqrt:
    return "sqrt";
  case Intrinsic::Abs:
    return "fabs";
  case Intrinsic::Exp:
    return "exp";
  case Intrinsic::Log:
    return "log";
  case Intrinsic::Floor:
    return "floor";
  case Intrinsic::Round:
    return "round";
  }
  return nullptr;
}

} // namespace

bool CxxTapeEmitter::emit(const OpProgram &P, std::vector<double> &Consts,
                          std::string &Src) {
  if (P.Code.empty())
    return false;
  const std::vector<Inst> &Code = P.Code;

  // Labels only where a jump lands.
  std::vector<bool> Target(Code.size() + 1, false);
  for (const Inst &I : Code) {
    switch (I.K) {
    case Op::Jump:
      Target[static_cast<size_t>(I.A)] = true;
      break;
    case Op::JumpIfZero:
    case Op::IncJump:
      Target[static_cast<size_t>(I.B)] = true;
      break;
    case Op::JumpIfGe:
      Target[static_cast<size_t>(I.C)] = true;
      break;
    default:
      break;
    }
  }

  // Constants become loads from the caller's table, numbered in emission
  // order, so two tapes that differ only in their literals emit one text.
  std::vector<double> Cst;
  auto ConstRef = [&](double V) {
    Cst.push_back(V);
    return "Cst[" + std::to_string(Cst.size() - 1) + "]";
  };

  Body B;
  B.Out += "(const double *__restrict Cst, const SlinNativeCtx *Ctx, "
           "const double *In, double *Out, long K) {\n";
  B.line("double *const *Fld = Ctx->Fld;");
  B.line("const int *FldSz = Ctx->FldSz;");
  B.line("(void)Cst; (void)Fld; (void)FldSz; (void)In; (void)Out;");
  B.line("for (long k_ = 0; k_ != K; ++k_) {");

  // Per-firing frame, zeroed exactly like the dispatch loop: registers
  // and logical array sizes every firing; the array *store* only through
  // ZeroArr (a LoadArr is bounds-checked against the logical size, which
  // only a ZeroArr this firing can raise — stale bytes are unreachable).
  B.inner("double R[" + std::to_string(P.NumRegs) + "];");
  B.inner("for (int i_ = 0; i_ != " + std::to_string(P.NumRegs) +
          "; ++i_) R[i_] = 0.0;");
  if (P.ArrStoreSize > 0)
    B.inner("double AS[" + std::to_string(P.ArrStoreSize) + "];");
  if (!P.ArrBase.empty())
    B.inner("int ASz[" + std::to_string(P.ArrBase.size()) + "] = {0};");
  B.inner("unsigned long ip_ = 0;");
  B.inner("long opn_ = 0;");
  B.inner("(void)ip_; (void)opn_;");

  for (size_t Pc = 0; Pc != Code.size(); ++Pc) {
    const Inst &I = Code[Pc];
    std::string Pre;
    if (Target[Pc])
      Pre = "L" + std::to_string(Pc) + "_: ";
    auto Emit = [&](const std::string &S) {
      B.inner(Pre + S);
      Pre.clear();
    };
    switch (I.K) {
    case Op::Const:
      Emit(reg(I.A) + " = " + ConstRef(I.Imm) + ";");
      break;
    case Op::Copy:
      Emit(reg(I.A) + " = " + reg(I.B) + ";");
      break;
    case Op::Peek:
      Emit("{ long Ix = " + idxExpr(I) + "; " + reg(I.A) +
           " = In[ip_ + (unsigned long)Ix]; }");
      break;
    case Op::PeekImm:
      Emit(reg(I.A) + " = In[ip_ + " + std::to_string(I.B) + "ul];");
      break;
    case Op::Pop:
      Emit(reg(I.A) + " = In[ip_++];");
      break;
    case Op::PopDiscard:
      Emit("++ip_;");
      break;
    case Op::Push:
      Emit("Out[opn_++] = " + reg(I.A) + ";");
      break;
    case Op::Print:
      Emit("Ctx->Print(Ctx->Sink, " + reg(I.A) + ");");
      break;
    case Op::LoadFld:
      Emit(reg(I.A) + " = Fld[" + std::to_string(I.B) + "][0];");
      break;
    case Op::StoreFld:
      Emit("Fld[" + std::to_string(I.B) + "][0] = " + reg(I.A) + ";");
      break;
    case Op::LoadFldIdx:
    case Op::StoreFldIdx: {
      std::string Name =
          escapeString(P.FieldNames[static_cast<size_t>(I.B)]);
      std::string Access = "Fld[" + std::to_string(I.B) + "][Ix]";
      std::string Stmt = I.K == Op::LoadFldIdx
                             ? reg(I.A) + " = " + Access + ";"
                             : Access + " = " + reg(I.A) + ";";
      Emit("{ long Ix = " + idxExpr(I) + "; if (Ix < 0 || Ix >= FldSz[" +
           std::to_string(I.B) + "]) slin_fail_(Ctx, \"field '" + Name +
           "' index out of range\"); " + Stmt + " }");
      break;
    }
    case Op::LoadArr:
    case Op::StoreArr: {
      std::string Name = escapeString(P.ArrNames[static_cast<size_t>(I.B)]);
      std::string Access =
          "AS[" + std::to_string(P.ArrBase[static_cast<size_t>(I.B)]) +
          " + Ix]";
      std::string Stmt = I.K == Op::LoadArr
                             ? reg(I.A) + " = " + Access + ";"
                             : Access + " = " + reg(I.A) + ";";
      Emit("{ long Ix = " + idxExpr(I) + "; if (Ix < 0 || Ix >= ASz[" +
           std::to_string(I.B) + "]) slin_fail_(Ctx, \"array '" + Name +
           "' index out of range\"); " + Stmt + " }");
      break;
    }
    case Op::ZeroArr: {
      int32_t Base = P.ArrBase[static_cast<size_t>(I.A)];
      int32_t N = P.ArrDeclSize[static_cast<size_t>(I.A)];
      Emit("for (int z_ = 0; z_ != " + std::to_string(N) + "; ++z_) AS[" +
           std::to_string(Base) + " + z_] = 0.0;");
      B.inner("ASz[" + std::to_string(I.A) + "] = " + std::to_string(N) +
              ";");
      break;
    }
    case Op::Add:
      Emit(reg(I.A) + " = " + reg(I.B) + " + " + reg(I.C) + ";");
      break;
    case Op::Sub:
      Emit(reg(I.A) + " = " + reg(I.B) + " - " + reg(I.C) + ";");
      break;
    case Op::Mul:
      Emit(reg(I.A) + " = " + reg(I.B) + " * " + reg(I.C) + ";");
      break;
    case Op::Div:
      Emit(reg(I.A) + " = " + reg(I.B) + " / " + reg(I.C) + ";");
      break;
    case Op::Mod:
      Emit(reg(I.A) + " = fmod(" + reg(I.B) + ", " + reg(I.C) + ");");
      break;
    case Op::Lt:
      Emit(reg(I.A) + " = " + reg(I.B) + " < " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Le:
      Emit(reg(I.A) + " = " + reg(I.B) + " <= " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Gt:
      Emit(reg(I.A) + " = " + reg(I.B) + " > " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Ge:
      Emit(reg(I.A) + " = " + reg(I.B) + " >= " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Eq:
      Emit(reg(I.A) + " = " + reg(I.B) + " == " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Ne:
      Emit(reg(I.A) + " = " + reg(I.B) + " != " + reg(I.C) +
           " ? 1.0 : 0.0;");
      break;
    case Op::Bool:
      Emit(reg(I.A) + " = " + reg(I.B) + " != 0.0 ? 1.0 : 0.0;");
      break;
    case Op::Not:
      Emit(reg(I.A) + " = " + reg(I.B) + " == 0.0 ? 1.0 : 0.0;");
      break;
    case Op::Round:
      Emit(reg(I.A) + " = (double)lround(" + reg(I.B) + ");");
      break;
    case Op::Neg:
      Emit(reg(I.A) + " = 0.0 - " + reg(I.B) + ";");
      break;
    case Op::Intrin: {
      const char *Call = intrinsicCall(I.B);
      if (!Call)
        return false; // unknown intrinsic: keep the interpreter
      Emit(reg(I.A) + " = " + std::string(Call) + "(" + reg(I.C) + ");");
      break;
    }
    case Op::MulAdd:
      Emit(reg(I.A) + " = " + reg(I.D) + " + " + reg(I.B) + " * " +
           reg(I.C) + ";");
      break;
    case Op::MacFldPeek: {
      std::string Name =
          escapeString(P.FieldNames[static_cast<size_t>(I.B)]);
      Emit("{ long Ix = " + idxExpr(I) + "; if (Ix < 0 || Ix >= FldSz[" +
           std::to_string(I.B) + "]) slin_fail_(Ctx, \"field '" + Name +
           "' index out of range\"); " + reg(I.A) + " = " + reg(I.A) +
           " + Fld[" + std::to_string(I.B) +
           "][Ix] * In[ip_ + (unsigned long)Ix]; }");
      break;
    }
    case Op::AddImm:
      Emit(reg(I.A) + " = " + reg(I.B) + " + " + ConstRef(I.Imm) + ";");
      break;
    case Op::Jump:
      Emit("goto L" + std::to_string(I.A) + "_;");
      break;
    case Op::JumpIfZero:
      Emit("if (" + reg(I.A) + " == 0.0) goto L" + std::to_string(I.B) +
           "_;");
      break;
    case Op::JumpIfGe:
      Emit("if (" + reg(I.A) + " >= " + reg(I.B) + ") goto L" +
           std::to_string(I.C) + "_;");
      break;
    case Op::IncJump:
      Emit(reg(I.A) + " += 1.0; goto L" + std::to_string(I.B) + "_;");
      break;
    case Op::Halt:
      Emit("if (ip_ != " + std::to_string(P.PopRate) + "ul || opn_ != " +
           std::to_string(P.PushRate) + ") slin_rate_fail_(Ctx, ip_, " +
           std::to_string(P.PopRate) + ", opn_, " +
           std::to_string(P.PushRate) + ");");
      B.inner("goto Lend_;");
      break;
    }
  }

  B.inner("Lend_: ;");
  if (P.PopRate > 0)
    B.inner("In += " + std::to_string(P.PopRate) + ";");
  if (P.PushRate > 0)
    B.inner("Out += " + std::to_string(P.PushRate) + ";");
  B.line("}");
  B.Out += "}\n";
  Src += B.Out;
  Consts = std::move(Cst);
  return true;
}
