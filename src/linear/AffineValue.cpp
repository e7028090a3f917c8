//===- linear/AffineValue.cpp - Affine abstract values ---------------------===//

#include "linear/AffineValue.h"

#include <cmath>
#include <cstdio>

using namespace slin;

bool AffineValue::dependsOnState() const {
  for (const auto &KV : State)
    if (KV.second != 0.0)
      return true;
  return false;
}

void AffineValue::absorbDeps(const AffineValue &V) {
  DepFields |= V.DepFields;
  for (const auto &KV : V.State)
    if (KV.second != 0.0)
      DepFields |= fieldBit(symField(KV.first));
}

bool AffineValue::sameValue(const AffineValue &O) const {
  if (K != O.K)
    return false;
  if (K == Kind::Top)
    return true;
  if (K == Kind::ModVal && Mod != O.Mod)
    return false;
  if (!(In == O.In) || Const != O.Const)
    return false;
  // State maps may carry explicit zero entries (e.g. after scaling by
  // 0); compare over the key union with == semantics.
  for (const auto &KV : State) {
    auto It = O.State.find(KV.first);
    double Theirs = It == O.State.end() ? 0.0 : It->second;
    if (KV.second != Theirs)
      return false;
  }
  for (const auto &KV : O.State)
    if (State.find(KV.first) == State.end() && KV.second != 0.0)
      return false;
  return true;
}

std::string
AffineValue::str(const std::vector<std::string> *FieldNames) const {
  if (isTop())
    return "<top>";
  auto Num = [](double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", V);
    return std::string(Buf);
  };
  std::string S;
  auto Term = [&](double C, const std::string &Sym) {
    if (C == 0.0)
      return;
    if (!S.empty())
      S += " + ";
    if (C == 1.0)
      S += Sym;
    else
      S += Num(C) + "*" + Sym;
  };
  for (size_t I = 0; I != In.size(); ++I)
    Term(In[I], "peek(" + std::to_string(I) + ")");
  for (const auto &KV : State) {
    int F = symField(KV.first), E = symElem(KV.first);
    std::string Name = FieldNames && static_cast<size_t>(F) < FieldNames->size()
                           ? (*FieldNames)[static_cast<size_t>(F)]
                           : "f" + std::to_string(F);
    if (E != 0)
      Name += "[" + std::to_string(E) + "]";
    Term(KV.second, "state(" + Name + ")");
  }
  if (S.empty() || Const != 0.0) {
    if (!S.empty())
      S += " + ";
    S += Num(Const);
  }
  if (isModVal())
    return "fmod(" + S + ", " + Num(Mod) + ")";
  return S;
}

AffineValue slin::affAdd(const AffineValue &L, const AffineValue &R,
                           double Sign) {
  if (!L.isVal() || !R.isVal())
    return AffineValue::topOf(L, R);
  AffineValue V = L;
  for (size_t I = 0; I != V.In.size(); ++I)
    V.In[I] += Sign * R.In[I];
  for (const auto &KV : R.State)
    V.State[KV.first] += Sign * KV.second;
  V.Const += Sign * R.Const;
  return V;
}

AffineValue slin::affScale(const AffineValue &V, double C) {
  if (!V.isVal())
    return AffineValue::topOf(V);
  AffineValue R = V;
  for (size_t I = 0; I != R.In.size(); ++I)
    R.In[I] *= C;
  for (auto &KV : R.State)
    KV.second *= C;
  R.Const *= C;
  return R;
}

AffineValue slin::affMul(const AffineValue &L, const AffineValue &R) {
  if (!L.isVal() || !R.isVal())
    return AffineValue::topOf(L, R);
  if (L.isConst())
    return affScale(R, L.Const);
  if (R.isConst())
    return affScale(L, R.Const);
  return AffineValue::topOf(L, R);
}

AffineValue slin::affDiv(const AffineValue &L, const AffineValue &R) {
  if (!L.isVal() || !R.isVal())
    return AffineValue::topOf(L, R);
  if (R.isConst() && R.Const != 0.0)
    return affScale(L, 1.0 / R.Const);
  return AffineValue::topOf(L, R);
}

AffineValue slin::affNeg(const AffineValue &V) {
  if (!V.isVal())
    return AffineValue::topOf(V);
  AffineValue R = V;
  for (size_t I = 0; I != R.In.size(); ++I)
    R.In[I] = -R.In[I];
  for (auto &KV : R.State)
    KV.second = -KV.second;
  R.Const = -R.Const;
  return R;
}

AffineValue slin::affModOp(const AffineValue &L, const AffineValue &R) {
  if (!L.isVal() || !R.isVal())
    return AffineValue::topOf(L, R);
  if (L.isConst() && R.isConst())
    return AffineValue::constant(std::fmod(L.Const, R.Const), L.In.size());
  if (R.isConst() && R.Const > 0.0) {
    AffineValue V = L;
    V.K = AffineValue::Kind::ModVal;
    V.Mod = R.Const;
    return V;
  }
  return AffineValue::topOf(L, R);
}
