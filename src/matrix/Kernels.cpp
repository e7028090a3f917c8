//===- matrix/Kernels.cpp -------------------------------------------------==//

#include "matrix/Kernels.h"

#include "support/OpCounters.h"
#include "support/Serialize.h"
#include "wir/CxxEmit.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace slin;

namespace {

/// Firings per cache block of the batched paths: windows of one block
/// stay resident while every output column walks them.
constexpr int BatchBlock = 32;

} // namespace

//===----------------------------------------------------------------------===//
// PackedLinearKernel
//===----------------------------------------------------------------------===//

PackedLinearKernel::PackedLinearKernel(const Matrix &CNat, const Vector &B)
    : PeekRate(static_cast<int>(CNat.rows())), Dense(CNat) {
  assert(B.size() == CNat.cols() && "offset size mismatch");
  size_t E = CNat.rows(), U = CNat.cols();
  Columns.resize(U);
  for (size_t J = 0; J != U; ++J) {
    Column &Col = Columns[J];
    Col.Offset = B[J];
    size_t First = 0, Last = E; // [First, Last)
    while (First < E && CNat.at(First, J) == 0.0)
      ++First;
    while (Last > First && CNat.at(Last - 1, J) == 0.0)
      --Last;
    Col.First = static_cast<int>(First);
    Col.Coeffs.reserve(Last - First);
    for (size_t P = First; P != Last; ++P)
      Col.Coeffs.push_back(CNat.at(P, J));
  }
}

template <bool Counted>
void PackedLinearKernel::bandedImpl(const double *In, double *Out) const {
  for (size_t J = 0, U = Columns.size(); J != U; ++J) {
    const Column &Col = Columns[J];
    double Sum = 0.0;
    const double *Window = In + Col.First;
    for (size_t I = 0, N = Col.Coeffs.size(); I != N; ++I)
      Sum = ops::fma<Counted>(Sum, Col.Coeffs[I], Window[I]);
    if (Col.Offset != 0.0)
      Sum = ops::add<Counted>(Sum, Col.Offset);
    Out[J] = Sum;
  }
}

void PackedLinearKernel::applyBanded(const double *In, double *Out) const {
  if (ops::isCounting()) {
    bandedImpl<true>(In, Out);
    return;
  }
  bandedImpl<false>(In, Out);
}

void PackedLinearKernel::applyDense(const double *In, double *Out) const {
  size_t E = Dense.rows(), U = Dense.cols();
  for (size_t J = 0; J != U; ++J) {
    double Sum = 0.0;
    for (size_t P = 0; P != E; ++P)
      Sum = ops::fma(Sum, Dense.at(P, J), In[P]);
    if (Columns[J].Offset != 0.0)
      Sum = ops::add(Sum, Columns[J].Offset);
    Out[J] = Sum;
  }
}

template <bool Counted>
void PackedLinearKernel::batchedImpl(const double *In, double *Out, int K,
                                     int PopStride) const {
  const int U = static_cast<int>(Columns.size());
  for (int K0 = 0; K0 < K; K0 += BatchBlock) {
    int KB = std::min(BatchBlock, K - K0);
    for (int J = 0; J != U; ++J) {
      const Column &Col = Columns[J];
      const double *Coef = Col.Coeffs.data();
      const int N = static_cast<int>(Col.Coeffs.size());
      const double *Base = In + Col.First;
      int KI = 0;
      // Register tile: four firings share each coefficient load; each
      // firing's accumulation order matches applyBanded exactly.
      for (; KI + 4 <= KB; KI += 4) {
        int G = K0 + KI;
        const double *W0 = Base + static_cast<size_t>(G + 0) * PopStride;
        const double *W1 = Base + static_cast<size_t>(G + 1) * PopStride;
        const double *W2 = Base + static_cast<size_t>(G + 2) * PopStride;
        const double *W3 = Base + static_cast<size_t>(G + 3) * PopStride;
        double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
        for (int I = 0; I != N; ++I) {
          double C = Coef[I];
          S0 = ops::fma<Counted>(S0, C, W0[I]);
          S1 = ops::fma<Counted>(S1, C, W1[I]);
          S2 = ops::fma<Counted>(S2, C, W2[I]);
          S3 = ops::fma<Counted>(S3, C, W3[I]);
        }
        if (Col.Offset != 0.0) {
          S0 = ops::add<Counted>(S0, Col.Offset);
          S1 = ops::add<Counted>(S1, Col.Offset);
          S2 = ops::add<Counted>(S2, Col.Offset);
          S3 = ops::add<Counted>(S3, Col.Offset);
        }
        Out[static_cast<size_t>(G + 0) * U + J] = S0;
        Out[static_cast<size_t>(G + 1) * U + J] = S1;
        Out[static_cast<size_t>(G + 2) * U + J] = S2;
        Out[static_cast<size_t>(G + 3) * U + J] = S3;
      }
      for (; KI != KB; ++KI) {
        int G = K0 + KI;
        const double *W = Base + static_cast<size_t>(G) * PopStride;
        double Sum = 0.0;
        for (int I = 0; I != N; ++I)
          Sum = ops::fma<Counted>(Sum, Coef[I], W[I]);
        if (Col.Offset != 0.0)
          Sum = ops::add<Counted>(Sum, Col.Offset);
        Out[static_cast<size_t>(G) * U + J] = Sum;
      }
    }
  }
}

void PackedLinearKernel::applyBatched(const double *In, double *Out, int K,
                                      int PopStride) const {
  if (ops::isCounting()) {
    batchedImpl<true>(In, Out, K, PopStride);
    return;
  }
  batchedImpl<false>(In, Out, K, PopStride);
}

void PackedLinearKernel::emitBatchedCxx(std::string &Src,
                                        const std::string &Fn,
                                        int PopStride) const {
  const int U = static_cast<int>(Columns.size());
  auto N = [](long V) { return std::to_string(V); };

  // Band data as static tables: one flat coefficient pool plus
  // per-column {first row, band length, pool offset, constant offset}.
  std::string T;
  T += "extern \"C\" void " + Fn + "(const double *In, double *Out, "
       "long K) {\n";
  T += "  static const double Coefs[] = {";
  size_t Pool = 0;
  for (const Column &Col : Columns)
    for (double C : Col.Coeffs) {
      T += (Pool++ ? ", " : " ") + wir::cxxDoubleLiteral(C);
    }
  if (!Pool)
    T += " 0.0"; // empty bands: keep the array well-formed (never read)
  T += " };\n";
  auto Table = [&](const char *Ty, const char *Name, auto Get) {
    T += std::string("  static const ") + Ty + " " + Name + "[] = {";
    for (int J = 0; J != U; ++J)
      T += (J ? ", " : " ") + Get(Columns[static_cast<size_t>(J)]);
    T += " };\n";
  };
  size_t Off = 0;
  Table("int", "First", [&](const Column &C) { return N(C.First); });
  Table("int", "BandN",
        [&](const Column &C) { return N(static_cast<long>(C.Coeffs.size())); });
  Table("int", "CoefOff", [&](const Column &C) {
    size_t This = Off;
    Off += C.Coeffs.size();
    return N(static_cast<long>(This));
  });
  Table("double", "Offset",
        [&](const Column &C) { return wir::cxxDoubleLiteral(C.Offset); });

  // The batchedImpl<false> loop verbatim: 32-firing cache blocks, a
  // 4-wide register tile (SLP-vectorizable: the four accumulators are
  // independent, each preserving applyBanded's accumulation order), and
  // a per-window remainder loop.
  T += "  for (long K0 = 0; K0 < K; K0 += 32) {\n"
       "    long KB = K - K0 < 32 ? K - K0 : 32;\n"
       "    for (int J = 0; J != " + N(U) + "; ++J) {\n"
       "      const double *Coef = Coefs + CoefOff[J];\n"
       "      const int Nb = BandN[J];\n"
       "      const double *Base = In + First[J];\n"
       "      const double Co = Offset[J];\n"
       "      long KI = 0;\n"
       "      for (; KI + 4 <= KB; KI += 4) {\n"
       "        long G = K0 + KI;\n";
  for (int W = 0; W != 4; ++W)
    T += "        const double *W" + N(W) + " = Base + (unsigned long)(G + " +
         N(W) + ") * " + N(PopStride) + ";\n";
  T += "        double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;\n"
       "        for (int I = 0; I != Nb; ++I) {\n"
       "          double C = Coef[I];\n"
       "          S0 = S0 + C * W0[I];\n"
       "          S1 = S1 + C * W1[I];\n"
       "          S2 = S2 + C * W2[I];\n"
       "          S3 = S3 + C * W3[I];\n"
       "        }\n"
       "        if (Co != 0.0) {\n"
       "          S0 = S0 + Co; S1 = S1 + Co; S2 = S2 + Co; S3 = S3 + Co;\n"
       "        }\n";
  for (int W = 0; W != 4; ++W)
    T += "        Out[(unsigned long)(G + " + N(W) + ") * " + N(U) +
         " + J] = S" + N(W) + ";\n";
  T += "      }\n"
       "      for (; KI != KB; ++KI) {\n"
       "        long G = K0 + KI;\n"
       "        const double *W = Base + (unsigned long)G * " +
       N(PopStride) + ";\n"
       "        double Sum = 0.0;\n"
       "        for (int I = 0; I != Nb; ++I)\n"
       "          Sum = Sum + Coef[I] * W[I];\n"
       "        if (Co != 0.0)\n"
       "          Sum = Sum + Co;\n"
       "        Out[(unsigned long)G * " + N(U) + " + J] = Sum;\n"
       "      }\n"
       "    }\n"
       "  }\n"
       "}\n";
  Src += T;
}

size_t PackedLinearKernel::bandedMultiplyCount() const {
  size_t N = 0;
  for (const Column &Col : Columns)
    N += Col.Coeffs.size();
  return N;
}

//===----------------------------------------------------------------------===//
// TunedGemv
//===----------------------------------------------------------------------===//

TunedGemv::TunedGemv(const Matrix &CNat, const Vector &B)
    : E(static_cast<int>(CNat.rows())), U(static_cast<int>(CNat.cols())),
      RowMajorT(CNat.rows() * CNat.cols()), Offsets(B.size()),
      Staging(CNat.rows()) {
  assert(B.size() == CNat.cols() && "offset size mismatch");
  for (int J = 0; J != U; ++J) {
    Offsets[J] = B[J];
    for (int P = 0; P != E; ++P)
      RowMajorT[static_cast<size_t>(J) * E + P] = CNat.at(P, J);
  }
}

template <bool Counted>
void TunedGemv::applyImpl(const double *In, double *Out) const {
  // Interface overhead: stage the input window, as the paper's ATLAS
  // wrapper copied the tape into a contiguous buffer.
  for (int P = 0; P != E; ++P)
    Staging[P] = In[P];

  for (int J = 0; J != U; ++J) {
    const double *Row = RowMajorT.data() + static_cast<size_t>(J) * E;
    double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
    int P = 0;
    for (; P + 4 <= E; P += 4) {
      S0 = ops::fma<Counted>(S0, Row[P + 0], Staging[P + 0]);
      S1 = ops::fma<Counted>(S1, Row[P + 1], Staging[P + 1]);
      S2 = ops::fma<Counted>(S2, Row[P + 2], Staging[P + 2]);
      S3 = ops::fma<Counted>(S3, Row[P + 3], Staging[P + 3]);
    }
    for (; P != E; ++P)
      S0 = ops::fma<Counted>(S0, Row[P], Staging[P]);
    double Sum = ops::add<Counted>(ops::add<Counted>(S0, S1),
                                   ops::add<Counted>(S2, S3));
    if (Offsets[J] != 0.0)
      Sum = ops::add<Counted>(Sum, Offsets[J]);
    Out[J] = Sum;
  }
}

void TunedGemv::apply(const double *In, double *Out) const {
  if (ops::isCounting()) {
    applyImpl<true>(In, Out);
    return;
  }
  applyImpl<false>(In, Out);
}

template <bool Counted>
void TunedGemv::batchedImpl(const double *In, double *Out, int K,
                            int PopStride) const {
  Panel.resize(static_cast<size_t>(BatchBlock) * E);
  for (int K0 = 0; K0 < K; K0 += BatchBlock) {
    int KB = std::min(BatchBlock, K - K0);
    // Gather the block's peek windows into the panel (one row per firing)
    // — the batched analogue of the per-call staging copy.
    for (int KI = 0; KI != KB; ++KI) {
      const double *W =
          In + static_cast<size_t>(K0 + KI) * PopStride;
      std::copy(W, W + E, Panel.data() + static_cast<size_t>(KI) * E);
    }
    for (int J = 0; J != U; ++J) {
      const double *Row = RowMajorT.data() + static_cast<size_t>(J) * E;
      int KI = 0;
      // Register tile: two firings, each with the sequential path's 4-way
      // split accumulators, sharing every coefficient load.
      for (; KI + 2 <= KB; KI += 2) {
        const double *W0 = Panel.data() + static_cast<size_t>(KI) * E;
        const double *W1 = W0 + E;
        double A0 = 0.0, A1 = 0.0, A2 = 0.0, A3 = 0.0;
        double B0 = 0.0, B1 = 0.0, B2 = 0.0, B3 = 0.0;
        int P = 0;
        for (; P + 4 <= E; P += 4) {
          double C0 = Row[P + 0], C1 = Row[P + 1];
          double C2 = Row[P + 2], C3 = Row[P + 3];
          A0 = ops::fma<Counted>(A0, C0, W0[P + 0]);
          A1 = ops::fma<Counted>(A1, C1, W0[P + 1]);
          A2 = ops::fma<Counted>(A2, C2, W0[P + 2]);
          A3 = ops::fma<Counted>(A3, C3, W0[P + 3]);
          B0 = ops::fma<Counted>(B0, C0, W1[P + 0]);
          B1 = ops::fma<Counted>(B1, C1, W1[P + 1]);
          B2 = ops::fma<Counted>(B2, C2, W1[P + 2]);
          B3 = ops::fma<Counted>(B3, C3, W1[P + 3]);
        }
        for (; P != E; ++P) {
          A0 = ops::fma<Counted>(A0, Row[P], W0[P]);
          B0 = ops::fma<Counted>(B0, Row[P], W1[P]);
        }
        double Sum0 =
            ops::add<Counted>(ops::add<Counted>(A0, A1),
                              ops::add<Counted>(A2, A3));
        double Sum1 =
            ops::add<Counted>(ops::add<Counted>(B0, B1),
                              ops::add<Counted>(B2, B3));
        if (Offsets[J] != 0.0) {
          Sum0 = ops::add<Counted>(Sum0, Offsets[J]);
          Sum1 = ops::add<Counted>(Sum1, Offsets[J]);
        }
        Out[static_cast<size_t>(K0 + KI + 0) * U + J] = Sum0;
        Out[static_cast<size_t>(K0 + KI + 1) * U + J] = Sum1;
      }
      for (; KI != KB; ++KI) {
        const double *W = Panel.data() + static_cast<size_t>(KI) * E;
        double S0 = 0.0, S1 = 0.0, S2 = 0.0, S3 = 0.0;
        int P = 0;
        for (; P + 4 <= E; P += 4) {
          S0 = ops::fma<Counted>(S0, Row[P + 0], W[P + 0]);
          S1 = ops::fma<Counted>(S1, Row[P + 1], W[P + 1]);
          S2 = ops::fma<Counted>(S2, Row[P + 2], W[P + 2]);
          S3 = ops::fma<Counted>(S3, Row[P + 3], W[P + 3]);
        }
        for (; P != E; ++P)
          S0 = ops::fma<Counted>(S0, Row[P], W[P]);
        double Sum =
            ops::add<Counted>(ops::add<Counted>(S0, S1),
                              ops::add<Counted>(S2, S3));
        if (Offsets[J] != 0.0)
          Sum = ops::add<Counted>(Sum, Offsets[J]);
        Out[static_cast<size_t>(K0 + KI) * U + J] = Sum;
      }
    }
  }
}

void TunedGemv::applyBatched(const double *In, double *Out, int K,
                             int PopStride) const {
  if (ops::isCounting()) {
    batchedImpl<true>(In, Out, K, PopStride);
    return;
  }
  batchedImpl<false>(In, Out, K, PopStride);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void PackedLinearKernel::serialize(serial::Writer &W) const {
  W.i32(PeekRate);
  serializeMatrix(W, Dense);
  W.u32(static_cast<uint32_t>(Columns.size()));
  for (const Column &C : Columns) {
    W.i32(C.First);
    W.f64s(C.Coeffs);
    W.f64(C.Offset);
  }
}

bool PackedLinearKernel::deserialize(serial::Reader &R,
                                     PackedLinearKernel &Out) {
  PackedLinearKernel K;
  K.PeekRate = R.i32();
  if (!deserializeMatrix(R, K.Dense))
    return false;
  uint32_t U = R.u32();
  if (!R.ok() || U > R.remaining())
    return false;
  K.Columns.resize(U);
  for (Column &C : K.Columns) {
    C.First = R.i32();
    C.Coeffs = R.f64s();
    C.Offset = R.f64();
  }
  if (!R.ok() || K.PeekRate < 0 ||
      K.Dense.rows() != static_cast<size_t>(K.PeekRate) ||
      K.Dense.cols() != K.Columns.size())
    return false;
  Out = std::move(K);
  return true;
}

void TunedGemv::serialize(serial::Writer &W) const {
  W.i32(E);
  W.i32(U);
  W.f64s(RowMajorT);
  W.f64s(Offsets);
}

bool TunedGemv::deserialize(serial::Reader &R, TunedGemv &Out) {
  TunedGemv G;
  G.E = R.i32();
  G.U = R.i32();
  G.RowMajorT = R.f64s();
  G.Offsets = R.f64s();
  if (!R.ok() || G.E < 0 || G.U < 0 ||
      G.RowMajorT.size() !=
          static_cast<size_t>(G.E) * static_cast<size_t>(G.U) ||
      G.Offsets.size() != static_cast<size_t>(G.U))
    return false;
  G.Staging.resize(static_cast<size_t>(G.E));
  Out = std::move(G);
  return true;
}
