//===- tests/matrix_test.cpp - Matrix and kernel unit tests ---------------==//

#include "matrix/Kernels.h"
#include "matrix/Matrix.h"
#include "support/MathUtil.h"
#include "support/OpCounters.h"

#include <gtest/gtest.h>

#include <random>

using namespace slin;

namespace {

TEST(MathUtil, GcdLcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(1, 1), 1);
  EXPECT_EQ(lcm64(7, 13), 91);
  EXPECT_EQ(ceilDiv(7, 3), 3);
  EXPECT_EQ(ceilDiv(6, 3), 2);
  EXPECT_EQ(ceilDiv(1, 4), 1);
}

TEST(MathUtil, RationalNormalization) {
  Rational R(6, 4);
  EXPECT_EQ(R.num(), 3);
  EXPECT_EQ(R.den(), 2);
  Rational Q(3, -6);
  EXPECT_EQ(Q.num(), -1);
  EXPECT_EQ(Q.den(), 2);
  EXPECT_EQ(Rational(1, 2) * Rational(2, 3), Rational(1, 3));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2, 1));
}

TEST(Matrix, IdentityMultiply) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix I3 = Matrix::identity(3);
  EXPECT_EQ(I3.multiply(A), A);
  Matrix I2 = Matrix::identity(2);
  EXPECT_EQ(A.multiply(I2), A);
}

TEST(Matrix, MultiplyKnown) {
  // Figure 3-4's pipeline-combination product.
  Matrix A1e = Matrix::fromRows(
      {{1, 0, 0}, {2, 1, 0}, {0, 2, 1}, {0, 0, 2}});
  Matrix A2 = Matrix::fromRows({{3}, {4}, {5}});
  Matrix P = A1e.multiply(A2);
  EXPECT_EQ(P, Matrix::fromRows({{3}, {10}, {13}, {10}}));
}

TEST(Matrix, LeftMultiplyMatchesMultiply) {
  std::mt19937 Rng(7);
  std::uniform_real_distribution<double> Dist(-2.0, 2.0);
  Matrix A(5, 3);
  for (size_t R = 0; R != 5; ++R)
    for (size_t C = 0; C != 3; ++C)
      A.at(R, C) = Dist(Rng);
  Vector V(5);
  for (size_t I = 0; I != 5; ++I)
    V[I] = Dist(Rng);
  Vector Y = A.leftMultiply(V);
  for (size_t J = 0; J != 3; ++J) {
    double Expect = 0;
    for (size_t I = 0; I != 5; ++I)
      Expect += V[I] * A.at(I, J);
    EXPECT_NEAR(Y[J], Expect, 1e-12);
  }
}

TEST(Matrix, ColumnRoundTrip) {
  Matrix A = Matrix::fromRows({{1, 2}, {3, 4}});
  Vector C1 = A.column(1);
  EXPECT_EQ(C1, Vector({2, 4}));
  A.setColumn(0, Vector({9, 8}));
  EXPECT_EQ(A, Matrix::fromRows({{9, 2}, {8, 4}}));
}

TEST(Matrix, CountNonZero) {
  Matrix A = Matrix::fromRows({{0, 1}, {2, 0}, {0, 0}});
  EXPECT_EQ(A.countNonZero(), 2u);
  Vector V({0, 1, 0, 3});
  EXPECT_EQ(V.countNonZero(), 2u);
}

TEST(PackedLinearKernel, BandedSkipsZeros) {
  // Column 0 has zeros at both ends; column 1 is dense.
  Matrix C = Matrix::fromRows({{0, 1}, {2, 1}, {3, 1}, {0, 1}});
  Vector B({0.5, 0.0});
  PackedLinearKernel K(C, B);
  EXPECT_EQ(K.peekRate(), 4);
  EXPECT_EQ(K.pushRate(), 2);
  EXPECT_EQ(K.columns()[0].First, 1);
  EXPECT_EQ(K.columns()[0].Coeffs.size(), 2u);
  EXPECT_EQ(K.columns()[1].First, 0);
  EXPECT_EQ(K.columns()[1].Coeffs.size(), 4u);
  EXPECT_EQ(K.bandedMultiplyCount(), 6u);

  double In[4] = {1, 2, 3, 4};
  double OutB[2], OutD[2];
  K.applyBanded(In, OutB);
  K.applyDense(In, OutD);
  EXPECT_DOUBLE_EQ(OutB[0], 2 * 2 + 3 * 3 + 0.5);
  EXPECT_DOUBLE_EQ(OutB[1], 1 + 2 + 3 + 4);
  EXPECT_DOUBLE_EQ(OutD[0], OutB[0]);
  EXPECT_DOUBLE_EQ(OutD[1], OutB[1]);
}

TEST(PackedLinearKernel, CountsMultiplications) {
  Matrix C = Matrix::fromRows({{0, 1}, {2, 1}, {3, 1}, {0, 1}});
  Vector B({0.5, 0.0});
  PackedLinearKernel K(C, B);
  double In[4] = {1, 2, 3, 4};
  double Out[2];

  ops::CountingScope Scope;
  ops::reset();
  K.applyBanded(In, Out);
  EXPECT_EQ(ops::counts().Muls, 6u);

  ops::reset();
  K.applyDense(In, Out);
  EXPECT_EQ(ops::counts().Muls, 8u);
}

TEST(TunedGemv, MatchesBanded) {
  std::mt19937 Rng(11);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  for (int E : {1, 3, 8, 17, 64}) {
    Matrix C(E, 3);
    for (int P = 0; P != E; ++P)
      for (int J = 0; J != 3; ++J)
        C.at(P, J) = Dist(Rng);
    Vector B({Dist(Rng), 0.0, Dist(Rng)});
    PackedLinearKernel K(C, B);
    TunedGemv T(C, B);
    std::vector<double> In(E);
    for (double &D : In)
      D = Dist(Rng);
    std::vector<double> OutK(3), OutT(3);
    K.applyBanded(In.data(), OutK.data());
    T.apply(In.data(), OutT.data());
    for (int J = 0; J != 3; ++J)
      EXPECT_NEAR(OutK[J], OutT[J], 1e-9) << "E=" << E << " J=" << J;
  }
}

TEST(TunedGemv, DoesNotSkipZeros) {
  // A very sparse column: banded does 1 multiply, tuned does E.
  int E = 32;
  Matrix C(E, 1);
  C.at(16, 0) = 2.0;
  Vector B(1);
  PackedLinearKernel K(C, B);
  TunedGemv T(C, B);
  std::vector<double> In(E, 1.0);
  double Out;

  ops::CountingScope Scope;
  ops::reset();
  K.applyBanded(In.data(), &Out);
  uint64_t BandedMuls = ops::counts().Muls;
  ops::reset();
  T.apply(In.data(), &Out);
  uint64_t TunedMuls = ops::counts().Muls;
  EXPECT_EQ(BandedMuls, 1u);
  EXPECT_EQ(TunedMuls, static_cast<uint64_t>(E));
}

} // namespace
