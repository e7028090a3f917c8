//===- tests/fft_test.cpp - FFT library unit tests ------------------------==//

#include "fft/FFT.h"
#include "support/OpCounters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

using namespace slin;
using namespace slin::fft;

namespace {

std::vector<Complex> randomComplex(size_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<Complex> V(N);
  for (Complex &C : V)
    C = Complex(Dist(Rng), Dist(Rng));
  return V;
}

std::vector<double> randomReal(size_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> V(N);
  for (double &D : V)
    D = Dist(Rng);
  return V;
}

double maxDiff(const std::vector<Complex> &A, const std::vector<Complex> &B) {
  double M = 0;
  for (size_t I = 0; I != A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

TEST(FFT, PowerOfTwoHelpers) {
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(2), 2u);
  EXPECT_EQ(nextPowerOfTwo(3), 4u);
  EXPECT_EQ(nextPowerOfTwo(511), 512u);
  EXPECT_EQ(nextPowerOfTwo(512), 512u);
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(48));
}

class FFTSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(FFTSizes, PlannedMatchesSlowDFT) {
  size_t N = GetParam();
  auto In = randomComplex(N, 42 + static_cast<unsigned>(N));
  auto Expect = slowDFT(In, false);
  auto Data = In;
  FFTPlan Plan(N);
  Plan.forward(Data.data());
  EXPECT_LT(maxDiff(Data, Expect), 1e-9) << "N=" << N;
}

TEST_P(FFTSizes, PlannedRoundTrip) {
  size_t N = GetParam();
  auto In = randomComplex(N, 7 + static_cast<unsigned>(N));
  auto Data = In;
  FFTPlan Plan(N);
  Plan.forward(Data.data());
  Plan.inverse(Data.data());
  EXPECT_LT(maxDiff(Data, In), 1e-9) << "N=" << N;
}

TEST_P(FFTSizes, SimpleMatchesSlowDFT) {
  size_t N = GetParam();
  auto In = randomComplex(N, 3 + static_cast<unsigned>(N));
  auto Expect = slowDFT(In, false);
  auto Data = In;
  simpleFFT(Data, false);
  EXPECT_LT(maxDiff(Data, Expect), 1e-9) << "N=" << N;
}

TEST_P(FFTSizes, RealForwardMatchesComplex) {
  size_t N = GetParam();
  auto In = randomReal(N, 5 + static_cast<unsigned>(N));
  std::vector<Complex> CIn(N);
  for (size_t I = 0; I != N; ++I)
    CIn[I] = Complex(In[I], 0.0);
  auto Expect = slowDFT(CIn, false);

  FFTPlan Plan(N);
  std::vector<double> HC(N);
  std::vector<Complex> Scratch(Plan.scratchSize());
  Plan.forwardReal(In.data(), HC.data(), Scratch.data());

  EXPECT_NEAR(HC[0], Expect[0].real(), 1e-9);
  if (N > 1) {
    EXPECT_NEAR(HC[N / 2], Expect[N / 2].real(), 1e-9);
  }
  for (size_t K = 1; K < N / 2; ++K) {
    EXPECT_NEAR(HC[K], Expect[K].real(), 1e-9) << "N=" << N << " K=" << K;
    EXPECT_NEAR(HC[N - K], Expect[K].imag(), 1e-9) << "N=" << N << " K=" << K;
  }
}

TEST_P(FFTSizes, RealRoundTrip) {
  size_t N = GetParam();
  auto In = randomReal(N, 9 + static_cast<unsigned>(N));
  FFTPlan Plan(N);
  std::vector<double> HC(N), Out(N);
  std::vector<Complex> Scratch(Plan.scratchSize());
  Plan.forwardReal(In.data(), HC.data(), Scratch.data());
  Plan.inverseReal(HC.data(), Out.data(), Scratch.data());
  for (size_t I = 0; I != N; ++I)
    EXPECT_NEAR(Out[I], In[I], 1e-9) << "N=" << N << " I=" << I;
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FFTSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(FFT, ConvolutionViaHalfComplex) {
  // The exact computation pattern of Transformation 5: zero-padded real
  // FFTs, half-complex pointwise product, inverse real FFT.
  std::vector<double> H = {1, 2, 3};
  std::vector<double> X = {4, 5, 6, 7, 8};
  auto Expect = directConvolve(X, H);

  size_t N = nextPowerOfTwo(X.size() + H.size() - 1);
  FFTPlan Plan(N);
  std::vector<double> HP(N, 0.0), XP(N, 0.0);
  std::copy(H.begin(), H.end(), HP.begin());
  std::copy(X.begin(), X.end(), XP.begin());
  std::vector<double> HF(N), XF(N), YF(N), Y(N);
  std::vector<Complex> Scratch(Plan.scratchSize());
  Plan.forwardReal(HP.data(), HF.data(), Scratch.data());
  Plan.forwardReal(XP.data(), XF.data(), Scratch.data());
  multiplyHalfComplex(N, XF.data(), HF.data(), YF.data());
  Plan.inverseReal(YF.data(), Y.data(), Scratch.data());
  for (size_t I = 0; I != Expect.size(); ++I)
    EXPECT_NEAR(Y[I], Expect[I], 1e-9) << "I=" << I;
}

TEST(FFT, RealPathIsCheaperThanComplexPath) {
  // The "FFTW tier" (planned real path) must beat the "simple tier"
  // (recursive complex FFT) in multiplication count — this gap is what
  // Figure 5-12(d) vs (b) measures.
  size_t N = 256;
  auto In = randomReal(N, 21);
  FFTPlan Plan(N);
  std::vector<double> HC(N);
  std::vector<Complex> Scratch(Plan.scratchSize());

  ops::CountingScope Scope;
  ops::reset();
  Plan.forwardReal(In.data(), HC.data(), Scratch.data());
  uint64_t RealMuls = ops::counts().mults();

  std::vector<Complex> CIn(N);
  for (size_t I = 0; I != N; ++I)
    CIn[I] = Complex(In[I], 0.0);
  ops::reset();
  simpleFFT(CIn, false);
  uint64_t SimpleMuls = ops::counts().mults();

  EXPECT_LT(RealMuls, SimpleMuls);
  EXPECT_LT(RealMuls * 3, SimpleMuls * 2) << "expected >1.5x savings";
}

/// Counted {Adds, Subs, Muls} of forwardReal, inverseReal and
/// multiplyHalfComplex at each power-of-two size (no other op kind
/// occurs), pinned from the kernels as they were before they gained an
/// uncounted instantiation: the counted path must keep counting exactly
/// this.
struct PinnedCounts {
  size_t N;
  uint64_t Fwd[3], Inv[3], Mul[3];
};
const PinnedCounts Pinned[] = {
    {1, {0, 0, 0}, {0, 0, 0}, {0, 0, 1}},
    {2, {1, 1, 0}, {1, 1, 2}, {0, 0, 2}},
    {4, {8, 6, 6}, {10, 10, 16}, {1, 1, 6}},
    {8, {24, 19, 18}, {24, 25, 32}, {3, 3, 14}},
    {16, {62, 51, 50}, {58, 61, 72}, {7, 7, 30}},
    {32, {150, 127, 130}, {138, 145, 168}, {15, 15, 62}},
    {64, {350, 303, 322}, {322, 337, 392}, {31, 31, 126}},
    {128, {798, 703, 770}, {738, 769, 904}, {63, 63, 254}},
    {256, {1790, 1599, 1794}, {1666, 1729, 2056}, {127, 127, 510}},
    {512, {3966, 3583, 4098}, {3714, 3841, 4616}, {255, 255, 1022}},
    {1024, {8702, 7935, 9218}, {8194, 8449, 10248}, {511, 511, 2046}},
    {2048, {18942, 17407, 20482}, {17922, 18433, 22536}, {1023, 1023, 4094}},
    {4096, {40958, 37887, 45058}, {38914, 39937, 49160}, {2047, 2047, 8190}},
};

OpCounts addsSubsMuls(const uint64_t (&V)[3]) {
  OpCounts C;
  C.Adds = V[0];
  C.Subs = V[1];
  C.Muls = V[2];
  return C;
}

TEST(FFT, CountedAndUncountedKernelsAreBitIdentical) {
  for (const PinnedCounts &P : Pinned) {
    const size_t N = P.N;
    const unsigned Seed = static_cast<unsigned>(N);
    std::vector<double> In = randomReal(N, 61 + Seed);
    std::vector<double> H = randomReal(N, 67 + Seed);
    FFTPlan Plan(N);
    std::vector<Complex> Scratch(Plan.scratchSize());
    std::vector<double> HF(N);
    Plan.forwardReal(H.data(), HF.data(), Scratch.data());

    struct Run {
      std::vector<double> X, Y, Z;
      OpCounts Fwd, Mul, Inv;
    };
    // The Transformation 5 sequence, each kernel through its dispatching
    // entry point, with each kernel's op counts.
    auto RunKernels = [&] {
      Run R{std::vector<double>(N), std::vector<double>(N),
            std::vector<double>(N), {}, {}, {}};
      ops::reset();
      Plan.forwardReal(In.data(), R.X.data(), Scratch.data());
      R.Fwd = ops::counts();
      ops::reset();
      multiplyHalfComplex(N, R.X.data(), HF.data(), R.Y.data());
      R.Mul = ops::counts();
      ops::reset();
      Plan.inverseReal(R.Y.data(), R.Z.data(), Scratch.data());
      R.Inv = ops::counts();
      return R;
    };
    Run Fast = RunKernels();
    Run Counted;
    {
      ops::CountingScope Scope;
      Counted = RunKernels();
    }
    EXPECT_EQ(Fast.X, Counted.X) << "forwardReal N=" << N;
    EXPECT_EQ(Fast.Y, Counted.Y) << "multiplyHalfComplex N=" << N;
    EXPECT_EQ(Fast.Z, Counted.Z) << "inverseReal N=" << N;
    EXPECT_EQ(Fast.Fwd.flops() + Fast.Mul.flops() + Fast.Inv.flops(), 0u)
        << "N=" << N;
    EXPECT_EQ(Counted.Fwd, addsSubsMuls(P.Fwd)) << "forwardReal N=" << N;
    EXPECT_EQ(Counted.Inv, addsSubsMuls(P.Inv)) << "inverseReal N=" << N;
    EXPECT_EQ(Counted.Mul, addsSubsMuls(P.Mul))
        << "multiplyHalfComplex N=" << N;
  }
}

TEST(FFT, ParsevalEnergyConservation) {
  size_t N = 128;
  auto In = randomReal(N, 33);
  FFTPlan Plan(N);
  std::vector<double> HC(N);
  std::vector<Complex> Scratch(Plan.scratchSize());
  Plan.forwardReal(In.data(), HC.data(), Scratch.data());
  double TimeEnergy = 0;
  for (double D : In)
    TimeEnergy += D * D;
  double FreqEnergy = HC[0] * HC[0] + HC[N / 2] * HC[N / 2];
  for (size_t K = 1; K < N / 2; ++K)
    FreqEnergy += 2 * (HC[K] * HC[K] + HC[N - K] * HC[N - K]);
  EXPECT_NEAR(TimeEnergy, FreqEnergy / N, 1e-6);
}

} // namespace
