//===- fft/FFT.cpp --------------------------------------------------------==//

#include "fft/FFT.h"

#include "support/Diag.h"
#include "support/OpCounters.h"

#include <cassert>
#include <cmath>

using namespace slin;
using namespace slin::fft;

namespace {

constexpr double Pi = 3.14159265358979323846;

// Complex arithmetic on the ops:: helpers. std::complex operators are not
// used in the transform kernels: every real floating-point operation is
// accounted for individually (4 muls + 2 adds per complex multiply), and
// the counted and uncounted instantiations evaluate the very same
// expressions, so they round identically.
template <bool C> Complex cadd(Complex A, Complex B) {
  return Complex(ops::add<C>(A.real(), B.real()),
                 ops::add<C>(A.imag(), B.imag()));
}
template <bool C> Complex csub(Complex A, Complex B) {
  return Complex(ops::sub<C>(A.real(), B.real()),
                 ops::sub<C>(A.imag(), B.imag()));
}
template <bool C> Complex cmul(Complex A, Complex B) {
  double Re = ops::sub<C>(ops::mul<C>(A.real(), B.real()),
                          ops::mul<C>(A.imag(), B.imag()));
  double Im = ops::add<C>(ops::mul<C>(A.real(), B.imag()),
                          ops::mul<C>(A.imag(), B.real()));
  return Complex(Re, Im);
}
template <bool C> Complex cscale(Complex A, double S) {
  return Complex(ops::mul<C>(A.real(), S), ops::mul<C>(A.imag(), S));
}

} // namespace

size_t fft::nextPowerOfTwo(size_t N) {
  assert(N >= 1 && "nextPowerOfTwo of zero");
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

bool fft::isPowerOfTwo(size_t N) { return N != 0 && (N & (N - 1)) == 0; }

FFTPlan::FFTPlan(size_t N) : N(N) {
  if (!isPowerOfTwo(N))
    fatalError("FFTPlan size must be a power of two");
  BitRev.resize(N);
  size_t LogN = 0;
  while ((size_t(1) << LogN) < N)
    ++LogN;
  for (size_t I = 0; I != N; ++I) {
    size_t R = 0;
    for (size_t B = 0; B != LogN; ++B)
      if (I & (size_t(1) << B))
        R |= size_t(1) << (LogN - 1 - B);
    BitRev[I] = R;
  }
  Twiddles.resize(N / 2);
  for (size_t K = 0; K < N / 2; ++K) {
    double Ang = -2.0 * Pi * static_cast<double>(K) / static_cast<double>(N);
    Twiddles[K] = Complex(std::cos(Ang), std::sin(Ang));
  }
  if (N >= 2) {
    HalfPlan = std::make_unique<const FFTPlan>(N / 2);
    // The real path's untangling folds its halvings into the twiddle;
    // scaling by 0.5 is exact, so this matches computing it per use.
    HalfTwiddles.resize(N / 2);
    for (size_t K = 0; K != N / 2; ++K)
      HalfTwiddles[K] = 0.5 * Twiddles[K];
  }
}

template <bool Counted>
void FFTPlan::transform(Complex *Data, bool Inverse) const {
  // Bit-reversal permutation.
  for (size_t I = 0; I != N; ++I)
    if (BitRev[I] > I)
      std::swap(Data[I], Data[BitRev[I]]);

  for (size_t Len = 2; Len <= N; Len <<= 1) {
    size_t Half = Len / 2;
    size_t Step = N / Len;
    for (size_t Base = 0; Base != N; Base += Len) {
      // j == 0: twiddle is 1, no multiply needed.
      {
        Complex T = Data[Base + Half];
        Data[Base + Half] = csub<Counted>(Data[Base], T);
        Data[Base] = cadd<Counted>(Data[Base], T);
      }
      for (size_t J = 1; J != Half; ++J) {
        Complex T;
        if (J * 4 == Len) {
          // W = -i (forward) or +i (inverse): a swap and a sign change.
          Complex D = Data[Base + J + Half];
          T = Inverse ? Complex(ops::sub<Counted>(0.0, D.imag()), D.real())
                      : Complex(D.imag(), ops::sub<Counted>(0.0, D.real()));
        } else {
          Complex W = Twiddles[J * Step];
          if (Inverse)
            W = std::conj(W);
          T = cmul<Counted>(W, Data[Base + J + Half]);
        }
        Data[Base + J + Half] = csub<Counted>(Data[Base + J], T);
        Data[Base + J] = cadd<Counted>(Data[Base + J], T);
      }
    }
  }
  if (!Inverse)
    return;
  double Scale = 1.0 / static_cast<double>(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = cscale<Counted>(Data[I], Scale);
}

void FFTPlan::forward(Complex *Data) const {
#if SLIN_COUNT_OPS
  if (ops::isCounting()) {
    transform<true>(Data, false);
    return;
  }
#endif
  transform<false>(Data, false);
}

void FFTPlan::inverse(Complex *Data) const {
#if SLIN_COUNT_OPS
  if (ops::isCounting()) {
    transform<true>(Data, true);
    return;
  }
#endif
  transform<false>(Data, true);
}

template <bool Counted>
void FFTPlan::forwardReal(const double *In, double *Out,
                          Complex *Scratch) const {
  if (N == 1) {
    Out[0] = In[0];
    return;
  }
  if (N == 2) {
    Out[0] = ops::add<Counted>(In[0], In[1]);
    Out[1] = ops::sub<Counted>(In[0], In[1]);
    return;
  }
  size_t H = N / 2;
  for (size_t I = 0; I != H; ++I)
    Scratch[I] = Complex(In[2 * I], In[2 * I + 1]);
  HalfPlan->transform<Counted>(Scratch, false);

  // Untangle: X[k] = E[k] + W^k O[k] with
  //   E[k] = (Z[k] + conj(Z[H-k])) / 2,  O[k] = -i (Z[k] - conj(Z[H-k])) / 2.
  {
    double Re0 = Scratch[0].real(), Im0 = Scratch[0].imag();
    Out[0] = ops::add<Counted>(Re0, Im0); // X[0]
    Out[H] = ops::sub<Counted>(Re0, Im0); // X[N/2]
  }
  for (size_t K = 1; K != H; ++K) {
    // X[k] = (Z[k]+conj(Z[H-k]))/2 + W^k * (-i)(Z[k]-conj(Z[H-k]))/2;
    // the halvings are folded into a 0.5*W^k twiddle and one 0.5 scale.
    Complex Zk = Scratch[K];
    Complex Zm = std::conj(Scratch[H - K]);
    Complex A = cadd<Counted>(Zk, Zm);
    Complex D = csub<Counted>(Zk, Zm);
    Complex O = Complex(D.imag(), -D.real()); // -i * D, free
    Complex X = cadd<Counted>(cscale<Counted>(A, 0.5),
                              cmul<Counted>(HalfTwiddles[K], O));
    Out[K] = X.real();
    Out[N - K] = X.imag();
  }
}

void FFTPlan::forwardReal(const double *In, double *Out,
                          Complex *Scratch) const {
#if SLIN_COUNT_OPS
  if (ops::isCounting()) {
    forwardReal<true>(In, Out, Scratch);
    return;
  }
#endif
  forwardReal<false>(In, Out, Scratch);
}

template <bool Counted>
void FFTPlan::inverseReal(const double *In, double *Out,
                          Complex *Scratch) const {
  if (N == 1) {
    Out[0] = In[0];
    return;
  }
  if (N == 2) {
    Out[0] = ops::mul<Counted>(ops::add<Counted>(In[0], In[1]), 0.5);
    Out[1] = ops::mul<Counted>(ops::sub<Counted>(In[0], In[1]), 0.5);
    return;
  }
  size_t H = N / 2;
  // Rebuild Z[k] = E[k] + i O[k] from the half-complex spectrum.
  for (size_t K = 0; K != H; ++K) {
    Complex Xk = K == 0 ? Complex(In[0], 0.0) : Complex(In[K], In[N - K]);
    // X[H-K]; for K == 0 this is the purely real Nyquist bin X[N/2].
    size_t M = H - K;
    Complex Xm = M == H ? Complex(In[H], 0.0) : Complex(In[M], In[N - M]);
    Complex A = cadd<Counted>(Xk, std::conj(Xm));
    Complex D = csub<Counted>(Xk, std::conj(Xm));
    // O = e^{+2pi i k/N} * D / 2, with the halving folded into the twiddle.
    Complex O = cmul<Counted>(std::conj(HalfTwiddles[K]), D);
    // Z = A/2 + i*O.
    Complex HalfA = cscale<Counted>(A, 0.5);
    Scratch[K] = Complex(ops::sub<Counted>(HalfA.real(), O.imag()),
                         ops::add<Counted>(HalfA.imag(), O.real()));
  }
  HalfPlan->transform<Counted>(Scratch, true);
  for (size_t I = 0; I != H; ++I) {
    Out[2 * I] = Scratch[I].real();
    Out[2 * I + 1] = Scratch[I].imag();
  }
}

void FFTPlan::inverseReal(const double *In, double *Out,
                          Complex *Scratch) const {
#if SLIN_COUNT_OPS
  if (ops::isCounting()) {
    inverseReal<true>(In, Out, Scratch);
    return;
  }
#endif
  inverseReal<false>(In, Out, Scratch);
}

template <bool Counted>
void fft::multiplyHalfComplex(size_t N, const double *A, const double *B,
                              double *Out) {
  assert(isPowerOfTwo(N) && "half-complex size must be a power of two");
  if (N == 1) {
    Out[0] = ops::mul<Counted>(A[0], B[0]);
    return;
  }
  Out[0] = ops::mul<Counted>(A[0], B[0]);
  Out[N / 2] = ops::mul<Counted>(A[N / 2], B[N / 2]);
  for (size_t K = 1; K != N / 2; ++K) {
    Complex X(A[K], A[N - K]);
    Complex H(B[K], B[N - K]);
    Complex Y = cmul<Counted>(X, H);
    Out[K] = Y.real();
    Out[N - K] = Y.imag();
  }
}

void fft::multiplyHalfComplex(size_t N, const double *A, const double *B,
                              double *Out) {
#if SLIN_COUNT_OPS
  if (ops::isCounting()) {
    multiplyHalfComplex<true>(N, A, B, Out);
    return;
  }
#endif
  multiplyHalfComplex<false>(N, A, B, Out);
}

template void FFTPlan::forwardReal<true>(const double *, double *,
                                         Complex *) const;
template void FFTPlan::forwardReal<false>(const double *, double *,
                                          Complex *) const;
template void FFTPlan::inverseReal<true>(const double *, double *,
                                         Complex *) const;
template void FFTPlan::inverseReal<false>(const double *, double *,
                                          Complex *) const;
template void fft::multiplyHalfComplex<true>(size_t, const double *,
                                             const double *, double *);
template void fft::multiplyHalfComplex<false>(size_t, const double *,
                                              const double *, double *);

namespace {

void simpleFFTRec(std::vector<Complex> &Data, bool Inverse) {
  size_t N = Data.size();
  if (N == 1)
    return;
  std::vector<Complex> Even(N / 2), Odd(N / 2);
  for (size_t I = 0; I != N / 2; ++I) {
    Even[I] = Data[2 * I];
    Odd[I] = Data[2 * I + 1];
  }
  simpleFFTRec(Even, Inverse);
  simpleFFTRec(Odd, Inverse);
  double Sign = Inverse ? 2.0 * Pi : -2.0 * Pi;
  for (size_t K = 0; K != N / 2; ++K) {
    double Ang = Sign * static_cast<double>(K) / static_cast<double>(N);
    Complex W(std::cos(Ang), std::sin(Ang));
    Complex T = cmul<true>(W, Odd[K]);
    Data[K] = cadd<true>(Even[K], T);
    Data[K + N / 2] = csub<true>(Even[K], T);
  }
}

} // namespace

void fft::simpleFFT(std::vector<Complex> &Data, bool Inverse) {
  if (!isPowerOfTwo(Data.size()))
    fatalError("simpleFFT size must be a power of two");
  simpleFFTRec(Data, Inverse);
  if (Inverse) {
    double Scale = 1.0 / static_cast<double>(Data.size());
    for (Complex &C : Data)
      C = cscale<true>(C, Scale);
  }
}

std::vector<Complex> fft::slowDFT(const std::vector<Complex> &In,
                                  bool Inverse) {
  size_t N = In.size();
  std::vector<Complex> Out(N);
  double Sign = Inverse ? 2.0 * Pi : -2.0 * Pi;
  for (size_t K = 0; K != N; ++K) {
    Complex Sum(0.0, 0.0);
    for (size_t J = 0; J != N; ++J) {
      double Ang = Sign * static_cast<double>(K * J) / static_cast<double>(N);
      Sum += In[J] * Complex(std::cos(Ang), std::sin(Ang));
    }
    Out[K] = Inverse ? Sum / static_cast<double>(N) : Sum;
  }
  return Out;
}

std::vector<double> fft::directConvolve(const std::vector<double> &X,
                                        const std::vector<double> &H) {
  if (X.empty() || H.empty())
    return {};
  std::vector<double> Y(X.size() + H.size() - 1, 0.0);
  for (size_t I = 0; I != X.size(); ++I)
    for (size_t J = 0; J != H.size(); ++J)
      Y[I + J] += X[I] * H[J];
  return Y;
}
