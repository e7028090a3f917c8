//===- fft/FFT.h - FFT library (FFTW substitute) ---------------*- C++ -*-===//
///
/// \file
/// The frequency-replacement optimization (Section 4.1) calls out to FFTW
/// for the basis conversions. FFTW is not available here, so this module
/// is the substitute: a planned, iterative radix-2 FFT with a real-input
/// path using FFTW's half-complex ("Hermitian") packing — the same format
/// the paper's wrappers used (Section 4.4).
///
/// Two quality tiers are provided, matching the strategies compared in
/// Figure 5-12:
///  * FFTPlan — planned, iterative, real-input savings (the "FFTW" tier);
///  * simpleFFT — a textbook recursive complex FFT with no planning and
///    no real-input savings (the "simple FFT implementation" tier).
///
/// FFTPlan's transforms and multiplyHalfComplex are templates on a
/// `Counted` flag (support/OpCounters.h): the counted instantiation routes
/// every real operation through the op counters, so frequency-domain
/// filters report honest FLOP counts, and the uncounted one is the same
/// arithmetic with no accounting. The two round identically, bit for bit.
/// The untemplated entry points read ops::isCounting() once per call and
/// run the matching instantiation; a caller that runs many transforms per
/// call (opt/Frequency.cpp) picks the instantiation itself, once.
/// simpleFFT tests the counting flag per operation: it is Figure 5-12's
/// comparison tier, which automatic selection never picks.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_FFT_FFT_H
#define SLIN_FFT_FFT_H

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace slin {
namespace fft {

using Complex = std::complex<double>;

/// Returns the smallest power of two >= \p N (N >= 1).
size_t nextPowerOfTwo(size_t N);

/// Returns true if \p N is a power of two.
bool isPowerOfTwo(size_t N);

/// A transform plan for a fixed power-of-two size, holding the
/// bit-reversal permutation and twiddle factors (the FFTW-plan analogue).
/// A plan is immutable once built: the real-input paths stage through
/// caller-owned scratch, so one plan can be shared by any number of
/// filters and threads.
class FFTPlan {
public:
  /// \p N must be a power of two >= 1.
  explicit FFTPlan(size_t N);

  size_t size() const { return N; }

  /// Complex entries of the scratch buffer forwardReal/inverseReal need.
  size_t scratchSize() const { return N / 2; }

  /// In-place forward DFT of \p Data (N complex points).
  void forward(Complex *Data) const;

  /// In-place inverse DFT of \p Data, including the 1/N scaling.
  void inverse(Complex *Data) const;

  /// Forward DFT of \p In (N real points) into half-complex layout:
  /// Out[0] = Re X[0], Out[k] = Re X[k] for 1 <= k <= N/2, and
  /// Out[N-k] = Im X[k] for 1 <= k < N/2. Uses the packed N/2-point
  /// complex transform, so it costs roughly half a complex FFT.
  /// \p Scratch holds scratchSize() entries.
  void forwardReal(const double *In, double *Out, Complex *Scratch) const;
  template <bool Counted>
  void forwardReal(const double *In, double *Out, Complex *Scratch) const;

  /// Inverse of forwardReal: consumes a half-complex spectrum and
  /// produces N real points (includes the 1/N scaling).
  /// \p Scratch holds scratchSize() entries.
  void inverseReal(const double *In, double *Out, Complex *Scratch) const;
  template <bool Counted>
  void inverseReal(const double *In, double *Out, Complex *Scratch) const;

private:
  /// In-place DFT; the inverse includes the 1/N scaling.
  template <bool Counted> void transform(Complex *Data, bool Inverse) const;

  size_t N;
  std::vector<size_t> BitRev;
  std::vector<Complex> Twiddles;           ///< e^{-2pi i k/N}, k < N/2
  std::unique_ptr<const FFTPlan> HalfPlan; ///< N/2 plan for the real path
  std::vector<Complex> HalfTwiddles;       ///< 0.5 * Twiddles[k] (exact)
};

/// Pointwise product of two half-complex spectra of length \p N into
/// \p Out. This is the Y = X .* H step of Transformation 5.
void multiplyHalfComplex(size_t N, const double *A, const double *B,
                         double *Out);
template <bool Counted>
void multiplyHalfComplex(size_t N, const double *A, const double *B,
                         double *Out);

/// Textbook recursive radix-2 complex FFT (no planning, temporaries per
/// level, no real-input savings). \p Data.size() must be a power of two.
void simpleFFT(std::vector<Complex> &Data, bool Inverse);

/// O(N^2) reference DFT for testing (not counted).
std::vector<Complex> slowDFT(const std::vector<Complex> &In, bool Inverse);

/// Direct (time-domain) linear convolution of \p X with \p H, for testing
/// and for theory baselines; result has X.size()+H.size()-1 entries.
std::vector<double> directConvolve(const std::vector<double> &X,
                                   const std::vector<double> &H);

} // namespace fft
} // namespace slin

#endif // SLIN_FFT_FFT_H
