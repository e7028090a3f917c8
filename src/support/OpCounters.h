//===- support/OpCounters.h - Floating-point op accounting -----*- C++ -*-===//
///
/// \file
/// The paper measures its optimizations in floating-point operation counts
/// gathered by a DynamoRIO instruction-counting client over IA-32 binaries
/// (Section 5.1, Table 5.1). Our substitute is this accounting layer: every
/// floating-point operation *executed* by the stream runtime — whether by
/// the work-IR interpreter, a generated linear filter, the FFT library or a
/// matrix kernel — flows through the counted helpers below.
///
/// Mirroring the paper's taxonomy:
///  * "FLOPS" are all floating-point arithmetic (Table 5.1's checked rows):
///    adds, subtracts, multiplies, divides, compares and transcendentals.
///  * "multiplication instructions" are the fmul/fdiv families, i.e. our
///    Muls + Divs.
///
/// Counting is a thread-local toggle so timing runs can disable it; the
/// helpers compile to a single predictable branch when disabled.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_OPCOUNTERS_H
#define SLIN_SUPPORT_OPCOUNTERS_H

#include <cmath>
#include <cstdint>

/// Compile-time kill switch for the accounting layer (cmake
/// -DSLIN_COUNT_OPS=OFF). When 0, the counted helpers below compile to
/// raw arithmetic, isCounting() is constant-false, and the kernels' entry
/// points never select their counted instantiations.
/// The default build keeps accounting available; timing runs still avoid
/// its cost at runtime. The runtime's hot loops — op tapes
/// (wir/OpTape.cpp), matrix kernels (matrix/Kernels.cpp), the planned FFT
/// (fft/FFT.cpp) and the frequency filter (opt/Frequency.cpp) — are
/// templates on a counted flag (all but the op tapes written with the
/// add/sub/mul/fma<Counted> helpers below), and each public entry point
/// reads isCounting() once per call to pick the instantiation. Code
/// outside those loops (the work-IR tree interpreter, the fig 5-12
/// simpleFFT tier, applyDense) calls the untemplated helpers, which test
/// the flag per operation.
#ifndef SLIN_COUNT_OPS
#define SLIN_COUNT_OPS 1
#endif

namespace slin {

/// A snapshot of executed floating-point operation counts.
struct OpCounts {
  uint64_t Adds = 0;
  uint64_t Subs = 0;
  uint64_t Muls = 0;
  uint64_t Divs = 0;
  uint64_t Cmps = 0;
  uint64_t Trans = 0; ///< sin/cos/atan/sqrt/exp/log/abs/...

  /// All floating point operations (the paper's "FLOPS").
  uint64_t flops() const { return Adds + Subs + Muls + Divs + Cmps + Trans; }

  /// The paper's "multiplication instructions" (fmul/fdiv families).
  uint64_t mults() const { return Muls + Divs; }

  OpCounts operator-(const OpCounts &O) const {
    OpCounts R;
    R.Adds = Adds - O.Adds;
    R.Subs = Subs - O.Subs;
    R.Muls = Muls - O.Muls;
    R.Divs = Divs - O.Divs;
    R.Cmps = Cmps - O.Cmps;
    R.Trans = Trans - O.Trans;
    return R;
  }

  OpCounts &operator+=(const OpCounts &O) {
    Adds += O.Adds;
    Subs += O.Subs;
    Muls += O.Muls;
    Divs += O.Divs;
    Cmps += O.Cmps;
    Trans += O.Trans;
    return *this;
  }

  bool operator==(const OpCounts &O) const {
    return Adds == O.Adds && Subs == O.Subs && Muls == O.Muls &&
           Divs == O.Divs && Cmps == O.Cmps && Trans == O.Trans;
  }
  bool operator!=(const OpCounts &O) const { return !(*this == O); }
};

namespace ops {

namespace detail {
extern thread_local bool Enabled;
extern thread_local OpCounts Counts;
} // namespace detail

inline bool isCounting() {
#if SLIN_COUNT_OPS
  return detail::Enabled;
#else
  return false;
#endif
}
inline const OpCounts &counts() { return detail::Counts; }

/// RAII scope that enables counting and restores the previous state.
class CountingScope {
public:
  explicit CountingScope(bool Enable = true) : Saved(detail::Enabled) {
    detail::Enabled = Enable;
  }
  ~CountingScope() { detail::Enabled = Saved; }
  CountingScope(const CountingScope &) = delete;
  CountingScope &operator=(const CountingScope &) = delete;

private:
  bool Saved;
};

/// Resets all counters to zero.
void reset();

/// Folds \p Delta into the calling thread's counters. The parallel
/// execution layer uses this to aggregate worker-thread op counts (the
/// counters are thread_local, so ops executed on a worker would otherwise
/// be invisible to the measuring thread).
inline void accumulate(const OpCounts &Delta) {
#if SLIN_COUNT_OPS
  detail::Counts += Delta;
#else
  (void)Delta;
#endif
}

inline double add(double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Adds;
  return A + B;
}
inline double sub(double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Subs;
  return A - B;
}
inline double mul(double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Muls;
  return A * B;
}
inline double div(double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Divs;
  return A / B;
}
/// Floating remainder (the FPREM family; counted with the divides).
inline double mod(double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Divs;
  return std::fmod(A, B);
}
inline bool cmp(bool Result) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Cmps;
  return Result;
}
/// Counts one transcendental evaluation and returns \p Result.
inline double trans(double Result) {
  if (SLIN_COUNT_OPS && detail::Enabled)
    ++detail::Counts.Trans;
  return Result;
}

/// Fused helper for the ubiquitous multiply-accumulate.
inline double fma(double Acc, double A, double B) {
  if (SLIN_COUNT_OPS && detail::Enabled) {
    ++detail::Counts.Muls;
    ++detail::Counts.Adds;
  }
  return Acc + A * B;
}

/// Counted/uncounted arithmetic chosen at compile time: a kernel
/// instantiated with Counted = true counts exactly what the helpers
/// above count, and with Counted = false it is the ops-free fast path.
/// Both round identically (the same expression, no flag test).
template <bool Counted> inline double add(double A, double B) {
  return Counted ? add(A, B) : A + B;
}
template <bool Counted> inline double sub(double A, double B) {
  return Counted ? sub(A, B) : A - B;
}
template <bool Counted> inline double mul(double A, double B) {
  return Counted ? mul(A, B) : A * B;
}
template <bool Counted> inline double fma(double Acc, double A, double B) {
  return Counted ? fma(Acc, A, B) : Acc + A * B;
}

} // namespace ops
} // namespace slin

#endif // SLIN_SUPPORT_OPCOUNTERS_H
