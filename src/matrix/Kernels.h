//===- matrix/Kernels.h - Runtime linear-filter kernels --------*- C++ -*-===//
///
/// \file
/// Runtime matrix kernels backing *linear replacement* (Section 5.2).
/// The paper generated two code shapes:
///
///  * an unrolled expression / "diagonal" (banded) indexed multiply that
///    skips the zero entries at the top and bottom of each column
///    (Figure 5-7) — our PackedLinearKernel::applyBanded;
///  * a call-out to the machine-tuned ATLAS gemv (Section 5.4), including
///    the buffer-copy interface overhead they measured — our TunedGemv.
///
/// Both kernels operate in *natural* orientation: In[p] holds peek(p), and
/// Out[j] receives the j'th pushed value.
///
/// On top of the per-firing gemv paths, each kernel has a **batched** path
/// for the compiled execution engine (exec/CompiledExecutor.h): a linear
/// node fired K times per batch reads K overlapping peek windows laid out
/// at a fixed stride (the node's pop rate) in the engine's flat channel
/// buffer, which turns the K matrix-vector products into one blocked
/// K x e by e x u matrix multiply. The batched loops are cache-blocked
/// over firings and register-tiled several firings wide (each coefficient
/// load is reused across the tile — the "let the tuned kernel see a
/// bigger matrix" move of the paper's ATLAS experiment, Section 5.4).
/// Per-firing accumulation order is identical to the sequential paths, so
/// batched and per-firing execution produce bit-identical outputs.
///
/// Every kernel except applyDense is a template on a `Counted` flag, built
/// on ops::add/fma<Counted> (support/OpCounters.h): the counted
/// instantiation routes arithmetic through the op counters, for the
/// paper's FLOP taxonomy tables, and the uncounted one is the ops-free
/// fast path. Each public entry point reads ops::isCounting() once per
/// call to choose.
/// applyDense, a model of the naive generated code that no engine calls,
/// always counts.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_MATRIX_KERNELS_H
#define SLIN_MATRIX_KERNELS_H

#include "matrix/Matrix.h"

#include <vector>

namespace slin {

namespace serial {
class Writer;
class Reader;
} // namespace serial

/// Column-packed representation of a natural-orientation linear map
/// y[j] = sum_p C[p][j] * x[p] + b[j], with per-column leading/trailing
/// zeros removed (Figure 5-7's sparseA/firstNonZero/lastNonZero).
class PackedLinearKernel {
public:
  struct Column {
    int First = 0;               ///< index of first (possibly) nonzero coeff
    std::vector<double> Coeffs;  ///< band of coefficients
    double Offset = 0.0;         ///< constant b[j]
  };

  /// \p CNat is the e x u natural-orientation coefficient matrix
  /// (CNat[p][j] multiplies peek(p) in push j); \p B has u offsets.
  PackedLinearKernel(const Matrix &CNat, const Vector &B);

  int peekRate() const { return PeekRate; }
  int pushRate() const { return static_cast<int>(Columns.size()); }
  const std::vector<Column> &columns() const { return Columns; }

  /// Banded multiply skipping leading/trailing zeros (counted).
  void applyBanded(const double *In, double *Out) const;

  /// Dense multiply over all e coefficients per column (counted); models
  /// the naive generated code before the zero-skipping optimization.
  void applyDense(const double *In, double *Out) const;

  /// Batched banded multiply: K consecutive firings whose peek windows
  /// advance by \p PopStride items (window k starts at In + k*PopStride);
  /// the k'th firing's outputs go to Out + k*pushRate(). Bit-identical to
  /// K calls of applyBanded.
  void applyBatched(const double *In, double *Out, int K, int PopStride) const;

  /// Total multiplies performed by one banded application.
  size_t bandedMultiplyCount() const;

  /// Native-codegen twin of applyBatched (codegen/CxxBackend.h): appends
  /// to \p Src an extern "C" function \p Fn(const double *In, double
  /// *Out, long K) replicating the uncounted batched loop exactly — same
  /// cache blocking, register tiling and per-firing accumulation order,
  /// bands and offsets baked in as exact literals — over peek windows at
  /// stride \p PopStride. Bit-identical to applyBatched with counting
  /// off (the generated TU is built with -ffp-contract=off, so `acc +
  /// c*w` rounds identically on both sides).
  void emitBatchedCxx(std::string &Src, const std::string &Fn,
                      int PopStride) const;

  /// Persists the packed form bit-exactly (support/Serialize.h): loaded
  /// kernels run the same bands in the same order as freshly packed ones.
  void serialize(serial::Writer &W) const;
  static bool deserialize(serial::Reader &R, PackedLinearKernel &Out);

private:
  PackedLinearKernel() = default; ///< deserialize target only

  template <bool Counted> void bandedImpl(const double *In, double *Out) const;
  template <bool Counted>
  void batchedImpl(const double *In, double *Out, int K, int PopStride) const;

  int PeekRate = 0;
  Matrix Dense; ///< kept for applyDense
  std::vector<Column> Columns;
};

/// Cache-blocked, transposed-layout gemv standing in for ATLAS.
///
/// Stores the coefficient matrix transposed (one contiguous row per output)
/// and processes it with 4-way unrolled accumulators. Like the paper's
/// ATLAS interface, each application first copies the input window into a
/// staging buffer (this is the interface overhead Section 5.4 blames for
/// the mixed results) and performs a *dense* multiply: it cannot exploit
/// the zero bands the banded kernel skips. The batched path gathers a
/// block of K peek windows into an input panel and runs one blocked gemm
/// over it, amortizing the staging copy the way a real ATLAS dgemm call
/// would.
class TunedGemv {
public:
  TunedGemv(const Matrix &CNat, const Vector &B);

  int peekRate() const { return E; }
  int pushRate() const { return U; }

  void apply(const double *In, double *Out) const;

  /// Batched gemm over K windows at stride \p PopStride; bit-identical to
  /// K calls of apply.
  void applyBatched(const double *In, double *Out, int K, int PopStride) const;

  /// Persists the transposed packed layout bit-exactly.
  void serialize(serial::Writer &W) const;
  static bool deserialize(serial::Reader &R, TunedGemv &Out);

private:
  TunedGemv() = default; ///< deserialize target only

  template <bool Counted> void applyImpl(const double *In, double *Out) const;
  template <bool Counted>
  void batchedImpl(const double *In, double *Out, int K, int PopStride) const;

  int E = 0;
  int U = 0;
  std::vector<double> RowMajorT; ///< U x E, row j = coefficients of output j
  std::vector<double> Offsets;
  mutable std::vector<double> Staging; ///< interface copy buffer
  mutable std::vector<double> Panel;   ///< batched-path gather panel
};

} // namespace slin

#endif // SLIN_MATRIX_KERNELS_H
