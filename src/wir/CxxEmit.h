//===- wir/CxxEmit.h - Op tape to C++ lowering ------------------*- C++ -*-===//
///
/// \file
/// Lowers a compiled op tape (wir/OpTape.h) to a self-contained C++
/// function body for the native codegen backend (codegen/CxxBackend.h).
/// The emitted function executes K consecutive firings against raw
/// channel memory with the exact semantics of OpProgram::runImpl's
/// ops-free path: evaluation order, index rounding (lround vs. the
/// proven-integral cast), bounds checks with the same diagnostic strings,
/// the Halt rate check, and per-firing register / local-array zeroing all
/// match, so a native run is bit-identical to the op-tape interpreter
/// (every generated part is compiled with -ffp-contract=off, so no FMA
/// contraction can change rounding).
///
/// The tape's constants (Const and AddImm immediates) are not spelled in
/// the body: the n-th one emitted becomes a load of Cst[n], and its value
/// goes to the caller's table. Two tapes that differ only in their
/// literals therefore emit the same text — one *shape* — which the
/// backend compiles once. A load from a table initialised with the exact
/// literal yields the same double as the literal itself, and every
/// operation on it is the same IEEE operation (no contraction under
/// -ffp-contract=off), so moving constants to memory keeps the output
/// bit-identical.
///
/// Emitted text: the parameter list and body, without a name — the
/// caller prepends the declarator (the NativeCtx ABI is defined in
/// codegen/NativeModule.h and replicated in every generated part's
/// preamble):
///
///     (const double *__restrict Cst, const SlinNativeCtx *Ctx,
///      const double *In, double *Out, long K) { ... }
///
/// Nothing a firing does writes Cst, so __restrict holds and lets the
/// compiler keep loop-resident constants in registers. Firing k's peek
/// window starts at In + k*popRate(); its pushRate() outputs go to
/// Out + k*pushRate() — the layout CompiledExecutor's flat channel
/// buffers already provide.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_WIR_CXXEMIT_H
#define SLIN_WIR_CXXEMIT_H

#include "wir/OpTape.h"

#include <string>
#include <vector>

namespace slin {
namespace wir {

/// Exact C++ source literal for \p V: hexfloat for finite values (parsed
/// back bit-identically by any conforming compiler), bit-pattern
/// reconstruction for NaN/Inf through the preamble's constexpr
/// slin_bits_, so every spelling is a constant expression (static tables
/// need no dynamic initialiser). Shared by the backend's per-node
/// constant tables and the kernel batch emitters (matrix/Kernels.cpp).
std::string cxxDoubleLiteral(double V);

/// Appends the parameter list and body of the K-firing function for \p P
/// to \p Src and replaces \p Consts with its constant table, in
/// emission order. Returns false (leaving both untouched) when the tape
/// is empty or uses an unknown intrinsic — callers then keep the
/// interpreter for that filter.
class CxxTapeEmitter {
public:
  static bool emit(const OpProgram &P, std::vector<double> &Consts,
                   std::string &Src);
};

} // namespace wir
} // namespace slin

#endif // SLIN_WIR_CXXEMIT_H
