//===- wir/OpTape.h - Flattened work-function op tape -----------*- C++ -*-===//
///
/// \file
/// The compiled execution form of a work function: the IR tree is
/// flattened once into a linear array of fixed-size instructions (an "op
/// tape") over a flat double register frame, executed by a tight dispatch
/// loop — no recursion, no virtual tape calls, no per-node allocation.
/// This is the per-filter half of the compiled execution engine
/// (exec/CompiledExecutor.h); input windows and output cursors are raw
/// pointers into the engine's flat channel buffers.
///
/// Semantics are bit-identical to the tree interpreter (wir/Interp.h):
/// evaluation order, short-circuiting, index rounding and bounds checks
/// all match, so the two engines produce byte-for-byte equal output
/// streams. Instructions that the interpreter executes under
/// CountingScope(false) (index arithmetic, loop bounds, Uncounted blocks,
/// logical combining) are statically tagged uncounted, so FLOP totals
/// also match the interpreter exactly.
///
/// Dispatch compiles to two loops: a counted one routing arithmetic
/// through the op counters, and an ops-free fast path taken whenever
/// counting is disabled at runtime — see support/OpCounters.h.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_WIR_OPTAPE_H
#define SLIN_WIR_OPTAPE_H

#include "wir/Interp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slin {

namespace serial {
class Writer;
class Reader;
} // namespace serial

namespace wir {

enum class Op : uint8_t {
  Const,    ///< R[A] = Imm
  Copy,     ///< R[A] = R[B]
  Peek,     ///< R[A] = In[pos + round(R[C])]
  PeekImm,  ///< R[A] = In[pos + B]
  Pop,      ///< R[A] = In[pos++]
  PopDiscard,
  Push,     ///< *Out++ = R[A]
  Print,    ///< sink(R[A])
  LoadFld,  ///< R[A] = Fld[B][0]
  StoreFld, ///< Fld[B][0] = R[A]
  LoadFldIdx,  ///< R[A] = Fld[B][round(R[C])]   (bounds-checked)
  StoreFldIdx, ///< Fld[B][round(R[C])] = R[A]
  LoadArr,     ///< R[A] = ArrStore[base(B) + round(R[C])]
  StoreArr,    ///< ArrStore[base(B) + round(R[C])] = R[A]
  ZeroArr,     ///< zero-fill local array slot B (declared size C)
  Add, Sub, Mul, Div, Mod,     ///< R[A] = R[B] op R[C]
  Lt, Le, Gt, Ge, Eq, Ne,      ///< R[A] = R[B] cmp R[C] ? 1 : 0
  Bool,     ///< R[A] = R[B] != 0 ? 1 : 0  (uncounted; logical results)
  Not,      ///< R[A] = R[B] == 0 ? 1 : 0  (uncounted)
  Round,    ///< R[A] = lround(R[B])       (uncounted index conversion)
  Neg,      ///< R[A] = 0 - R[B]           (counted as a subtract)
  Intrin,   ///< R[A] = intrinsic(B)(R[C])
  // Fused superinstructions (peephole-formed; arithmetic identical to the
  // sequences they replace, counted as the constituent ops).
  MulAdd,     ///< R[A] = R[D] + R[B] * R[C]
  MacFldPeek, ///< R[A] += Fld[B][idx] * In[pos + idx], idx = round(R[C])
  AddImm,     ///< R[A] = R[B] + Imm
  Jump,     ///< pc = A
  JumpIfZero, ///< if R[A] == 0 pc = B
  JumpIfGe,   ///< if R[A] >= R[B] pc = C  (uncounted loop condition)
  IncJump,    ///< R[A] += 1; pc = B       (loop back-edge)
  Halt
};

struct Inst {
  Op K = Op::Halt;
  bool Counted = false; ///< route through the op counters when counting
  /// Index operand (C) is statically known integral: convert with a cast
  /// instead of lround (set by the int-register analysis; exact).
  bool IntIdx = false;
  int32_t A = 0, B = 0, C = 0, D = 0;
  double Imm = 0.0;
};

/// Reusable per-filter-instance scratch for tape execution; sized by
/// OpProgram::prepareFrame once, reused across firings.
struct WorkFrame {
  std::vector<double> Regs;
  std::vector<double> ArrStore;
  std::vector<int32_t> ArrSizes;  ///< logical (declared-so-far) sizes
  std::vector<double *> FldPtrs;  ///< field data, cached per firing
  std::vector<int32_t> FldSizes;
};

/// A compiled work function.
class OpProgram {
public:
  OpProgram() = default;

  /// Compiles \p Work (resolving it against \p Fields first if needed).
  static OpProgram compile(const WorkFunction &Work,
                           const std::vector<FieldDef> &Fields);

  bool empty() const { return Code.empty(); }
  int peekRate() const { return PeekRate; }
  int popRate() const { return PopRate; }
  int pushRate() const { return PushRate; }
  size_t size() const { return Code.size(); }
  const std::vector<Inst> &code() const { return Code; }

  // Read-only frame/layout metadata, for diagnostics and the abstract
  // executor (linear/AbstractExec.h), which re-executes the tape
  // symbolically and must address registers, fields and local arrays
  // exactly as runImpl does.
  int numRegs() const { return NumRegs; }
  int arrayCount() const { return static_cast<int>(ArrBase.size()); }
  int arrayBase(int Slot) const {
    return ArrBase[static_cast<size_t>(Slot)];
  }
  int arrayDeclSize(int Slot) const {
    return ArrDeclSize[static_cast<size_t>(Slot)];
  }
  const std::string &arrayName(int Slot) const {
    return ArrNames[static_cast<size_t>(Slot)];
  }
  int arrayStoreSize() const { return ArrStoreSize; }
  int fieldCount() const { return static_cast<int>(FieldNames.size()); }
  const std::vector<std::string> &fieldNames() const { return FieldNames; }

  /// Sizes \p F for this program (idempotent; cheap when already sized).
  void prepareFrame(WorkFrame &F) const;

  /// Binary persistence (support/Serialize.h): instructions and frame
  /// metadata are written verbatim, so a loaded program executes the
  /// exact instruction sequence — and reports the exact FLOP taxonomy —
  /// the compiler produced. deserialize() rejects out-of-range opcodes
  /// and inconsistent frame metadata (returns false; \p Out untouched).
  void serialize(serial::Writer &W) const;
  static bool deserialize(serial::Reader &R, OpProgram &Out);

  /// Executes one firing. \p In points at peek(0) (null for source
  /// filters); \p Out receives exactly pushRate() values; \p Printed
  /// collects print statements. \p State must match the field list the
  /// program was compiled against. Selects the ops-free fast path when
  /// op counting is disabled.
  void run(WorkFrame &F, FieldStore &State, const double *In, double *Out,
           std::vector<double> &Printed) const;

private:
  template <bool CountOps>
  void runImpl(WorkFrame &F, const double *In, double *Out,
               std::vector<double> &Printed) const;

  std::vector<Inst> Code;
  std::vector<int32_t> ArrBase;        ///< flat base offset per array slot
  std::vector<int32_t> ArrDeclSize;    ///< declared size per array slot
  std::vector<std::string> ArrNames;   ///< for bounds diagnostics
  std::vector<std::string> FieldNames; ///< for bounds diagnostics
  int NumRegs = 0;
  int ArrStoreSize = 0;
  int PeekRate = 0, PopRate = 0, PushRate = 0;

  friend class OpTapeCompiler;
  /// Tape → C++ lowering (wir/CxxEmit.h) reads the full private layout:
  /// emitted code must replicate frame metadata (register/array sizing,
  /// bounds-diagnostic names) exactly, not just the instruction list.
  friend class CxxTapeEmitter;
};

} // namespace wir
} // namespace slin

#endif // SLIN_WIR_OPTAPE_H
