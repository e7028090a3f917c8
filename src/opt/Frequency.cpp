//===- opt/Frequency.cpp - Frequency replacement -----------------------------==//

#include "opt/Frequency.h"

#include "compiler/ArtifactStore.h"
#include "compiler/StructuralHash.h"
#include "fft/FFT.h"
#include "linear/Analysis.h"
#include "support/Diag.h"
#include "support/MathUtil.h"
#include "support/OpCounters.h"
#include "support/Serialize.h"
#include "wir/Build.h"

#include <cmath>

using namespace slin;
using namespace slin::fft;

namespace {

/// The frequency-domain filter of Transformations 5 and 6. Operates with
/// an implicit pop rate of one (a decimator downstream restores o > 1).
///
/// Every firing — per-item through a tape, or K at a time over flat
/// channel memory — runs one core, fireWindow<Counted>, instantiated
/// counted or uncounted once per call (support/OpCounters.h). The FFT
/// plan is immutable and shared by every clone; the buffers are each
/// instance's own.
class FreqFilterNative : public NativeFilter {
public:
  FreqFilterNative(const LinearNode &Node, const FrequencyOptions &Opts)
      : E(Node.peekRate()), U(Node.pushRate()), Optimized(Opts.Optimized),
        Tier(Opts.Tier) {
    {
      // Content hash for structural hashing / artifact caching: the full
      // construction input (node contents + the options that shape the
      // implementation).
      HashStream HS;
      HS.mix(0xf4e9); // class tag
      HashDigest D = linearNodeHash(Node);
      HS.mix(D.Lo);
      HS.mix(D.Hi);
      HS.mix(Opts.Optimized ? 1 : 0);
      HS.mixInt(static_cast<int64_t>(Opts.Tier));
      HS.mixInt(Opts.FFTSizeOverride);
      Content = HS.digest();
    }
    N = Opts.FFTSizeOverride
            ? static_cast<size_t>(Opts.FFTSizeOverride)
            : nextPowerOfTwo(static_cast<size_t>(2 * E));
    if (!isPowerOfTwo(N) || N < static_cast<size_t>(2 * E))
      fatalError("invalid FFT size for frequency replacement");
    M = static_cast<int>(N) - 2 * E + 1;
    R = M + E - 1;

    Offsets = Node.naturalOffsets();
    allocateBuffers();

    // Precompute the column spectra H_j from h_j[k] = A[k, u-1-j]
    // (compile-time work; not part of the runtime FLOP counts).
    ops::CountingScope Scope(false);
    std::vector<double> HTime(N, 0.0);
    if (Tier == FFTTier::PlannedReal) {
      HReal.resize(static_cast<size_t>(U), std::vector<double>(N));
      for (int J = 0; J != U; ++J) {
        std::fill(HTime.begin(), HTime.end(), 0.0);
        for (int K = 0; K != E; ++K)
          HTime[static_cast<size_t>(K)] = Node.coeff(E - 1 - K, J);
        Plan->forwardReal(HTime.data(), HReal[static_cast<size_t>(J)].data(),
                          Scratch.data());
      }
    } else {
      HCplx.resize(static_cast<size_t>(U), std::vector<Complex>(N));
      for (int J = 0; J != U; ++J) {
        std::vector<Complex> Col(N, Complex(0, 0));
        for (int K = 0; K != E; ++K)
          Col[static_cast<size_t>(K)] = Node.coeff(E - 1 - K, J);
        simpleFFT(Col, false);
        HCplx[static_cast<size_t>(J)] = std::move(Col);
      }
    }
  }

  int peekRate() const override { return R; }
  int popRate() const override { return Optimized ? R : M; }
  int pushRate() const override { return U * (Optimized ? R : M); }

  bool hasInitWork() const override { return Optimized; }
  int initPeekRate() const override { return R; }
  int initPopRate() const override { return R; }
  int initPushRate() const override { return U * M; }

  void fire(wir::Tape &T) override {
    gatherWindow(T);
    auto Push = [&T](double V) { T.push(V); };
    if (ops::isCounting())
      fireWindow<true>(Window.data(), Push);
    else
      fireWindow<false>(Window.data(), Push);
    for (int I = 0, Pop = popRate(); I != Pop; ++I)
      T.pop();
  }

  void fireInit(wir::Tape &T) override {
    assert(Optimized && "init firing on a naive frequency filter");
    gatherWindow(T);
    auto Push = [&T](double V) { T.push(V); };
    if (ops::isCounting())
      initWindow<true>(Window.data(), Push);
    else
      initWindow<false>(Window.data(), Push);
    for (int I = 0; I != R; ++I)
      T.pop();
  }

  bool fireBatch(const double *In, double *Out, int K) override {
    if (ops::isCounting()) {
      fireBatchImpl<true>(In, Out, K);
      return true;
    }
    fireBatchImpl<false>(In, Out, K);
    return true;
  }

  std::unique_ptr<NativeFilter> clone() const override {
    return std::make_unique<FreqFilterNative>(*this);
  }

  const char *serialTag() const override { return "freq"; }

  void serializePayload(serial::Writer &W) const override {
    W.u64(Content.Lo);
    W.u64(Content.Hi);
    W.i32(E);
    W.i32(U);
    W.boolean(Optimized);
    W.u8(static_cast<uint8_t>(Tier));
    W.u64(N);
    serializeVector(W, Offsets);
    // The precomputed column spectra, bit-exact: recomputing them at load
    // would also be deterministic, but storing them keeps the load path
    // trivially identical to the compiled prototype.
    if (Tier == FFTTier::PlannedReal) {
      for (const std::vector<double> &Col : HReal)
        W.f64s(Col);
    } else {
      for (const std::vector<Complex> &Col : HCplx)
        for (const Complex &V : Col) {
          W.f64(V.real());
          W.f64(V.imag());
        }
    }
  }

  /// Reconstructs a prototype from serializePayload bytes. Returns null
  /// on malformed input (the caller treats it as a cache miss).
  static std::unique_ptr<NativeFilter> deserialize(serial::Reader &R) {
    std::unique_ptr<FreqFilterNative> F(new FreqFilterNative());
    F->Content.Lo = R.u64();
    F->Content.Hi = R.u64();
    F->E = R.i32();
    F->U = R.i32();
    F->Optimized = R.boolean();
    uint8_t Tier = R.u8();
    F->Tier = static_cast<FFTTier>(Tier);
    F->N = R.u64();
    if (!R.ok() || Tier > static_cast<uint8_t>(FFTTier::SimpleComplex) ||
        F->E < 1 || F->U < 1 || !isPowerOfTwo(F->N) ||
        F->N < static_cast<size_t>(2 * F->E) || F->N > (size_t(1) << 20))
      return nullptr;
    F->M = static_cast<int>(F->N) - 2 * F->E + 1;
    F->R = F->M + F->E - 1;
    if (!deserializeVector(R, F->Offsets) ||
        F->Offsets.size() != static_cast<size_t>(F->U))
      return nullptr;
    if (F->Tier == FFTTier::PlannedReal) {
      F->HReal.resize(static_cast<size_t>(F->U));
      for (std::vector<double> &Col : F->HReal) {
        Col = R.f64s();
        if (Col.size() != F->N)
          return nullptr;
      }
    } else {
      // The spectra must be backed by wire bytes (16 per complex entry)
      // before anything is allocated — a checksum-valid but malformed
      // header must degrade to a cache miss, never an OOM crash.
      if (static_cast<uint64_t>(F->U) * F->N >
          R.remaining() / (2 * sizeof(double)))
        return nullptr;
      F->HCplx.resize(static_cast<size_t>(F->U),
                      std::vector<Complex>(F->N));
      for (std::vector<Complex> &Col : F->HCplx)
        for (Complex &V : Col) {
          double Re = R.f64();
          double Im = R.f64();
          V = Complex(Re, Im);
        }
    }
    if (!R.ok())
      return nullptr;
    F->allocateBuffers();
    return F;
  }

  bool hashContent(HashStream &H) const override {
    H.mix(Content.Lo);
    H.mix(Content.Hi);
    return true;
  }

  /// The optimized form carries the previous block's partial sums across
  /// firings; they are fully rewritten every firing, so one replayed
  /// firing reconstructs them. The naive form is scratch-only.
  int stateDepthFirings() const override { return Optimized ? 1 : 0; }

private:
  FreqFilterNative() = default; ///< deserialize target only

  /// Builds the plan and sizes the per-instance buffers from E, U, N, R
  /// and Tier.
  void allocateBuffers() {
    const size_t UN = static_cast<size_t>(U);
    if (Tier == FFTTier::PlannedReal) {
      Plan = std::make_shared<const FFTPlan>(N);
      XF.resize(N);
      YF.resize(N);
      Scratch.resize(Plan->scratchSize());
    } else {
      XC.resize(N);
      YC.resize(N);
    }
    Window.resize(static_cast<size_t>(R));
    XBuf.resize(N);
    YCols.assign(UN, std::vector<double>(N));
    Partials.assign(UN * static_cast<size_t>(std::max(E - 1, 0)), 0.0);
  }

  /// Copies the tape's peek window (R items, both forms) into Window.
  void gatherWindow(wir::Tape &T) {
    for (int I = 0; I != R; ++I)
      Window[static_cast<size_t>(I)] = T.peek(I);
  }

  /// K steady firings under NativeFilter::fireBatch's memory contract.
  template <bool Counted>
  void fireBatchImpl(const double *In, double *Out, int K) {
    const size_t Pop = static_cast<size_t>(popRate());
    const size_t Push = static_cast<size_t>(pushRate());
    for (size_t I = 0, KN = static_cast<size_t>(K); I != KN; ++I) {
      double *O = Out + I * Push;
      fireWindow<Counted>(In + I * Pop, [&O](double V) { *O++ = V; });
    }
  }

  /// One steady firing over the peek window \p Win, handing its
  /// pushRate() outputs in order to \p Push. The optimized form first
  /// completes the previous block's partial sums (outputs m..m+e-2 of the
  /// previous window), then emits the m full outputs.
  template <bool Counted, typename PushFn>
  void fireWindow(const double *Win, PushFn &&Push) {
    computeColumns<Counted>(Win);
    if (Optimized) {
      for (int I = 0; I != E - 1; ++I) {
        for (int J = 0; J != U; ++J) {
          const std::vector<double> &Y = YCols[static_cast<size_t>(J)];
          double &P = Partials[static_cast<size_t>(J) * (E - 1) + I];
          Push(ops::add<Counted>(
              ops::add<Counted>(Y[static_cast<size_t>(I)], P),
              Offsets[static_cast<size_t>(J)]));
          P = Y[static_cast<size_t>(M + E - 1 + I)];
        }
      }
    }
    emitFull<Counted>(Push);
  }

  /// The optimized form's first firing: the m full outputs, and the
  /// partial sums the next firing completes.
  template <bool Counted, typename PushFn>
  void initWindow(const double *Win, PushFn &&Push) {
    computeColumns<Counted>(Win);
    emitFull<Counted>(Push);
    for (int I = 0; I != E - 1; ++I)
      for (int J = 0; J != U; ++J)
        Partials[static_cast<size_t>(J) * (E - 1) + I] =
            YCols[static_cast<size_t>(J)][static_cast<size_t>(M + E - 1 + I)];
  }

  /// Transforms the R-item window \p Win and fills YCols[j] with the
  /// circular convolution against column j.
  template <bool Counted> void computeColumns(const double *Win) {
    std::copy(Win, Win + R, XBuf.begin());
    std::fill(XBuf.begin() + R, XBuf.end(), 0.0);

    if (Tier == FFTTier::PlannedReal) {
      Plan->forwardReal<Counted>(XBuf.data(), XF.data(), Scratch.data());
      for (int J = 0; J != U; ++J) {
        multiplyHalfComplex<Counted>(
            N, XF.data(), HReal[static_cast<size_t>(J)].data(), YF.data());
        Plan->inverseReal<Counted>(YF.data(),
                                   YCols[static_cast<size_t>(J)].data(),
                                   Scratch.data());
      }
      return;
    }
    for (size_t I = 0; I != N; ++I)
      XC[I] = Complex(XBuf[I], 0.0);
    simpleFFT(XC, false);
    for (int J = 0; J != U; ++J) {
      const auto &H = HCplx[static_cast<size_t>(J)];
      for (size_t I = 0; I != N; ++I) {
        // Complex multiply (4 muls + 2 adds).
        double Re = ops::sub<Counted>(ops::mul<Counted>(XC[I].real(),
                                                        H[I].real()),
                                      ops::mul<Counted>(XC[I].imag(),
                                                        H[I].imag()));
        double Im = ops::add<Counted>(ops::mul<Counted>(XC[I].real(),
                                                        H[I].imag()),
                                      ops::mul<Counted>(XC[I].imag(),
                                                        H[I].real()));
        YC[I] = Complex(Re, Im);
      }
      simpleFFT(YC, true);
      for (size_t I = 0; I != N; ++I)
        YCols[static_cast<size_t>(J)][I] = YC[I].real();
    }
  }

  /// Hands the m complete outputs y[i+e-1] + b to \p Push.
  template <bool Counted, typename PushFn> void emitFull(PushFn &Push) {
    for (int I = 0; I != M; ++I)
      for (int J = 0; J != U; ++J)
        Push(ops::add<Counted>(
            YCols[static_cast<size_t>(J)][static_cast<size_t>(I + E - 1)],
            Offsets[static_cast<size_t>(J)]));
  }

  HashDigest Content;
  int E;
  int U;
  bool Optimized;
  FFTTier Tier;
  size_t N;
  int M;
  int R;
  Vector Offsets;
  std::shared_ptr<const FFTPlan> Plan; ///< shared by every clone
  std::vector<std::vector<double>> HReal;
  std::vector<std::vector<Complex>> HCplx;
  std::vector<double> Window; ///< the tape path's gathered peek window
  std::vector<double> XBuf, XF, YF;
  std::vector<Complex> Scratch; ///< the plan's real-path staging
  std::vector<Complex> XC, YC;
  std::vector<std::vector<double>> YCols;
  std::vector<double> Partials; ///< U x (E-1)
};

/// The decimator of Transformation 5: keeps the u outputs of the first of
/// every o sliding positions.
std::unique_ptr<Filter> makeDecimatorFilter(int O, int U,
                                            const std::string &Name) {
  using namespace slin::wir;
  using namespace slin::wir::build;
  StmtList Body;
  Body.push_back(loop("i", cst(0), cst(U), stmts(push(pop()))));
  Body.push_back(loop("i", cst(0), cst(U * (O - 1)), stmts(popStmt())));
  WorkFunction W(U * O, U * O, U, std::move(Body));
  return std::make_unique<Filter>(Name, std::vector<wir::FieldDef>{},
                                  std::move(W));
}

} // namespace

void slin::registerFrequencyNativeSerialization() {
  registerNativeFilterFactory(
      "freq", [](serial::Reader &R) { return FreqFilterNative::deserialize(R); });
}

bool slin::canConvertToFrequency(const LinearNode &N,
                                 const FrequencyOptions &Opts) {
  if (N.pushRate() < 1 || N.peekRate() < 1)
    return false;
  if (N.popRate() > Opts.PopLimit)
    return false;
  if (Opts.FFTSizeOverride &&
      (!isPowerOfTwo(static_cast<size_t>(Opts.FFTSizeOverride)) ||
       Opts.FFTSizeOverride < 2 * N.peekRate()))
    return false;
  // Bound the FFT size so channel buffers stay reasonable.
  return N.peekRate() <= (1 << 13);
}

StreamPtr slin::makeFrequencyStream(const LinearNode &N,
                                    const std::string &Name,
                                    const FrequencyOptions &Opts) {
  assert(canConvertToFrequency(N, Opts) && "node not convertible");
  auto P = std::make_unique<Pipeline>(Name);
  P->add(std::make_unique<Filter>(Name + ".fft",
                                  std::make_unique<FreqFilterNative>(N, Opts)));
  if (N.popRate() > 1)
    P->add(makeDecimatorFilter(N.popRate(), N.pushRate(), Name + ".decimate"));
  return P;
}

double slin::theoreticalFreqMultsPerOutput(int E, int FFTSize) {
  double N = FFTSize;
  double LgN = std::log2(N);
  double M = N - 2.0 * E + 1.0;
  assert(M >= 1.0 && "FFT size too small");
  // Forward + inverse real FFT at (N/2)lg N multiplies each, plus ~2N for
  // the half-complex pointwise product, amortized over m outputs.
  return (N * LgN + 2.0 * N) / M;
}

//===----------------------------------------------------------------------===//
// Replacement pass
//===----------------------------------------------------------------------===//

namespace {

class FrequencyReplacer {
public:
  FrequencyReplacer(const LinearAnalysis &LA, bool Combine,
                    const FrequencyOptions &Opts)
      : LA(LA), Combine(Combine), Opts(Opts) {}

  StreamPtr rewrite(const Stream &S) {
    // Frequency implementations buffer whole blocks (r = m+e-1 items),
    // which raises latency beyond what a feedback loop's enqueued items
    // can cover: never convert inside a feedbackloop.
    const LinearNode *N =
        !InFeedbackLoop && (Combine || S.kind() == StreamKind::Filter)
            ? LA.nodeFor(S)
            : nullptr;
    if (N && canConvertToFrequency(*N, Opts))
      return makeFrequencyStream(*N, S.name() + "_freq", Opts);

    switch (S.kind()) {
    case StreamKind::Filter:
      return S.clone();
    case StreamKind::Pipeline:
      return rewritePipeline(*cast<Pipeline>(&S));
    case StreamKind::SplitJoin: {
      const auto *SJ = cast<SplitJoin>(&S);
      auto Out = std::make_unique<SplitJoin>(SJ->name(), SJ->splitter(),
                                             SJ->joiner());
      for (const StreamPtr &C : SJ->children())
        Out->add(rewrite(*C));
      return Out;
    }
    case StreamKind::FeedbackLoop: {
      const auto *FB = cast<FeedbackLoop>(&S);
      bool Saved = InFeedbackLoop;
      InFeedbackLoop = true;
      auto Out = std::make_unique<FeedbackLoop>(
          FB->name(), FB->joiner(), rewrite(FB->body()), rewrite(FB->loop()),
          FB->splitter(), FB->enqueued());
      InFeedbackLoop = Saved;
      return Out;
    }
    }
    unreachable("unknown stream kind");
  }

private:
  StreamPtr rewritePipeline(const Pipeline &P) {
    auto Out = std::make_unique<Pipeline>(P.name());
    const auto &Children = P.children();
    size_t I = 0;
    while (I != Children.size()) {
      const LinearNode *N =
          Combine && !InFeedbackLoop ? LA.nodeFor(*Children[I]) : nullptr;
      if (!N) {
        Out->add(rewrite(*Children[I]));
        ++I;
        continue;
      }
      // Maximal linear run; convert the folded node if possible, else
      // fall back to per-child handling.
      std::vector<const LinearNode *> Run = {N};
      size_t End = I + 1;
      while (End != Children.size()) {
        const LinearNode *M = LA.nodeFor(*Children[End]);
        if (!M)
          break;
        Run.push_back(M);
        ++End;
      }
      LinearNode Folded = Run.size() == 1 ? *Run.front() : foldRun(Run);
      if (canConvertToFrequency(Folded, Opts)) {
        Out->add(makeFrequencyStream(
            Folded, P.name() + "_freq" + std::to_string(I), Opts));
        I = End;
        continue;
      }
      for (size_t K = I; K != End; ++K)
        Out->add(rewrite(*Children[K]));
      I = End;
    }
    return Out;
  }

  static LinearNode foldRun(const std::vector<const LinearNode *> &Run) {
    LinearNode Acc = *Run.front();
    for (size_t I = 1; I != Run.size(); ++I)
      Acc = combinePipeline(Acc, *Run[I]);
    return Acc;
  }

  const LinearAnalysis &LA;
  bool Combine;
  FrequencyOptions Opts;
  bool InFeedbackLoop = false;
};

} // namespace

StreamPtr slin::replaceFrequency(const Stream &Root, bool Combine,
                                 const FrequencyOptions &Opts) {
  LinearAnalysis LA(Root);
  return replaceFrequency(Root, LA, Combine, Opts);
}

StreamPtr slin::replaceFrequency(const Stream &Root, const LinearAnalysis &LA,
                                 bool Combine, const FrequencyOptions &Opts) {
  return FrequencyReplacer(LA, Combine, Opts).rewrite(Root);
}
