//===- compiler/StructuralHash.cpp - Stream subtree hashing ------------------==//

#include "compiler/StructuralHash.h"

#include "support/Diag.h"
#include "support/Serialize.h"
#include "wir/IRSerialize.h"

using namespace slin;

namespace {

// Distinct tags keep different node categories from colliding even when
// their payload words happen to coincide.
enum HashTag : uint64_t {
  TagFilter = 0x11,
  TagPipeline = 0x12,
  TagSplitJoin = 0x13,
  TagFeedback = 0x14,
  TagNativeContent = 0x15,
  TagNativeIdentity = 0x16,
  TagIRContent = 0x17,
  TagLinearNode = 0x41,
};

void hashWeights(HashStream &H, const std::vector<int> &W) {
  H.mix(W.size());
  for (int V : W)
    H.mixInt(V);
}

} // namespace

void slin::hashStream(HashStream &H, const Stream &S) {
  switch (S.kind()) {
  case StreamKind::Filter: {
    const auto *F = cast<Filter>(&S);
    H.mix(TagFilter);
    if (F->isNative()) {
      HashStream Content;
      if (F->native().hashContent(Content)) {
        H.mix(TagNativeContent);
        HashDigest D = Content.digest();
        H.mix(D.Lo);
        H.mix(D.Hi);
      } else {
        // No content hash: fall back to the filter's never-reused
        // instance id. Stable for the same filter object, unique across
        // objects (including a later allocation at the same address) —
        // persistent caches keyed on the enclosing digest never alias
        // distinct unhashable filters.
        H.mix(TagNativeIdentity);
        H.mix(F->native().instanceId());
      }
      return;
    }
    // The artifact store's encoding of the filter, name left out: the
    // hash covers exactly what a stored artifact would reproduce.
    serial::Writer W;
    wir::writeFilterBody(W, F->fields(), F->work(), F->initWork());
    HashDigest D = serial::hashBytes(W.bytes().data(), W.size());
    H.mix(TagIRContent);
    H.mix(D.Lo);
    H.mix(D.Hi);
    return;
  }
  case StreamKind::Pipeline: {
    const auto *P = cast<Pipeline>(&S);
    H.mix(TagPipeline);
    H.mix(P->children().size());
    for (const StreamPtr &C : P->children())
      hashStream(H, *C);
    return;
  }
  case StreamKind::SplitJoin: {
    const auto *SJ = cast<SplitJoin>(&S);
    H.mix(TagSplitJoin);
    H.mixInt(static_cast<int64_t>(SJ->splitter().Kind));
    hashWeights(H, SJ->splitter().Weights);
    hashWeights(H, SJ->joiner().Weights);
    H.mix(SJ->children().size());
    for (const StreamPtr &C : SJ->children())
      hashStream(H, *C);
    return;
  }
  case StreamKind::FeedbackLoop: {
    const auto *FB = cast<FeedbackLoop>(&S);
    H.mix(TagFeedback);
    hashWeights(H, FB->joiner().Weights);
    hashWeights(H, FB->splitter().Weights);
    H.mix(FB->enqueued().size());
    for (double V : FB->enqueued())
      H.mixDouble(V);
    hashStream(H, FB->body());
    hashStream(H, FB->loop());
    return;
  }
  }
  unreachable("unknown stream kind");
}

HashDigest slin::structuralHash(const Stream &S) {
  HashStream H;
  hashStream(H, S);
  return H.digest();
}

HashDigest slin::linearNodeHash(const LinearNode &N) {
  HashStream H;
  H.mix(TagLinearNode);
  H.mixInt(N.peekRate());
  H.mixInt(N.popRate());
  H.mixInt(N.pushRate());
  const Matrix &A = N.matrix();
  for (size_t R = 0; R != A.rows(); ++R) {
    const double *Row = A.rowData(R);
    for (size_t C = 0; C != A.cols(); ++C)
      H.mixDouble(Row[C]);
  }
  for (size_t I = 0; I != N.vector().size(); ++I)
    H.mixDouble(N.vector()[I]);
  return H.digest();
}
