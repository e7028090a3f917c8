//===- compiler/StructuralHash.h - Stream subtree hashing -------*- C++ -*-===//
///
/// \file
/// Content hashing of stream subtrees and linear nodes, the key machinery
/// behind the hash-consed analysis cache (compiler/AnalysisManager.h) and
/// the compiled-program cache (compiler/Program.h). Two structurally
/// identical subtrees — same construct kinds, rates, work-function IR,
/// field initializers, splitter/joiner weights — hash to the same 128-bit
/// digest regardless of object identity or stream *names*, so a filter
/// rebuilt by a fresh `optimize()` call hash-conses onto artifacts
/// compiled for an earlier, structurally equal configuration.
///
/// An IR filter hashes as the bytes wir/IRSerialize.h writes for its
/// fields, work and init work — the artifact store's own encoding — so
/// any IR change the store would persist also changes the key. The
/// containers are walked here, mixing their kinds, weights and children.
///
/// Stream names are deliberately excluded: they carry no execution
/// semantics (the replacers generate fresh "<name>_linear"-style labels
/// on every run, which must not defeat caching). Variable and field
/// names inside the IR are part of its encoding and do count. Native
/// filters participate via NativeFilter::hashContent; a native filter
/// without a content hash makes the enclosing subtree hash by object
/// identity — unique, so the caches stay correct and merely miss.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_COMPILER_STRUCTURALHASH_H
#define SLIN_COMPILER_STRUCTURALHASH_H

#include "graph/Stream.h"
#include "linear/LinearNode.h"
#include "support/Hashing.h"

namespace slin {

/// Digest of a stream subtree (see file comment for what "structural"
/// includes and excludes).
HashDigest structuralHash(const Stream &S);

/// Mixes \p S's structure into an ongoing hash (for composite keys).
void hashStream(HashStream &H, const Stream &S);

/// Digest of a linear node's full content (rates, A, b) — the key under
/// which combination results are hash-consed.
HashDigest linearNodeHash(const LinearNode &N);

} // namespace slin

#endif // SLIN_COMPILER_STRUCTURALHASH_H
