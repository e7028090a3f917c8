//===- wir/IRSerialize.h - Work-IR binary encoding --------------*- C++ -*-===//
///
/// \file
/// The one binary encoding of the tree IR (wir/IR.h), in the
/// endian-stable layout of support/Serialize.h. The artifact store
/// (compiler/ArtifactStore.h) persists IR filters with it, and
/// structuralHash (compiler/StructuralHash.h) hashes the bytes it
/// writes, so what is cached and what keys the cache cannot drift apart.
/// Compiled op tapes have their own encoding, OpProgram::serialize.
///
/// Every node is written as its kind byte followed by its fields in
/// declaration order — names included, since a filter's variables and
/// fields are resolved by name on load. The readers treat their input
/// as untrusted: malformed or over-deep trees latch the Reader's failure
/// flag and return false, never crash.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_WIR_IRSERIALIZE_H
#define SLIN_WIR_IRSERIALIZE_H

#include "support/Serialize.h"
#include "wir/IR.h"

#include <optional>
#include <vector>

namespace slin {
namespace wir {

/// Recursion guard for untrusted trees (expressions nest, statements
/// nest through loops/ifs, streams through containers): deeper than any
/// real program.
constexpr int MaxTreeDepth = 256;

/// Everything of an IR filter but its name: the field list (name, array
/// and mutable flags, initializer each), the work function (three rates,
/// then the body), then the init work behind a presence flag.
void writeFilterBody(serial::Writer &W, const std::vector<FieldDef> &Fields,
                     const WorkFunction &Work, const WorkFunction *Init);
bool readFilterBody(serial::Reader &R, std::vector<FieldDef> &Fields,
                    WorkFunction &Work, std::optional<WorkFunction> &Init);

} // namespace wir
} // namespace slin

#endif // SLIN_WIR_IRSERIALIZE_H
