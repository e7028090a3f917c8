//===- support/Error.h - Recoverable status and Expected --------*- C++ -*-===//
///
/// \file
/// The recoverable-error layer. Historically every failure in this
/// library went through support/Diag.h's fatalError — print and abort —
/// which is the right policy for programmer errors (malformed graphs
/// built by hand, violated invariants) but the wrong one for a serving
/// process: disk full, a corrupt artifact, a tripped verifier or an
/// exhausted input stream must degrade, not die. Status and Expected<T>
/// carry those failures to a caller that can choose a fallback:
///
///   * `Status`: an error code plus a human-readable context chain
///     ("load artifact: read header: short read"). The empty (Ok)
///     status is cheap to pass around and test.
///   * `Expected<T>`: a T or the Status explaining its absence.
///
/// Policy (see README "Error handling"): every fallible operation has
/// one entry point, and it returns Status/Expected — the executors'
/// tryRun*, tryComputeRates/tryChildRepetitions,
/// ArtifactStore::tryStore/tryLoad, CompilerPipeline::tryCompile. None
/// of them aborts. A caller for whom a failure is an invariant
/// violation (a hand-built graph that must have a steady state, a test
/// fixture that must run) says so with `.orDie()`, the one bridge to
/// support/Diag.h's fatalError. CompilerPipeline::compile is not a twin
/// of tryCompile: it runs a different policy (no Base-mode recompile)
/// and ends in orDie().
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SUPPORT_ERROR_H
#define SLIN_SUPPORT_ERROR_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace slin {

/// Coarse classification of a recoverable failure; the message string
/// carries the specifics. Codes exist so degradation policies can
/// branch (e.g. retry NoSpace after eviction, recompile in Base mode on
/// VerifyFailed) without parsing text.
enum class ErrorCode {
  Ok = 0,
  IoError,        ///< open/read/write/rename/fsync failure
  NoSpace,        ///< ENOSPC (retryable after eviction)
  Corrupt,        ///< malformed or checksum-failing persisted bytes
  Unserializable, ///< program holds a native filter without a serialTag
  VerifyFailed,   ///< rate/schedule verifier mismatch after a pass
  RateError,      ///< no valid steady state (balance equations)
  Deadlock,       ///< execution cannot make progress (input shortfall)
  Timeout,        ///< run deadline expired
  Cancelled,      ///< cancellation token fired
  ShardAnomaly,   ///< parallel shard seeding failed validation
  Overloaded,     ///< service admission refused: queue depth exceeded
  Internal,       ///< none of the above; message has the story
};

const char *errorCodeName(ErrorCode C);

/// An error code plus a context chain, or Ok. Modeled after
/// absl::Status, sized for a codebase that mostly succeeds: the Ok
/// status is two words and no allocation.
class Status {
public:
  Status() = default;
  Status(ErrorCode C, std::string Message)
      : Code(C), Msg(std::move(Message)) {
    assert(C != ErrorCode::Ok && "Ok status carries no message");
  }

  static Status ok() { return Status(); }

  bool isOk() const { return Code == ErrorCode::Ok; }
  explicit operator bool() const { return isOk(); }

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Msg; }

  /// Prepends a caller-side frame to the context chain:
  /// Status(IoError, "short read").withContext("load artifact")
  /// renders as "load artifact: short read".
  Status withContext(const std::string &Frame) const {
    if (isOk())
      return *this;
    return Status(Code, Frame + ": " + Msg);
  }

  /// "io-error: load artifact: short read" (empty string when Ok).
  std::string str() const {
    if (isOk())
      return std::string();
    return std::string(errorCodeName(Code)) + ": " + Msg;
  }

  /// Aborts via fatalError(str()) unless Ok. The only place a failed
  /// Status turns fatal; the message keeps its text.
  void orDie() const;

private:
  ErrorCode Code = ErrorCode::Ok;
  std::string Msg;
};

/// A value or the Status explaining its absence. The minimal subset of
/// llvm::Expected this codebase needs; no exceptions, no heap jump.
template <class T> class Expected {
public:
  /*implicit*/ Expected(T Value) : Value(std::move(Value)) {}
  /*implicit*/ Expected(Status St) : St(std::move(St)) {
    assert(!this->St.isOk() && "error Expected needs a non-Ok status");
  }

  bool hasValue() const { return Value.has_value(); }
  explicit operator bool() const { return hasValue(); }

  T &operator*() {
    assert(hasValue());
    return *Value;
  }
  const T &operator*() const {
    assert(hasValue());
    return *Value;
  }
  T *operator->() {
    assert(hasValue());
    return &*Value;
  }
  const T *operator->() const {
    assert(hasValue());
    return &*Value;
  }

  /// The failure; Ok when a value is present.
  const Status &status() const { return St; }

  /// Moves the value out (the usual "checked, now take it" step).
  T take() {
    assert(hasValue());
    return std::move(*Value);
  }

  /// The value, or fatalError(status().str()) — see Status::orDie.
  T orDie() {
    St.orDie();
    return take();
  }

private:
  std::optional<T> Value;
  Status St;
};

} // namespace slin

#endif // SLIN_SUPPORT_ERROR_H
