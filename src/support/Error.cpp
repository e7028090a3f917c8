//===- support/Error.cpp - Recoverable status and Expected -------------------==//

#include "support/Error.h"

#include "support/Diag.h"

using namespace slin;

const char *slin::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::IoError:
    return "io-error";
  case ErrorCode::NoSpace:
    return "no-space";
  case ErrorCode::Corrupt:
    return "corrupt";
  case ErrorCode::Unserializable:
    return "unserializable";
  case ErrorCode::VerifyFailed:
    return "verify-failed";
  case ErrorCode::RateError:
    return "rate-error";
  case ErrorCode::Deadlock:
    return "deadlock";
  case ErrorCode::Timeout:
    return "timeout";
  case ErrorCode::Cancelled:
    return "cancelled";
  case ErrorCode::ShardAnomaly:
    return "shard-anomaly";
  case ErrorCode::Overloaded:
    return "overloaded";
  case ErrorCode::Internal:
    return "internal";
  }
  unreachable("unknown error code");
}

void Status::orDie() const {
  if (!isOk())
    fatalError(str());
}
