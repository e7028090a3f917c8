//===- service/Protocol.cpp - Service wire protocol -----------------------===//
///
/// \file
/// Payload encoding/decoding and EINTR-immune frame I/O behind
/// service/Protocol.h.
///
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace slin;
using namespace slin::service;
using namespace slin::serial;

namespace {

Status corrupt(const char *What) {
  return Status(ErrorCode::Corrupt, std::string("malformed frame: ") + What);
}

bool validKind(uint8_t K) {
  return K >= static_cast<uint8_t>(MsgKind::Ping) &&
         K <= static_cast<uint8_t>(MsgKind::Shutdown);
}

void writeStatus(Writer &W, const Status &St) {
  W.u8(static_cast<uint8_t>(St.code()));
  W.str(St.message());
}

Status readStatus(Reader &R) {
  uint8_t Code = R.u8();
  std::string Msg = R.str();
  if (!R.ok() || Code > static_cast<uint8_t>(ErrorCode::Internal))
    return corrupt("status");
  if (Code == static_cast<uint8_t>(ErrorCode::Ok))
    return Status::ok();
  // A non-Ok code with an empty message is still representable.
  return Status(static_cast<ErrorCode>(Code),
                Msg.empty() ? "(no message)" : Msg);
}

} // namespace

void service::encodeRequest(Writer &W, const Request &R) {
  W.u8(static_cast<uint8_t>(R.Kind));
  if (R.Kind != MsgKind::Run)
    return;
  W.str(R.Run.Graph);
  W.u8(static_cast<uint8_t>(R.Run.Eng));
  W.boolean(R.Run.Latency);
  W.u32(R.Run.NOutputs);
  W.i64(R.Run.DeadlineMillis);
  W.boolean(R.Run.CountOps);
  W.f64s(R.Run.Input);
  W.boolean(R.Run.Shard);
}

Expected<Request> service::decodeRequest(const std::vector<uint8_t> &Payload) {
  Reader R(Payload);
  Request Req;
  uint8_t Kind = R.u8();
  if (!R.ok() || !validKind(Kind))
    return corrupt("request kind");
  Req.Kind = static_cast<MsgKind>(Kind);
  if (Req.Kind == MsgKind::Run) {
    Req.Run.Graph = R.str();
    uint8_t Eng = R.u8();
    if (Eng > static_cast<uint8_t>(Engine::Native))
      return corrupt("engine");
    Req.Run.Eng = static_cast<Engine>(Eng);
    Req.Run.Latency = R.boolean();
    Req.Run.NOutputs = R.u32();
    Req.Run.DeadlineMillis = R.i64();
    Req.Run.CountOps = R.boolean();
    Req.Run.Input = R.f64s();
    Req.Run.Shard = R.boolean();
  }
  if (!R.ok() || !R.atEnd())
    return corrupt("request payload");
  return Req;
}

void service::encodeResponse(Writer &W, const Response &R) {
  W.u8(static_cast<uint8_t>(R.Kind));
  writeStatus(W, R.St);
  switch (R.Kind) {
  case MsgKind::Run:
    writeStatus(W, R.Run.St);
    W.boolean(R.Run.Degraded);
    W.str(R.Run.DegradeReason);
    W.f64s(R.Run.Outputs);
    W.u64(R.Run.Flops);
    W.f64(R.Run.ServerSeconds);
    W.f64(R.Run.FirstOutputSeconds);
    return;
  case MsgKind::Stats:
    W.u32(static_cast<uint32_t>(R.Counters.size()));
    for (const auto &KV : R.Counters) {
      W.str(KV.first);
      W.u64(KV.second);
    }
    return;
  case MsgKind::ListGraphs:
    W.strs(R.Graphs);
    return;
  case MsgKind::Ping:
  case MsgKind::Shutdown:
    return;
  }
}

Expected<Response> service::decodeResponse(const std::vector<uint8_t> &Payload) {
  Reader R(Payload);
  Response Resp;
  uint8_t Kind = R.u8();
  if (!R.ok() || !validKind(Kind))
    return corrupt("response kind");
  Resp.Kind = static_cast<MsgKind>(Kind);
  {
    Status St = readStatus(R);
    if (!R.ok())
      return corrupt("response status");
    Resp.St = St;
  }
  switch (Resp.Kind) {
  case MsgKind::Run: {
    Status St = readStatus(R);
    if (!R.ok())
      return corrupt("run status");
    Resp.Run.St = St;
    Resp.Run.Degraded = R.boolean();
    Resp.Run.DegradeReason = R.str();
    Resp.Run.Outputs = R.f64s();
    Resp.Run.Flops = R.u64();
    Resp.Run.ServerSeconds = R.f64();
    Resp.Run.FirstOutputSeconds = R.f64();
    break;
  }
  case MsgKind::Stats: {
    uint32_t N = R.u32();
    // Count sanity against the remaining bytes: each entry is at least
    // a 4-byte name length plus an 8-byte value.
    if (!R.ok() || N > R.remaining() / 12)
      return corrupt("stats count");
    Resp.Counters.reserve(N);
    for (uint32_t I = 0; I != N && R.ok(); ++I) {
      std::string Name = R.str();
      uint64_t Value = R.u64();
      Resp.Counters.emplace_back(std::move(Name), Value);
    }
    break;
  }
  case MsgKind::ListGraphs:
    Resp.Graphs = R.strs();
    break;
  case MsgKind::Ping:
  case MsgKind::Shutdown:
    break;
  }
  if (!R.ok() || !R.atEnd())
    return corrupt("response payload");
  return Resp;
}

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

namespace {

/// Full read of \p Size bytes. Returns 0 on success, -1 on clean EOF
/// before the first byte, -2 on mid-read EOF, or a positive errno.
int readFully(int Fd, uint8_t *Data, size_t Size) {
  size_t Got = 0;
  while (Got < Size) {
    ssize_t N = ::read(Fd, Data + Got, Size - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno;
    }
    if (N == 0)
      return Got == 0 ? -1 : -2;
    Got += static_cast<size_t>(N);
  }
  return 0;
}

int writeFully(int Fd, const uint8_t *Data, size_t Size) {
  while (Size > 0) {
    ssize_t N = ::write(Fd, Data, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno;
    }
    Data += N;
    Size -= static_cast<size_t>(N);
  }
  return 0;
}

} // namespace

Status service::writeFrame(int Fd, const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return Status(ErrorCode::Internal, "frame exceeds MaxFrameBytes");
  uint8_t Len[4];
  uint32_t N = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I != 4; ++I)
    Len[I] = static_cast<uint8_t>(N >> (8 * I));
  if (int E = writeFully(Fd, Len, sizeof(Len)))
    return Status(ErrorCode::IoError,
                  std::string("frame write: ") + std::strerror(E));
  if (N)
    if (int E = writeFully(Fd, Payload.data(), Payload.size()))
      return Status(ErrorCode::IoError,
                    std::string("frame write: ") + std::strerror(E));
  return Status::ok();
}

Status service::readFrame(int Fd, std::vector<uint8_t> &Payload,
                          bool *Closed) {
  if (Closed)
    *Closed = false;
  uint8_t Len[4];
  int E = readFully(Fd, Len, sizeof(Len));
  if (E == -1) {
    if (Closed)
      *Closed = true;
    return Status(ErrorCode::IoError, "connection closed");
  }
  if (E)
    return Status(ErrorCode::IoError,
                  E == -2 ? "truncated frame header"
                          : std::string("frame read: ") + std::strerror(E));
  uint32_t N = 0;
  for (int I = 0; I != 4; ++I)
    N |= static_cast<uint32_t>(Len[I]) << (8 * I);
  if (N > MaxFrameBytes)
    return Status(ErrorCode::Corrupt,
                  "frame length " + std::to_string(N) +
                      " exceeds the protocol maximum");
  Payload.resize(N);
  if (N) {
    E = readFully(Fd, Payload.data(), N);
    if (E)
      return Status(ErrorCode::IoError,
                    E < 0 ? "truncated frame"
                          : std::string("frame read: ") + std::strerror(E));
  }
  return Status::ok();
}
