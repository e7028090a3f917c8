//===- service/Protocol.h - Service wire protocol ---------------*- C++ -*-===//
///
/// \file
/// The stream service's wire protocol: length-prefixed binary frames
/// over a Unix or TCP socket, encoded with the same endian-stable
/// Writer/Reader the artifact format uses (support/Serialize.h) — the
/// Reader's untrusted-input discipline (bounds-checked reads, latched
/// failure, trailing-garbage rejection) is exactly what a network
/// daemon needs.
///
/// Framing: a `u32` little-endian payload length, then the payload.
/// A frame larger than `MaxFrameBytes` is a protocol error (the
/// connection is closed) — a length prefix must never size an
/// allocation unchecked.
///
/// Requests (client -> server), tagged by a leading `MsgKind` byte:
///   Ping                  liveness probe, empty payload
///   Run                   graph name, engine (dynamic, compiled or
///                         native), latency flag, output count,
///                         deadline, count-ops flag, input items, shard
///                         flag
///   Stats                 empty; answers the unified counter snapshot
///   ListGraphs            empty; answers the serving-set names
///   Shutdown              asks the daemon to exit its serve loop
///
/// Responses echo the request kind, then carry a Status (code byte +
/// message) and the kind-specific payload. Every outcome — timeout,
/// deadlock, overload, degradation — is a *reply*, never a dropped
/// connection: containment is the service's whole contract.
///
/// A client asks for sharding with one flag and names an engine and an
/// output count, never shard counts or iteration spans: the server's
/// program options fix the worker count, and state composition (Hou et
/// al.) keeps a sharded run's outputs equal to a sequential one's.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_PROTOCOL_H
#define SLIN_SERVICE_PROTOCOL_H

#include "exec/Engine.h"
#include "support/Error.h"
#include "support/Serialize.h"
#include "support/StatsRegistry.h"

#include <cstdint>
#include <string>
#include <vector>

namespace slin {
namespace service {

/// Upper bound on any frame's payload (requests carry input samples,
/// responses carry outputs; 16 MiB is orders of magnitude above both).
constexpr uint32_t MaxFrameBytes = 16u << 20;

enum class MsgKind : uint8_t {
  Ping = 1,
  Run = 2,
  Stats = 3,
  ListGraphs = 4,
  Shutdown = 5,
};

struct RunRequest {
  std::string Graph;              ///< serving-set name (apps registry)
  Engine Eng = Engine::Compiled;  ///< Compiled / Native (Dynamic: Compiled)
  bool Latency = false;           ///< single-iteration firing
  uint32_t NOutputs = 0;          ///< 0: the server's default window
  int64_t DeadlineMillis = 0;     ///< 0: the server's default deadline
  bool CountOps = false;          ///< report FLOPs (adds overhead)
  std::vector<double> Input;      ///< external input items (often empty)
  bool Shard = false;             ///< split steady iterations over workers
};

/// A decoded request: the kind tag plus the Run payload when Kind is
/// Run (the other kinds have empty payloads).
struct Request {
  MsgKind Kind = MsgKind::Ping;
  RunRequest Run;
};

struct RunResponse {
  Status St;                  ///< non-Ok: Outputs are absent/meaningless
  bool Degraded = false;      ///< served on a lower rung than requested
  std::string DegradeReason;
  std::vector<double> Outputs;
  uint64_t Flops = 0;             ///< when CountOps was set
  double ServerSeconds = 0.0;     ///< run wall-clock (queueing excluded)
  double FirstOutputSeconds = 0.0; ///< latency mode: time to first output
};

/// A decoded response: kind echo, overall status, and the payload for
/// the echoed kind.
struct Response {
  MsgKind Kind = MsgKind::Ping;
  Status St;
  RunResponse Run;                   ///< Kind == Run
  StatsRegistry::Counters Counters;  ///< Kind == Stats
  std::vector<std::string> Graphs;   ///< Kind == ListGraphs
};

//===----------------------------------------------------------------------===//
// Payload encode/decode
//===----------------------------------------------------------------------===//

void encodeRequest(serial::Writer &W, const Request &R);
void encodeResponse(serial::Writer &W, const Response &R);

/// Decodes one request payload. Malformed bytes (unknown kind, bad
/// engine, truncation, trailing garbage) come back as
/// ErrorCode::Corrupt.
Expected<Request> decodeRequest(const std::vector<uint8_t> &Payload);
Expected<Response> decodeResponse(const std::vector<uint8_t> &Payload);

//===----------------------------------------------------------------------===//
// Frame I/O
//===----------------------------------------------------------------------===//

/// Writes one length-prefixed frame. EINTR-immune; any other write
/// failure is an IoError.
Status writeFrame(int Fd, const std::vector<uint8_t> &Payload);

/// Reads one length-prefixed frame into \p Payload. A peer that closed
/// cleanly *between* frames sets \p *Closed (when provided) alongside
/// the non-Ok status; mid-frame EOF, oversize lengths and read errors
/// are plain protocol/IO failures.
Status readFrame(int Fd, std::vector<uint8_t> &Payload,
                 bool *Closed = nullptr);

} // namespace service
} // namespace slin

#endif // SLIN_SERVICE_PROTOCOL_H
