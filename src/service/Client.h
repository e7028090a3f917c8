//===- service/Client.h - Blocking service client ---------------*- C++ -*-===//
///
/// \file
/// The client half of the service protocol: a move-only connection
/// wrapper with one blocking method per request kind. Used by the
/// slin-service-client tool, perfbench's serve workload (the load
/// generator) and the service tests; anything that can open a socket
/// and speak the frame format (service/Protocol.h) interoperates.
///
/// Every method is strict about the reply: a response whose kind does
/// not echo the request, or whose payload fails the bounds-checked
/// decode, comes back as ErrorCode::Corrupt — a confused server is
/// treated exactly like a corrupt artifact.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_CLIENT_H
#define SLIN_SERVICE_CLIENT_H

#include "service/Protocol.h"
#include "support/Error.h"
#include "support/StatsRegistry.h"

#include <string>
#include <vector>

namespace slin {
namespace service {

class Client {
public:
  /// Connects to a daemon's Unix-domain socket / loopback TCP port.
  static Expected<Client> connectUnix(const std::string &Path);
  static Expected<Client> connectTcp(int Port);

  Client(Client &&O) noexcept : Fd(O.Fd) { O.Fd = -1; }
  Client &operator=(Client &&O) noexcept;
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  ~Client();

  /// Liveness round-trip.
  Status ping();

  /// Executes \p R on the server. A non-Ok *return* is a transport or
  /// protocol failure; the run's own outcome (timeout, overload,
  /// degradation) is inside the RunResponse.
  Expected<RunResponse> run(const RunRequest &R);

  /// The server's unified counter snapshot (StatsRegistry names).
  Expected<StatsRegistry::Counters> stats();

  /// The serving-set graph names.
  Expected<std::vector<std::string>> listGraphs();

  /// Asks the daemon to exit its serve loop (acknowledged first).
  Status shutdownServer();

private:
  explicit Client(int Fd) : Fd(Fd) {}
  Expected<Response> roundTrip(const Request &Req);

  int Fd = -1;
};

} // namespace service
} // namespace slin

#endif // SLIN_SERVICE_CLIENT_H
