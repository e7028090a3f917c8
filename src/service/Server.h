//===- service/Server.h - Stream service daemon core ------------*- C++ -*-===//
///
/// \file
/// The long-lived serving loop: bind a Unix or loopback-TCP listener,
/// warm the admission layer's serving set, then accept connections and
/// serve each on its own session thread. The "compile once, serve many
/// users" endgame of the whole artifact stack — the pipeline compiles
/// (or prefetches) a graph once, and every subsequent request anywhere
/// on the machine runs the warm program on the session thread that read
/// it.
///
/// Lifecycle: `start()` warms and binds (non-Ok on any failure —
/// unknown serving-set graph, unbindable socket); `waitForShutdown()`
/// parks the caller until a client's Shutdown request or
/// `requestShutdown()` (signal handlers set an atomic and let the
/// poll-predicate observe it); `stop()` closes the listener, shuts
/// down live sessions and joins every thread. The destructor stops.
///
//===----------------------------------------------------------------------===//

#ifndef SLIN_SERVICE_SERVER_H
#define SLIN_SERVICE_SERVER_H

#include "service/Admission.h"
#include "support/Error.h"

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace slin {
namespace service {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path (any stale file
  /// there is replaced).
  std::string UnixPath;
  /// >= 0: listen on this loopback TCP port instead (0: ephemeral —
  /// read the resolved port back with tcpPort()). Loopback only; the
  /// daemon has no authentication story and must not face a network.
  int TcpPort = -1;
  ServiceConfig Service;
};

class Server {
public:
  explicit Server(ServerConfig Cfg);
  ~Server(); ///< stop()s if still running

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Warms the serving set, binds the listener and starts accepting.
  Status start();

  /// Closes the listener, shuts down every live session socket and
  /// joins all threads. Idempotent.
  void stop();

  /// Flags shutdown and wakes waitForShutdown(). Callable from any
  /// thread (sessions call it on a client Shutdown request) — but not
  /// from a signal handler; handlers should set an atomic and rely on
  /// waitForShutdown's poll predicate.
  void requestShutdown();

  /// Parks until requestShutdown() — or until \p AlsoStop (polled a
  /// few times a second, when provided) returns true.
  void waitForShutdown(const std::function<bool()> &AlsoStop = nullptr);

  /// The resolved TCP port (after start() with TcpPort >= 0), else -1.
  int tcpPort() const { return ResolvedPort; }

  Admission &admission() { return Adm; }

private:
  void acceptLoop();

  ServerConfig Cfg;
  Admission Adm;
  int ListenFd = -1;
  int ResolvedPort = -1;
  std::thread Acceptor;
  bool Started = false;

  std::mutex Mutex; ///< guards Sessions, SessionThreads, ShutdownFlag
  std::condition_variable ShutdownCv;
  bool ShutdownFlag = false;
  bool Stopping = false;
  std::vector<int> SessionFds;
  std::vector<std::thread> SessionThreads;
};

} // namespace service
} // namespace slin

#endif // SLIN_SERVICE_SERVER_H
