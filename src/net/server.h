#ifndef SPER_NET_SERVER_H_
#define SPER_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/status.h"
#include "core/thread_annotations.h"
#include "engine/resolver.h"
#include "net/socket.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "serving/qos.h"

/// \file server.h
/// The socket front-end over Resolver::Serve + QoS: a Server listens on a
/// TCP endpoint, speaks the net/wire.h protocol, and funnels every remote
/// ResolveRequest through one QosAdmissionController into the Resolver —
/// so remote clients get exactly the serving semantics in-process callers
/// get (ticketed FIFO admission, priority lanes, rate limiting, shedding
/// with retry_after_ms, deadline enforcement), and concatenating the
/// slices any set of connections received, re-sorted by ticket, is
/// bit-identical to one un-batched in-process drain.
///
/// Threading model: one acceptor thread polls the listening socket, and
/// each accepted connection gets its own blocking reader/writer thread
/// (thread-per-connection — the protocol is strict request/response per
/// connection, concurrency comes from many connections, and the QoS
/// controller serializes dispatch anyway, so an event loop would buy
/// nothing but complexity). All shared state is either behind sper::Mutex
/// (the connection table, the stopping flag) or atomic (ServerStats), so
/// the server runs clean under TSan and thread-safety analysis.
///
/// Per-connection protocol loop:
///   - a well-framed kResolveRequest that decodes + validates is served:
///     `client_id` 0 (anonymous) is replaced by the connection's own id so
///     per-client QoS still applies per connection; `max_batch` 0
///     (uncapped) is clamped to ResolveRequest::kMaxBatch so the response
///     always fits one frame;
///   - a well-framed kResolveRequest that fails decode/validation gets a
///     polite kResolveResult{kRejected, InvalidArgument} reply and the
///     connection stays open;
///   - a framing-level error (bad length, foreign version, unknown or
///     unexpected frame type) means the byte stream can no longer be
///     trusted: the connection is closed (counted in protocol_errors);
///   - kMetricsRequest returns the live obs::Registry stable-JSON
///     snapshot (schema "sper.metrics.v1"), or "{}" without a registry.
///
/// Graceful drain: Shutdown() (idempotent; also the SIGTERM path in
/// `sper_cli serve`) stops accepting, shuts down the read half of every
/// live connection — in-flight responses still flush, blocked reads wake
/// at a frame boundary — joins every connection thread, then calls
/// Resolver::Drain() so the engine quiesces. A request mid-serve during
/// Shutdown completes and its response is written before the close.
///
/// Fault seams (obs/fault_injection.h): "net.accept" after each accepted
/// connection (a thrown fault drops that connection before serving),
/// "net.read" before each frame read and "net.write" before each frame
/// write (a thrown fault acts as that peer disconnecting). A fault on one
/// connection never poisons the resolver or any other connection's
/// stream.

namespace sper {
namespace net {

/// Construction-time configuration of a Server.
struct ServerOptions {
  /// Endpoint to bind. Port 0 binds an ephemeral port; read the real one
  /// back with Server::port().
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// listen(2) backlog.
  int backlog = 64;

  /// Connections served concurrently; an accept beyond this is closed
  /// immediately (counted in connections_rejected). 0 = unbounded.
  std::size_t max_connections = 64;

  /// Admission control applied to every remote request. Must Validate().
  serving::QosOptions qos;

  /// Metric sink for the net.* counters/gauges/histograms and the
  /// "request" span. Usually shares the registry below.
  obs::TelemetryScope telemetry;

  /// Registry served by the kMetricsRequest admin frame. Falls back to
  /// telemetry's registry; "{}" when neither is set.
  obs::Registry* metrics_registry = nullptr;
};

/// Monotonic counters, readable at any time (atomics — available with
/// telemetry off; the net.* metrics mirror them).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  // over max_connections / fault
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;   // including length prefixes
  std::uint64_t bytes_out = 0;  // including length prefixes
  std::uint64_t requests_served = 0;   // resolve requests dispatched to QoS
  std::uint64_t requests_rejected = 0;  // polite invalid-request replies
  std::uint64_t read_errors = 0;
  std::uint64_t write_errors = 0;
  std::uint64_t protocol_errors = 0;  // framing errors that closed a conn
};

class Server {
 public:
  /// Binds, listens and starts the acceptor. The resolver must outlive
  /// the server. `options.qos` must Validate() (SPER_CHECK-enforced, as
  /// in QosAdmissionController).
  static Result<std::unique_ptr<Server>> Start(Resolver& resolver,
                                               ServerOptions options);

  /// Stops accepting, drains in-flight requests, joins every thread and
  /// calls Resolver::Drain(). Idempotent; also run by the destructor.
  void Shutdown();

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the real one when options.port was 0).
  std::uint16_t port() const { return port_; }

  ServerStats stats() const;

  /// The admission controller remote requests flow through (tests read
  /// its per-class stats).
  const serving::QosAdmissionController& qos() const { return *qos_; }

 private:
  /// One accepted connection: the socket, its serving thread, and a done
  /// flag the acceptor uses to reap finished threads between accepts.
  struct Connection {
    Socket socket;
    std::uint64_t id = 0;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  Server(Resolver& resolver, ServerOptions options);

  void AcceptLoop();
  /// Joins and discards connections whose threads have finished.
  void ReapFinished();
  /// Runs ServeConnection and flags completion; a thrown injected fault
  /// is contained here as a disconnect.
  void ConnectionMain(Connection* conn);
  /// The per-connection protocol loop (see the file comment).
  void ServeConnection(Connection& conn);
  /// Serves one decoded-or-not resolve request payload; returns the
  /// response frame.
  std::string HandleResolveFrame(const Connection& conn,
                                 std::string_view payload);
  /// The kMetricsRequest snapshot ("{}" without a registry).
  std::string MetricsJson() const;
  /// Pokes the acceptor's poll (non-blocking write to the wake pipe).
  void WakeAcceptor();

  Resolver& resolver_;
  const ServerOptions options_;
  std::unique_ptr<serving::QosAdmissionController> qos_;

  Socket listen_socket_;
  std::uint16_t port_ = 0;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::thread acceptor_;
  /// Set once in Start() after the acceptor launches; a server that never
  /// started (failed bind) must not drain the caller's resolver.
  bool started_ = false;

  mutable Mutex mutex_;
  CondVar shutdown_cv_;
  bool stopping_ SPER_GUARDED_BY(mutex_) = false;
  bool drained_ SPER_GUARDED_BY(mutex_) = false;
  std::uint64_t next_connection_id_ SPER_GUARDED_BY(mutex_) = 1;
  std::vector<std::unique_ptr<Connection>> connections_
      SPER_GUARDED_BY(mutex_);

  /// stats() sources (atomics: written from acceptor + connection
  /// threads, read from anywhere).
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> read_errors_{0};
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};

  /// Metric mirrors (nullptr when telemetry is disabled).
  obs::Counter* connections_metric_ = nullptr;
  obs::Counter* frames_in_metric_ = nullptr;
  obs::Counter* frames_out_metric_ = nullptr;
  obs::Counter* bytes_in_metric_ = nullptr;
  obs::Counter* bytes_out_metric_ = nullptr;
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* read_errors_metric_ = nullptr;
  obs::Counter* write_errors_metric_ = nullptr;
  obs::Counter* protocol_errors_metric_ = nullptr;
  obs::Gauge* active_connections_metric_ = nullptr;
  obs::Histogram* request_ns_metric_ = nullptr;
};

}  // namespace net
}  // namespace sper

#endif  // SPER_NET_SERVER_H_
