#ifndef SPER_NET_CLIENT_H_
#define SPER_NET_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/status.h"
#include "engine/resolver.h"
#include "net/socket.h"

/// \file client.h
/// Blocking client for the net/server.h protocol: one connection, strict
/// request/response. Used by `sper_cli client`, perfbench's serve-wire
/// and the loopback tests; any other implementation that speaks
/// net/wire.h interoperates.
///
/// Error taxonomy a caller sees:
///   - transport failure (connect refused, server closed the connection,
///     malformed response frame): the Result carries an error Status and
///     the connection is dead — reconnect to continue;
///   - served-but-unsuccessful (kShed, kRejected, kDeadlineExpired, ...):
///     the Result is OK and carries the ResolveResult; inspect
///     `outcome`/`status` exactly as an in-process caller would. A kShed
///     result's retry_after_ms is the server's backoff hint —
///     ResolveWithRetry honors it automatically.

namespace sper {
namespace net {

class Client {
 public:
  /// Connects (blocking).
  static Result<Client> Connect(const std::string& host, std::uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One request/response round trip. Validates locally first
  /// (ValidateResolveRequest) so an unservable request fails fast without
  /// a network hop. The cancel token does not cross the wire — express
  /// remote cancellation as deadline_ms.
  Result<ResolveResult> Resolve(const ResolveRequest& request);

  /// Resolve, sleeping `retry_after_ms` and retrying while the server
  /// sheds — up to `max_retries` retries, then the last kShed result is
  /// returned as-is (OK Result; the caller sees outcome == kShed).
  Result<ResolveResult> ResolveWithRetry(const ResolveRequest& request,
                                         std::size_t max_retries = 16);

  /// Fetches the server's live metrics snapshot (stable JSON, schema
  /// "sper.metrics.v1"; "{}" when the server has no registry).
  Result<std::string> FetchMetricsJson();

  /// Closes the connection now (also on destruction).
  void Close() { socket_.Close(); }

  bool connected() const { return socket_.valid(); }

 private:
  explicit Client(Socket socket) : socket_(std::move(socket)) {}

  /// Sends one frame and reads one response payload. A clean server
  /// close mid-conversation is an IoError here: this protocol never
  /// half-finishes an exchange.
  Result<std::string> RoundTrip(const std::string& frame);

  Socket socket_;
};

}  // namespace net
}  // namespace sper

#endif  // SPER_NET_CLIENT_H_
