// Client-side request helper with retry/backoff on backpressure.
//
// The scheduler sheds load by answering Unavailable (admission queue full,
// service draining); the polite client response is exponential backoff with
// jitter, not a hot retry loop. CallWithRetry implements exactly that and
// nothing more: transport errors (connection refused, broken frames) are
// NOT retried — they signal a dead or misbehaving daemon, and retrying
// cannot help within one process lifetime; callers that want
// restart-tolerance (crash harnesses) loop at their own level.
//
// What counts as retryable:
//   * a well-formed response with error code "Unavailable" — the daemon
//     definitively did NOT apply the request, so re-sending any verb is
//     safe;
//   * a response-read timeout (ReadFrame's Unavailable) — but ONLY for
//     verbs the table in service/verbs.h marks idempotent. The daemon is
//     alive and may well have applied the request before answering
//     slowly, so a timed-out INSERT must NOT be re-sent: the daemon could
//     have WAL-logged and applied it already, and a blind re-send
//     double-counts the transactions. Timeouts on non-idempotent verbs
//     surface as StatusCode::kIndeterminate — the at-most-once contract
//     (docs/SERVICE.md § "Client retries"): the caller must reconcile
//     (e.g. COUNT a sentinel) before re-sending.
//
// Jitter is deterministic (seeded LCG) so tests and the crash harness are
// reproducible; real clients pass a varying seed.

#ifndef BBSMINE_SERVICE_CLIENT_H_
#define BBSMINE_SERVICE_CLIENT_H_

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "service/verbs.h"
#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::service {

struct RetryOptions {
  /// Additional attempts after the first (0 = single shot).
  uint32_t retries = 0;
  /// Base backoff before attempt i is 2^(i-1) * backoff_ms, plus jitter in
  /// [0, base); base and the jittered sum are both capped at
  /// max_backoff_ms, so no sleep ever exceeds the configured maximum.
  uint32_t backoff_ms = 100;
  uint32_t max_backoff_ms = 5000;
  /// Per-attempt response timeout.
  int timeout_ms = 30'000;
  /// Seed of the deterministic jitter sequence.
  uint64_t jitter_seed = 1;
};

/// The backoff before retry attempt `attempt` (>= 1): exponential base
/// with deterministic jitter, clamped so base + jitter never exceeds
/// options.max_backoff_ms. Advances `jitter_state` (seed it from
/// options.jitter_seed). Exposed for the clamp regression test.
uint64_t RetryBackoffMs(const RetryOptions& options, uint32_t attempt,
                        uint64_t* jitter_state);

struct CallOutcome {
  obs::JsonValue response;
  /// Attempts made (1 = no retry needed).
  uint32_t attempts = 0;
  /// True when every attempt (retries exhausted) ended in backpressure;
  /// `response` then holds the final Unavailable error response.
  bool backpressure_exhausted = false;
};

/// A persistent client connection: connect once, issue many calls over the
/// same TCP stream. The session is lazy — the first Call (or a Call after
/// Close) reconnects — so one session object models "my link to that
/// daemon" across its whole lifetime. Move-only; not thread-safe (the
/// router keeps a pool and checks sessions out under a lock).
///
/// Stream hygiene: a response timeout or transport error closes the
/// socket. The daemon may still write the stale response later, and a
/// fresh request on the same stream would read it as its own answer;
/// reconnecting is the only safe resynchronization.
class ClientSession {
 public:
  /// A lazy session: no connection is made until the first Call.
  ClientSession(std::string host, uint16_t port)
      : host_(std::move(host)), port_(port) {}

  /// An eager session: fails fast when the daemon is unreachable.
  static Result<ClientSession> Connect(const std::string& host, uint16_t port);

  ClientSession(ClientSession&&) = default;
  ClientSession& operator=(ClientSession&&) = default;

  const std::string& host() const { return host_; }
  uint16_t port() const { return port_; }
  /// True once a socket exists (possibly with its handshake still under
  /// way after StartConnect).
  bool connected() const { return fd_.valid(); }
  void Close() {
    fd_.Reset();
    connecting_ = false;
  }

  /// The socket, for polling (-1 when closed).
  int fd() const { return fd_.get(); }

  /// One request/response exchange (no retries): Send, then Receive.
  /// Reconnects first when the session is closed. Errors:
  ///  * kUnavailable — the connect timed out, or the request was fully
  ///    sent but no response arrived within `timeout_ms` (the socket is
  ///    closed; whether the daemon applied the request is unknown —
  ///    callers own the idempotence decision, or use CallWithRetry which
  ///    applies the standard policy);
  ///  * anything else — transport failure (socket closed).
  Result<obs::JsonValue> Call(const obs::JsonValue& request,
                              int timeout_ms = 30'000);

  /// Starts a non-blocking connect when the session is closed (a no-op
  /// otherwise), so one thread can drive many sessions: poll fd() for
  /// POLLOUT, then Send completes the handshake.
  Status StartConnect();

  /// Writes one request frame. Connects first when the session is closed,
  /// or completes a StartConnect handshake, within `timeout_ms`. Any
  /// failure closes the session.
  Status Send(const obs::JsonValue& request, int timeout_ms = 30'000);

  /// Reads one response frame, waiting at most `timeout_ms` for it to
  /// start: kUnavailable on timeout, anything else is a transport failure.
  /// Any failure closes the session (the stream may still carry a stale
  /// response).
  Result<obs::JsonValue> Receive(int timeout_ms = 30'000);

  /// The standard retry policy (header comment above) over this session:
  /// backpressure retries reuse the live connection; timeouts on
  /// idempotent verbs reconnect and retry; transport errors and
  /// non-idempotent timeouts are returned immediately.
  Result<CallOutcome> CallWithRetry(const obs::JsonValue& request,
                                    const RetryOptions& options);

 private:
  ClientSession(std::string host, uint16_t port, OwnedFd fd)
      : host_(std::move(host)), port_(port), fd_(std::move(fd)) {}

  std::string host_;
  uint16_t port_ = 0;
  OwnedFd fd_;
  bool connecting_ = false;  // StartConnect's handshake not yet completed
};

/// One-shot convenience: a throwaway session around
/// ClientSession::CallWithRetry. Returns:
///  * OK outcome         — a response was obtained (inspect response["ok"];
///                         backpressure_exhausted marks a final
///                         Unavailable after all retries);
///  * error Status       — transport failure (connect/send/read), never
///                         retried; kUnavailable only when every attempt
///                         of an idempotent request timed out waiting for
///                         a response; kIndeterminate when a
///                         non-idempotent request (INSERT) was fully sent
///                         but the response timed out — it may or may not
///                         have been applied, and was NOT re-sent.
Result<CallOutcome> CallWithRetry(const std::string& host, uint16_t port,
                                  const obs::JsonValue& request,
                                  const RetryOptions& options);

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_CLIENT_H_
