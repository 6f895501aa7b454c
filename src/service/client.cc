#include "service/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "service/wire.h"
#include "util/socket.h"

namespace bbsmine::service {

uint64_t RetryBackoffMs(const RetryOptions& options, uint32_t attempt,
                        uint64_t* jitter_state) {
  // Exponential backoff with jitter in [0, base): doubling spreads retry
  // storms over time, jitter spreads them across clients. Both the base
  // and the jittered sum are clamped — jitter must not smuggle the sleep
  // past the configured cap.
  uint64_t base = options.backoff_ms;
  base <<= std::min<uint32_t>(attempt - 1, 20);
  base = std::min<uint64_t>(base, options.max_backoff_ms);
  *jitter_state =
      *jitter_state * 6364136223846793005ull + 1442695040888963407ull;
  uint64_t jitter = base > 0 ? (*jitter_state >> 33) % base : 0;
  return std::min<uint64_t>(base + jitter, options.max_backoff_ms);
}

Result<ClientSession> ClientSession::Connect(const std::string& host,
                                             uint16_t port) {
  Result<OwnedFd> fd = ConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  return ClientSession(host, port, std::move(*fd));
}

Result<obs::JsonValue> ClientSession::Call(const obs::JsonValue& request,
                                           int timeout_ms) {
  BBSMINE_RETURN_IF_ERROR(Send(request, timeout_ms));
  return Receive(timeout_ms);
}

Status ClientSession::StartConnect() {
  if (fd_.valid()) return Status::Ok();
  Result<OwnedFd> fd = StartConnectTcp(host_, port_);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(*fd);
  connecting_ = true;
  return Status::Ok();
}

Status ClientSession::Send(const obs::JsonValue& request, int timeout_ms) {
  // The connect shares the call's deadline: against a blackholed daemon
  // a default (blocking) connect would stall far past `timeout_ms`.
  Status status = StartConnect();
  if (status.ok() && connecting_) {
    status = FinishConnectTcp(fd_.get(), host_, port_, timeout_ms);
    connecting_ = false;
  }
  if (status.ok()) status = WriteFrame(fd_.get(), request);
  if (!status.ok()) Close();
  return status;
}

Result<obs::JsonValue> ClientSession::Receive(int timeout_ms) {
  Result<obs::JsonValue> response = ReadFrame(fd_.get(), timeout_ms);
  if (!response.ok()) {
    // Timeout or broken transport: the stream may still carry (part of) a
    // stale response, so it cannot be reused for the next request.
    Close();
  }
  return response;
}

Result<CallOutcome> ClientSession::CallWithRetry(const obs::JsonValue& request,
                                                 const RetryOptions& options) {
  const bool timeout_retryable = InfoOf(VerbOf(request)).idempotent;
  uint64_t jitter_state = options.jitter_seed;
  CallOutcome outcome;
  Status last_timeout = Status::Ok();
  for (uint32_t attempt = 0; attempt <= options.retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          RetryBackoffMs(options, attempt, &jitter_state)));
    }
    ++outcome.attempts;

    Result<obs::JsonValue> response = Call(request, options.timeout_ms);
    if (!response.ok()) {
      if (response.status().code() == StatusCode::kUnavailable) {
        // Response timeout: the daemon is alive but slow. For idempotent
        // verbs, retryable. For anything else the request was fully sent
        // and may already be applied (e.g. an INSERT the daemon WAL-logged
        // before answering slowly) — re-sending could double-apply, so the
        // outcome is handed back as indeterminate instead.
        if (!timeout_retryable) {
          return Status::Indeterminate(
              "response timed out after the request was sent; it may or "
              "may not have been applied (" + response.status().message() +
              ")");
        }
        last_timeout = response.status();
        continue;
      }
      return response.status();  // transport: not retryable
    }
    outcome.response = std::move(*response);
    if (IsBackpressure(outcome.response)) {
      continue;  // admission backpressure: the daemon refused it; retryable
    }
    return outcome;  // definitive answer (ok or a non-retryable error)
  }

  // Retries exhausted. Prefer reporting the last real response; if every
  // attempt timed out there is no response to hand back.
  if (outcome.response.kind() == obs::JsonValue::Kind::kObject) {
    outcome.backpressure_exhausted = true;
    return outcome;
  }
  return last_timeout.ok()
             ? Status::Unavailable("retries exhausted")
             : last_timeout;
}

Result<CallOutcome> CallWithRetry(const std::string& host, uint16_t port,
                                  const obs::JsonValue& request,
                                  const RetryOptions& options) {
  ClientSession session(host, port);
  return session.CallWithRetry(request, options);
}

}  // namespace bbsmine::service
