// Minimal POSIX TCP helpers for the service layer (`bbsmined` daemon and
// the `bbsmine client` subcommand).
//
// Scope is deliberately small: IPv4 loopback/LAN stream sockets with
// blocking reads bounded by poll() timeouts. Everything reports failures
// as Status built from errno (util::StatusFromErrno), so socket errors
// read exactly like file errors elsewhere in the library.
//
// Ownership: the helpers traffic in raw fds wrapped in OwnedFd, a
// move-only RAII holder, so an early return can never leak a descriptor.

#ifndef BBSMINE_UTIL_SOCKET_H_
#define BBSMINE_UTIL_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace bbsmine {

/// Move-only owner of a file descriptor; closes it on destruction.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { Reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.Release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int Release() { return std::exchange(fd_, -1); }

  /// Closes the held descriptor (if any).
  void Reset();

 private:
  int fd_ = -1;
};

/// Creates a listening TCP socket bound to `host:port` (IPv4 dotted quad;
/// SO_REUSEADDR set). `port` 0 binds an ephemeral port; use BoundPort to
/// learn the assignment.
Result<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                          int backlog = 64);

/// The local port a socket is bound to (after ListenTcp with port 0).
Result<uint16_t> BoundPort(int fd);

/// Connects to `host:port`, waiting at most `timeout_ms` for the handshake
/// (-1 = the kernel default, which can be minutes against a blackholed
/// peer). The connect itself is non-blocking + poll, so a caller with a
/// deadline is never stalled by an unreachable host; the returned fd is
/// back in blocking mode. A timeout returns Unavailable.
Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           int timeout_ms = 10'000);

/// The two halves of ConnectTcp, for callers that drive many connects from
/// one poll loop. StartConnectTcp returns a non-blocking socket whose
/// handshake is under way (or already done); a refused connect can fail
/// right here. Poll it for POLLOUT, then FinishConnectTcp waits at most
/// `timeout_ms` more, reports how the handshake ended (a timeout returns
/// Unavailable) and puts the socket back in blocking mode.
Result<OwnedFd> StartConnectTcp(const std::string& host, uint16_t port);
Status FinishConnectTcp(int fd, const std::string& host, uint16_t port,
                        int timeout_ms);

/// Accepts one connection. Waits up to `timeout_ms` (-1 = forever);
/// returns an invalid OwnedFd on timeout so pollers can check a stop flag.
Result<OwnedFd> AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Writes all of `data`, retrying on short writes and EINTR.
Status SendAll(int fd, std::string_view data);

/// Reads exactly `n` bytes into `out` (resized). Waits up to `timeout_ms`
/// between reads (-1 = forever). A clean EOF before the first byte returns
/// NotFound ("peer closed"); a poll timeout returns Unavailable (callers
/// polling a stop flag re-issue the read); EOF mid-message is an IoError.
Status RecvExact(int fd, size_t n, std::string* out, int timeout_ms = -1);

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_SOCKET_H_
