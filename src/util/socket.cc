#include "util/socket.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace bbsmine {

namespace {

Result<sockaddr_in> MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void OwnedFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<OwnedFd> ListenTcp(const std::string& host, uint16_t port,
                          int backlog) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return StatusFromErrno("socket");
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
             sizeof(*addr)) != 0) {
    return StatusFromErrno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return StatusFromErrno("listen " + host + ":" + std::to_string(port));
  }
  return fd;
}

Result<uint16_t> BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return StatusFromErrno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<OwnedFd> StartConnectTcp(const std::string& host, uint16_t port) {
  Result<sockaddr_in> addr = MakeAddr(host, port);
  if (!addr.ok()) return addr.status();
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return StatusFromErrno("socket");

  // Non-blocking connect: a blocking ::connect against a blackholed host
  // waits for the kernel default (minutes), far past any caller deadline.
  // EINPROGRESS hands the handshake to poll (FinishConnectTcp, or a
  // caller's own poll loop over many sockets).
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return StatusFromErrno("fcntl O_NONBLOCK");
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&*addr),
                   sizeof(*addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    return StatusFromErrno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Status FinishConnectTcp(int fd, const std::string& host, uint16_t port,
                        int timeout_ms) {
  const std::string target = host + ":" + std::to_string(port);
  pollfd pfd{fd, POLLOUT, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return StatusFromErrno("poll");
  if (ready == 0) {
    return Status::Unavailable("connect " + target + " timed out after " +
                               std::to_string(timeout_ms) + " ms");
  }
  // SO_ERROR reports how the handshake actually ended.
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return StatusFromErrno("getsockopt SO_ERROR");
  }
  if (err != 0) return StatusFromErrno(err, "connect " + target);
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return StatusFromErrno("fcntl restore flags");
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

Result<OwnedFd> ConnectTcp(const std::string& host, uint16_t port,
                           int timeout_ms) {
  Result<OwnedFd> fd = StartConnectTcp(host, port);
  if (!fd.ok()) return fd.status();
  BBSMINE_RETURN_IF_ERROR(FinishConnectTcp(fd->get(), host, port, timeout_ms));
  return fd;
}

Result<OwnedFd> AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd pfd{listen_fd, POLLIN, 0};
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return StatusFromErrno("poll");
  if (ready == 0) return OwnedFd();  // timeout: let the caller re-check
  int fd;
  do {
    fd = ::accept(listen_fd, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return StatusFromErrno("accept");
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return OwnedFd(fd);
}

Status SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

Status RecvExact(int fd, size_t n, std::string* out, int timeout_ms) {
  out->clear();
  out->reserve(n);
  char buf[1 << 14];
  while (out->size() < n) {
    pollfd pfd{fd, POLLIN, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready < 0) return StatusFromErrno("poll");
    if (ready == 0) return Status::Unavailable("recv timed out");
    size_t want = std::min(n - out->size(), sizeof(buf));
    ssize_t got = ::recv(fd, buf, want, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("recv");
    }
    if (got == 0) {
      return out->empty() ? Status::NotFound("peer closed")
                          : Status::IoError("peer closed mid-message");
    }
    out->append(buf, static_cast<size_t>(got));
  }
  return Status::Ok();
}

}  // namespace bbsmine
