#include "util/socket.hpp"

#include <fcntl.h>
#include <limits.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/fault_injector.hpp"

namespace elpc::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SocketError(what + ": " + std::strerror(errno));
}

/// Sends `head` then `tail` in full (blocking), gathered by sendmsg so
/// the two leave without being copied together; retries partial writes
/// and EINTR.
void send_all(int fd, std::string_view head, std::string_view tail) {
  while (!head.empty() || !tail.empty()) {
    iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(tail.data()), tail.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("send");
    }
    const auto sent = static_cast<std::size_t>(n);
    const std::size_t from_head = std::min(sent, head.size());
    head.remove_prefix(from_head);
    tail.remove_prefix(sent - from_head);
  }
}

/// First read of each recv_available step; each read that fills its
/// window doubles the next one, up to the caller's byte budget.
constexpr std::size_t kRecvWindowBytes = 16u << 10;

/// Pending-connection queue length for both listener transports.
constexpr int kListenBacklog = 256;

/// Fills a sockaddr_un for `path`; rejects paths longer than sun_path
/// (the silent-truncation alternative would bind somewhere unexpected).
sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) {
    throw SocketError("socket path too long (" + std::to_string(path.size()) +
                      " bytes, max " +
                      std::to_string(sizeof(address.sun_path) - 1) + "): " +
                      path);
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  // Failure is harmless (the frames still flow, just lazier); never
  // worth killing a connection over.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// getaddrinfo for a numeric-or-named host; "" means the wildcard
/// address (bind-everything listeners).
addrinfo* resolve(const std::string& host, int port, bool for_bind) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_bind) {
    hints.ai_flags = AI_PASSIVE;
  }
  const std::string service = std::to_string(port);
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &result);
  if (rc != 0) {
    throw SocketError("resolve " + (host.empty() ? "*" : host) + ":" +
                      std::to_string(port) + ": " + ::gai_strerror(rc));
  }
  return result;
}

}  // namespace

StreamSocket::~StreamSocket() { close(); }

StreamSocket::StreamSocket(StreamSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      buffer_offset_(std::exchange(other.buffer_offset_, 0)),
      max_line_bytes_(other.max_line_bytes_) {}

StreamSocket& StreamSocket::operator=(StreamSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    buffer_offset_ = std::exchange(other.buffer_offset_, 0);
    max_line_bytes_ = other.max_line_bytes_;
  }
  return *this;
}

StreamSocket StreamSocket::connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket");
  }
  const sockaddr_un address = make_address(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    throw_errno("connect " + path);
  }
  return StreamSocket(fd);
}

StreamSocket StreamSocket::connect_tcp(const std::string& host, int port) {
  addrinfo* candidates = resolve(host, port, /*for_bind=*/false);
  int fd = -1;
  int last_errno = ECONNREFUSED;
  for (addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(candidates);
  if (fd < 0) {
    errno = last_errno;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  set_tcp_nodelay(fd);
  return StreamSocket(fd);
}

void StreamSocket::send_line(const std::string& message) {
  if (!valid()) {
    throw SocketError("send_line on closed socket");
  }
  FaultInjector& faults = FaultInjector::instance();
  if (faults.enabled() && faults.should_fire("socket_send_epipe")) {
    throw SocketError("send: injected EPIPE");
  }
  std::string_view head = message;
  std::string_view tail = "\n";
  // A torn frame: deliver a prefix with no terminator, then fail the
  // send — the peer sees "closed mid-message", exactly what a process
  // dying between write() calls produces.
  const bool short_write =
      faults.enabled() && faults.should_fire("socket_short_write");
  if (short_write) {
    const std::size_t prefix =
        std::max<std::size_t>(1, (message.size() + 1) / 2);
    tail = tail.substr(0, prefix - std::min(prefix, head.size()));
    head = head.substr(0, prefix);
  }
  send_all(fd_, head, tail);
  if (short_write) {
    throw SocketError("send: injected short write");
  }
}

void StreamSocket::send_bytes(const std::string& bytes) {
  if (!valid()) {
    throw SocketError("send_bytes on closed socket");
  }
  FaultInjector& faults = FaultInjector::instance();
  if (faults.enabled() && faults.should_fire("socket_send_epipe")) {
    throw SocketError("send: injected EPIPE");
  }
  send_all(fd_, bytes, {});
}

void StreamSocket::compact_buffer() {
  buffer_.erase(0, buffer_offset_);
  buffer_offset_ = 0;
}

std::string StreamSocket::recv_bytes(std::size_t count) {
  if (!valid()) {
    throw SocketError("recv_bytes on closed socket");
  }
  // The recv_line read-ahead buffer may already hold (part of) these
  // bytes — binary frames share the stream with JSON lines.
  while (buffer_.size() - buffer_offset_ < count) {
    compact_buffer();
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketTimeout("recv timed out");
      }
      throw_errno("recv");
    }
    if (n == 0) {
      throw SocketError("peer closed mid-payload (" +
                        std::to_string(buffer_.size()) + " of " +
                        std::to_string(count) + " bytes)");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string bytes = buffer_.substr(buffer_offset_, count);
  buffer_offset_ += count;
  return bytes;
}

std::optional<std::string> StreamSocket::recv_line() {
  if (!valid()) {
    throw SocketError("recv_line on closed socket");
  }
  (void)FaultInjector::instance().maybe_stall("socket_recv_slow");
  std::size_t scan_from = buffer_offset_;  // no '\n' before this
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scan_from);
    if (newline != std::string::npos) {
      std::string line =
          buffer_.substr(buffer_offset_, newline - buffer_offset_);
      buffer_offset_ = newline + 1;
      return line;
    }
    const std::size_t buffered = buffer_.size() - buffer_offset_;
    if (buffered > max_line_bytes_) {
      throw SocketFrameError(
          "frame exceeds " + std::to_string(max_line_bytes_) +
          " bytes with no terminator (" + std::to_string(buffered) +
          " buffered)");
    }
    compact_buffer();
    scan_from = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw SocketTimeout("recv timed out");  // SO_RCVTIMEO expired
      }
      throw_errno("recv");
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        throw SocketError("peer closed mid-message (" +
                          std::to_string(buffer_.size()) +
                          " unterminated bytes)");
      }
      return std::nullopt;  // clean EOF
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void StreamSocket::set_max_line_bytes(std::size_t bytes) {
  if (bytes == 0) {
    throw SocketError("set_max_line_bytes: cap must be > 0");
  }
  max_line_bytes_ = bytes;
}

void StreamSocket::set_recv_timeout(int milliseconds) {
  if (!valid()) {
    throw SocketError("set_recv_timeout on closed socket");
  }
  timeval timeout{};
  timeout.tv_sec = milliseconds / 1000;
  timeout.tv_usec = (milliseconds % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                   sizeof(timeout)) != 0) {
    throw_errno("setsockopt SO_RCVTIMEO");
  }
}

void StreamSocket::set_nonblocking(bool enabled) {
  if (!valid()) {
    throw SocketError("set_nonblocking on closed socket");
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    throw_errno("fcntl F_GETFL");
  }
  const int updated = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, updated) < 0) {
    throw_errno("fcntl F_SETFL");
  }
}

StreamSocket::IoStatus StreamSocket::recv_available(std::string& buffer,
                                                    std::size_t max_bytes) {
  if (!valid()) {
    return IoStatus::kError;
  }
  if (FaultInjector& faults = FaultInjector::instance(); faults.enabled()) {
    (void)faults.maybe_stall("socket_recv_slow");
  }
  // Reads land in `buffer` itself, in a window grown past its end and
  // trimmed back to what arrived: no bounce through a stack chunk.
  std::size_t received = 0;
  std::size_t window = kRecvWindowBytes;
  while (received < max_bytes) {
    const std::size_t want = std::min(window, max_bytes - received);
    const std::size_t size = buffer.size();
    buffer.resize(size + want);
    const ssize_t n = ::recv(fd_, buffer.data() + size, want, 0);
    const int error = errno;
    buffer.resize(size + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n > 0) {
      received += static_cast<std::size_t>(n);
      if (static_cast<std::size_t>(n) < want) {
        // A short read took everything the kernel held; epoll is
        // level-triggered, so bytes arriving later wake the worker again.
        return IoStatus::kOk;
      }
      window *= 2;
      continue;
    }
    if (n == 0) {
      return IoStatus::kEof;
    }
    if (error == EINTR) {
      continue;
    }
    if (error == EAGAIN || error == EWOULDBLOCK) {
      return received > 0 ? IoStatus::kOk : IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;  // hit the per-wake byte budget with bytes in hand
}

StreamSocket::IoStatus StreamSocket::send_pending(
    std::deque<std::string>& chunks, std::size_t& front_offset) {
  if (!valid()) {
    return IoStatus::kError;
  }
  // A short write is the kernel taking only part of a batch, as a nearly
  // full socket buffer does: the rest waits for the next writable wake.
  bool short_write = false;
  if (FaultInjector& faults = FaultInjector::instance(); faults.enabled()) {
    if (faults.should_fire("socket_send_epipe")) {
      return IoStatus::kError;  // what a vanished peer's EPIPE reports
    }
    short_write = faults.should_fire("socket_short_write");
  }
  while (!chunks.empty()) {
    // Gather up to IOV_MAX chunks per writev: many small line frames
    // still drain in one syscall, and a fat binary payload goes out
    // straight from its own buffer — never copied into a flat queue.
    iovec iov[64];
    const std::size_t batch =
        std::min<std::size_t>(chunks.size(),
                              std::min<std::size_t>(64, IOV_MAX));
    std::size_t total = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      const std::string& chunk = chunks[i];
      const std::size_t skip = i == 0 ? front_offset : 0;
      iov[i].iov_base = const_cast<char*>(chunk.data() + skip);
      iov[i].iov_len = chunk.size() - skip;
      total += iov[i].iov_len;
    }
    std::size_t iov_count = batch;
    if (short_write) {
      // Half the batch's bytes (at least one), cut inside its iovecs.
      std::size_t left = std::max<std::size_t>(1, total / 2);
      total = left;
      iov_count = 0;
      while (left > iov[iov_count].iov_len) {
        left -= iov[iov_count].iov_len;
        ++iov_count;
      }
      iov[iov_count].iov_len = left;
      ++iov_count;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoStatus::kWouldBlock;
      }
      return IoStatus::kError;
    }
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0 && !chunks.empty()) {
      const std::size_t front_left = chunks.front().size() - front_offset;
      if (sent >= front_left) {
        sent -= front_left;
        front_offset = 0;
        chunks.pop_front();
      } else {
        front_offset += sent;
        sent = 0;
      }
    }
    if (static_cast<std::size_t>(n) < total ||
        (short_write && !chunks.empty())) {
      return IoStatus::kWouldBlock;  // kernel buffer full mid-batch
    }
    short_write = false;
  }
  front_offset = 0;
  return IoStatus::kOk;
}

void StreamSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::unique_ptr<Listener> Listener::unix_at(const std::string& path) {
  const sockaddr_un address = make_address(path);
  // A file already at the path is either a live daemon's endpoint or a
  // crashed one's leftover.  A trial connect tells them apart: replace
  // only the stale file — silently unlinking a live endpoint would
  // orphan that daemon, and this listener's destructor would later
  // delete the successor's socket too.
  bool occupied = false;
  try {
    (void)StreamSocket::connect(path);
    occupied = true;
  } catch (const SocketError&) {
    // Nothing accepting there (ECONNREFUSED/ENOENT/...): safe to claim.
  }
  if (occupied) {
    throw SocketError("bind " + path +
                      ": another process is already listening here");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket");
  }
  ::unlink(path.c_str());  // a stale file from a crashed daemon blocks bind
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind " + path);
  }
  // Owns the fd and the bound file from here: a failed listen closes
  // and unlinks both.
  std::unique_ptr<Listener> listener(new Listener(fd, path, -1));
  if (::listen(fd, kListenBacklog) != 0) {
    throw_errno("listen " + path);
  }
  return listener;
}

std::unique_ptr<Listener> Listener::tcp_at(const std::string& host,
                                           int port) {
  addrinfo* candidates = resolve(host, port, /*for_bind=*/true);
  int fd = -1;
  int last_errno = EADDRNOTAVAIL;
  for (addrinfo* ai = candidates; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, kListenBacklog) == 0) {
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(candidates);
  if (fd < 0) {
    errno = last_errno;
    throw_errno("bind " + (host.empty() ? "*" : host) + ":" +
                std::to_string(port));
  }
  // Accepted connections inherit TCP_NODELAY from the listening socket.
  set_tcp_nodelay(fd);
  std::unique_ptr<Listener> listener(new Listener(fd, "", port));
  // Read back the bound address: with port 0 the kernel chose one, and
  // callers (tests, the serve banner) need the real number.
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    throw_errno("getsockname");
  }
  if (bound.ss_family == AF_INET) {
    listener->port_ =
        ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
  } else if (bound.ss_family == AF_INET6) {
    listener->port_ =
        ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port);
  }
  return listener;
}

Listener::Listener(int fd, std::string path, int port)
    : path_(std::move(path)),
      port_(port),
      fd_(fd),
      spare_fd_(::open("/dev/null", O_RDONLY | O_CLOEXEC)) {}

Listener::~Listener() {
  close();
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
  }
  ::close(fd_);
  if (!path_.empty()) {
    ::unlink(path_.c_str());
  }
}

std::optional<StreamSocket> Listener::accept() {
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) {
      throw_errno("poll");
    }
    if (ready <= 0) {
      continue;  // timeout or EINTR: re-check the closed flag
    }
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      return StreamSocket(client);
    }
    // EINVAL: a concurrent close() shut the listener down.
    if (errno != EINTR && errno != ECONNABORTED && errno != EINVAL) {
      throw_errno("accept");
    }
  }
  return std::nullopt;
}

std::optional<StreamSocket> Listener::try_accept() {
  while (!closed_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, /*timeout_ms=*/0) <= 0) {
      return std::nullopt;
    }
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      return StreamSocket(client);
    }
    if ((errno != EMFILE && errno != ENFILE) || !shed_pending()) {
      return std::nullopt;  // raced with another accept or the close path
    }
  }
  return std::nullopt;
}

bool Listener::shed_pending() noexcept {
  // Out of fds, a pending connection can be neither accepted nor left
  // in the backlog: there it keeps a level-triggered listener readable,
  // and the loop polling it wakes for it at once, forever.  The spare
  // fd makes room to accept it and close it.
  if (spare_fd_ < 0) {
    return false;
  }
  ::close(spare_fd_);
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client >= 0) {
    ::close(client);
  }
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return client >= 0;
}

void Listener::close() noexcept {
  closed_.store(true, std::memory_order_release);
  // Wakes a blocked poll immediately instead of waiting out the
  // interval; errors (e.g. ENOTCONN on some kernels) are harmless — the
  // flag alone suffices within one poll period.
  ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace elpc::util
