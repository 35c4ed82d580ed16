#pragma once
// Minimal stream-socket primitives for the mapping daemon: an RAII
// connection with newline-framed message IO, and a listener (Unix-domain
// or TCP) whose accept loop can be unblocked from another thread.
//
// Framing is one message per line (the daemon speaks line-delimited JSON
// request/response pairs; JSON never contains a raw newline, so '\n' is
// an unambiguous terminator).  recv_line strips the terminator and
// returns nullopt on clean EOF.  All operations throw SocketError on OS
// failures; SIGPIPE is avoided via MSG_NOSIGNAL, so a peer vanishing
// mid-send surfaces as an exception, not a process kill.
//
// The same StreamSocket and Listener serve both transports — every
// operation is fd-generic; only the connect entry points and the
// Listener's named constructors know the address family.  The blocking
// calls (send_line/recv_line) are the client and test surface; the
// non-throwing chunked calls (recv_available/send_pending) are the
// daemon multiplexer's surface, where readiness is epoll's job and
// partial progress is the normal case.

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace elpc::util {

/// Thrown on socket-layer failures (connect/bind/IO); carries errno text.
class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by recv_line when a receive timeout (set_recv_timeout) expires
/// before a full line arrived — the connection itself is still fine, the
/// caller decides whether to retry or give up.
class SocketTimeout : public SocketError {
 public:
  using SocketError::SocketError;
};

/// Thrown by recv_line when the peer streamed more than max_line_bytes
/// without a terminator — a protocol violation (or an attack), never a
/// transient condition.  The buffered bytes cannot re-sync to a frame
/// boundary, so the right response is one error frame and a close.
class SocketFrameError : public SocketError {
 public:
  using SocketError::SocketError;
};

/// One connected stream socket (either end, either transport).
/// Move-only.
class StreamSocket {
 public:
  StreamSocket() = default;
  /// Adopts an already-connected fd (listener accept path).
  explicit StreamSocket(int fd) : fd_(fd) {}
  ~StreamSocket();

  StreamSocket(StreamSocket&& other) noexcept;
  StreamSocket& operator=(StreamSocket&& other) noexcept;
  StreamSocket(const StreamSocket&) = delete;
  StreamSocket& operator=(const StreamSocket&) = delete;

  /// Connects to the Unix-domain listener at `path`; throws SocketError
  /// when nothing listens there.
  [[nodiscard]] static StreamSocket connect(const std::string& path);

  /// Connects to a TCP listener (numeric IPv4/IPv6 or resolvable host).
  /// TCP_NODELAY is set — the protocol is small request/response frames,
  /// where Nagle coalescing only adds latency.
  [[nodiscard]] static StreamSocket connect_tcp(const std::string& host,
                                                int port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  /// The raw descriptor (epoll registration); -1 when closed.
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Sends `message` plus the '\n' terminator (message must not itself
  /// contain '\n' — the framing invariant), gathered by one sendmsg
  /// rather than copied into a terminated string.
  void send_line(const std::string& message);

  /// Sends `bytes` verbatim — the protocol-v2 binary frame path, where
  /// the payload is length-prefixed by its header instead of
  /// newline-terminated.  Same blocking/exception contract as
  /// send_line.
  void send_bytes(const std::string& bytes);

  /// Receives exactly `count` bytes (consuming any recv_line
  /// read-ahead first) — the blocking client's binary-payload read.
  /// Throws SocketError when the peer closes short, SocketTimeout on an
  /// expired receive timeout.
  [[nodiscard]] std::string recv_bytes(std::size_t count);

  /// Receives the next '\n'-terminated message (terminator stripped);
  /// nullopt on clean EOF.  Throws SocketTimeout when a receive timeout
  /// is set and expires, SocketFrameError when the accumulated
  /// unterminated bytes exceed max_line_bytes (OOM guard — a client may
  /// not grow the server's buffer without bound), and SocketError on IO
  /// errors or when the peer closes mid-message.
  [[nodiscard]] std::optional<std::string> recv_line();

  /// Default recv_line buffer cap: generously above any real frame (a
  /// register_network of a large topology is a few MiB), far below OOM.
  static constexpr std::size_t kDefaultMaxLineBytes = 16ull << 20;

  /// Adjusts the recv_line cap (0 is rejected — an uncapped buffer is
  /// exactly the failure mode the cap exists for).
  void set_max_line_bytes(std::size_t bytes);

  /// Bounds every subsequent recv_line wait (SO_RCVTIMEO): on expiry it
  /// throws SocketTimeout instead of blocking forever.  Lets a server
  /// poll a shutdown flag while an idle client holds the connection.
  void set_recv_timeout(int milliseconds);

  /// O_NONBLOCK toggle — the multiplexer's mode, where recv_available/
  /// send_pending report would-block instead of parking the thread.
  void set_nonblocking(bool enabled);

  /// Outcome of one non-throwing chunked IO step (the epoll path, where
  /// partial progress and would-block are normal, not exceptional).
  enum class IoStatus {
    kOk,          // made progress (recv: appended bytes; send: drained all)
    kWouldBlock,  // nothing to do right now — wait for epoll readiness
    kEof,         // recv only: peer closed its end
    kError        // connection is dead; close it
  };

  /// Appends whatever the kernel has buffered (up to max_bytes) to
  /// `buffer` without blocking, receiving straight into its tail.  kOk
  /// means at least one byte arrived; it returns after a read that came
  /// up short of its window, since that read emptied the kernel buffer.
  [[nodiscard]] IoStatus recv_available(std::string& buffer,
                                        std::size_t max_bytes);

  /// Sends as much of the queued chunks as the kernel accepts without
  /// blocking: writev's them front-to-back without concatenating them
  /// (the mux's zero-copy write path — a binary payload is queued as its
  /// own chunk, never copied into a contiguous buffer).  Fully-sent
  /// chunks are popped; `front_offset` tracks the partial progress into
  /// the new front chunk across would-block boundaries.  kOk means the
  /// queue fully drained; kWouldBlock means bytes remain — arm EPOLLOUT
  /// and retry later.
  [[nodiscard]] IoStatus send_pending(std::deque<std::string>& chunks,
                                      std::size_t& front_offset);

  void close() noexcept;

 private:
  /// Drops the consumed prefix of buffer_; called once per read, so a
  /// burst of buffered lines is not shifted down once per line.
  void compact_buffer();

  int fd_ = -1;
  /// Bytes received; [buffer_offset_, size) are past the last returned
  /// line or payload.
  std::string buffer_;
  std::size_t buffer_offset_ = 0;
  std::size_t max_line_bytes_ = kDefaultMaxLineBytes;
};

/// A listening stream socket, Unix-domain or TCP.  Only the two named
/// constructors know the address family; accepting, closing and
/// teardown are the same for both.
class Listener {
 public:
  /// Binds the Unix-domain socket `path`.  A stale socket file from a
  /// crashed daemon is unlinked before bind — but only after a trial
  /// connect proves nothing is accepting on it, so starting a second
  /// daemon on a live endpoint fails loudly instead of silently
  /// hijacking (and later deleting) the first one's socket.  The path
  /// is unlinked again on destruction.  Throws SocketError when the
  /// path is unusable or another process is actively listening on it.
  [[nodiscard]] static std::unique_ptr<Listener> unix_at(
      const std::string& path);

  /// Binds a TCP socket.  Host "" or "0.0.0.0" binds every interface;
  /// port 0 asks the kernel for an ephemeral port, reported by port() —
  /// the test-friendly way to avoid fixture port collisions.  Accepted
  /// connections get TCP_NODELAY (see connect_tcp).
  [[nodiscard]] static std::unique_ptr<Listener> tcp_at(
      const std::string& host, int port);

  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// "unix" or "tcp": the transport label of the connections it accepts.
  [[nodiscard]] const char* transport() const noexcept {
    return port_ < 0 ? "unix" : "tcp";
  }
  /// The bound socket path; "" for TCP.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// The actually-bound TCP port (resolves port 0 requests); -1 for a
  /// Unix-domain socket.
  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Blocks for the next connection; nullopt once close() was called
  /// (the shutdown path — accept polls, so a concurrent close() is seen
  /// within the poll interval).
  [[nodiscard]] std::optional<StreamSocket> accept();

  /// Non-blocking accept (the epoll path): nullopt when no connection
  /// is pending or the listener was closed.  Out of fds (EMFILE or
  /// ENFILE), it accepts each pending connection on a reserved spare fd
  /// and closes it, so the peer sees its connection closed and the
  /// listener does not stay readable, waking its poller forever.
  [[nodiscard]] std::optional<StreamSocket> try_accept();

  /// Unblocks pending and future accept() calls; safe to call from a
  /// thread other than the accept loop's, and idempotent.
  void close() noexcept;

 private:
  Listener(int fd, std::string path, int port);

  /// Accepts one pending connection on the spare fd and closes it; false
  /// when there was none to take or no spare.
  bool shed_pending() noexcept;

  std::string path_;
  int port_;
  int fd_;
  /// An fd held in reserve (on /dev/null) for shed_pending; -1 when
  /// even that could not be had.
  int spare_fd_;
  /// Set by close(); the accept loop polls with a short timeout, so a
  /// concurrent close is observed within one interval even if the
  /// wake-up shutdown() is missed.
  std::atomic<bool> closed_{false};
};

}  // namespace elpc::util
