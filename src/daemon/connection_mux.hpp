#pragma once
// ConnectionMux — the daemon's epoll front end: a small fixed pool of IO
// workers multiplexing every client connection, replacing the old
// thread-per-connection accept loop whose thread count grew with LIVE
// clients (a thousand idle subscribers = a thousand parked threads).
//
// Shape:
//   * Worker 0 owns the listeners (any number, of either transport);
//     accepted connections are assigned round-robin across all workers.
//   * Each worker owns an epoll set, an eventfd wake, and its
//     connections' read side: non-blocking sockets, a per-connection
//     read buffer that frames the existing line-delimited protocol
//     (torn frames across wakeups just accumulate), and a fairness cap
//     of max_frames_per_wake frames per connection per pass — a chatty
//     pipeliner is rotated behind its neighbours, never ahead of them.
//   * The write side is a per-connection buffer any thread may append
//     to (send_line — completion callbacks land here from engine
//     worker threads); the owning worker flushes it, arming EPOLLOUT only
//     while the kernel buffer is full.  A consumer that stops reading
//     grows that buffer; at max_write_queue_bytes it is disconnected
//     with a diagnostic ("backpressure") rather than allowed to pin
//     daemon memory or stall the loop.
//
// The mux knows framing and flow control, nothing about verbs: the
// owner supplies on_frame / on_disconnect callbacks and attaches its
// per-connection protocol state via MuxConnection::user_state.
// Lifetime: workers hold the only strong refs to connections; anything
// asynchronous (a wait completion racing a disconnect) holds a
// weak_ptr, so delivering into a dead connection degrades to a no-op.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "daemon/wire_format.hpp"
#include "util/poller.hpp"
#include "util/socket.hpp"

namespace elpc::daemon {

class ConnectionMux;

/// One listener the mux accepts from, with the counts of the
/// connections it accepted: live now, and ever.
struct MuxListener {
  util::Listener* listener = nullptr;
  std::atomic<std::size_t> live{0};
  std::atomic<std::uint64_t> accepted{0};
};

/// One multiplexed client connection.  Created by the mux on accept;
/// workers hold the strong references.  send_line / close_after_flush
/// are safe from any thread at any time (after close they are no-ops).
class MuxConnection : public std::enable_shared_from_this<MuxConnection> {
 public:
  /// Queues one response frame (newline appended) and wakes the owning
  /// worker to flush it.  Dropped silently once the connection closed —
  /// the client is gone, there is nowhere to report to.
  void send_line(const std::string& line);

  /// Queues a JSON control line immediately followed by one binary
  /// frame (the protocol-v2 bulk-payload shape), atomically — no frame
  /// from another thread can interleave between the pair.  The payload
  /// is moved into the write queue as its own chunk and leaves via
  /// writev, never copied into a flat buffer.
  void send_line_with_frame(const std::string& line, wire::FrameType type,
                            std::string payload);

  /// Flushes everything queued, then closes with `reason` (the
  /// disconnect-counter label).  The polite goodbye after an error
  /// frame the client should still receive.
  void close_after_flush(const std::string& reason);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  /// Bytes the read buffer has allocated.  Owning worker only (call it
  /// from on_frame).
  [[nodiscard]] std::size_t read_capacity() const noexcept {
    return read_buffer_.capacity();
  }
  /// Owner-attached per-connection protocol state (auth flag, quota
  /// counters).  Touched only from on_frame — i.e. only by the owning
  /// worker — so it needs no lock of its own here; share it into
  /// completion callbacks explicitly if they must reach it.
  std::shared_ptr<void> user_state;

 private:
  friend class ConnectionMux;

  MuxConnection(ConnectionMux* mux, std::size_t worker, std::uint64_t id,
                MuxListener& origin, util::StreamSocket socket)
      : mux_(mux),
        worker_(worker),
        id_(id),
        origin_(origin),
        socket_(std::move(socket)) {}

  ConnectionMux* mux_;
  const std::size_t worker_;
  const std::uint64_t id_;
  /// The listener that accepted it, which counts it live.
  MuxListener& origin_;

  // ---- owning-worker-only state (no locks) ----
  util::StreamSocket socket_;
  /// Received bytes; [read_offset_, size) are not yet consumed.  Frames
  /// are consumed by advancing the offset, and the consumed prefix is
  /// dropped once per read instead of once per frame.
  std::string read_buffer_;
  std::size_t read_offset_ = 0;
  /// [read_offset_, scan_offset_) is known to hold no '\n', so a torn
  /// line is scanned once as it arrives, not from its start every wake.
  std::size_t scan_offset_ = 0;

  /// Position of the '\n' that ends the text line at read_offset_, or
  /// npos; scans only bytes no earlier call has scanned.
  [[nodiscard]] std::size_t find_line_end();
  /// Drops the consumed prefix; once the unread tail fits under
  /// kReadBufferKeepBytes, also hands back the capacity a large frame
  /// grew the buffer to.
  void compact_read_buffer();
  /// Set after a frame-cap violation: the stream cannot re-sync, so the
  /// worker stops extracting (and polling for) input while the error
  /// frame drains.
  bool reading_paused_ = false;
  bool epollout_armed_ = false;
  bool in_ready_ = false;  // already queued on the fairness ring

  /// Queues `chunks` back-to-back under one lock hold (the atomicity
  /// send_line_with_frame relies on) and wakes the owning worker.
  void enqueue_chunks(std::vector<std::string> chunks);

  // ---- cross-thread write state (guarded by write_mutex_) ----
  std::mutex write_mutex_;
  /// Pending output as discrete chunks (writev gathers them): one chunk
  /// per text line, and binary payloads as their own moved-in chunks.
  std::deque<std::string> write_queue_;
  std::size_t write_front_offset_ = 0;  // partial progress into front()
  std::size_t write_queue_bytes_ = 0;   // total queued (cap accounting)
  bool closing_ = false;       // close_after_flush requested
  std::string close_reason_;
  bool overflowed_ = false;    // write_queue_bytes_ crossed the cap
  bool closed_ = false;        // fd gone; everything else is a no-op
};

/// Most read-buffer capacity a connection keeps between frames.  Once
/// the unread bytes fit under it, a buffer grown past it (by a
/// multi-MiB register_network) is cut back to those bytes, so a
/// long-lived connection does not hold one large frame's peak for the
/// rest of its life.  Ordinary traffic never reaches it: one wake reads
/// at most 256 KiB.
inline constexpr std::size_t kReadBufferKeepBytes = 1u << 20;

struct MuxOptions {
  /// IO worker threads — the daemon's steady-state thread bill for ANY
  /// number of connections.  Two keeps accept latency isolated from a
  /// worker busy parsing a fat frame; more rarely pays below tens of
  /// thousands of active clients.
  std::size_t io_workers = 2;
  /// Per-connection pending-response cap; crossing it disconnects the
  /// slow consumer (reason "backpressure").
  std::size_t max_write_queue_bytes = 8ull << 20;
  /// Per-connection unterminated-frame cap, mirroring
  /// StreamSocket::kDefaultMaxLineBytes semantics.
  std::size_t max_line_bytes = util::StreamSocket::kDefaultMaxLineBytes;
  /// Fairness: complete frames handled per connection per pass before
  /// the connection is rotated to the back of the ready ring.
  std::size_t max_frames_per_wake = 16;
};

struct MuxCallbacks {
  /// One complete frame (terminator stripped), on the owning worker.
  std::function<void(const std::shared_ptr<MuxConnection>&,
                     std::string_view line)>
      on_frame;
  /// One complete binary frame (header already parsed and validated),
  /// on the owning worker.  Null = the owner speaks no binary protocol:
  /// any binary frame is a protocol error (error frame + close), which
  /// is also what a malformed header or an over-cap declared length
  /// gets regardless.
  std::function<void(const std::shared_ptr<MuxConnection>&,
                     const wire::FrameHeader& header,
                     std::string_view payload)>
      on_binary_frame;
  /// Connection fully closed; `reason` is the disconnect label ("eof",
  /// "error", "backpressure", "protocol", "shutdown", or whatever the
  /// owner passed to close_after_flush).  On the owning worker.
  std::function<void(const std::shared_ptr<MuxConnection>&,
                     const std::string& reason)>
      on_disconnect;
  /// Builds the single error frame sent before a frame-cap disconnect
  /// (the owner knows the wire error shape; the mux does not).  May be
  /// null = close without a frame.
  std::function<std::string(const std::string& diagnostic)> frame_error_line;
};

class ConnectionMux {
 public:
  ConnectionMux(MuxOptions options, MuxCallbacks callbacks);
  ~ConnectionMux();

  ConnectionMux(const ConnectionMux&) = delete;
  ConnectionMux& operator=(const ConnectionMux&) = delete;

  /// Listeners are borrowed and must outlive the mux; call before
  /// start().  At most 15: their epoll tags sit between the wake fd's
  /// and the first connection id.
  void add_listener(util::Listener* listener);

  void start();
  /// Closes every connection (on_disconnect reason "shutdown"), joins
  /// the workers.  Idempotent; the destructor calls it.
  void stop();

  /// The counts of the connections `listener` accepted; throws
  /// std::invalid_argument for a listener never added.
  [[nodiscard]] const MuxListener& counts(
      const util::Listener& listener) const;

 private:
  struct Worker {
    util::Poller poller;
    util::WakeFd wake;
    std::thread thread;
    /// Worker-only: id -> connection (the strong refs).
    std::unordered_map<std::uint64_t, std::shared_ptr<MuxConnection>> conns;
    /// Worker-only: ids with buffered complete frames awaiting a
    /// fairness pass.
    std::deque<std::uint64_t> ready;
    /// Cross-thread inbox (guarded by mutex): freshly accepted
    /// connections to adopt, and connections with new pending writes.
    std::mutex mutex;
    std::vector<std::shared_ptr<MuxConnection>> incoming;
    std::vector<std::shared_ptr<MuxConnection>> dirty;
  };

  void worker_loop(std::size_t index);
  void adopt_incoming(Worker& worker);
  /// Reads whatever is available and processes frames; returns false if
  /// the connection died.
  void handle_readable(Worker& worker,
                       const std::shared_ptr<MuxConnection>& conn);
  /// True when the unread bytes hold something process_frames can act
  /// on without more input: a complete text line, a complete binary
  /// frame, a malformed binary header, or a binary frame whose declared
  /// length already exceeds the cap (rejected without buffering it).
  [[nodiscard]] bool has_actionable_frame(MuxConnection& conn) const;
  /// Extracts up to max_frames_per_wake frames (all of them with
  /// drain_all — the EOF path, where no later wakeup is coming);
  /// re-queues the connection on the ready ring when more remain.
  void process_frames(Worker& worker,
                      const std::shared_ptr<MuxConnection>& conn,
                      bool drain_all);
  /// Flushes the write buffer; handles backpressure overflow, EPOLLOUT
  /// arming, and deferred close-after-flush.
  void flush_writes(Worker& worker,
                    const std::shared_ptr<MuxConnection>& conn);
  /// The unrecoverable-framing path shared by text and binary framing:
  /// stop reading, answer one error frame (best effort), close with
  /// reason "protocol".
  void frame_violation(Worker& worker,
                       const std::shared_ptr<MuxConnection>& conn,
                       const std::string& diagnostic);
  /// Tears the connection down (worker thread only): epoll dereg, fd
  /// close, map erase, on_disconnect.
  void finish_close(Worker& worker,
                    const std::shared_ptr<MuxConnection>& conn,
                    const std::string& reason);
  /// Routes a freshly accepted socket to the next worker round-robin.
  void assign_connection(util::StreamSocket socket, MuxListener& origin);
  /// Queues `conn` on its worker's dirty list and wakes the worker.
  void mark_dirty(const std::shared_ptr<MuxConnection>& conn);

  const MuxOptions options_;
  const MuxCallbacks callbacks_;
  /// A deque, so entries stay put while connections point at them.
  std::deque<MuxListener> listeners_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  /// Ids double as epoll tags; the values below the first are the wake
  /// fd's (0) and listener i's (i + 1).
  static constexpr std::uint64_t kFirstConnectionId = 16;
  std::atomic<std::uint64_t> next_conn_id_{kFirstConnectionId};
  std::atomic<std::size_t> next_worker_{0};

  friend class MuxConnection;
};

}  // namespace elpc::daemon
