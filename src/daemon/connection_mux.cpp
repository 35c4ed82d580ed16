#include "daemon/connection_mux.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"
#include "util/profiler.hpp"

namespace elpc::daemon {

namespace {

// Epoll tags below the first connection id: the wake fd's, then
// listener i's is kFirstListenerTag + i.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kFirstListenerTag = 1;

/// Read budget per connection per wakeup: big enough to swallow a burst
/// in one syscall batch, small enough that one fat connection cannot
/// monopolize its worker's pass.
constexpr std::size_t kRecvBudgetBytes = 256u << 10;

}  // namespace

std::size_t MuxConnection::find_line_end() {
  const std::size_t newline =
      read_buffer_.find('\n', std::max(scan_offset_, read_offset_));
  scan_offset_ = newline == std::string::npos ? read_buffer_.size() : newline;
  return newline;
}

void MuxConnection::compact_read_buffer() {
  read_buffer_.erase(0, read_offset_);
  scan_offset_ -= std::min(scan_offset_, read_offset_);
  read_offset_ = 0;
  if (read_buffer_.capacity() > kReadBufferKeepBytes &&
      read_buffer_.size() <= kReadBufferKeepBytes) {
    read_buffer_.shrink_to_fit();
  }
}

void MuxConnection::send_line(const std::string& line) {
  std::vector<std::string> chunks;
  chunks.push_back(line + "\n");
  enqueue_chunks(std::move(chunks));
}

void MuxConnection::send_line_with_frame(const std::string& line,
                                         wire::FrameType type,
                                         std::string payload) {
  std::vector<std::string> chunks;
  chunks.reserve(3);
  chunks.push_back(line + "\n");
  chunks.push_back(wire::encode_header(
      type, 0, static_cast<std::uint32_t>(payload.size())));
  chunks.push_back(std::move(payload));
  enqueue_chunks(std::move(chunks));
}

void MuxConnection::enqueue_chunks(std::vector<std::string> chunks) {
  {
    const std::lock_guard<std::mutex> lock(write_mutex_);
    if (closed_ || closing_) {
      return;  // the client is gone (or going); nothing to deliver to
    }
    for (std::string& chunk : chunks) {
      write_queue_bytes_ += chunk.size();
      write_queue_.push_back(std::move(chunk));
    }
    if (write_queue_bytes_ > mux_->options_.max_write_queue_bytes) {
      overflowed_ = true;
      close_reason_ = "write queue overflow (" +
                      std::to_string(write_queue_bytes_) + " bytes > " +
                      std::to_string(mux_->options_.max_write_queue_bytes) +
                      " cap) — slow consumer";
    }
  }
  mux_->mark_dirty(shared_from_this());
}

void MuxConnection::close_after_flush(const std::string& reason) {
  {
    const std::lock_guard<std::mutex> lock(write_mutex_);
    if (closed_ || closing_) {
      return;
    }
    closing_ = true;
    close_reason_ = reason;
  }
  mux_->mark_dirty(shared_from_this());
}

ConnectionMux::ConnectionMux(MuxOptions options, MuxCallbacks callbacks)
    : options_(std::move(options)), callbacks_(std::move(callbacks)) {
  const std::size_t workers = std::max<std::size_t>(1, options_.io_workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->poller.add(worker->wake.fd(), util::Poller::kReadable, kWakeTag);
    workers_.push_back(std::move(worker));
  }
}

ConnectionMux::~ConnectionMux() { stop(); }

void ConnectionMux::add_listener(util::Listener* listener) {
  if (kFirstListenerTag + listeners_.size() >= kFirstConnectionId) {
    throw std::logic_error("ConnectionMux: too many listeners");
  }
  listeners_.emplace_back().listener = listener;
}

void ConnectionMux::start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Worker 0 owns the listeners: accepts are serialized there, and the
  // accepted sockets fan out round-robin.
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    workers_[0]->poller.add(listeners_[i].listener->fd(),
                            util::Poller::kReadable, kFirstListenerTag + i);
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i]() { worker_loop(i); });
  }
}

void ConnectionMux::stop() {
  if (stopping_.exchange(true)) {
    // Second caller: the joins below may still be in progress on the
    // first caller's thread; just don't join twice.
    return;
  }
  for (const auto& worker : workers_) {
    worker->wake.signal();
  }
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

const MuxListener& ConnectionMux::counts(
    const util::Listener& listener) const {
  const auto it = std::find_if(
      listeners_.begin(), listeners_.end(),
      [&listener](const MuxListener& e) { return e.listener == &listener; });
  if (it == listeners_.end()) {
    throw std::invalid_argument("ConnectionMux: listener was never added");
  }
  return *it;
}

void ConnectionMux::assign_connection(util::StreamSocket socket,
                                      MuxListener& origin) {
  const std::size_t target =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  const std::uint64_t id =
      next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MuxConnection> conn(
      new MuxConnection(this, target, id, origin, std::move(socket)));
  origin.accepted.fetch_add(1, std::memory_order_relaxed);
  origin.live.fetch_add(1, std::memory_order_relaxed);
  Worker& worker = *workers_[target];
  {
    const std::lock_guard<std::mutex> lock(worker.mutex);
    worker.incoming.push_back(std::move(conn));
  }
  worker.wake.signal();
}

void ConnectionMux::mark_dirty(const std::shared_ptr<MuxConnection>& conn) {
  Worker& worker = *workers_[conn->worker_];
  {
    const std::lock_guard<std::mutex> lock(worker.mutex);
    worker.dirty.push_back(conn);
  }
  worker.wake.signal();
}

void ConnectionMux::adopt_incoming(Worker& worker) {
  std::vector<std::shared_ptr<MuxConnection>> incoming;
  std::vector<std::shared_ptr<MuxConnection>> dirty;
  {
    const std::lock_guard<std::mutex> lock(worker.mutex);
    incoming.swap(worker.incoming);
    dirty.swap(worker.dirty);
  }
  for (auto& conn : incoming) {
    try {
      conn->socket_.set_nonblocking(true);
      worker.poller.add(conn->socket_.fd(), util::Poller::kReadable,
                        conn->id_);
    } catch (const util::SocketError& e) {
      ELPC_LOG(util::LogLevel::kWarn)
          << "mux: dropping fresh connection: " << e.what();
      // Was counted live at assign time; keep the books straight.
      {
        const std::lock_guard<std::mutex> lock(conn->write_mutex_);
        conn->closed_ = true;
      }
      conn->origin_.live.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    worker.conns.emplace(conn->id_, std::move(conn));
  }
  for (const auto& conn : dirty) {
    // A dirty entry may trail the connection's close; flush_writes
    // no-ops on closed connections.
    flush_writes(worker, conn);
  }
}

void ConnectionMux::flush_writes(Worker& worker,
                                 const std::shared_ptr<MuxConnection>& conn) {
  enum class Action { kNone, kClose } action = Action::kNone;
  std::string reason;
  bool want_epollout = false;
  {
    const std::lock_guard<std::mutex> lock(conn->write_mutex_);
    if (conn->closed_) {
      return;
    }
    if (conn->overflowed_) {
      // The slow consumer already owes us more memory than the cap;
      // there is no point (and no room) in a goodbye frame.
      action = Action::kClose;
      reason = "backpressure";
      ELPC_LOG(util::LogLevel::kWarn)
          << "mux: disconnecting " << conn->origin_.listener->transport()
          << " conn " << conn->id_ << ": " << conn->close_reason_;
    } else {
      // The write syscalls themselves; socket_server's `write_enqueue`
      // phase only times handing the bytes to this queue.
      const util::ProfileScope write_phase("socket_write", "daemon",
                                           conn->write_queue_.size());
      switch (conn->socket_.send_pending(conn->write_queue_,
                                         conn->write_front_offset_)) {
        case util::StreamSocket::IoStatus::kOk:
          conn->write_queue_bytes_ = 0;
          if (conn->closing_) {
            action = Action::kClose;
            reason = conn->close_reason_;
          }
          break;
        case util::StreamSocket::IoStatus::kWouldBlock: {
          std::size_t left = 0;
          for (const std::string& chunk : conn->write_queue_) {
            left += chunk.size();
          }
          conn->write_queue_bytes_ = left - conn->write_front_offset_;
          want_epollout = true;
          break;
        }
        case util::StreamSocket::IoStatus::kEof:
        case util::StreamSocket::IoStatus::kError:
          action = Action::kClose;
          reason = "error";
          break;
      }
    }
  }
  if (action == Action::kClose) {
    finish_close(worker, conn, reason);
    return;
  }
  if (want_epollout != conn->epollout_armed_) {
    conn->epollout_armed_ = want_epollout;
    const std::uint32_t interest =
        (conn->reading_paused_ ? 0 : util::Poller::kReadable) |
        (want_epollout ? util::Poller::kWritable : 0);
    try {
      worker.poller.mod(conn->socket_.fd(), interest, conn->id_);
    } catch (const util::SocketError&) {
      finish_close(worker, conn, "error");
    }
  }
}

void ConnectionMux::finish_close(Worker& worker,
                                 const std::shared_ptr<MuxConnection>& conn,
                                 const std::string& reason) {
  {
    const std::lock_guard<std::mutex> lock(conn->write_mutex_);
    if (conn->closed_) {
      return;
    }
    conn->closed_ = true;
  }
  try {
    worker.poller.del(conn->socket_.fd());
  } catch (const util::SocketError&) {
    // Already deregistered (or the fd died under us) — harmless here.
  }
  conn->socket_.close();
  worker.conns.erase(conn->id_);
  conn->origin_.live.fetch_sub(1, std::memory_order_relaxed);
  if (callbacks_.on_disconnect) {
    callbacks_.on_disconnect(conn, reason);
  }
}

void ConnectionMux::frame_violation(Worker& worker,
                                    const std::shared_ptr<MuxConnection>& conn,
                                    const std::string& diagnostic) {
  // Same contract for every unrecoverable framing failure (over-cap
  // unterminated text, bad binary magic, over-cap declared length):
  // one error frame (best effort), then close — the stream can never
  // re-sync to a frame boundary.
  conn->read_buffer_.clear();
  conn->read_buffer_.shrink_to_fit();
  conn->read_offset_ = 0;
  conn->scan_offset_ = 0;
  conn->reading_paused_ = true;
  const std::uint32_t interest =
      conn->epollout_armed_ ? util::Poller::kWritable : 0;
  try {
    worker.poller.mod(conn->socket_.fd(), interest, conn->id_);
  } catch (const util::SocketError&) {
    finish_close(worker, conn, "error");
    return;
  }
  if (callbacks_.frame_error_line) {
    conn->send_line(callbacks_.frame_error_line(diagnostic));
  }
  conn->close_after_flush("protocol");
}

bool ConnectionMux::has_actionable_frame(MuxConnection& conn) const {
  const std::string_view buf =
      std::string_view(conn.read_buffer_).substr(conn.read_offset_);
  if (buf.empty()) {
    return false;
  }
  if (wire::is_frame_start(static_cast<unsigned char>(buf[0]))) {
    try {
      const std::optional<wire::FrameHeader> header = wire::parse_header(buf);
      if (!header.has_value()) {
        return false;  // torn header
      }
      return header->length > options_.max_line_bytes ||
             buf.size() >= wire::kHeaderBytes + header->length;
    } catch (const wire::WireFormatError&) {
      return true;  // malformed magic/flags: actionable as an error
    }
  }
  return conn.find_line_end() != std::string::npos;
}

void ConnectionMux::process_frames(Worker& worker,
                                   const std::shared_ptr<MuxConnection>& conn,
                                   bool drain_all) {
  conn->in_ready_ = false;
  std::size_t handled = 0;
  const auto unread = [&conn] {
    return std::string_view(conn->read_buffer_).substr(conn->read_offset_);
  };
  while (drain_all || handled < options_.max_frames_per_wake) {
    const std::string_view buf = unread();
    if (buf.empty()) {
      break;
    }
    if (wire::is_frame_start(static_cast<unsigned char>(buf[0]))) {
      // Binary frame: the length is declared up front, so torn frames
      // just accumulate (like torn lines) while an over-cap or
      // malformed header is rejected immediately — no buffering 16 MiB
      // to discover a violation.
      std::optional<wire::FrameHeader> header;
      try {
        header = wire::parse_header(buf);
      } catch (const wire::WireFormatError& e) {
        frame_violation(worker, conn, e.what());
        return;
      }
      if (!header.has_value()) {
        break;  // torn header: keep accumulating
      }
      if (header->length > options_.max_line_bytes) {
        frame_violation(
            worker, conn,
            "binary frame declares " + std::to_string(header->length) +
                " payload bytes (cap " +
                std::to_string(options_.max_line_bytes) + ")");
        return;
      }
      const std::size_t total = wire::kHeaderBytes + header->length;
      if (buf.size() < total) {
        break;  // torn payload: keep accumulating
      }
      if (!callbacks_.on_binary_frame) {
        frame_violation(worker, conn,
                        "binary frame on a text-only endpoint");
        return;
      }
      // Consumed before the handler runs; the view stays valid because
      // only a read (never a handler) appends to the buffer.
      conn->read_offset_ += total;
      callbacks_.on_binary_frame(
          conn, *header, buf.substr(wire::kHeaderBytes, header->length));
    } else {
      const std::size_t newline = conn->find_line_end();
      if (newline == std::string::npos) {
        break;
      }
      const std::size_t length = newline - conn->read_offset_;
      conn->read_offset_ = newline + 1;
      if (callbacks_.on_frame) {
        callbacks_.on_frame(conn, buf.substr(0, length));
      }
    }
    ++handled;
    {
      const std::lock_guard<std::mutex> lock(conn->write_mutex_);
      if (conn->closed_ || conn->closing_) {
        return;  // the handler decided this connection is done
      }
    }
  }
  if (has_actionable_frame(*conn)) {
    // More complete frames buffered: rotate to the back of the ready
    // ring instead of hogging this pass (round-robin fairness).
    if (!conn->in_ready_) {
      conn->in_ready_ = true;
      worker.ready.push_back(conn->id_);
    }
    return;
  }
  // Nothing left to act on, so the buffer holds at most one torn frame:
  // drop what this pass consumed (and a large frame's capacity) now
  // rather than at the next read, which may never come.
  conn->compact_read_buffer();
  const std::string_view rest = unread();
  if (!rest.empty() &&
      !wire::is_frame_start(static_cast<unsigned char>(rest[0])) &&
      rest.size() > options_.max_line_bytes) {
    // Over-cap unterminated TEXT tail (binary declared lengths were
    // already bounded at header parse above).
    frame_violation(worker, conn,
                    "frame exceeds " +
                        std::to_string(options_.max_line_bytes) +
                        " bytes with no terminator (" +
                        std::to_string(rest.size()) + " buffered)");
  }
}

void ConnectionMux::handle_readable(Worker& worker,
                                    const std::shared_ptr<MuxConnection>& conn) {
  if (conn->reading_paused_) {
    return;
  }
  // Drop what earlier passes consumed: one compaction per read.
  conn->compact_read_buffer();
  switch (conn->socket_.recv_available(conn->read_buffer_, kRecvBudgetBytes)) {
    case util::StreamSocket::IoStatus::kOk:
      process_frames(worker, conn, /*drain_all=*/false);
      return;
    case util::StreamSocket::IoStatus::kWouldBlock:
      return;
    case util::StreamSocket::IoStatus::kEof: {
      // The client finished sending.  Whatever complete frames it
      // pipelined before closing still get handled (and their responses
      // flushed) — matching the blocking server, which drained its
      // buffer before seeing EOF.  An unterminated tail is dropped
      // silently, exactly like a peer dying between write() calls.
      process_frames(worker, conn, /*drain_all=*/true);
      conn->reading_paused_ = true;  // EOF stays readable level-triggered
      bool closed;
      {
        const std::lock_guard<std::mutex> lock(conn->write_mutex_);
        closed = conn->closed_;
      }
      if (closed) {
        return;
      }
      const std::uint32_t interest =
          conn->epollout_armed_ ? util::Poller::kWritable : 0;
      try {
        worker.poller.mod(conn->socket_.fd(), interest, conn->id_);
      } catch (const util::SocketError&) {
        finish_close(worker, conn, "error");
        return;
      }
      conn->close_after_flush("eof");
      return;
    }
    case util::StreamSocket::IoStatus::kError:
      finish_close(worker, conn, "error");
      return;
  }
}

void ConnectionMux::worker_loop(std::size_t index) {
  Worker& worker = *workers_[index];
  while (!stopping_.load(std::memory_order_acquire)) {
    const std::vector<util::Poller::Event> events =
        worker.poller.wait(worker.ready.empty() ? -1 : 0);
    if (stopping_.load(std::memory_order_acquire)) {
      break;
    }
    // Reset the wake BEFORE swapping the inboxes.  An inbox push
    // happens-before its signal, so everything a consumed signal
    // announced is visible to the swap below; a signal landing after
    // this drain leaves the eventfd readable and the next wait returns
    // immediately.  Draining inside the event loop (after the swap)
    // loses exactly that wakeup: a push+signal racing between swap and
    // drain is consumed with nothing left pending, and the worker
    // parks in epoll_wait over a stranded connection or response.
    worker.wake.drain();
    adopt_incoming(worker);
    for (const util::Poller::Event& event : events) {
      if (event.tag == kWakeTag) {
        continue;  // drained above
      }
      if (event.tag < kFirstConnectionId) {
        MuxListener& origin = listeners_[event.tag - kFirstListenerTag];
        while (auto socket = origin.listener->try_accept()) {
          assign_connection(std::move(*socket), origin);
        }
        continue;
      }
      const auto it = worker.conns.find(event.tag);
      if (it == worker.conns.end()) {
        continue;  // closed earlier in this pass
      }
      const std::shared_ptr<MuxConnection> conn = it->second;
      if ((event.events & util::Poller::kWritable) != 0) {
        flush_writes(worker, conn);
      }
      if (worker.conns.find(event.tag) == worker.conns.end()) {
        continue;  // the flush closed it
      }
      if ((event.events &
           (util::Poller::kReadable | EPOLLHUP | EPOLLERR)) != 0) {
        handle_readable(worker, conn);
      }
    }
    // Fairness pass over connections with buffered frames: one quantum
    // each, re-queued behind the others while more remain.
    std::size_t pending = worker.ready.size();
    while (pending-- > 0 && !worker.ready.empty()) {
      const std::uint64_t id = worker.ready.front();
      worker.ready.pop_front();
      const auto it = worker.conns.find(id);
      if (it == worker.conns.end()) {
        continue;
      }
      process_frames(worker, it->second, /*drain_all=*/false);
    }
  }
  // Shutdown: flush what can be flushed without waiting, then close
  // every connection this worker still owns.  The flush matters for
  // protocol correctness, not just politeness — the `shutdown` verb's
  // own response (and any wait responses released by the manager
  // stopping first) were queued moments before this and a client is
  // blocking on them; dropping those bytes turns a clean shutdown into
  // a client-side transport error.
  adopt_incoming(worker);  // pick up writes queued since the last pass
  std::vector<std::shared_ptr<MuxConnection>> remaining;
  remaining.reserve(worker.conns.size());
  for (const auto& [id, conn] : worker.conns) {
    remaining.push_back(conn);
  }
  for (const auto& conn : remaining) {
    {
      const std::lock_guard<std::mutex> lock(conn->write_mutex_);
      if (!conn->closed_ && !conn->write_queue_.empty()) {
        // One non-blocking attempt: small frames (the common case — a
        // response or two) drain in full; a slow consumer's backlog is
        // abandoned rather than blocking teardown.
        (void)conn->socket_.send_pending(conn->write_queue_,
                                         conn->write_front_offset_);
      }
    }
    finish_close(worker, conn, "shutdown");
  }
}

}  // namespace elpc::daemon
