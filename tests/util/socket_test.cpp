#include "util/socket.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>
#include <type_traits>

namespace elpc::util {
namespace {

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "/elpc_util_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(UnixSocket, LineFramedEchoRoundTrip) {
  const auto listener = Listener::unix_at(socket_path("echo"));
  std::thread server([&listener]() {
    std::optional<StreamSocket> peer = listener->accept();
    ASSERT_TRUE(peer.has_value());
    for (;;) {
      const std::optional<std::string> line = peer->recv_line();
      if (!line.has_value()) {
        return;  // client closed
      }
      peer->send_line("echo:" + *line);
    }
  });

  StreamSocket client = StreamSocket::connect(listener->path());
  client.send_line("hello");
  EXPECT_EQ(client.recv_line(), "echo:hello");
  // Framing survives several messages on one connection, including
  // payloads that arrive faster than the peer reads them.
  for (int i = 0; i < 100; ++i) {
    client.send_line("m" + std::to_string(i));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(client.recv_line(), "echo:m" + std::to_string(i));
  }
  client.close();
  server.join();
}

TEST(UnixSocket, OverlongUnterminatedLineThrowsFrameError) {
  const auto listener = Listener::unix_at(socket_path("cap"));
  std::thread server([&listener]() {
    std::optional<StreamSocket> peer = listener->accept();
    ASSERT_TRUE(peer.has_value());
    // A message under the cap still frames fine...
    peer->send_line(std::string(32, 'a'));
    // ...then one long unterminated burst; the peer will give up on us.
    try {
      peer->send_line(std::string(4096, 'b'));
    } catch (const SocketError&) {
      // The receiver may already have closed — also fine.
    }
  });

  StreamSocket client = StreamSocket::connect(listener->path());
  client.set_max_line_bytes(256);
  EXPECT_EQ(client.recv_line(), std::string(32, 'a'));
  // The 4 KiB frame exceeds the 256-byte cap long before its terminator
  // arrives: a protocol violation, not a transient failure.
  EXPECT_THROW((void)client.recv_line(), SocketFrameError);
  client.close();
  server.join();
}

TEST(UnixSocket, ZeroLineCapRejected) {
  // An uncapped buffer is exactly the failure mode the cap exists for.
  StreamSocket socket;
  EXPECT_THROW(socket.set_max_line_bytes(0), SocketError);
}

TEST(UnixSocket, FrameErrorIsASocketError) {
  // Callers catching SocketError (the transport failure umbrella) must
  // also see frame violations; only code that needs the distinction
  // catches the derived type.
  static_assert(std::is_base_of_v<SocketError, SocketFrameError>);
  static_assert(std::is_base_of_v<SocketError, SocketTimeout>);
}

TEST(UnixSocket, ConnectToNothingThrows) {
  EXPECT_THROW((void)StreamSocket::connect(socket_path("absent")),
               SocketError);
}

TEST(UnixSocket, OverlongPathRejectedNotTruncated) {
  EXPECT_THROW((void)StreamSocket::connect("/tmp/" + std::string(200, 'x')),
               SocketError);
}

TEST(UnixListener, RebindsOverStaleSocketFile) {
  const std::string path = socket_path("stale");
  { const auto first = Listener::unix_at(path); }  // unlinked on destroy
  {
    // A stale file at the path (a crashed daemon's leftover) must not
    // block the next bind.
    std::ofstream(path) << "stale";
    const auto second = Listener::unix_at(path);
    EXPECT_EQ(second->path(), path);
  }
  const auto third = Listener::unix_at(path);
  EXPECT_EQ(third->path(), path);
  EXPECT_EQ(third->port(), -1);
  EXPECT_STREQ(third->transport(), "unix");
}

TEST(UnixListener, RefusesAPathSomeoneIsListeningOn) {
  const std::string path = socket_path("live");
  const auto first = Listener::unix_at(path);
  EXPECT_THROW((void)Listener::unix_at(path), SocketError);
  // The refused bind left the live endpoint alone.
  StreamSocket client = StreamSocket::connect(path);
  EXPECT_TRUE(first->accept().has_value());
}

/// close() from another thread wakes a blocked accept(), on either
/// transport.
void expect_close_unblocks_accept(Listener& listener) {
  std::thread acceptor([&listener]() {
    EXPECT_FALSE(listener.accept().has_value());
  });
  listener.close();
  acceptor.join();  // returns promptly instead of blocking forever
}

TEST(UnixListener, CloseUnblocksAccept) {
  expect_close_unblocks_accept(*Listener::unix_at(socket_path("close")));
}

TEST(TcpListener, PortZeroResolvesToAConnectablePort) {
  const auto listener = Listener::tcp_at("127.0.0.1", 0);
  ASSERT_GT(listener->port(), 0);
  EXPECT_EQ(listener->path(), "");
  EXPECT_STREQ(listener->transport(), "tcp");
  StreamSocket client = StreamSocket::connect_tcp("127.0.0.1",
                                                  listener->port());
  std::optional<StreamSocket> peer = listener->accept();
  ASSERT_TRUE(peer.has_value());
  client.send_line("ping");
  EXPECT_EQ(peer->recv_line(), "ping");
}

TEST(TcpListener, AcceptedConnectionsHaveNoDelay) {
  const auto listener = Listener::tcp_at("127.0.0.1", 0);
  StreamSocket client = StreamSocket::connect_tcp("127.0.0.1",
                                                  listener->port());
  std::optional<StreamSocket> peer = listener->accept();
  ASSERT_TRUE(peer.has_value());
  int nodelay = 0;
  socklen_t length = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(peer->fd(), IPPROTO_TCP, TCP_NODELAY, &nodelay,
                         &length),
            0);
  EXPECT_NE(nodelay, 0);
}

TEST(TcpListener, CloseUnblocksAccept) {
  expect_close_unblocks_accept(*Listener::tcp_at("127.0.0.1", 0));
}

TEST(TcpListener, DestructionUnlinksNothing) {
  const std::string path = socket_path("tcp_keep");
  const auto unix_listener = Listener::unix_at(path);
  { const auto tcp_listener = Listener::tcp_at("127.0.0.1", 0); }
  // The Unix endpoint beside it is still there and still served.
  EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  StreamSocket client = StreamSocket::connect(path);
  EXPECT_TRUE(unix_listener->accept().has_value());
}

}  // namespace
}  // namespace elpc::util
