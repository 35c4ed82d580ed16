#include "util/socket.hpp"

#include <gtest/gtest.h>
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
  UnixListener listener(socket_path("echo"));
  std::thread server([&listener]() {
    std::optional<StreamSocket> peer = listener.accept();
    ASSERT_TRUE(peer.has_value());
    for (;;) {
      const std::optional<std::string> line = peer->recv_line();
      if (!line.has_value()) {
        return;  // client closed
      }
      peer->send_line("echo:" + *line);
    }
  });

  StreamSocket client = StreamSocket::connect(listener.path());
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
  UnixListener listener(socket_path("cap"));
  std::thread server([&listener]() {
    std::optional<StreamSocket> peer = listener.accept();
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

  StreamSocket client = StreamSocket::connect(listener.path());
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
  { UnixListener first(path); }  // unlinked on destroy, path reusable
  {
    // A stale file at the path (a crashed daemon's leftover) must not
    // block the next bind.
    std::ofstream(path) << "stale";
    UnixListener second(path);
    EXPECT_EQ(second.path(), path);
  }
  UnixListener third(path);
  EXPECT_EQ(third.path(), path);
}

TEST(UnixListener, CloseUnblocksAccept) {
  UnixListener listener(socket_path("close"));
  std::thread acceptor([&listener]() {
    EXPECT_FALSE(listener.accept().has_value());
  });
  listener.close();
  acceptor.join();  // returns promptly instead of blocking forever
}

}  // namespace
}  // namespace elpc::util
