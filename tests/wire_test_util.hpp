// Socket helpers for the wire-codec tests: a connected AF_UNIX stream
// pair, and a reader that drains one end to EOF through the one inbound
// frame decoder (wire::StreamFrameDecoder), as a fabric reader does.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include "net/tcp_wire.hpp"

namespace oopp::net::test {

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

/// Half-close `sp.a`, read `sp.b` to EOF and append every decoded message
/// to `out`.  Returns false on a read error or a stream the decoder
/// rejects.
inline bool decode_to_eof(const SocketPair& sp, std::vector<Message>& out) {
  ::shutdown(sp.a, SHUT_WR);
  wire::StreamFrameDecoder decoder;
  std::uint8_t chunk[4096];
  for (;;) {
    const ssize_t n = ::read(sp.b, chunk, sizeof(chunk));
    if (n < 0) return false;
    if (n == 0) return true;
    if (!decoder.feed(chunk, static_cast<std::size_t>(n), out)) return false;
  }
}

}  // namespace oopp::net::test
