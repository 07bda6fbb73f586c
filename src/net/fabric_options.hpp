// FabricOptions: the one transport configuration surface.
//
// Every fabric knob is collected here, so Cluster::Options carries a
// single `transport` value and code configuring a fabric does not need to
// know which concrete fabric it is talking to.  See the migration table
// in README.md.
#pragma once

#include <chrono>
#include <cstddef>

#include "net/batcher.hpp"

namespace oopp::net {

struct FabricOptions {
  /// Serve inbound connections with one epoll reactor thread per fabric
  /// instead of one blocking reader thread per peer connection.  Changes
  /// no wire bytes (docs/PROTOCOL.md); construction-time only.  The
  /// thread-per-peer path is kept for comparison benchmarks.
  bool reactor = true;

  /// Per-peer send coalescing (see net/batcher.hpp).  Off by default: the
  /// wire stream is then byte-identical to the pre-batching framing.
  /// Runtime-reconfigurable via Fabric::reconfigure().
  BatchOptions batch{};

  /// Read granularity of both inbound paths: bytes pulled per read()
  /// syscall while a connection is readable.
  std::size_t read_chunk = 64 * 1024;

  /// SO_RCVBUF/SO_SNDBUF for accepted sockets; 0 keeps the kernel
  /// default.
  int socket_buffer = 0;

  /// How long send() keeps redialing a peer that refuses connections
  /// (mesh deployments; peers of one cluster may start in any order).
  std::chrono::milliseconds connect_deadline{10'000};
};

}  // namespace oopp::net
