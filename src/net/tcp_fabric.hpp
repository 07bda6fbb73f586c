// TCP fabric: machines exchange frames over real sockets.
//
// The fabric holds one endpoint table (host + port per machine id) and
// serves every machine attached in this OS process.  Two deployments
// share the one code path:
//
//  * TcpFabric(machines, opts) — every machine lives in this process.
//    The table holds N loopback entries; attach() binds 127.0.0.1 on an
//    ephemeral port and records it.
//  * TcpFabric(endpoints, opts) — a multi-process (or multi-host) mesh
//    (oopp_noded).  attach() binds the configured port on INADDR_ANY;
//    the other machines are separate processes reached at their entries.
//
// Outgoing links are dialed lazily on first send, retried until
// FabricOptions::connect_deadline (processes of one cluster may start in
// any order), and cached per (src, dst) pair; a per-link mutex keeps
// frames atomic on the socket.  A send to the sending machine itself is
// delivered straight into its inbox without touching the kernel; frames
// between two machines of one process still cross a real socket.
//
// Inbound connections are served, by default, by one epoll reactor thread
// shared across every listener of the fabric (net/reactor.hpp); setting
// FabricOptions::reactor = false runs one blocking reader thread per peer
// connection instead, kept for comparison.  Both paths decode through
// wire::StreamFrameDecoder, so they parse the identical wire stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/batcher.hpp"
#include "net/fabric.hpp"
#include "net/fabric_options.hpp"
#include "net/reactor.hpp"
#include "util/checked_mutex.hpp"

namespace oopp::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral, recorded by attach()
};

class TcpFabric final : public Fabric {
 public:
  /// `machines` in-process machines on ephemeral loopback ports.
  explicit TcpFabric(std::size_t machines)
      : TcpFabric(machines, FabricOptions{}) {}
  TcpFabric(std::size_t machines, FabricOptions opts);
  /// A mesh over a fixed endpoint table; this process attaches the
  /// machine(s) it hosts.
  TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts);
  ~TcpFabric() override;

  void attach(MachineId id, Inbox* inbox) override;
  void detach(MachineId id) override;
  void send(Message m) override;
  void reconfigure(const FabricOptions& opts) override;
  void shutdown() override;

  /// The options this fabric runs with (batch reflects reconfigure()).
  [[nodiscard]] FabricOptions options() const {
    FabricOptions o = opts_;
    o.batch = batch_opts_.load();
    return o;
  }

  /// Port the given machine listens on (ephemeral ones once attached).
  [[nodiscard]] std::uint16_t port(MachineId id) const;

 private:
  struct Listener;  // listening socket + inbox slot of one attached machine
  struct Link;      // cached outgoing connection for one (src, dst) pair

  TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts,
            bool loopback);
  Link& link_for(MachineId src, MachineId dst);
  /// Deadline-flush callback (runs on the flusher thread).
  void flush_link(std::uint64_t key);

  std::vector<Endpoint> endpoints_;
  const bool loopback_;  // bind 127.0.0.1:0, else INADDR_ANY:configured
  FabricOptions opts_;   // construction-time snapshot (batch lives below)
  // One entry per machine id; null until that machine attaches here.
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::unique_ptr<Reactor> reactor_;  // present iff opts_.reactor
  util::CheckedMutex links_mu_{"net.TcpFabric.links"};
  std::unordered_map<std::uint64_t, std::unique_ptr<Link>> links_;
  bool down_ = false;

  AtomicBatchOptions batch_opts_;
  BatchFlusher flusher_{[this](std::uint64_t key) { flush_link(key); }};
};

/// Parse an endpoints file: one "host port" pair per line, machine id =
/// line number; '#' starts a comment.
std::vector<Endpoint> load_endpoints(const std::string& path);

}  // namespace oopp::net
