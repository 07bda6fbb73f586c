#include "net/tcp_fabric.hpp"

#include <netdb.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "net/tcp_wire.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace oopp::net {

namespace {

constexpr std::uint64_t link_key(MachineId src, MachineId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

}  // namespace

struct TcpFabric::Link {
  util::CheckedMutex mu{"net.TcpFabric.link"};
  int fd = -1;
  BatchQueue batch;  // guarded by mu
  ~Link() {
    if (fd >= 0) ::close(fd);
  }
};

struct TcpFabric::Listener {
  int fd = -1;
  // Shared with whichever reader path serves this machine; detach() nulls
  // slot->inbox under slot->mu so no frame lands in a destroyed Inbox.
  std::shared_ptr<InboxSlot> slot = std::make_shared<InboxSlot>();
  // Thread-per-peer (reactor=false) path: this listener owns and joins
  // its acceptor and reader threads in stop().
  util::CheckedMutex readers_mu{"net.TcpFabric.readers"};
  std::vector<int> reader_fds;  // open connections; guarded by readers_mu
  std::vector<std::thread> readers;  // oopp-lint: allow(raw-thread-primitive)
  std::thread acceptor;  // oopp-lint: allow(raw-thread-primitive)

  ~Listener() { stop(); }

  void stop() {
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
      fd = -1;
    }
    if (acceptor.joinable()) acceptor.join();
    std::vector<std::thread> rs;  // oopp-lint: allow(raw-thread-primitive)
    {
      std::lock_guard lock(readers_mu);
      for (int c : reader_fds) ::shutdown(c, SHUT_RDWR);
      rs.swap(readers);
    }
    for (auto& t : rs) t.join();
  }

  void start_accepting(std::size_t read_chunk) {
    // The acceptor works on a by-value copy of the listen fd: stop()
    // writes fd = -1 concurrently, and the thread never needs to observe
    // that (closing the fd is what unblocks accept()).
    const int lfd = fd;
    // oopp-lint: allow(raw-thread-primitive) — joined via stop().
    acceptor = std::thread([this, lfd, read_chunk] {
      for (;;) {
        const int c = ::accept(lfd, nullptr, nullptr);
        if (c < 0) return;  // listener closed: shut down
        wire::set_nodelay(c);
        std::lock_guard lock(readers_mu);
        reader_fds.push_back(c);
        readers.emplace_back(
            [this, c, read_chunk] { read_loop(c, read_chunk); });
      }
    });
  }

  /// The thread-per-peer reader: blocking read_chunk-sized reads into the
  /// same incremental decoder the reactor uses, until EOF, a socket error,
  /// a malformed stream or a payload too large to allocate — each of
  /// which drops the connection.
  void read_loop(int c, std::size_t read_chunk) {
    static auto& frames =
        telemetry::Metrics::scope_for("net").counter("tcp_frames_received");
    std::vector<std::uint8_t> buf(read_chunk);
    wire::StreamFrameDecoder decoder;
    std::vector<Message> ms;
    for (;;) {
      const ssize_t r = ::read(c, buf.data(), buf.size());
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) break;
      ms.clear();
      try {
        if (!decoder.feed(buf.data(), static_cast<std::size_t>(r), ms)) break;
      } catch (const std::bad_alloc&) {
        break;  // the announced payload does not fit: drop the connection
      }
      if (ms.empty()) continue;
      frames.add(ms.size());
      slot->deliver(std::move(ms));
    }
    // Unlisted under the lock before the close, so stop() never shuts
    // down a number the kernel has already handed to another socket.
    std::lock_guard lock(readers_mu);
    std::erase(reader_fds, c);
    ::close(c);
  }
};

TcpFabric::TcpFabric(std::size_t machines, FabricOptions opts)
    : TcpFabric(std::vector<Endpoint>(machines), opts, /*loopback=*/true) {}

TcpFabric::TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts)
    : TcpFabric(std::move(endpoints), opts, /*loopback=*/false) {}

TcpFabric::TcpFabric(std::vector<Endpoint> endpoints, FabricOptions opts,
                     bool loopback)
    : endpoints_(std::move(endpoints)),
      loopback_(loopback),
      opts_(opts),
      listeners_(endpoints_.size()),
      batch_opts_(opts.batch) {
  OOPP_CHECK_MSG(!endpoints_.empty(), "empty endpoint table");
  if (opts_.reactor)
    reactor_ = std::make_unique<Reactor>(Reactor::Options{
        .read_chunk = opts_.read_chunk, .socket_buffer = opts_.socket_buffer});
}

TcpFabric::~TcpFabric() { shutdown(); }

void TcpFabric::attach(MachineId id, Inbox* inbox) {
  OOPP_CHECK(id < endpoints_.size());
  OOPP_CHECK_MSG(listeners_[id] == nullptr,
                 "machine " << id << " attached twice");
  auto l = std::make_unique<Listener>();
  l->slot->inbox = inbox;  // not shared with any reader yet

  l->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  OOPP_CHECK_MSG(l->fd >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(l->fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_ ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(endpoints_[id].port);
  OOPP_CHECK_MSG(
      ::bind(l->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind to port " << endpoints_[id].port
                      << " failed: " << std::strerror(errno));
  OOPP_CHECK(::listen(l->fd, 64) == 0);
  socklen_t len = sizeof(addr);
  OOPP_CHECK(::getsockname(l->fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
             0);
  endpoints_[id].port = ntohs(addr.sin_port);

  if (reactor_) {
    wire::set_nonblocking(l->fd);
    reactor_->add_listener(l->fd, l->slot);
  } else {
    l->start_accepting(opts_.read_chunk);
  }
  listeners_[id] = std::move(l);
}

void TcpFabric::detach(MachineId id) {
  if (id >= listeners_.size() || listeners_[id] == nullptr) return;
  InboxSlot& slot = *listeners_[id]->slot;
  std::lock_guard lock(slot.mu);
  slot.inbox = nullptr;
}

void TcpFabric::reconfigure(const FabricOptions& opts) {
  batch_opts_.store(opts.batch);
}

std::uint16_t TcpFabric::port(MachineId id) const {
  OOPP_CHECK(id < endpoints_.size());
  return endpoints_[id].port;
}

TcpFabric::Link& TcpFabric::link_for(MachineId src, MachineId dst) {
  const std::uint64_t key = link_key(src, dst);
  {
    std::lock_guard lock(links_mu_);
    auto it = links_.find(key);
    if (it != links_.end()) return *it->second;
  }

  // Resolve and dial with retry: peers of one cluster may come up in any
  // order.
  const Endpoint& ep = endpoints_[dst];
  OOPP_CHECK_MSG(ep.port != 0,
                 "send to machine " << dst << ", which never attached");
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(ep.port);
  OOPP_CHECK_MSG(
      ::getaddrinfo(ep.host.c_str(), port_str.c_str(), &hints, &res) == 0,
      "cannot resolve " << ep.host);

  const auto deadline = steady_clock::now() + opts_.connect_deadline;
  int fd = -1;
  for (;;) {
    fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    OOPP_CHECK(fd >= 0);
    if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
    if (steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ::freeaddrinfo(res);
  OOPP_CHECK_MSG(fd >= 0, "cannot connect to machine "
                              << dst << " at " << ep.host << ":" << ep.port);
  wire::set_nodelay(fd);

  std::lock_guard lock(links_mu_);
  auto it = links_.find(key);
  if (it != links_.end()) {
    // Lost a dial race; keep the established one.
    ::close(fd);
    return *it->second;
  }
  auto link = std::make_unique<Link>();
  link->fd = fd;
  auto [pos, inserted] = links_.emplace(key, std::move(link));
  OOPP_CHECK(inserted);
  return *pos->second;
}

void TcpFabric::send(Message m) {
  const MachineId src = m.header.src;
  const MachineId dst = m.header.dst;
  OOPP_CHECK_MSG(dst < endpoints_.size(), "send to unknown machine " << dst);
  OOPP_CHECK_MSG(src < listeners_.size() && listeners_[src] != nullptr,
                 "machine " << src << " is not attached to this fabric");
  account(m);

  if (dst == src) {
    // Loopback without touching the kernel — never batched: there is no
    // syscall to amortize, and delaying it would only add latency.
    InboxSlot& slot = *listeners_[src]->slot;
    std::lock_guard lock(slot.mu);
    if (slot.inbox != nullptr) slot.inbox->push_now(std::move(m));
    return;
  }

  const BatchOptions bo = batch_opts_.load();
  Link& link = link_for(src, dst);

  if (!bo.enabled) {
    std::lock_guard lock(link.mu);
    // Drain leftovers from when batching was on (runtime switch-off).
    OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kDrain),
                   "frame write to machine " << dst << " failed");
    OOPP_CHECK_MSG(wire::send_framev(link.fd, m),
                   "frame write to machine " << dst << " failed");
    return;
  }

  bool arm = false;
  time_point deadline{};
  {
    std::lock_guard lock(link.mu);
    arm = link.batch.add(std::move(m), bo);
    deadline = link.batch.deadline;
    if (link.batch.due_for_size_flush(bo)) {
      OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kSize),
                     "frame write to machine " << dst << " failed");
      arm = false;
    }
  }
  // The flusher registry lock is only ever taken with no link lock held.
  if (arm) flusher_.schedule(link_key(src, dst), deadline);
}

void TcpFabric::flush_link(std::uint64_t key) {
  std::lock_guard links_lock(links_mu_);
  auto it = links_.find(key);
  if (it == links_.end()) return;
  Link& link = *it->second;
  time_point again{};
  {
    std::lock_guard lock(link.mu);
    if (link.batch.empty()) return;
    if (link.batch.deadline <= steady_clock::now()) {
      OOPP_CHECK_MSG(link.batch.flush(link.fd, FlushTrigger::kDeadline),
                     "frame write to machine "
                         << static_cast<MachineId>(key) << " failed");
      return;
    }
    // A size flush emptied the queue and a younger batch started since
    // this deadline was armed: come back when that one matures.
    again = link.batch.deadline;
  }
  flusher_.schedule(key, again);
}

void TcpFabric::shutdown() {
  if (down_) return;
  down_ = true;
  flusher_.stop();
  {
    std::lock_guard lock(links_mu_);
    for (auto& [key, link] : links_) {
      std::lock_guard link_lock(link->mu);
      (void)link->batch.flush(link->fd, FlushTrigger::kDrain);
    }
    links_.clear();  // closes outgoing sockets; peers' readers exit on EOF
  }
  // Listening fds close before the reactor stops, so no accept races the
  // teardown; accepted fds are owned and closed by the reactor itself.
  for (auto& l : listeners_)
    if (l != nullptr) l->stop();
  if (reactor_) reactor_->stop();
}

std::vector<Endpoint> load_endpoints(const std::string& path) {
  std::ifstream in(path);
  OOPP_CHECK_MSG(in.good(), "cannot open endpoints file " << path);
  std::vector<Endpoint> out;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    Endpoint ep;
    unsigned port = 0;
    if (ls >> ep.host >> port) {
      OOPP_CHECK_MSG(port > 0 && port < 65536, "bad port in " << path);
      ep.port = static_cast<std::uint16_t>(port);
      out.push_back(std::move(ep));
    }
  }
  OOPP_CHECK_MSG(!out.empty(), "no endpoints in " << path);
  return out;
}

}  // namespace oopp::net
