// N:M dispatch tests (docs/DISPATCH.md): the receiver thread routes
// requests straight to per-object FIFOs drained on the worker pool, and
// same-machine calls skip the fabric.  These pin the contract — per-object
// FIFO order survives N concurrent clients, M distinct objects
// demonstrably execute in parallel, one remote call costs one pool task,
// a same-machine call never touches the fabric yet keeps FIFO order and
// at-most-once retries, a racing shutdown cannot deliver into a destroyed
// Inbox, a bounded object queue refuses overflow with PeerUnavailable, and
// the incremental frame decoder both inbound paths share parses exactly
// the bytes sent.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/future.hpp"
#include "core/remote_ptr.hpp"
#include "net/fabric_options.hpp"
#include "net/inproc_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "net/tcp_wire.hpp"
#include "rpc/binding.hpp"
#include "rpc/errors.hpp"
#include "rpc/node.hpp"
#include "telemetry/metrics.hpp"

namespace rpc = oopp::rpc;
namespace net = oopp::net;
namespace wire = oopp::net::wire;
using oopp::Future;
using oopp::make_remote;
using oopp::remote_ptr;

namespace {

// ---------------------------------------------------------------------------
// Test servants
// ---------------------------------------------------------------------------

/// Appends every call's tag to a log.  Per-object FIFO dispatch is what
/// makes the unguarded vector race-free: if two invocations of one
/// Recorder ever overlapped, TSan (and the test's ordering check) would
/// catch it.
class Recorder {
 public:
  int record(int tag) {
    log_.push_back(tag);
    return tag;
  }
  std::vector<int> log() const { return log_; }

 private:
  std::vector<int> log_;
};

/// A rendezvous: arrive() blocks until `expected` concurrent invocations
/// (across distinct objects) are all inside it, proving the invocations
/// overlap in time.  Serial execution would park the first arrival until
/// the timeout and return 0.
class Gate {
 public:
  explicit Gate(int expected) : expected_(expected) {}

  int arrive() {
    std::unique_lock<std::mutex> lk(mu());
    ++arrived();
    cv().notify_all();
    const bool all = cv().wait_for(lk, std::chrono::seconds(20), [&] {
      return arrived() >= expected_;
    });
    return all ? 1 : 0;
  }

  static void reset() {
    std::lock_guard<std::mutex> lk(mu());
    arrived() = 0;
  }

 private:
  // Shared across all Gate instances in this process (the M objects of
  // one test); plain std:: primitives are fine in test code.
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::condition_variable& cv() {
    static std::condition_variable c;
    return c;
  }
  static int& arrived() {
    static int a = 0;
    return a;
  }
  int expected_;
};

/// Holds each invocation for `ms`, so a storm of calls stacks up in the
/// object's command queue.
class Sleeper {
 public:
  int nap(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ms;
  }
};

/// Counts its invocations; bump() first holds the object for `ms`, long
/// enough for a short attempt timeout to fire and a retry to be resent.
class Tally {
 public:
  int bump(int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return ++count_;
  }
  int count() const { return count_; }

 private:
  int count_ = 0;
};

}  // namespace

template <>
struct oopp::rpc::class_def<Recorder> {
  static std::string name() { return "test.dispatch.Recorder"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Recorder::record>("record");
    b.template method<&Recorder::log>("log");
  }
};

template <>
struct oopp::rpc::class_def<Gate> {
  static std::string name() { return "test.dispatch.Gate"; }
  using ctors = ctor_list<ctor<int>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Gate::arrive>("arrive");
  }
};

template <>
struct oopp::rpc::class_def<Sleeper> {
  static std::string name() { return "test.dispatch.Sleeper"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Sleeper::nap>("nap");
  }
};

template <>
struct oopp::rpc::class_def<Tally> {
  static std::string name() { return "test.dispatch.Tally"; }
  using ctors = ctor_list<ctor<>>;
  template <class B>
  static void bind(B& b) {
    b.template method<&Tally::bump>("bump");
    b.template method<&Tally::count>("count");
  }
};

namespace {

// ---------------------------------------------------------------------------
// Per-client FIFO through the full reactor + shard + object-queue chain
// ---------------------------------------------------------------------------

// N client threads share one Recorder over real TCP (reactor inbound
// path).  Each thread issues its calls in order, so the chain inbox FIFO
// -> shard FIFO -> object FIFO must preserve each client's subsequence
// even though clients interleave arbitrarily.
TEST(Dispatch, NClientsOneObjectObserveStrictFifo) {
  constexpr int kClients = 4;
  constexpr int kCalls = 48;
  constexpr int kStride = 1000;  // tag = client * kStride + seq

  net::TcpFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();

  remote_ptr<Recorder> rec;
  {
    rpc::Node::ContextGuard guard(&n0);
    rec = make_remote<Recorder>(1);
  }

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rpc::Node::ContextGuard guard(&n0);
      std::vector<Future<int>> futs;
      futs.reserve(kCalls);
      for (int s = 0; s < kCalls; ++s)
        futs.push_back(rec.async<&Recorder::record>(c * kStride + s));
      for (auto& f : futs)
        (void)f.get_for(std::chrono::seconds(30));
    });
  }
  for (auto& t : clients) t.join();

  std::vector<int> log;
  {
    rpc::Node::ContextGuard guard(&n0);
    log = rec.call<&Recorder::log>();
    rec.destroy();
  }

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kClients * kCalls));
  std::vector<int> next_seq(kClients, 0);
  for (int tag : log) {
    const int c = tag / kStride;
    const int s = tag % kStride;
    ASSERT_GE(c, 0);
    ASSERT_LT(c, kClients);
    // Each client's subsequence arrives in exactly the order it was sent.
    EXPECT_EQ(s, next_seq[c]) << "client " << c << " reordered";
    next_seq[c] = s + 1;
  }

  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
  fabric.shutdown();
}

// ---------------------------------------------------------------------------
// M distinct objects on one node execute in parallel
// ---------------------------------------------------------------------------

TEST(Dispatch, MObjectsOnOneNodeExecuteInParallel) {
  constexpr int kObjects = 8;
  Gate::reset();

  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);

  std::vector<remote_ptr<Gate>> gates;
  gates.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i)
    gates.push_back(make_remote<Gate>(1, kObjects));

  // One blocking arrive() per object; they only ever return 1 if all
  // kObjects invocations are inside the rendezvous simultaneously.
  std::vector<Future<int>> futs;
  futs.reserve(kObjects);
  for (auto& g : gates) futs.push_back(g.async<&Gate::arrive>());
  for (auto& f : futs)
    EXPECT_EQ(f.get_for(std::chrono::seconds(30)), 1);

  for (auto& g : gates) g.destroy();

  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

// ---------------------------------------------------------------------------
// Hand-offs per call
// ---------------------------------------------------------------------------

// The receiver thread puts each request in its object's queue itself, so a
// non-reentrant call costs the server exactly one pool task: the object
// queue's drain.  Each call waits for the server pool to go idle first, so
// every request finds its object's queue undrained and kicks a fresh task.
TEST(Dispatch, OnePoolTaskPerRemoteCall) {
  constexpr int kCalls = 100;
  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);

  auto rec = make_remote<Recorder>(1);
  auto wait_idle = [&] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (n1.stats().pool_busy != 0 &&
           std::chrono::steady_clock::now() < until)
      std::this_thread::yield();
  };
  // A worker bumps tasks_run just after it leaves a task; let the last
  // one land before reading the count.
  auto settle = [&] {
    wait_idle();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  settle();
  const auto before = n1.stats().pool_tasks_run;
  for (int i = 0; i < kCalls; ++i) {
    wait_idle();
    EXPECT_EQ(rec.call<&Recorder::record>(i), i);
  }
  settle();
  EXPECT_EQ(n1.stats().pool_tasks_run - before,
            static_cast<std::uint64_t>(kCalls));

  rec.destroy();
  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

// A node delivers what it addresses to itself without the fabric: spawn,
// calls and destroy leave messages_sent() untouched.  Delivery runs on the
// calling thread, so one thread's async calls still execute in issue
// order, and a retryable call whose attempts time out locally still
// executes exactly once (the resends meet the in-flight dedup record).
TEST(Dispatch, SameMachineCallSkipsTheFabric) {
  constexpr int kCalls = 1000;
  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node n1(1, fabric);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);
  const auto sent0 = fabric.messages_sent();

  auto rec = make_remote<Recorder>(0);
  std::vector<Future<int>> futs;
  futs.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i)
    futs.push_back(rec.async<&Recorder::record>(i));
  for (int i = 0; i < kCalls; ++i)
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get_for(
                  std::chrono::seconds(30)),
              i);
  const auto log = rec.call<&Recorder::log>();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kCalls));
  for (int i = 0; i < kCalls; ++i)
    ASSERT_EQ(log[static_cast<std::size_t>(i)], i)
        << "same-machine calls reordered";

  auto& retry = oopp::telemetry::Metrics::scope_for("rpc.retry");
  const auto resends0 = retry.counter("resends").value();
  rpc::CallPolicy policy;
  policy.max_attempts = 20;
  policy.attempt_timeout = std::chrono::milliseconds(5);
  policy.backoff_initial = std::chrono::milliseconds(1);
  policy.backoff_max = std::chrono::milliseconds(2);
  auto tally = make_remote<Tally>(0).with_policy(policy);
  EXPECT_EQ(tally.call<&Tally::bump>(60), 1);
  EXPECT_EQ(tally.call<&Tally::count>(), 1) << "a resent attempt re-executed";
  EXPECT_GT(retry.counter("resends").value(), resends0)
      << "the attempt timeout never fired, so no retry was exercised";

  rec.destroy();
  tally.destroy();
  EXPECT_EQ(fabric.messages_sent(), sent0);

  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

// ---------------------------------------------------------------------------
// Racing shutdown: frames arriving during/after close() must be dropped,
// never delivered into a destroyed Inbox
// ---------------------------------------------------------------------------

/// Same-machine caller: loops calls from `node` to its own `rec` until
/// `stop`, through that node's shutdown.  Such a call never crosses a
/// fabric, so it must always settle — with a value or a typed error such
/// as CallAborted — and never sit out the deadline.
std::thread local_storm(rpc::Node* node, remote_ptr<Recorder> rec,
                        std::atomic<bool>& stop, std::atomic<int>& hung) {
  return std::thread([node, rec, &stop, &hung] {
    rpc::Node::ContextGuard guard(node);
    int tag = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        (void)rec.async<&Recorder::record>(tag++).get_for(
            std::chrono::seconds(10));
      } catch (const rpc::CallTimeout&) {
        hung.fetch_add(1);
      } catch (...) {
        // aborted or refused once the node is shutting down
      }
    }
  });
}

void racing_shutdown(const net::FabricOptions& transport) {
  net::TcpFabric fabric(2, transport);
  auto n0 = std::make_unique<rpc::Node>(0, fabric);
  auto n1 = std::make_unique<rpc::Node>(1, fabric);
  n0->start();
  n1->start();

  remote_ptr<Recorder> rec, local0, local1;
  {
    rpc::Node::ContextGuard guard(n0.get());
    rec = make_remote<Recorder>(1);
    local0 = make_remote<Recorder>(0);
    local1 = make_remote<Recorder>(1);
  }
  std::atomic<int> hung{0};
  std::atomic<bool> stop0{false}, stop1{false};
  std::thread storm0 = local_storm(n0.get(), local0, stop0, hung);
  std::thread storm1 = local_storm(n1.get(), local1, stop1, hung);

  // Storm the victim with calls while it shuts down and is destroyed.
  // Once node 1 is gone every outcome is legal — timeout, unavailable,
  // aborted — except a crash or a write into freed memory.
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    rpc::Node::ContextGuard guard(n0.get());
    int tag = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        auto f = rec.async<&Recorder::record>(tag++);
        (void)f.get_for(std::chrono::milliseconds(20));
      } catch (...) {
        // expected once the peer is down
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  n1->stop_receiving();  // detaches from the fabric first
  n1->fail_pending();
  n1->stop_pool();
  stop1.store(true);  // node 1's own caller rode through its shutdown
  storm1.join();
  n1.reset();  // Inbox destroyed while the storm keeps sending
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  stop.store(true);
  storm.join();

  n0->stop_receiving();
  n0->fail_pending();
  n0->stop_pool();
  stop0.store(true);
  storm0.join();
  n0.reset();
  fabric.shutdown();
  EXPECT_EQ(hung.load(), 0) << "a same-machine call never settled";
}

TEST(Dispatch, RacingShutdownReactor) {
  racing_shutdown(net::FabricOptions{.reactor = true});
}

TEST(Dispatch, RacingShutdownThreadPerPeer) {
  racing_shutdown(net::FabricOptions{.reactor = false});
}

// ---------------------------------------------------------------------------
// Bounded object queues refuse overflow with PeerUnavailable
// ---------------------------------------------------------------------------

TEST(Dispatch, QueueBoundRejectsOverflowWithPeerUnavailable) {
  net::InProcFabric fabric(2);
  rpc::Node n0(0, fabric);
  rpc::Node::Options opts;
  opts.dispatch.queue_bound = 2;
  rpc::Node n1(1, fabric, opts);
  n0.start();
  n1.start();
  rpc::Node::ContextGuard guard(&n0);

  auto sleeper = make_remote<Sleeper>(1);

  constexpr int kCalls = 24;
  std::vector<Future<int>> futs;
  futs.reserve(kCalls);
  for (int i = 0; i < kCalls; ++i)
    futs.push_back(sleeper.async<&Sleeper::nap>(30));

  int ok = 0, unavailable = 0;
  for (auto& f : futs) {
    try {
      (void)f.get_for(std::chrono::seconds(30));
      ++ok;
    } catch (const rpc::PeerUnavailable&) {
      ++unavailable;
    }
  }
  // The queue admits some calls (the in-flight one plus queue_bound) and
  // must refuse the rest instead of growing without limit.
  EXPECT_GE(ok, 1);
  EXPECT_GE(unavailable, 1);
  EXPECT_EQ(ok + unavailable, kCalls);

  const auto stats = n1.stats();
  EXPECT_GE(stats.queue_depth_hwm, 1u);   // the storm stacked the queue
  EXPECT_GE(stats.pool_threads, opts.dispatch.workers);

  sleeper.destroy();
  for (auto* n : {&n0, &n1}) n->stop_receiving();
  for (auto* n : {&n0, &n1}) n->fail_pending();
  for (auto* n : {&n0, &n1}) n->stop_pool();
}

// ---------------------------------------------------------------------------
// StreamFrameDecoder parses exactly what the blocking writer emits
// ---------------------------------------------------------------------------

net::Buffer bytes_of(std::initializer_list<std::uint8_t> v) {
  std::vector<std::byte> b;
  b.reserve(v.size());
  for (auto x : v) b.push_back(std::byte{x});
  return net::Buffer(std::move(b));
}

void expect_same_message(const net::Message& got, const net::Message& want) {
  EXPECT_EQ(got.header.kind, want.header.kind);
  EXPECT_EQ(got.header.status, want.header.status);
  EXPECT_EQ(got.header.src, want.header.src);
  EXPECT_EQ(got.header.dst, want.header.dst);
  EXPECT_EQ(got.header.seq, want.header.seq);
  EXPECT_EQ(got.header.object, want.header.object);
  EXPECT_EQ(got.header.method, want.header.method);
  EXPECT_EQ(got.header.trace_id, want.header.trace_id);
  EXPECT_EQ(got.header.span_id, want.header.span_id);
  EXPECT_EQ(got.header.attempt, want.header.attempt);
  EXPECT_EQ(got.header.held.count, want.header.held.count);
  for (std::uint8_t i = 0; i < want.header.held.count; ++i)
    EXPECT_EQ(got.header.held.ids[i], want.header.held.ids[i]);
  const auto gb = got.payload.bytes();
  const auto wb = want.payload.bytes();
  ASSERT_EQ(gb.size(), wb.size());
  for (std::size_t i = 0; i < wb.size(); ++i) EXPECT_EQ(gb[i], wb[i]);
}

// Feed the exact bytes send_frame/send_batch put on the wire into the
// reactor's incremental decoder one byte at a time — the worst possible
// read() fragmentation — and require exactly the message sequence that
// was sent: plain frames, an empty payload, a held-locks header
// extension, and a 0xB5 batch.
TEST(Dispatch, StreamFrameDecoderByteAtATimeMatchesWire) {
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));

  std::vector<net::Message> sent;
  sent.push_back(net::make_request(0, 1, 7, 42, 3,
                                   bytes_of({1, 2, 3, 4, 5}), true));
  sent.push_back(net::make_request(1, 0, 8, 43, 4, net::Buffer{}, false));
  net::LockSet held;
  held.count = 2;
  held.ids[0] = 0x11111111;
  held.ids[1] = 0x22222222;
  sent.push_back(net::make_request(0, 1, 9, 44, 5, bytes_of({9, 8, 7}),
                                   false, /*trace_id=*/0xABCD,
                                   /*span_id=*/0xEF01, /*attempt=*/2, held));
  std::vector<net::Message> batch;
  for (int i = 0; i < 3; ++i)
    batch.push_back(net::make_request(
        0, 1, static_cast<net::SeqNum>(100 + i), 50,
        static_cast<net::MethodId>(i),
        bytes_of({static_cast<std::uint8_t>(i), 0xFF}), false));

  for (const auto& m : sent) ASSERT_TRUE(wire::send_frame(sv[0], m));
  ASSERT_TRUE(wire::send_batch(sv[0], batch.data(), batch.size()));
  ::shutdown(sv[0], SHUT_WR);

  std::vector<std::uint8_t> stream;
  std::uint8_t chunk[512];
  for (;;) {
    const ssize_t n = ::read(sv[1], chunk, sizeof(chunk));
    ASSERT_GE(n, 0);
    if (n == 0) break;
    stream.insert(stream.end(), chunk, chunk + n);
  }
  ::close(sv[0]);
  ::close(sv[1]);

  wire::StreamFrameDecoder decoder;
  std::vector<net::Message> got;
  for (std::uint8_t b : stream) ASSERT_TRUE(decoder.feed(&b, 1, got));

  std::vector<net::Message> want = sent;
  for (auto& m : batch) want.push_back(std::move(m));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_message(got[i], want[i]);
  }
}

}  // namespace
