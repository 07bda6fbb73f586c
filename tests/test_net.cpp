// Tests for the network substrate: inbox delivery and ordering, the cost
// model, and both fabrics moving frames faithfully.
#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "net/cost_model.hpp"
#include "net/inbox.hpp"
#include "net/inproc_fabric.hpp"
#include "net/tcp_fabric.hpp"
#include "net/tcp_wire.hpp"
#include "telemetry/metrics.hpp"
#include "util/clock.hpp"

namespace net = oopp::net;

namespace {

net::Message make_msg(net::MachineId src, net::MachineId dst,
                      net::SeqNum seq, std::size_t payload = 0) {
  return net::make_request(
      src, dst, seq, /*object=*/0, /*method=*/0,
      std::vector<std::byte>(payload, std::byte{0xab}), /*checksum=*/false);
}

TEST(CostModel, ZeroModelHasNoDelay) {
  EXPECT_EQ(net::CostModel::zero().delay_ns(1 << 20), 0);
}

TEST(CostModel, AlphaBetaShape) {
  net::CostModel m{.latency_ns = 1000, .bytes_per_us = 1000.0,
                   .per_message_ns = 0};
  EXPECT_EQ(m.delay_ns(0), 1000);
  // 1e6 bytes at 1000 bytes/us = 1e3 us = 1e6 ns, plus latency.
  EXPECT_NEAR(static_cast<double>(m.delay_ns(1'000'000)), 1'001'000.0, 1.0);
  // Delay is monotone in size.
  EXPECT_LT(m.delay_ns(100), m.delay_ns(100'000));
}

TEST(Inbox, DeliversInPushOrder) {
  net::Inbox inbox;
  inbox.push_now(make_msg(0, 1, 1));
  inbox.push_now(make_msg(0, 1, 2));
  inbox.push_now(make_msg(0, 1, 3));
  EXPECT_EQ(inbox.pop()->header.seq, 1u);
  EXPECT_EQ(inbox.pop()->header.seq, 2u);
  EXPECT_EQ(inbox.pop()->header.seq, 3u);
}

TEST(Inbox, HonorsDeliveryTime) {
  net::Inbox inbox;
  const auto t0 = oopp::steady_clock::now();
  inbox.push(make_msg(0, 1, 1), t0 + std::chrono::milliseconds(30));
  auto m = inbox.pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(oopp::steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(Inbox, DueMessageNotBlockedBehindUndueOne) {
  // Two links with independent delays: link 0's message is due far in the
  // future, link 2's is due now.  pop() must deliver the due one promptly
  // instead of head-of-line blocking on the queue order.
  net::Inbox inbox;
  const auto t0 = oopp::steady_clock::now();
  inbox.push(make_msg(0, 1, 1), t0 + std::chrono::milliseconds(200));
  inbox.push(make_msg(2, 1, 2), t0);

  auto first = inbox.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.seq, 2u);
  EXPECT_LT(oopp::steady_clock::now() - t0, std::chrono::milliseconds(150));

  auto second = inbox.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->header.seq, 1u);
  EXPECT_GE(oopp::steady_clock::now() - t0, std::chrono::milliseconds(195));
}

TEST(Inbox, PerLinkFifoSurvivesEarliestDuePop) {
  // Same link, monotonic delivery times (as every fabric guarantees):
  // delivery must stay FIFO even though pop() now scans for due entries.
  net::Inbox inbox;
  const auto t0 = oopp::steady_clock::now();
  inbox.push(make_msg(0, 1, 1), t0 + std::chrono::milliseconds(5));
  inbox.push(make_msg(0, 1, 2), t0 + std::chrono::milliseconds(5));
  inbox.push(make_msg(0, 1, 3), t0 + std::chrono::milliseconds(6));
  EXPECT_EQ(inbox.pop()->header.seq, 1u);
  EXPECT_EQ(inbox.pop()->header.seq, 2u);
  EXPECT_EQ(inbox.pop()->header.seq, 3u);
}

TEST(Inbox, CloseUnblocksConsumer) {
  net::Inbox inbox;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inbox.close();
  });
  EXPECT_FALSE(inbox.pop().has_value());
  closer.join();
}

TEST(Inbox, PushAfterCloseIsDropped) {
  net::Inbox inbox;
  inbox.close();
  inbox.push_now(make_msg(0, 1, 1));
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(InProcFabric, DeliversToAttachedInbox) {
  net::InProcFabric fabric(2);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 7, 64));
  auto m = b.pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->header.seq, 7u);
  EXPECT_EQ(m->payload.size(), 64u);
  EXPECT_EQ(fabric.messages_sent(), 1u);
  EXPECT_GT(fabric.bytes_sent(), 64u);
}

TEST(InProcFabric, PerLinkFifoEvenWithSizeDependentDelay) {
  // A big message (slow) followed by a tiny one (fast) on the same link
  // must still arrive in order.
  net::CostModel cost{.latency_ns = 0, .bytes_per_us = 1.0,
                      .per_message_ns = 0};  // 1 byte/us → big = visible delay
  net::InProcFabric fabric(2, cost);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 1, 20'000));  // ~20 ms
  fabric.send(make_msg(0, 1, 2, 0));       // ~0 ms, would overtake w/o FIFO
  EXPECT_EQ(b.pop()->header.seq, 1u);
  EXPECT_EQ(b.pop()->header.seq, 2u);
}

TEST(InProcFabric, CostModelDelaysDelivery) {
  net::CostModel cost{.latency_ns = 30'000'000, .bytes_per_us = 0.0,
                      .per_message_ns = 0};  // 30 ms latency
  net::InProcFabric fabric(2, cost);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  const auto t0 = oopp::steady_clock::now();
  fabric.send(make_msg(0, 1, 1));
  auto m = b.pop();
  ASSERT_TRUE(m.has_value());
  EXPECT_GE(oopp::steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(InProcFabric, EgressSerializesSenderMessages) {
  // 4 messages of 10'000 bytes at 1 byte/us egress: the last one cannot
  // be injected before ~40 ms even though the network itself is free.
  net::CostModel cost{};
  cost.egress_bytes_per_us = 1.0;
  net::InProcFabric fabric(3, cost);
  net::Inbox a, b, c;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  const auto t0 = oopp::steady_clock::now();
  // Fan out to two different destinations: egress is per-sender, so they
  // still serialize.
  fabric.send(make_msg(0, 1, 1, 10'000));
  fabric.send(make_msg(0, 2, 2, 10'000));
  fabric.send(make_msg(0, 1, 3, 10'000));
  fabric.send(make_msg(0, 2, 4, 10'000));
  (void)b.pop();
  (void)c.pop();
  (void)b.pop();
  (void)c.pop();
  const auto elapsed = oopp::steady_clock::now() - t0;
  EXPECT_GE(elapsed, std::chrono::milliseconds(35));
}

TEST(InProcFabric, EgressDoesNotCoupleDifferentSenders) {
  net::CostModel cost{};
  cost.egress_bytes_per_us = 1.0;
  net::InProcFabric fabric(3, cost);
  net::Inbox a, b, c;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.attach(2, &c);
  const auto t0 = oopp::steady_clock::now();
  // Two senders inject ~10 ms each concurrently: total ~10 ms, not 20.
  fabric.send(make_msg(0, 2, 1, 10'000));
  fabric.send(make_msg(1, 2, 2, 10'000));
  (void)c.pop();
  (void)c.pop();
  const auto elapsed = oopp::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(18));
}

TEST(TcpFabric, RoundTripsFrames) {
  net::TcpFabric fabric(2);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  EXPECT_GT(fabric.port(0), 0);
  EXPECT_GT(fabric.port(1), 0);

  // This test exercises the wire codec itself, so it hand-sets every
  // header field on purpose.
  auto m = make_msg(0, 1, 99, 0);
  m.header.object = 42;                            // oopp-lint: allow(raw-message-header)
  m.header.method = 0x1234567890abcdefULL;         // oopp-lint: allow(raw-message-header)
  m.header.kind = net::MsgKind::kResponse;         // oopp-lint: allow(raw-message-header)
  m.header.status = net::CallStatus::kRemoteException;  // oopp-lint: allow(raw-message-header)
  std::vector<std::byte> payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::byte>(i & 0xff);
  m.payload = net::Buffer(std::move(payload));
  fabric.send(std::move(m));

  auto got = b.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.seq, 99u);
  EXPECT_EQ(got->header.object, 42u);
  EXPECT_EQ(got->header.method, 0x1234567890abcdefULL);
  EXPECT_EQ(got->header.kind, net::MsgKind::kResponse);
  EXPECT_EQ(got->header.status, net::CallStatus::kRemoteException);
  ASSERT_EQ(got->payload.size(), 1024u);
  for (std::size_t i = 0; i < got->payload.size(); ++i)
    ASSERT_EQ(got->payload[i], static_cast<std::byte>(i & 0xff));
  fabric.shutdown();
}

TEST(TcpFabric, ManyMessagesBothDirections) {
  net::TcpFabric fabric(2);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    fabric.send(make_msg(0, 1, static_cast<net::SeqNum>(i), 100));
    fabric.send(make_msg(1, 0, static_cast<net::SeqNum>(1000 + i), 100));
  }
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(b.pop()->header.seq, static_cast<net::SeqNum>(i));
    EXPECT_EQ(a.pop()->header.seq, static_cast<net::SeqNum>(1000 + i));
  }
  fabric.shutdown();
}

TEST(TcpFabric, EmptyPayload) {
  net::TcpFabric fabric(2);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  fabric.send(make_msg(0, 1, 5, 0));
  EXPECT_EQ(b.pop()->payload.size(), 0u);
  fabric.shutdown();
}

TEST(TcpFabric, SelfSendIsDeliveredWithoutTheKernel) {
  net::TcpFabric fabric(2);
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);
  auto& received = oopp::telemetry::Metrics::scope_for("net").counter(
      "tcp_frames_received");
  const auto before = received.value();

  fabric.send(make_msg(1, 1, 11, 32));
  auto got = b.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.seq, 11u);
  EXPECT_EQ(got->payload.size(), 32u);
  EXPECT_EQ(fabric.messages_sent(), 1u);
  // No socket read delivered it.
  EXPECT_EQ(received.value(), before);
  fabric.shutdown();
}

/// This process's resident set, from /proc/self/status.
long vm_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string key; status >> key;) {
    if (key == "VmRSS:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
  }
  return -1;
}

// A header only announces its payload: memory must follow the bytes that
// actually arrive, or one bare header pins up to kMaxBatchBytes.
TEST(StreamFrameDecoder, BareHeaderDoesNotPinTheAnnouncedPayload) {
  std::uint8_t hdr[net::wire::kMaxFrameHeaderSize];
  const std::size_t n = net::wire::encode_header(
      make_msg(0, 1, 1).header, std::uint64_t{256} << 20, hdr);
  const long before = vm_rss_kib();
  ASSERT_GT(before, 0);
  net::wire::StreamFrameDecoder decoder;
  std::vector<net::Message> out;
  ASSERT_TRUE(decoder.feed(hdr, n, out));
  EXPECT_TRUE(out.empty());
  EXPECT_LT(vm_rss_kib() - before, 64 * 1024);
}

// Past the up-front reservation the store grows as bytes arrive; the
// message must still come out whole.
TEST(StreamFrameDecoder, PayloadBeyondTheReservationArrivesIntact) {
  const std::size_t len =
      net::wire::StreamFrameDecoder::kPayloadReserveBytes * 2 + 3;
  std::vector<std::uint8_t> stream(net::wire::kMaxFrameHeaderSize);
  stream.resize(net::wire::encode_header(make_msg(0, 1, 5).header, len,
                                         stream.data()));
  for (std::size_t i = 0; i < len; ++i)
    stream.push_back(static_cast<std::uint8_t>(i * 7));
  net::wire::StreamFrameDecoder decoder;
  std::vector<net::Message> out;
  constexpr std::size_t kRead = 65'536;
  for (std::size_t off = 0; off < stream.size(); off += kRead)
    ASSERT_TRUE(decoder.feed(stream.data() + off,
                             std::min(kRead, stream.size() - off), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].header.seq, 5u);
  const auto flat = out[0].payload.to_vector();
  ASSERT_EQ(flat.size(), len);
  for (std::size_t i = 0; i < len; ++i)
    ASSERT_EQ(flat[i], static_cast<std::byte>(i * 7)) << "byte " << i;
}

// Both inbound read paths: the epoll reactor and thread-per-peer readers.
class TcpFabricReadPath : public ::testing::TestWithParam<bool> {};

// A peer announcing a plain frame of 2^62 payload bytes must lose its
// connection — not take the process down by asking for that allocation —
// and the fabric keeps delivering for every other peer.
TEST_P(TcpFabricReadPath, HostilePayloadLengthDropsOnlyThatConnection) {
  net::TcpFabric fabric(2, net::FabricOptions{.reactor = GetParam()});
  net::Inbox a, b;
  fabric.attach(0, &a);
  fabric.attach(1, &b);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(fabric.port(1));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::uint8_t hdr[net::wire::kMaxFrameHeaderSize];
  const std::size_t n = net::wire::encode_header(make_msg(0, 1, 1).header,
                                                 std::uint64_t{1} << 62, hdr);
  ASSERT_EQ(::write(fd, hdr, n), static_cast<ssize_t>(n));

  // Dropped: the fabric closes its end, so the peer reads EOF (or a reset).
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, /*timeout_ms=*/10'000), 1);
  char byte = 0;
  EXPECT_LE(::read(fd, &byte, 1), 0);
  ::close(fd);

  fabric.send(make_msg(0, 1, 7, 64));
  auto got = b.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header.seq, 7u);
  EXPECT_EQ(got->payload.size(), 64u);
  fabric.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Both, TcpFabricReadPath, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Reactor" : "ThreadPerPeer";
                         });

}  // namespace
