// rpc_mix — small remote calls beside a bulk stream, over TCP loopback.
//
// Four machines on Cluster::FabricKind::kTcp with default FabricOptions.
// Two small-call clients (machines 1 and 2) each keep kWindow
// remote_data<double>::async_get calls in flight on their own remote
// array on machine 0, reading seeded indices; one bulk client (machine 3)
// alternates a 1 MiB assign with a 1 MiB slice read-back of a separate
// array on machine 0.  Closed loop: each client issues its next call only
// when one completes.  Why: the small calls exercise the per-call
// hand-off path, the bulk calls the large-payload encode/decode path of
// the same serial/net/rpc layers; side by side they show when a gain for
// one costs the other.  Total in-flight stays small (2 x 4 + 1) because
// deeper windows made throughput swing by 2x between runs.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/oopp.hpp"
#include "serial/archive.hpp"
#include "util/prng.hpp"

using namespace oopp;

namespace perfbench {
namespace {

constexpr int kSmallClients = 2;
constexpr std::size_t kWindow = 4;                // calls in flight per client
constexpr std::uint64_t kSmallLen = 1 << 16;      // doubles per client array
constexpr std::uint64_t kBulkLen = (1 << 20) / sizeof(double);  // 1 MiB
constexpr int kPayloads = 4;  // rotating bulk payloads, so stale reads fail
constexpr std::uint64_t kWarmupCalls = 2000;  // per small client
constexpr auto kDeadline = std::chrono::seconds(10);

std::vector<double> seeded_values(std::uint64_t seed, std::uint64_t stream,
                                  std::uint64_t n) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1e6, 1e6);
  return v;
}

class RpcMix final : public Workload {
 public:
  explicit RpcMix(const Args& a) : args_(a) {
    for (int c = 0; c < kSmallClients; ++c)
      expect_.push_back(seeded_values(a.seed, 1 + c, kSmallLen));
    for (int k = 0; k < kPayloads; ++k)
      payloads_.push_back(seeded_values(a.seed, 100 + k, kBulkLen));
  }

  SetupTimes setup() override {
    SetupTimes t;
    Timer timer;
    Cluster::Options opts;
    opts.machines = 4;
    opts.fabric = Cluster::FabricKind::kTcp;
    opts.state_dir = args_.workdir / "rpc_mix_state";
    cluster_ = std::make_unique<Cluster>(opts);
    t.cluster_s = timer.seconds();

    timer.reset();
    for (int c = 0; c < kSmallClients; ++c)
      small_.push_back(cluster_->make_remote_array<double>(0, kSmallLen));
    bulk_ = cluster_->make_remote_array<double>(0, kBulkLen);
    t.storage_s = timer.seconds();

    timer.reset();
    for (int c = 0; c < kSmallClients; ++c) small_[c].assign(0, expect_[c]);
    t.load_s = timer.seconds();

    timer.reset();
    warm_up();
    t.warmup_s = timer.seconds();
    return t;
  }

  void teardown() override {
    for (auto& s : small_) s.destroy();
    small_.clear();
    if (bulk_.valid()) bulk_.destroy();
    cluster_.reset();
  }

  [[nodiscard]] Cluster& cluster() override { return *cluster_; }

  Window run(double seconds, Result& r) override {
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::vector<double>> lat_us(kSmallClients);
    std::vector<std::uint64_t> fails(kSmallClients + 1, 0);
    std::vector<std::int64_t> done_ns(kSmallClients + 1, t0);
    std::uint64_t pairs = 0;
    const std::uint64_t round = ++round_;

    std::vector<std::thread> threads;
    for (int c = 0; c < kSmallClients; ++c)
      threads.emplace_back([&, c] {
        small_client(c, round, deadline, lat_us[c], fails[c]);
        done_ns[c] = now_ns();
      });
    threads.emplace_back([&] {
      pairs = bulk_client(deadline, fails[kSmallClients]);
      done_ns[kSmallClients] = now_ns();
    });
    for (auto& t : threads) t.join();

    Window w;
    for (const auto& v : lat_us)
      for (double us : v) w.op_ms.push_back(us / 1e3);
    w.elapsed_s =
        static_cast<double>(*std::max_element(done_ns.begin(), done_ns.end()) -
                            t0) / 1e9;
    w.payload_bytes = static_cast<double>(pairs) * 2.0 * kBulkLen *
                      sizeof(double);
    std::uint64_t failed = 0;
    for (auto f : fails) failed += f;
    r.attempted += w.op_ms.size() + pairs;
    r.failed += failed;
    if (failed > 0)
      r.mark_incorrect("rpc_mix: " + std::to_string(failed) +
                       " calls failed or returned a wrong value");
    small_calls_ += w.op_ms.size();
    return w;
  }

  void layer_metrics(const TracedRun& run, Result& r) override {
    // The tail comes from the untraced half: tracing would distort it.
    const std::vector<double>& plain = run.plain.op_ms;
    const double p99_ms = tail_percentile(plain, 0.99);
    r.set("rpc.call_p99_us", p99_ms < 0 ? 0 : p99_ms * 1e3, "us");
    r.set("rpc.call_samples", static_cast<double>(plain.size()),
          "count");
    probe_serial(r);
    probe_calls(r);
    r.set("rpc.handoff_us.small",
          r.metrics["core.sync_call_us.small"].value -
              r.metrics["core.servant_us.small"].value -
              r.metrics["serial.encode_us.small"].value -
              r.metrics["serial.decode_us.small"].value,
          "us");
  }

  void verify(Result& r) override {
    // Every reply and read-back was compared inline; nothing is pending.
    r.note("rpc_mix: " + std::to_string(small_calls_) +
           " small replies and every bulk read-back checked inline");
  }

 private:
  /// Open every client's link and run each path a fixed number of times.
  void warm_up() {
    for (int c = 0; c < kSmallClients; ++c) {
      auto guard = cluster_->use(static_cast<net::MachineId>(1 + c));
      std::vector<Future<double>> futs;
      for (std::uint64_t i = 0; i < kWarmupCalls; ++i) {
        futs.push_back(small_[c].async_get(i));
        if (futs.size() == kWindow) {
          for (auto& f : futs) (void)f.get_for(kDeadline);
          futs.clear();
        }
      }
    }
    auto guard = cluster_->use(3);
    for (int k = 0; k < kPayloads; ++k) {
      bulk_.assign(0, payloads_[k]);
      (void)bulk_.slice(0, kBulkLen);
    }
  }

  void small_client(int c, std::uint64_t round, std::int64_t deadline,
                    std::vector<double>& lat_us, std::uint64_t& fails) {
    auto guard = cluster_->use(static_cast<net::MachineId>(1 + c));
    Xoshiro256 rng(args_.seed * 0x2545f4914f6cdd1dULL + round * 16 + c);
    const auto& data = small_[c];
    const auto& expect = expect_[c];
    struct InFlight {
      Future<double> f;
      std::uint64_t index;
      std::int64_t issued;
    };
    std::vector<InFlight> ring(kWindow);
    lat_us.reserve(1 << 19);
    auto issue = [&](InFlight& slot) {
      slot.index = rng.below(kSmallLen);
      slot.issued = now_ns();
      slot.f = data.async_get(slot.index);
    };
    for (auto& slot : ring) issue(slot);
    for (std::size_t head = 0, live = kWindow; live > 0;
         head = (head + 1) % kWindow) {
      InFlight& slot = ring[head];
      if (!slot.f.valid()) continue;
      double v = 0;
      bool ok = false;
      try {
        v = slot.f.get_for(kDeadline);
        ok = v == expect[slot.index];
      } catch (const std::exception&) {
      }
      const std::int64_t end = now_ns();
      record_span("core.remote_data.async_get", "core", slot.issued, end);
      lat_us.push_back(static_cast<double>(end - slot.issued) / 1e3);
      if (!ok) ++fails;
      if (end < deadline) issue(slot);
      else {
        slot.f = Future<double>();
        --live;
      }
    }
  }

  std::uint64_t bulk_client(std::int64_t deadline, std::uint64_t& fails) {
    auto guard = cluster_->use(3);
    std::uint64_t pairs = 0;
    while (now_ns() < deadline) {
      const auto& payload = payloads_[pairs % kPayloads];
      bool ok = false;
      try {
        Span op("rpc_mix.bulk_pair", "bench");
        {
          Span s("core.remote_data.assign", "core");
          bulk_.assign(0, payload);
        }
        std::vector<double> back;
        {
          Span s("core.remote_data.slice", "core");
          back = bulk_.slice(0, kBulkLen);
        }
        ok = back == payload;
      } catch (const std::exception&) {
      }
      if (!ok) ++fails;
      ++pairs;
    }
    return pairs;
  }

  /// OArchive / IArchive on the arguments and result of one small call
  /// (an index in, a double back) and one bulk assign (offset + 1 MiB).
  void probe_serial(Result& r) {
    std::uint64_t sink = 0;
    auto per_op_us = [&](int reps, auto&& fn) {
      std::vector<double> samples;
      for (int b = 0; b < 7; ++b) {
        Timer t;
        for (int i = 0; i < reps; ++i) sink += fn(i);
        samples.push_back(t.micros() / reps);
      }
      return median(samples);
    };
    const double reply = expect_[0][7];
    r.set("serial.encode_us.small", per_op_us(20000, [&](int i) {
            serial::OArchive req;
            req(static_cast<std::uint64_t>(i));
            serial::OArchive rep;
            rep(reply);
            return req.take().size() + rep.take().size();
          }),
          "us");
    const auto req_bytes = serial::to_bytes(std::uint64_t{12345});
    const auto rep_bytes = serial::to_bytes(reply);
    r.set("serial.decode_us.small", per_op_us(20000, [&](int) {
            const auto i = serial::from_bytes<std::uint64_t>(req_bytes);
            const auto v = serial::from_bytes<double>(rep_bytes);
            return i + static_cast<std::uint64_t>(v != 0);
          }),
          "us");
    const auto& payload = payloads_[0];
    r.set("serial.encode_us.bulk", per_op_us(20, [&](int) {
            serial::OArchive oa;
            oa(std::uint64_t{0}, payload);
            return oa.take().size();
          }),
          "us");
    serial::OArchive whole;
    whole(std::uint64_t{0}, payload);
    const auto bulk_bytes = whole.take();
    r.set("serial.decode_us.bulk", per_op_us(20, [&](int) {
            serial::IArchive ia(bulk_bytes);
            const auto lo = ia.read<std::uint64_t>();
            const auto v = ia.read<std::vector<double>>();
            return lo + v.size();
          }),
          "us");
    if (sink == 0) r.note("serial probe: empty sink");
  }

  /// One call at a time on the idle cluster, and the same method on a
  /// local RemoteVector (servant time, no framework).
  void probe_calls(Result& r) {
    {
      auto guard = cluster_->use(1);
      const auto& data = small_[0];
      std::vector<double> us;
      r.attempted += 4000;
      for (std::uint64_t i = 0; i < 4000; ++i) {
        const std::int64_t t0 = now_ns();
        const double v = data[i % kSmallLen];
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        r.check(v == expect_[0][i % kSmallLen], "rpc_mix probe: sync get");
      }
      r.set("core.sync_call_us.small", median(us), "us");
    }
    {
      auto guard = cluster_->use(3);
      std::vector<double> us;
      for (int i = 0; i < 40; ++i) {
        const std::int64_t t0 = now_ns();
        bulk_.assign(0, payloads_[i % kPayloads]);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      r.set("core.sync_call_us.bulk", median(us), "us");
    }
    RemoteVector<double> local(expect_[0]);
    std::vector<double> us;
    double sink = 0;
    for (int b = 0; b < 7; ++b) {
      Timer t;
      for (std::uint64_t i = 0; i < 100000; ++i) sink += local.get(i % kSmallLen);
      us.push_back(t.micros() / 100000);
    }
    r.set("core.servant_us.small", median(us), "us");
    RemoteVector<double> local_bulk(kBulkLen);
    us.clear();
    for (int i = 0; i < 40; ++i) {
      Timer t;
      local_bulk.assign(0, payloads_[i % kPayloads]);
      us.push_back(t.micros());
    }
    sink += local_bulk.get(kBulkLen - 1);
    r.set("core.servant_us.bulk", median(us), "us");
    if (sink == 0.123) r.note("servant probe: unexpected sink");
  }

  Args args_;
  std::vector<std::vector<double>> expect_;
  std::vector<std::vector<double>> payloads_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<remote_data<double>> small_;
  remote_data<double> bulk_;
  std::uint64_t round_ = 0;
  std::uint64_t small_calls_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_rpc_mix(const Args& args) {
  return std::make_unique<RpcMix>(args);
}

}  // namespace perfbench
