#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "telemetry/metrics.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_percentile(std::vector<double> v, double p) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (v.size() - 1 - idx < 10) return -1;
  return v[idx];
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    mark_incorrect(what);
  }
  return ok;
}

void Result::mark_incorrect(const std::string& what) {
  checks_ok = false;
  std::cout << "CHECK FAILED: " << what << '\n';
}

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

namespace {

/// A memory field of /proc/self/status ("VmRSS", "VmHWM", ...), MiB.
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0)
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MiB
  }
  return 0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM"); }

double heap_in_use_mb() {
  const struct mallinfo2 mi = ::mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

HeapSampler::HeapSampler() {
  samples_.reserve(1 << 16);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (samples_.size() < samples_.capacity())
        samples_.push_back(heap_in_use_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

HeapSampler::~HeapSampler() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

double HeapSampler::median() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return perfbench::median(samples_);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local const SpanRec* tl_current = nullptr;
}

Spans& Spans::instance() {
  static Spans s;
  return s;
}

std::uint64_t Spans::next_id() {
  return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
}

Spans::Buffer& Spans::local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->spans.reserve(1 << 16);
  }
  return *buf;
}

void Spans::record(const SpanRec& s) { local().spans.push_back(s); }

std::vector<SpanRec> Spans::collect() const {
  std::lock_guard lock(mu_);
  std::vector<SpanRec> all;
  for (const auto& b : buffers_)
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

void Spans::dump(const std::filesystem::path& path) const {
  const auto all = collect();
  std::ofstream out(path);
  out << "{\"spans\":[";
  bool first = true;
  for (const auto& s : all) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"layer\":\"" << s.layer << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"machine\":" << s.machine
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << '}';
    first = false;
  }
  out << "\n]}\n";
}

Span::Span(const char* name, const char* layer) {
  Spans& spans = Spans::instance();
  if (!spans.enabled()) return;
  on_ = true;
  saved_ = tl_current;
  rec_.name = name;
  rec_.layer = layer;
  rec_.id = spans.next_id();
  rec_.parent = saved_ != nullptr ? saved_->id : 0;
  rec_.op = saved_ != nullptr ? saved_->op : rec_.id;
  rec_.machine = oopp::telemetry::thread_node();
  tl_current = &rec_;
  rec_.start_ns = oopp::now_ns();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_ns = oopp::now_ns();
  tl_current = saved_;
  Spans::instance().record(rec_);
}

void record_span(const char* name, const char* layer, std::int64_t start_ns,
                 std::int64_t end_ns) {
  Spans& spans = Spans::instance();
  if (!spans.enabled()) return;
  const std::uint64_t id = spans.next_id();
  spans.record(SpanRec{name, layer, id, 0, id,
                       oopp::telemetry::thread_node(), start_ns, end_ns});
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

namespace {

struct Key {
  const char* scope;
  const char* name;
};

constexpr Key kCounterKeys[] = {
    {"rpc.dispatch", "queue_full_rejects"},
    {"rpc.retry", "resends"},
    {"net.batch", "batches_sent"},
    {"net.batch", "frames_batched"},
    {"net.reactor", "wakeups"},
    {"net.reactor", "frames"},
    {"storage.batch_io", "batch_reads"},
    {"storage.batch_io", "batch_writes"},
    {"storage.batch_io", "pages_read"},
    {"storage.batch_io", "pages_written"},
    {"coll", "bytes_moved"},
    {"coll", "hops"},
    {"coll", "matvec_reuse_hits"},
};

std::string key_of(const Key& k) {
  return std::string(k.scope) + "/" + k.name;
}

/// Sum (ns) of a telemetry histogram.
std::uint64_t histogram_sum(const char* scope, const char* name) {
  return oopp::telemetry::Metrics::scope_for(scope).histogram(name).sum();
}

}  // namespace

Counters Counters::take(const oopp::Cluster& cluster) {
  Counters c;
  const auto st = cluster.stats();
  const auto t = st.totals();
  c.requests = t.requests_served;
  c.pool_tasks = t.pool_tasks_run;
  c.remote_exceptions = t.remote_exceptions;
  c.queue_depth_hwm = t.queue_depth_hwm;
  c.messages = st.messages_sent;
  c.bytes = st.bytes_sent;
  for (const auto& k : kCounterKeys)
    c.named[key_of(k)] =
        oopp::telemetry::Metrics::scope_for(k.scope).counter(k.name).value();
  c.named["rpc/blocking_wait_ns"] = histogram_sum("rpc", "blocking_wait_ns");
  return c;
}

std::uint64_t Counters::delta(const Counters& before,
                              const std::string& key) const {
  return named.at(key) - before.named.at(key);
}

void counter_metrics(Result& r, const TracedRun& run) {
  const Counters& before = run.before;
  const Counters& after = run.after;
  const Window& w = run.traced;
  const auto units = static_cast<double>(w.op_ms.size());
  const auto calls = static_cast<double>(after.requests - before.requests);
  const auto d = [&](const char* key) { return run.delta(key); };
  r.set("rpc.pool_tasks_per_call",
        ratio(static_cast<double>(after.pool_tasks - before.pool_tasks), calls),
        "count");
  r.set("rpc.queue_depth_hwm", static_cast<double>(after.queue_depth_hwm),
        "count");
  r.set("rpc.blocking_wait_ms", ratio(d("rpc/blocking_wait_ns") / 1e6, units),
        "ms");
  r.set("rpc.dispatch.queue_full_rejects", d("rpc.dispatch/queue_full_rejects"),
        "count");
  r.set("rpc.retry.resends", d("rpc.retry/resends"), "count");
  r.set("rpc.remote_exceptions",
        static_cast<double>(after.remote_exceptions -
                            before.remote_exceptions),
        "count");
  r.set("net.msgs_per_call",
        ratio(static_cast<double>(after.messages - before.messages), calls),
        "count");
  r.set("net.bytes_per_call",
        ratio(static_cast<double>(after.bytes - before.bytes), calls), "B");
  r.set("net.batch.frames_per_batch",
        ratio(d("net.batch/frames_batched"), d("net.batch/batches_sent")),
        "count");
  r.set("net.reactor.wakeups_per_frame",
        ratio(d("net.reactor/wakeups"), d("net.reactor/frames")), "count");
  r.set("storage.batch_io.pages_per_batch",
        ratio(d("storage.batch_io/pages_read") +
                  d("storage.batch_io/pages_written"),
              d("storage.batch_io/batch_reads") +
                  d("storage.batch_io/batch_writes")),
        "count");
  r.set("rpc.calls_per_op", ratio(calls, units), "count");
  r.set("net.bytes_ratio",
        ratio(static_cast<double>(after.bytes - before.bytes),
              w.payload_bytes),
        "ratio");
}

// ---------------------------------------------------------------------------
// Self times
// ---------------------------------------------------------------------------

void clear_program_spans(oopp::Cluster& cluster) {
  for (std::size_t m = 0; m < cluster.size(); ++m) {
    const auto id = static_cast<oopp::net::MachineId>(m);
    if (cluster.is_local(id)) cluster.node(id).span_sink().clear();
  }
}

ProgramSpans take_program_spans(oopp::Cluster& cluster,
                                std::int64_t cleared_ns) {
  ProgramSpans out;
  out.complete_from_ns = cleared_ns;
  for (std::size_t m = 0; m < cluster.size(); ++m) {
    const auto id = static_cast<oopp::net::MachineId>(m);
    if (!cluster.is_local(id)) continue;
    const auto& sink = cluster.node(id).span_sink();
    const bool dropped = sink.dropped() > 0;
    auto spans = sink.snapshot();
    // The sink drops its oldest records first, and a span is recorded
    // when it ends: every span that started after the oldest kept one
    // ended was kept.
    if (dropped && !spans.empty())
      out.complete_from_ns =
          std::max(out.complete_from_ns, spans.front().end_ns);
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
  }
  return out;
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Sort intervals and merge the overlapping ones.
void merge(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && iv.first <= v[out - 1].second)
      v[out - 1].second = std::max(v[out - 1].second, iv.second);
    else
      v[out++] = iv;
  }
  v.resize(out);
}

/// Append the parts of the merged intervals `from` that overlap [lo, hi).
void overlapping(const std::vector<Interval>& from, std::int64_t lo,
                 std::int64_t hi, std::vector<Interval>& to) {
  auto it = std::partition_point(from.begin(), from.end(),
                                 [lo](const Interval& iv) {
                                   return iv.second <= lo;
                                 });
  for (; it != from.end() && it->first < hi; ++it)
    to.emplace_back(std::max(lo, it->first), std::min(hi, it->second));
}

/// Length of [lo, hi) that no interval in `cover` covers.
std::int64_t uncovered(std::int64_t lo, std::int64_t hi,
                       std::vector<Interval> cover) {
  merge(cover);
  std::vector<Interval> in;
  overlapping(cover, lo, hi, in);
  std::int64_t covered = 0;
  for (const Interval& iv : in) covered += iv.second - iv.first;
  return hi - lo - covered;
}

/// The layer a program span's self time belongs to.
std::string program_layer(const oopp::telemetry::Span& s) {
  using oopp::telemetry::SpanKind;
  if (s.kind == SpanKind::kClient) return "rpc";
  if (s.kind == SpanKind::kServer) return "servant";
  const std::string name = s.name;
  return name.substr(0, name.find('.'));
}

}  // namespace

void self_time_metrics(Result& r, const TracedRun& run) {
  const std::int64_t from =
      std::max(run.start_ns, run.program.complete_from_ns);
  std::map<std::string, double> self_ns;

  // The program's spans: each less the union of its children.
  std::map<std::uint64_t, std::vector<Interval>> program_kids;
  std::map<std::uint32_t, std::vector<Interval>> root_calls;  // by machine
  for (const auto& s : run.program.spans) {
    if (s.start_ns < from) continue;
    if (s.parent_id != 0)
      program_kids[s.parent_id].emplace_back(s.start_ns, s.end_ns);
    else if (s.kind == oopp::telemetry::SpanKind::kClient)
      root_calls[s.node].emplace_back(s.start_ns, s.end_ns);
  }
  for (auto& [machine, calls] : root_calls) merge(calls);
  for (const auto& s : run.program.spans) {
    if (s.start_ns < from) continue;
    const auto it = program_kids.find(s.span_id);
    self_ns[program_layer(s)] += static_cast<double>(uncovered(
        s.start_ns, s.end_ns,
        it == program_kids.end() ? std::vector<Interval>{} : it->second));
  }

  // The benchmark's spans: each less its children and the remote calls
  // its machine had outstanding.
  const auto bench = Spans::instance().collect();
  std::map<std::uint64_t, std::vector<Interval>> bench_kids;
  for (const auto& s : bench)
    if (s.parent != 0 && s.start_ns >= from)
      bench_kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  for (const auto& s : bench) {
    if (s.start_ns < from) continue;
    const auto kids = bench_kids.find(s.id);
    std::vector<Interval> cover =
        kids == bench_kids.end() ? std::vector<Interval>{} : kids->second;
    const auto calls = root_calls.find(s.machine);
    if (calls != root_calls.end())
      overlapping(calls->second, s.start_ns, s.end_ns, cover);
    self_ns[s.layer] +=
        static_cast<double>(uncovered(s.start_ns, s.end_ns, cover));
  }

  // Per unit of work of the part of the window every span was kept for.
  const double kept = ratio(static_cast<double>(run.end_ns - from),
                            static_cast<double>(run.end_ns - run.start_ns));
  const double units = static_cast<double>(run.traced.op_ms.size()) * kept;
  for (const char* layer : {"bench", "core", "array", "fft", "coll", "rpc",
                            "servant", "storage"})
    r.set(std::string("self.") + layer + "_ms",
          ratio(self_ns[layer] / 1e6, units), "ms");
}

}  // namespace perfbench
