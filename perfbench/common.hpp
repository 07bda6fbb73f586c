// Shared plumbing for the repository benchmark: run arguments, order
// statistics, the result record printed as the last line of stdout, the
// benchmark's own span recorder, and counter snapshots read from the
// program's public telemetry.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "telemetry/trace.hpp"
#include "util/clock.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path workdir;  // device files, state dirs, span dumps
};

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Median of an unsorted sample (mean of the middle pair for even sizes).
double median(std::vector<double> v);

/// Nearest-rank percentile p in [0, 1] of an unsorted sample, or a
/// negative value when fewer than ten samples lie beyond it — a tail
/// estimate resting on a handful of samples is not reported.
double tail_percentile(std::vector<double> v, double p);

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run reports.  `attempted` counts the operations the
/// run issued; `failed` counts those that threw, timed out or returned a
/// wrong value.  A failed check() is both a failed operation and a
/// `correct: false` result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines for the table

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a correctness check of one operation: a failure counts in
  /// `failed` and is printed.
  bool check(bool ok, const std::string& what);
  /// Mark the run incorrect (failures already counted) and print why.
  void mark_incorrect(const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Uniform double in [lo, hi) that depends only on (seed, stream, index):
/// inputs generated piece by piece, in any order, from the run's seed.
inline double hashed_uniform(std::uint64_t seed, std::uint64_t stream,
                             std::uint64_t index, double lo, double hi) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                    (stream + 1) * 0xbf58476d1ce4e5b9ULL ^
                    (index + 1) * 0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return lo + (hi - lo) * static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// A value in scientific notation, for error magnitudes in messages.
std::string sci(double v);

/// Peak resident set of this process so far, MiB (VmHWM).
double peak_rss_mb();
/// Bytes the process holds in live malloc allocations, MiB: heap chunks
/// in use plus mmapped chunks (mallinfo2).  Unlike the resident set it
/// leaves out free memory the allocator keeps in its per-thread arenas.
double heap_in_use_mb();

/// Samples heap_in_use_mb() every 10 ms on its own thread from
/// construction until median() is called.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  /// Stop sampling; the median sample, MiB.
  double median();

 private:
  std::vector<double> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into each layer
// ---------------------------------------------------------------------------

/// One timed call.  `op` groups the spans of one unit of work; `parent`
/// is the enclosing span (0 for the operation's root).
struct SpanRec {
  const char* name;   // "coll.dot", "fft.fft3d_out_of_core", ...
  const char* layer;  // module the call enters: bench, core, array, ...
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint32_t machine;  // machine context of the calling thread
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Process-wide, in-memory span store.  Each recording thread appends to
/// its own buffer (no sharing on the hot path); buffers are merged when
/// the run ends.  Disabled recorders cost one branch per call site.
class Spans {
 public:
  static Spans& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t next_id();
  void record(const SpanRec& s);

  /// Every span recorded so far, from every thread.
  [[nodiscard]] std::vector<SpanRec> collect() const;
  /// Write every span as JSON to `path`.
  void dump(const std::filesystem::path& path) const;

 private:
  struct Buffer {
    std::vector<SpanRec> spans;
  };
  Buffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span.  Nests through a thread-local "current span": a span opened
/// while another is open on the same thread becomes its child and joins
/// its operation.  A root span starts a new operation.
class Span {
 public:
  Span(const char* name, const char* layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRec rec_{};
  bool on_ = false;
  const SpanRec* saved_ = nullptr;
};

/// Record a root span whose interval was timed by the caller — for calls
/// kept in flight asynchronously, which do not nest on the thread.
void record_span(const char* name, const char* layer, std::int64_t start_ns,
                 std::int64_t end_ns);

// ---------------------------------------------------------------------------
// Counter snapshots
// ---------------------------------------------------------------------------

/// The program's public counters at one instant: Cluster::stats() totals
/// plus the telemetry scopes the per-layer metrics read.  Differences of
/// two snapshots attribute a window's work.
struct Counters {
  std::uint64_t requests = 0;
  std::uint64_t pool_tasks = 0;
  std::uint64_t remote_exceptions = 0;
  std::uint64_t queue_depth_hwm = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::map<std::string, std::uint64_t> named;  // "scope/counter" -> value

  static Counters take(const oopp::Cluster& cluster);
  [[nodiscard]] std::uint64_t delta(const Counters& before,
                                    const std::string& key) const;
};

/// num / den, or 0 when den is 0 (nothing of that kind happened).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// The program's own spans
// ---------------------------------------------------------------------------

/// The spans every node of the cluster recorded in its telemetry::SpanSink
/// since the sinks were last cleared.  A sink keeps only its most recent
/// spans; every span that started after `complete_from_ns` was kept.
struct ProgramSpans {
  std::vector<oopp::telemetry::Span> spans;
  std::int64_t complete_from_ns = 0;
};

/// Empty every node's span sink.
void clear_program_spans(oopp::Cluster& cluster);
/// Every node's spans since the sinks were cleared at `cleared_ns`.
ProgramSpans take_program_spans(oopp::Cluster& cluster,
                                std::int64_t cleared_ns);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Wall time of the phases of one set-up.
struct SetupTimes {
  double cluster_s = 0;  // Cluster construction
  double storage_s = 0;  // devices / remote objects created
  double load_s = 0;     // generated inputs written into them
  double warmup_s = 0;   // the first operations, which users pay once
  [[nodiscard]] double total() const {
    return cluster_s + storage_s + load_s + warmup_s;
  }
};

/// What one measured window produced.
struct Window {
  std::vector<double> op_ms;  // one sample per unit of work
  double elapsed_s = 0;       // wall time of the window
  double payload_bytes = 0;   // useful bytes moved, both directions
};

/// A traced run: an untraced window, then a traced one bracketed by
/// counter snapshots, with the spans the program recorded during it.
struct TracedRun {
  Window plain;
  Window traced;
  Counters before;
  Counters after;
  std::int64_t start_ns = 0;  // the traced window
  std::int64_t end_ns = 0;
  ProgramSpans program;

  /// Growth of a named counter ("scope/counter") over the traced window.
  [[nodiscard]] double delta(const std::string& key) const {
    return static_cast<double>(after.delta(before, key));
  }
};

/// A closed-loop workload.  main.cpp drives the life cycle: set-up (timed,
/// repeated), measured windows, per-layer metrics, output verification,
/// teardown.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the cluster, objects and data, and pay the warm-up.
  virtual SetupTimes setup() = 0;
  virtual void teardown() = 0;
  /// Run the closed loop for about `seconds`; checks each reply inline.
  virtual Window run(double seconds, Result& r) = 0;
  [[nodiscard]] virtual oopp::Cluster& cluster() = 0;
  /// Per-layer metrics of a traced run plus the workload's isolated layer
  /// probes (run on the idle set-up afterwards).
  virtual void layer_metrics(const TracedRun& run, Result& r) = 0;
  /// Check the outputs that are not checked inline.
  virtual void verify(Result& r) = 0;
};

/// Per-layer metrics computed from the counter snapshots bracketing the
/// traced window; "per op" means per unit of work of the workload.
void counter_metrics(Result& r, const TracedRun& run);

/// Self time of each layer per unit of work of the traced window,
/// self.<layer>_ms, from the benchmark's spans and the program's:
///  - bench, core, array, fft, coll: time inside the benchmark's calls
///    into that layer, less the time their child calls cover and the time
///    a remote call of the calling machine was outstanding;
///  - rpc: client spans less their server spans (encoded request handed
///    off, sent, queued, dispatched; reply sent back and handed over);
///  - servant: server spans less the calls and local spans they contain
///    (decode, method body, encode on the serving machine);
///  - storage: the program's storage.* local spans less their children.
/// Concurrent spans each count their own time.
void self_time_metrics(Result& r, const TracedRun& run);

std::unique_ptr<Workload> make_rpc_mix(const Args& args);
std::unique_ptr<Workload> make_ooc_fft(const Args& args);
std::unique_ptr<Workload> make_cg_solve(const Args& args);

}  // namespace perfbench
