// oopp_perfbench — the repository benchmark's measuring program.
//
//   oopp_perfbench --workload rpc_mix|ooc_fft|cg_solve --seed N
//                  --seconds S --trace 0|1 --workdir DIR
//
// Untraced (--trace 0): sets the workload up five times (setup_s is the
// median; four of the set-ups run in child processes, so each starts from
// the same fresh process state), then measures it for S seconds with
// tracing off, sampling the live heap, and reports the end-to-end metrics.
// Traced (--trace 1): one set-up, S/2 seconds untraced, then S/2 seconds
// with the program's telemetry and the benchmark's spans on; reports the
// per-layer metrics, each layer's self time and the tracing overhead
// (traced minus untraced median op time).
//
// Every workload runs pinned to one CPU (see pin_to_one_cpu).
//
// Every metric the run computed is printed as a table; the last line is
// one JSON object {"correct", "attempted", "failed", "metrics"}.  The
// exit code is 0 only when every output check passed.  perfbench/run.py
// builds this program and selects the metrics BENCHMARK.json declares.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "telemetry/telemetry.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 5;

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--workdir") a.workdir = v;
    else return false;
  }
  return !a.workload.empty() && !a.workdir.empty() && a.seconds > 0;
}

/// Run every thread of this process (and its set-up children) on one CPU,
/// the last one it may use.  On the shared virtual machines this runs on,
/// a wake-up that crosses CPUs costs several times more when the
/// neighbours are busy, for minutes at a time: unpinned, cg_solve's median
/// solve moved between 94 ms and 459 ms over ten runs, and ooc_fft's
/// median transform by a factor of two, which swamps what a change to the
/// program moves.  On one CPU every hand-off is a local context switch.
/// Returns the CPU, or -1 if unchanged.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0 ? last : -1;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "rpc_mix") return make_rpc_mix(args);
  if (args.workload == "ooc_fft") return make_ooc_fft(args);
  if (args.workload == "cg_solve") return make_cg_solve(args);
  return nullptr;
}

/// Time one set-up in a child process.  Called before the measuring
/// process starts any thread, so fork() copies a single-threaded process.
double setup_in_child(const Args& args, int i) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    double secs = -1;
    try {
      Args a = args;
      a.workdir = args.workdir / ("setup" + std::to_string(i));
      std::filesystem::create_directories(a.workdir);
      auto w = make_workload(a);
      secs = w->setup().total();
      w->teardown();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: set-up " << i << " failed: " << e.what() << '\n';
    }
    const bool sent = ::write(fds[1], &secs, sizeof secs) == sizeof secs;
    ::_exit(sent && secs >= 0 ? 0 : 1);
  }
  ::close(fds[1]);
  double secs = -1;
  const bool got = ::read(fds[0], &secs, sizeof secs) == sizeof secs;
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || secs < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up in child process failed");
  return secs;
}

void end_to_end(const Window& w, Result& r) {
  const double ops = static_cast<double>(w.op_ms.size());
  r.set("op_ms", median(w.op_ms), "ms");
  r.set("ops_per_s", ratio(ops, w.elapsed_s), "1/s");
  r.set("payload_MBps", ratio(w.payload_bytes / 1e6, w.elapsed_s), "MB/s");
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.checks_ok && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  if (w == nullptr) {
    std::cerr << "unknown workload " << args.workload << '\n';
    return 2;
  }

  std::printf("pinned to cpu %d\n", pin_to_one_cpu());

  Result r;
  if (!args.trace) {
    std::vector<double> setups;
    for (int i = 1; i < kSetupRepeats; ++i)
      setups.push_back(setup_in_child(args, i));
    setups.push_back(w->setup().total());
    r.set("setup_s", median(setups), "s");
    HeapSampler heap;
    const Window win = w->run(args.seconds, r);
    r.set("heap_mb", heap.median(), "MB");
    end_to_end(win, r);
  } else {
    const SetupTimes st = w->setup();
    r.set("setup.cluster_s", st.cluster_s, "s");
    r.set("setup.storage_s", st.storage_s, "s");
    r.set("setup.load_s", st.load_s, "s");
    r.set("setup.warmup_s", st.warmup_s, "s");
    r.set("mem.heap_after_setup_mb", heap_in_use_mb(), "MB");
    TracedRun run;
    run.plain = w->run(args.seconds / 2, r);
    oopp::telemetry::set_enabled(true);
    Spans::instance().set_enabled(true);
    clear_program_spans(w->cluster());
    run.before = Counters::take(w->cluster());
    run.start_ns = oopp::now_ns();
    run.traced = w->run(args.seconds / 2, r);
    run.end_ns = oopp::now_ns();
    run.after = Counters::take(w->cluster());
    Spans::instance().set_enabled(false);
    oopp::telemetry::set_enabled(false);
    run.program = take_program_spans(w->cluster(), run.start_ns);

    const auto units = static_cast<double>(run.traced.op_ms.size());
    counter_metrics(r, run);
    self_time_metrics(r, run);
    const double plain_ms = median(run.plain.op_ms);
    const double traced_ms = median(run.traced.op_ms);
    r.set("trace.op_ms_untraced", plain_ms, "ms");
    r.set("trace.op_ms_traced", traced_ms, "ms");
    r.set("trace.overhead_ms", traced_ms - plain_ms, "ms");
    r.set("trace.spans_per_op",
          ratio(static_cast<double>(Spans::instance().collect().size()),
                units),
          "count");
    r.set("mem.peak_rss_mb", peak_rss_mb(), "MB");
    w->layer_metrics(run, r);
    Spans::instance().dump(args.workdir / ("spans_" + args.workload + ".json"));
  }
  w->verify(r);
  w->teardown();

  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : r.metrics)
    std::printf("%-36s %16.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  print_json(r);
  return r.checks_ok && r.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: oopp_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR\n";
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
