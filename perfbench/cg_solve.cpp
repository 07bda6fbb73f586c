// cg_solve — conjugate-gradient time to solution on coll::Communicator.
//
// Four members over kBlocked Arrays (row-slab pages, one contiguous run
// per device), reuse_matrix on, zero-cost in-process fabric.  One seeded
// dense SPD matrix A = shift*I + S, S symmetric with entries uniform in
// [-1, 1), n = 512.  S's spectrum is a semicircle of radius
// 2*sqrt(n/3) ~ 26 with no outlier (mean-zero entries), so shift = 30
// puts A's in about [4, 56]: every solve takes about 40 iterations to
// reach relative residual 1e-10, and without an outlying eigenvalue the
// iteration count does not depend on the order of floating-point sums,
// so it matches a plain serial CG exactly.  At n = 512 the matrix (2 MiB,
// 512 KiB per member) stays in cache; at n = 2048 (32 MiB) solve times
// followed the memory bandwidth the host's neighbours left, and moved
// by over 20% between sets of runs of the same code.
// Each solve writes a fresh seeded right-hand side, starts from x0 = 0
// and reads the solution back; the unit of work is one solve.  Why: the
// only workload where coll does the work — about seven collective calls
// per iteration (scalar tree allreduces and a ring-allgather matvec),
// bound by those calls, with the device-local matvec a few percent of an
// iteration — while fft sits idle and storage serves only the vectors.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "array/page_map.hpp"
#include "coll/communicator.hpp"
#include "common.hpp"
#include "core/oopp.hpp"

using namespace oopp;
namespace arr = oopp::array;

namespace perfbench {
namespace {

constexpr index_t kN = 512;
constexpr index_t kRows = kN / 16;  // rows per page: 16 pages, 4 per member
constexpr int kMembers = 4;
constexpr double kShift = 30.0;
constexpr double kTol = 1e-10;  // relative residual ||r|| / ||b||
constexpr int kMaxIters = 1000;

/// One verified distributed solve, kept for the serial-CG comparison.
struct Solve {
  std::uint64_t rhs;  // right-hand-side stream
  int iterations;
};

class CgSolve final : public Workload {
 public:
  // The whole matrix, held locally to check every solution with an
  // independent matvec; allocated before any window, so the heap
  // samples see it as a constant.
  explicit CgSolve(const Args& a) : args_(a), A_(matrix_rows(0, kN)) {
    solves_.reserve(1 << 14);
  }

  SetupTimes setup() override {
    SetupTimes t;
    Timer timer;
    Cluster::Options opts;
    opts.machines = kMembers;
    opts.state_dir = args_.workdir / "cg_solve_state";
    cluster_ = std::make_unique<Cluster>(opts);
    t.cluster_s = timer.seconds();

    timer.reset();
    Am_ = make_blocked("A", kN);
    b_ = make_blocked("b", 1);
    x_ = make_blocked("x", 1);
    r_ = make_blocked("r", 1);
    p_ = make_blocked("p", 1);
    ap_ = make_blocked("ap", 1);
    comm_ = coll::Communicator::over(Am_.storage());
    t.storage_s = timer.seconds();

    // Load one row slab (one page) at a time.
    timer.reset();
    for (index_t i = 0; i < kN; i += kRows)
      Am_.write(matrix_rows(i, i + kRows),
                arr::Domain(i, i + kRows, 0, kN, 0, 1));
    t.load_s = timer.seconds();

    // Warm-up: the first matvec loads every member's resident slab.
    timer.reset();
    Result scratch;
    std::vector<double> x;
    (void)solve(~std::uint64_t{0}, x, scratch);
    t.warmup_s = timer.seconds();
    return t;
  }

  void teardown() override {
    if (cluster_ == nullptr) return;
    comm_.destroy();
    for (auto& s : storages_) arr::destroy_block_storage(s);
    storages_.clear();
    cluster_.reset();
  }

  [[nodiscard]] Cluster& cluster() override { return *cluster_; }

  Window run(double seconds, Result& r) override {
    Window w;
    iters_ = 0;
    // Every window solves the same right-hand-side sequence, so the first
    // solve's iteration count (cg.iterations) repeats for a seed.
    std::uint64_t next_rhs = 0;
    const std::int64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    const std::size_t first = solves_.size();
    std::vector<double> x;
    while (now_ns() < deadline) {
      const std::uint64_t k = next_rhs++;
      Timer t;
      const int it = solve(k, x, r);
      if (it < 0) continue;
      w.op_ms.push_back(t.millis());
      const double res = residual(x, rhs(k));
      worst_ = std::max(worst_, res);
      // The recurrence residual reached kTol; the true residual may
      // drift above it by rounding, never by orders of magnitude.
      r.check(res < 10 * kTol, "cg_solve: relative residual " + sci(res) +
                                   " for right-hand side " + std::to_string(k));
      iters_ += static_cast<std::uint64_t>(it);
      solves_.push_back(Solve{k, it});
    }
    w.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
    // Payload: the right-hand side in, the solution out.
    w.payload_bytes = static_cast<double>(solves_.size() - first) * 2.0 *
                      static_cast<double>(kN) * sizeof(double);
    if (solves_.size() > first) first_iters_ = solves_[first].iterations;
    checked_.push_back(first);
    if (solves_.size() - first > 1) checked_.push_back(solves_.size() - 1);
    return w;
  }

  void layer_metrics(const TracedRun& run, Result& r) override {
    const auto iters = static_cast<double>(iters_);
    const auto spans = Spans::instance().collect();
    auto span_ms = [&](std::initializer_list<std::string> names) {
      double ms = 0;
      for (const auto& s : spans)
        for (const auto& n : names)
          if (n == s.name) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      return ratio(ms, iters);
    };
    r.set("coll.matvec_ms", span_ms({"coll.matvec"}), "ms");
    r.set("coll.dot_ms", span_ms({"coll.dot"}), "ms");
    r.set("coll.axpy_ms", span_ms({"coll.axpy", "coll.scale"}), "ms");
    r.set("rpc.calls_per_iter",
          ratio(static_cast<double>(run.after.requests - run.before.requests),
                iters),
          "count");
    r.set("cg.iterations", first_iters_, "count");
    r.set("coll.bytes_per_iter", ratio(run.delta("coll/bytes_moved"), iters), "B");
    r.set("coll.hops_per_iter", ratio(run.delta("coll/hops"), iters), "count");
    r.set("coll.matvec_reuse_hits",
          ratio(run.delta("coll/matvec_reuse_hits"), iters), "count");
    probe_allreduce(r);
    probe_local_matvec(r);
  }

  void verify(Result& r) override {
    r.note("cg_solve: " + std::to_string(solves_.size()) +
           " solutions checked, worst ||Ax-b||/||b|| = " + sci(worst_));
    std::vector<double> ms;
    for (const std::size_t i : checked_) {
      if (i >= solves_.size()) continue;
      const Solve& s = solves_[i];
      Timer t;
      const int serial = serial_cg(A_, rhs(s.rhs));
      ms.push_back(t.millis());
      ++r.attempted;
      r.check(serial == s.iterations,
              "cg_solve: " + std::to_string(s.iterations) +
                  " iterations, plain serial CG took " +
                  std::to_string(serial));
    }
    r.set("cg.serial_solve_ms", median(ms), "ms");
  }

 private:
  arr::Array make_blocked(const std::string& tag, index_t cols) {
    const Extents3 grid{kN / kRows, 1, 1};
    const arr::PageMapSpec spec{arr::PageMapKind::kBlocked};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (args_.workdir / ("cg_solve_" + tag)).string();
    cfg.devices = kMembers;
    cfg.pages_per_device =
        static_cast<std::int32_t>(spec.pages_per_device(grid, kMembers));
    cfg.n1 = static_cast<int>(kRows);
    cfg.n2 = static_cast<int>(cols);
    storages_.push_back(arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster_->size());
    }));
    return arr::Array(kN, cols, 1, kRows, cols, 1, storages_.back(), spec);
  }

  /// Rows [lo, hi) of the seeded matrix, row-major.
  [[nodiscard]] std::vector<double> matrix_rows(index_t lo, index_t hi) const {
    const auto n = static_cast<std::uint64_t>(kN);
    std::vector<double> m;
    m.reserve(static_cast<std::size_t>((hi - lo) * kN));
    for (auto i = static_cast<std::uint64_t>(lo);
         i < static_cast<std::uint64_t>(hi); ++i)
      for (std::uint64_t j = 0; j < n; ++j)
        m.push_back(hashed_uniform(args_.seed, 0, std::min(i, j) * n +
                                                      std::max(i, j),
                                   -1.0, 1.0) +
                    (i == j ? kShift : 0.0));
    return m;
  }

  [[nodiscard]] std::vector<double> rhs(std::uint64_t k) const {
    std::vector<double> b(static_cast<std::size_t>(kN));
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = hashed_uniform(args_.seed, 2 + k, i, -1.0, 1.0);
    return b;
  }

  /// y = the first `rows` rows of the row-major n x n matrix A times x.
  static void matvec(const std::vector<double>& A, std::size_t rows,
                     const std::vector<double>& x, std::vector<double>& y) {
    const std::size_t n = x.size();
    y.assign(rows, 0.0);
    for (std::size_t i = 0; i < rows; ++i) {
      const double* row = A.data() + i * n;
      double acc = 0;
      for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
      y[i] = acc;
    }
  }

  /// ||A x - b|| / ||b|| with the local copy of A.
  [[nodiscard]] double residual(const std::vector<double>& x,
                                const std::vector<double>& b) const {
    std::vector<double> ax;
    matvec(A_, x.size(), x, ax);
    double rr = 0, bb = 0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      rr += (ax[i] - b[i]) * (ax[i] - b[i]);
      bb += b[i] * b[i];
    }
    return std::sqrt(rr / bb);
  }

  /// Plain single-threaded CG on the same system and the same stopping
  /// rule; returns its iteration count.
  static int serial_cg(const std::vector<double>& A,
                       const std::vector<double>& b) {
    const std::size_t n = b.size();
    std::vector<double> x(n, 0.0), r = b, p = b, ap;
    auto dot = [n](const std::vector<double>& u, const std::vector<double>& v) {
      double s = 0;
      for (std::size_t i = 0; i < n; ++i) s += u[i] * v[i];
      return s;
    };
    double rs = dot(r, r);
    const double stop = kTol * kTol * rs;
    int it = 0;
    for (; it < kMaxIters && rs > stop; ++it) {
      matvec(A, n, p, ap);
      const double alpha = rs / dot(p, ap);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      const double rs_new = dot(r, r);
      const double beta = rs_new / rs;
      for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
      rs = rs_new;
    }
    return it;
  }

  /// One distributed solve of A x = rhs(k); every line a public call into
  /// array or coll.  Returns the iteration count, or -1 on failure.
  int solve(std::uint64_t k, std::vector<double>& x, Result& r) {
    const auto b = rhs(k);
    const arr::Domain whole(0, kN, 0, 1, 0, 1);
    ++r.attempted;
    try {
      Span op("cg.solve", "bench");
      {
        Span s("array.write", "array");
        b_.write(b, whole);
      }
      {
        Span s("array.fill", "array");
        x_.fill(0.0, whole);
        r_.fill(0.0, whole);
        p_.fill(0.0, whole);
      }
      axpy(1.0, b_, r_);
      axpy(1.0, r_, p_);
      double rs = dot(r_, r_);
      const double stop = kTol * kTol * rs;
      int it = 0;
      for (; it < kMaxIters && rs > stop; ++it) {
        {
          Span s("coll.matvec", "coll");
          comm_.matvec(Am_, p_, ap_, /*reuse_matrix=*/true);
        }
        const double alpha = rs / dot(p_, ap_);
        axpy(alpha, p_, x_);
        axpy(-alpha, ap_, r_);
        const double rs_new = dot(r_, r_);
        {
          Span s("coll.scale", "coll");
          comm_.scale(rs_new / rs, p_);
        }
        axpy(1.0, r_, p_);
        rs = rs_new;
      }
      {
        Span s("array.read", "array");
        x = x_.read(whole);
      }
      if (!r.check(it < kMaxIters, "cg_solve: no convergence")) return -1;
      return it;
    } catch (const std::exception& e) {
      r.check(false, std::string("cg_solve: solve threw: ") + e.what());
      return -1;
    }
  }

  double dot(const arr::Array& u, const arr::Array& v) {
    Span s("coll.dot", "coll");
    return comm_.dot(u, v);
  }
  void axpy(double a, const arr::Array& u, const arr::Array& v) {
    Span s("coll.axpy", "coll");
    comm_.axpy(a, u, v);
  }

  /// allreduce_members on one double per member (max, so repeating it
  /// leaves the values unchanged).
  void probe_allreduce(Result& r) {
    std::vector<net::MachineId> machines;
    for (int m = 0; m < kMembers; ++m)
      machines.push_back(static_cast<net::MachineId>(m));
    auto comm = coll::Communicator::on_machines(machines);
    std::vector<std::vector<double>> chunks;
    for (int m = 0; m < kMembers; ++m) chunks.push_back({double(m + 1)});
    comm.set_member_data(chunks);
    std::vector<double> us;
    for (int i = 0; i < 400; ++i) {
      const std::int64_t t0 = now_ns();
      (void)comm.allreduce_members(coll::ReduceKind::kMax);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    ++r.attempted;
    const auto data = comm.member_data();
    r.check(std::all_of(data.begin(), data.end(),
                        [](const auto& d) {
                          return d.size() == 1 && d[0] == kMembers;
                        }),
            "cg_solve: allreduce probe");
    comm.destroy();
    r.set("coll.allreduce_scalar_us", median(us), "us");
  }

  /// One member's slab (n / members rows) times a vector on this core.
  void probe_local_matvec(Result& r) {
    const std::size_t rows = static_cast<std::size_t>(kN) / kMembers;
    const auto x = rhs(0);
    std::vector<double> y;
    std::vector<double> ms;
    for (int rep = 0; rep < 9; ++rep) {
      Timer t;
      matvec(A_, rows, x, y);
      ms.push_back(t.millis());
    }
    ++r.attempted;
    r.check(std::isfinite(y[rows - 1]), "cg_solve: local matvec probe");
    r.set("blas.local_matvec_ms", median(ms), "ms");
  }

  Args args_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<arr::BlockStorage> storages_;
  std::vector<double> A_;  // local copy, row-major
  arr::Array Am_, b_, x_, r_, p_, ap_;
  coll::Communicator comm_;
  std::uint64_t iters_ = 0;  // iterations in the current window
  double first_iters_ = 0;
  std::vector<Solve> solves_;
  double worst_ = 0;  // worst relative residual of any checked solution
  std::vector<std::size_t> checked_;  // solves re-run by serial CG
};

}  // namespace

std::unique_ptr<Workload> make_cg_solve(const Args& args) {
  return std::make_unique<CgSolve>(args);
}

}  // namespace perfbench
