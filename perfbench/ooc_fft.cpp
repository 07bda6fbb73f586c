// ooc_fft — the paper's §1 problem: a 3-D FFT streamed through page
// devices, with a client budget far below the field's size.
//
// A 128^3 complex field held as two round-robin Arrays (real, imaginary),
// each on 4 page devices with 16^3 pages; devices charge a simulated
// 300 us service time per contiguous run; the client budget is 4 MiB, one
// eighth of the 32 MiB field; the fabric is the zero-cost in-process one.
// The closed loop runs forward + inverse fft3d_out_of_core pairs (each
// followed by the 1/N scale); the unit of work is one transform.  Why:
// this workload is dominated by storage, array and fft plus bulk rpc, with
// only a few hundred calls per transform, so the small-call path of
// rpc_mix does little here, and reads and writes move equal volume.
#include <algorithm>
#include <cmath>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "array/array.hpp"
#include "array/block_storage.hpp"
#include "common.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/out_of_core.hpp"
#include "storage/page_device.hpp"

using namespace oopp;
namespace arr = oopp::array;

namespace perfbench {
namespace {

constexpr index_t kN = 128;
constexpr index_t kPage = 16;
constexpr int kDevices = 4;
constexpr std::uint32_t kServiceUs = 300;
constexpr std::size_t kBudget = std::size_t{4} << 20;
const Extents3 kExt{kN, kN, kN};

class OocFft final : public Workload {
 public:
  explicit OocFft(const Args& a) : args_(a) {}

  SetupTimes setup() override {
    SetupTimes t;
    Timer timer;
    Cluster::Options opts;
    opts.machines = 4;
    opts.state_dir = args_.workdir / "ooc_fft_state";
    cluster_ = std::make_unique<Cluster>(opts);
    t.cluster_s = timer.seconds();

    timer.reset();
    re_ = make_array("re");
    im_ = make_array("im");
    t.storage_s = timer.seconds();

    // Load one page layer at a time, as a client that cannot hold the
    // field would.
    timer.reset();
    for (index_t a = 0; a < kN; a += kPage) {
      std::vector<double> re0, im0;
      input(a, a + kPage, re0, im0);
      const arr::Domain layer(a, a + kPage, 0, kN, 0, kN);
      re_.write(re0, layer);
      im_.write(im0, layer);
    }
    t.load_s = timer.seconds();

    timer.reset();
    Result scratch;
    (void)pair(scratch, nullptr);
    t.warmup_s = timer.seconds();
    return t;
  }

  void teardown() override {
    for (auto& s : storages_) arr::destroy_block_storage(s);
    storages_.clear();
    re_ = arr::Array();
    im_ = arr::Array();
    cluster_.reset();
  }

  [[nodiscard]] Cluster& cluster() override { return *cluster_; }

  Window run(double seconds, Result& r) override {
    Window w;
    stats_.clear();
    const std::int64_t t0 = now_ns();
    const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const auto ms = pair(r, &stats_);
      w.op_ms.insert(w.op_ms.end(), ms.begin(), ms.end());
    }
    w.elapsed_s = static_cast<double>(now_ns() - t0) / 1e9;
    for (const auto& s : stats_)
      w.payload_bytes += static_cast<double>(s.bytes_moved);
    return w;
  }

  void layer_metrics(const TracedRun&, Result& r) override {
    std::vector<double> rd, wr, slabs;
    for (const auto& s : stats_) {
      rd.push_back(s.stall_read_ms);
      wr.push_back(s.stall_write_ms);
      slabs.push_back(s.slabs);
    }
    r.set("fft.stall_read_ms", median(rd), "ms");
    r.set("fft.stall_write_ms", median(wr), "ms");
    r.set("fft.slabs", median(slabs), "count");
    probe_kernel(r);
    probe_slab(r);
  }

  void verify(Result& r) override {
    std::vector<double> re0, im0;
    input(0, kN, re0, im0);
    const auto whole = arr::Domain::whole(kExt);
    r.attempted += 2;  // the round trip and the reference transform
    // Every pair so far must have returned the field to the input.
    double err = max_error(re_.read(whole), im_.read(whole), re0, im0);
    r.check(err < 1e-9, "ooc_fft: round trip error " + sci(err));
    r.note("ooc_fft: round-trip max error " + sci(err));

    // One forward transform against the in-core reference.
    (void)fft::fft3d_out_of_core(re_, im_, -1,
                                 fft::OutOfCoreOptions{.max_bytes = kBudget});
    std::vector<fft::cplx> ref(re0.size());
    double peak = 0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      ref[i] = fft::cplx(re0[i], im0[i]);
    fft::fft3d_inplace(ref, kExt, -1);
    for (auto& c : ref) peak = std::max(peak, std::abs(c));
    for (std::size_t i = 0; i < ref.size(); ++i) {
      re0[i] = ref[i].real();
      im0[i] = ref[i].imag();
    }
    err = max_error(re_.read(whole), im_.read(whole), re0, im0) / peak;
    r.check(err < 1e-12,
            "ooc_fft: forward transform differs from fft3d_inplace by " +
                sci(err));
    r.note("ooc_fft: forward vs in-core reference, max error / peak " +
           sci(err));
  }

 private:
  struct TransformStats {
    double stall_read_ms = 0;
    double stall_write_ms = 0;
    double slabs = 0;
    double slabs_pass1 = 0;
    std::uint64_t bytes_moved = 0;
  };

  arr::Array make_array(const std::string& tag) {
    const Extents3 grid{kN / kPage, kN / kPage, kN / kPage};
    const arr::PageMapSpec spec{arr::PageMapKind::kRoundRobin};
    arr::BlockStorageConfig cfg;
    cfg.file_prefix = (args_.workdir / ("ooc_fft_" + tag)).string();
    cfg.devices = kDevices;
    cfg.pages_per_device =
        static_cast<std::int32_t>(spec.pages_per_device(grid, kDevices));
    cfg.n1 = cfg.n2 = cfg.n3 = static_cast<int>(kPage);
    cfg.device_options.service_us = kServiceUs;
    storages_.push_back(arr::create_block_storage(cfg, [&](std::int32_t i) {
      return static_cast<net::MachineId>(i % cluster_->size());
    }));
    return arr::Array(kN, kN, kN, kPage, kPage, kPage, storages_.back(),
                      spec);
  }

  /// The seeded input field, planes [lo, hi) along axis 0.
  void input(index_t lo, index_t hi, std::vector<double>& re0,
             std::vector<double>& im0) const {
    const auto first = static_cast<std::uint64_t>(kExt.linear(lo, 0, 0));
    const auto n = static_cast<std::size_t>((hi - lo) * kN * kN);
    re0.resize(n);
    im0.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      re0[i] = hashed_uniform(args_.seed, 0, first + i, -1, 1);
      im0[i] = hashed_uniform(args_.seed, 1, first + i, -1, 1);
    }
  }

  static double max_error(const std::vector<double>& re,
                          const std::vector<double>& im,
                          const std::vector<double>& re0,
                          const std::vector<double>& im0) {
    if (re.size() != re0.size() || im.size() != im0.size()) return INFINITY;
    double err = 0;
    for (std::size_t i = 0; i < re.size(); ++i)
      err = std::max(err, std::abs(fft::cplx(re[i] - re0[i], im[i] - im0[i])));
    return err;
  }

  /// Forward transform, inverse transform, 1/N scale.  Returns the two
  /// transform times in ms; appends their stats when `out` is given.
  std::vector<double> pair(Result& r, std::vector<TransformStats>* out) {
    std::vector<double> ms;
    const auto whole = arr::Domain::whole(kExt);
    for (const int sign : {-1, +1}) {
      Span op("ooc_fft.transform", "bench");
      ++r.attempted;
      try {
        fft::OutOfCoreStats st;
        Timer t;
        {
          Span s("fft.fft3d_out_of_core", "fft");
          st = fft::fft3d_out_of_core(
              re_, im_, sign, fft::OutOfCoreOptions{.max_bytes = kBudget});
        }
        ms.push_back(t.millis());
        if (out != nullptr)
          out->push_back(TransformStats{
              static_cast<double>(st.pass1.stall_read_ns +
                                  st.pass2.stall_read_ns) / 1e6,
              static_cast<double>(st.pass1.stall_write_ns +
                                  st.pass2.stall_write_ns) / 1e6,
              static_cast<double>(st.pass1.slabs + st.pass2.slabs),
              static_cast<double>(st.pass1.slabs),
              st.elements_moved() * sizeof(fft::cplx)});
      } catch (const std::exception& e) {
        r.check(false, std::string("ooc_fft: transform threw: ") + e.what());
      }
    }
    Span s("array.scale", "array");
    const double inv_n = 1.0 / static_cast<double>(kExt.volume());
    re_.scale(inv_n, whole);
    im_.scale(inv_n, whole);
    return ms;
  }

  /// In-core fft3d_inplace of the same field on this thread: the kernel
  /// alone and the single-threaded baseline.
  void probe_kernel(Result& r) {
    std::vector<double> re0, im0;
    input(0, kN, re0, im0);
    std::vector<fft::cplx> data(re0.size());
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = fft::cplx(re0[i], im0[i]);
      Timer t;
      fft::fft3d_inplace(data, kExt, -1);
      ms.push_back(t.millis());
    }
    const double n = static_cast<double>(kExt.volume());
    const double flops = 5.0 * n * std::log2(n);
    r.set("fft.kernel_ms", median(ms), "ms");
    r.set("fft.kernel_gflops", flops / (median(ms) * 1e6), "GFlop/s");
  }

  /// One pipeline-sized pass-1 slab (both arrays) through Array::read /
  /// Array::write alone, and the pages one device serves for it through a
  /// local PageDevice, with no RPC.
  void probe_slab(Result& r) {
    double slabs1 = 0;
    for (const auto& s : stats_) slabs1 = std::max(slabs1, s.slabs_pass1);
    const auto rows = static_cast<index_t>(
        std::ceil(static_cast<double>(kN) / std::max(1.0, slabs1)));
    const arr::Domain slab(0, rows, 0, kN, 0, kN);
    std::vector<double> rd, wr;
    for (int rep = 0; rep < 5; ++rep) {
      Timer t;
      auto a = re_.read(slab);
      auto b = im_.read(slab);
      rd.push_back(t.millis());
      t.reset();
      re_.write(a, slab);
      im_.write(b, slab);
      wr.push_back(t.millis());
    }
    r.set("array.slab_read_ms", median(rd), "ms");
    r.set("array.slab_write_ms", median(wr), "ms");

    // The slab's pages, per array, spread round-robin over the devices;
    // each device holds a contiguous run of them.
    const index_t layers = (rows + kPage - 1) / kPage;
    const auto per_device = static_cast<int>(
        layers * (kN / kPage) * (kN / kPage) / kDevices);
    const int page_bytes = static_cast<int>(kPage * kPage * kPage) * 8;
    storage::PageDevice dev((args_.workdir / "ooc_fft_local.dev").string(),
                            per_device, page_bytes,
                            storage::DeviceOptions{.service_us = kServiceUs});
    std::vector<std::int32_t> idx(static_cast<std::size_t>(per_device));
    for (int i = 0; i < per_device; ++i) idx[static_cast<std::size_t>(i)] = i;
    rd.clear();
    wr.clear();
    for (int rep = 0; rep < 5; ++rep) {
      Timer t;
      std::vector<storage::Page> pages;
      for (int a = 0; a < 2; ++a) pages = dev.read_pages(idx);
      rd.push_back(t.millis());
      t.reset();
      for (int a = 0; a < 2; ++a) dev.write_pages(pages, idx);
      wr.push_back(t.millis());
    }
    r.set("storage.read_pages_ms", median(rd), "ms");
    r.set("storage.write_pages_ms", median(wr), "ms");
  }

  Args args_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<arr::BlockStorage> storages_;
  arr::Array re_, im_;
  std::vector<TransformStats> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_ooc_fft(const Args& args) {
  return std::make_unique<OocFft>(args);
}

}  // namespace perfbench
