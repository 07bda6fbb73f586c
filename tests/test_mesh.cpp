// Multi-OS-process deployment test: the driver (this test) is machine 0;
// machines 1 and 2 are real separate processes running the oopp_noded
// daemon, reached over TCP.  Remote construction, method execution,
// process groups and cross-process passivation/activation must all work
// exactly as in the single-process fabrics.  A daemon must also die with
// its driver: a crashed driver may not leak machine processes.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#include "coll/communicator.hpp"
#include "core/oopp.hpp"
#include "fft/fft3d.hpp"
#include "fft/fft_worker.hpp"
#include "storage/page_device.hpp"
#include "storage/replicated_page_device.hpp"
#include "util/prng.hpp"

#ifndef OOPP_NODED_PATH
#error "OOPP_NODED_PATH must be defined by the build"
#endif

using namespace oopp;

namespace {

std::uint16_t grab_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const auto port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Fork an oopp_noded for `machine`, tied to the calling thread's life:
/// PR_SET_PDEATHSIG kills the daemon when its driver dies without a
/// shutdown, and the getppid() check catches a driver that died before
/// the prctl took effect.  Only async-signal-safe calls after the fork.
pid_t spawn_daemon(const char* machine, const char* endpoints_file) {
  const pid_t driver = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != driver)
    ::_exit(126);
  ::execl(OOPP_NODED_PATH, "oopp_noded", machine, endpoints_file,
          static_cast<char*>(nullptr));
  ::_exit(127);  // exec failed
}

std::string write_endpoints(const std::string& tag, int machines) {
  static int counter = 0;
  const std::string path = "/tmp/oopp-mesh-" + std::to_string(::getpid()) +
                           "-" + tag + std::to_string(counter++) +
                           ".endpoints";
  std::ofstream out(path);
  for (int m = 0; m < machines; ++m)
    out << "127.0.0.1 " << grab_free_port() << "\n";
  return path;
}

class MeshDeployment : public ::testing::Test {
 protected:
  static constexpr int kMachines = 3;  // 0 = driver, 1..2 = daemons

  void SetUp() override {
    endpoints_file_ = write_endpoints("", kMachines);
    for (int m = 1; m < kMachines; ++m) {
      const std::string id = std::to_string(m);
      const pid_t pid = spawn_daemon(id.c_str(), endpoints_file_.c_str());
      ASSERT_GE(pid, 0);
      daemons_.push_back(pid);
    }

    Cluster::Options opts;
    opts.mesh_endpoints = net::load_endpoints(endpoints_file_);
    opts.local_machine = 0;
    cluster_ = std::make_unique<Cluster>(opts);
  }

  void TearDown() override {
    if (cluster_) {
      for (int m = 1; m < kMachines; ++m) cluster_->request_shutdown(m);
      cluster_.reset();
    }
    for (pid_t pid : daemons_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
      EXPECT_TRUE(WIFEXITED(status));
      EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    ::unlink(endpoints_file_.c_str());
  }

  std::string endpoints_file_;
  std::vector<pid_t> daemons_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(MeshDeployment, RemoteObjectsAcrossOsProcesses) {
  EXPECT_EQ(cluster_->size(), 3u);
  EXPECT_TRUE(cluster_->is_local(0));
  EXPECT_FALSE(cluster_->is_local(1));

  // Remote data block in another OS process.
  auto data = cluster_->make_remote_array<double>(1, 256);
  data[7] = 3.1415;
  EXPECT_DOUBLE_EQ(data[7], 3.1415);
  std::vector<double> bulk(256, 2.0);
  data.assign(0, bulk);
  EXPECT_DOUBLE_EQ(data.sum(), 512.0);

  // Exceptions cross process boundaries.
  EXPECT_THROW(data[999] = 0.0, rpc::RemoteError);

  // Destruction terminates the object in the daemon.
  data.destroy();
}

TEST_F(MeshDeployment, StorageDeviceInDaemon) {
  const std::string file =
      "/tmp/oopp-mesh-dev-" + std::to_string(::getpid());
  auto dev = cluster_->make_remote<storage::PageDevice>(2, file, 4, 512);
  storage::Page page(512);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::uint8_t>(i * 7);
  dev.call<&storage::PageDevice::write>(page, 1);
  EXPECT_EQ(dev.call<&storage::PageDevice::read>(1), page);
  dev.destroy();
  ::unlink(file.c_str());
}

TEST_F(MeshDeployment, PassivateInOneProcessActivateInAnother) {
  auto v = cluster_->make_remote_array<double>(1, 16);
  v[3] = 42.5;
  cluster_->passivate(v.ptr(), "oopp://mesh/mover");
  auto revived =
      cluster_->lookup<RemoteVector<double>>("oopp://mesh/mover", 2);
  EXPECT_EQ(revived.machine(), 2u);
  EXPECT_DOUBLE_EQ(revived.call<&RemoteVector<double>::get>(3), 42.5);
  revived.destroy();
}

TEST_F(MeshDeployment, CollectivesSpanProcesses) {
  // Peers in both daemons: the SPMD drivers exchange segments
  // member-to-member across real process boundaries.
  namespace coll = oopp::coll;
  auto comm = coll::Communicator::on_machines({1, 2, 1, 2});
  comm.set_member_data({{1.0, -1.0}, {2.0, -2.0}, {3.0, -3.0}, {4.0, -4.0}});
  comm.allreduce_members(coll::ReduceKind::kSum);
  for (const auto& v : comm.member_data())
    EXPECT_EQ(v, (std::vector<double>{10.0, -10.0}));
  comm.members()[0].call<&coll::Peer::set_data>(std::vector<double>{7.0});
  comm.bcast_members(1);
  for (const auto& v : comm.member_data())
    EXPECT_EQ(v, std::vector<double>{7.0});
  comm.destroy();
}

TEST_F(MeshDeployment, ReplicatedDeviceInDaemon) {
  // A coordinator in one daemon fronting replicas spread over both.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("oopp-mesh-replica-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<remote_ptr<storage::ArrayPageDevice>> replicas;
  for (int j = 0; j < 3; ++j)
    replicas.push_back(cluster_->make_remote<storage::ArrayPageDevice>(
        static_cast<net::MachineId>(1 + j % 2),
        (dir / ("dev.r" + std::to_string(j))).string(), 2, 4, 4, 4,
        storage::DeviceOptions{}));
  auto coord = cluster_->make_remote<storage::ReplicatedPageDevice>(
      2, replicas, storage::ReplicaOptions{.replicas = 3});
  storage::Page page(4 * 4 * 4 * sizeof(double));
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::uint8_t>(i * 5);
  coord.call<&storage::PageDevice::write_pages>(
      std::vector<storage::Page>{page}, std::vector<std::int32_t>{1});
  EXPECT_EQ(coord.call<&storage::PageDevice::read_pages>(
                std::vector<std::int32_t>{1}),
            std::vector<storage::Page>{page});
  EXPECT_EQ(coord.call<&storage::ReplicatedPageDevice::alive_replicas>(), 3);
  coord.destroy();
  for (auto& r : replicas) r.destroy();
  std::filesystem::remove_all(dir);
}

TEST_F(MeshDeployment, WatchdogProbesAcrossProcesses) {
  auto dog = cluster_->make_remote<Watchdog>(1, std::uint32_t{15});
  auto victim = cluster_->make_remote_array<double>(2, 8);
  dog.call<&Watchdog::watch>(victim.ptr().ref());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (dog.call<&Watchdog::rounds>() < 2 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto reports = dog.call<&Watchdog::status>();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, WatchState::kAlive);
  victim.destroy();
  const auto r0 = dog.call<&Watchdog::rounds>();
  while (dog.call<&Watchdog::rounds>() < r0 + 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.call<&Watchdog::status>()[0].state, WatchState::kDead);
  dog.destroy();
}

TEST_F(MeshDeployment, FftGroupSpansProcesses) {
  // Workers in two daemon processes compute a distributed transform; the
  // all-to-all transpose crosses real process boundaries.
  const Extents3 e{8, 8, 8};
  fft::DistributedFFT3D dfft(e, 2, [](int w) {
    return static_cast<net::MachineId>(1 + (w % 2));
  });
  Xoshiro256 rng(3);
  std::vector<fft::cplx> x(static_cast<std::size_t>(e.volume()));
  for (auto& c : x) c = fft::cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto expect = x;
  fft::fft3d_inplace(expect, e, -1);

  dfft.scatter(x);
  dfft.forward();
  auto got = dfft.gather();
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    err = std::max(err, std::abs(got[i] - expect[i]));
  EXPECT_LT(err, 1e-9);
  dfft.shutdown();
}

TEST(DaemonLifetime, DaemonDiesWithItsDriver) {
  // This process adopts orphans, so it can reap the daemon once the
  // driver between them is gone.  All strings exist before the forks.
  const std::string endpoints = write_endpoints("orphan", 2);
  sockaddr_in daemon_addr{};
  daemon_addr.sin_family = AF_INET;
  daemon_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  daemon_addr.sin_port = htons(net::load_endpoints(endpoints)[1].port);
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t driver = ::fork();
  ASSERT_GE(driver, 0);
  if (driver == 0) {
    // A driver that spawns its daemon, waits until it listens (so the
    // daemon is past its start-up checks) and dies without a shutdown.
    const pid_t d = spawn_daemon("1", endpoints.c_str());
    const timespec pause{0, 10'000'000};
    for (int tries = 0; tries < 500; ++tries) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      const bool up =
          ::connect(fd, reinterpret_cast<const sockaddr*>(&daemon_addr),
                    sizeof(daemon_addr)) == 0;
      ::close(fd);
      if (up) break;
      ::nanosleep(&pause, nullptr);
    }
    ::_exit(::write(fds[1], &d, sizeof(d)) == sizeof(d) ? 0 : 1);
  }
  ::close(fds[1]);
  pid_t daemon = -1;
  const ssize_t got = ::read(fds[0], &daemon, sizeof(daemon));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(driver, &status, 0), driver);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(daemon)));
  ASSERT_GT(daemon, 0);

  bool reaped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!reaped && std::chrono::steady_clock::now() < deadline) {
    reaped = ::waitpid(daemon, &status, WNOHANG) == daemon;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(daemon, SIGKILL);
    ::waitpid(daemon, &status, 0);
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);
  ::unlink(endpoints.c_str());
  ASSERT_TRUE(reaped) << "oopp_noded outlived its driver by 5 s";
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

}  // namespace
