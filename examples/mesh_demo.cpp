// mesh_demo: the framework across real OS processes.
//
// Usage:  mesh_demo [path-to-oopp_noded]
//         (default: ./build/tools/oopp_noded, i.e. run from the repo root)
//
// The demo forks two oopp_noded daemons (machines 1 and 2), becomes
// machine 0 itself, and then runs the paper's §2 flow against objects
// that live in the other processes — construction, method execution,
// exceptions, persistence migration between daemons, and clean shutdown.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/oopp.hpp"

using namespace oopp;

namespace {

std::uint16_t grab_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return 0;
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const auto port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string noded =
      argc > 1 ? argv[1] : "./build/tools/oopp_noded";
  if (::access(noded.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "cannot execute '%s' — pass the oopp_noded path as argv[1] "
                 "or run from the repo root after building\n",
                 noded.c_str());
    return 2;
  }

  // Write the shared endpoints file: three machines on loopback.
  const std::string endpoints =
      "/tmp/oopp-mesh-demo-" + std::to_string(::getpid()) + ".endpoints";
  {
    std::ofstream out(endpoints);
    for (int m = 0; m < 3; ++m)
      out << "127.0.0.1 " << grab_free_port() << "\n";
  }

  // Launch the two daemon machines.  Each dies with this driver
  // (PR_SET_PDEATHSIG), even if the driver crashes before its shutdown
  // requests; the getppid() check covers a driver already gone.
  std::vector<pid_t> daemons;
  const pid_t driver = ::getpid();
  for (int m = 1; m <= 2; ++m) {
    const std::string id = std::to_string(m);
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != driver)
        ::_exit(126);
      ::execl(noded.c_str(), "oopp_noded", id.c_str(), endpoints.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    daemons.push_back(pid);
    std::printf("launched machine %d as pid %d\n", m, pid);
  }

  {
    // This process is machine 0, the driver.
    Cluster::Options opts;
    opts.mesh_endpoints = net::load_endpoints(endpoints);
    opts.local_machine = 0;
    Cluster cluster(opts);
    std::printf("driver up; cluster spans %zu OS processes\n",
                cluster.size());

    // new(machine 1) double[512] — in another process.
    auto data = cluster.make_remote_array<double>(1, 512);
    data[7] = 3.1415;
    std::printf("data[7] in pid %d reads back %.4f\n", daemons[0],
                static_cast<double>(data[7]));

    // Persist in machine 1's process, re-activate in machine 2's.
    cluster.passivate(data.ptr(), "oopp://demo/block");
    auto moved = cluster.lookup<RemoteVector<double>>("oopp://demo/block", 2);
    std::printf("block migrated to machine %u; data[7] = %.4f\n",
                moved.machine(),
                moved.call<&RemoteVector<double>::get>(7));
    moved.destroy();

    for (int m = 1; m <= 2; ++m) cluster.request_shutdown(m);
  }

  for (pid_t pid : daemons) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    std::printf("pid %d exited with %d\n", pid, WEXITSTATUS(status));
  }
  ::unlink(endpoints.c_str());
  std::printf("done.\n");
  return 0;
}
