// Descriptor exhaustion on the reactor's accept path: a server that runs
// out of file descriptors must stop polling its listener instead of
// spinning on failing accept calls, count the failures in
// `serve.accept_errors`, and serve again once descriptors come free.
//
// The server runs in a forked child so that only it gets the lowered
// RLIMIT_NOFILE; the parent holds the clients. The fork happens before
// this process starts any thread, and the parent starts none, so the
// test stays sanitizer-friendly.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/handlers.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "serve/surrogate_cache.h"
#include "util/shutdown.h"

namespace gef {
namespace {

// Low enough that a few dozen idle clients exhaust it; high enough for
// the server's own descriptors (stdio, listener, epoll, eventfd, the
// shutdown pipe) plus a handful of connections.
constexpr rlim_t kFdLimit = 24;
constexpr int kIdleClients = 64;

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// One GET with `Connection: close`; the whole response, or "" on a
/// transport failure or a 10 s receive timeout.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return "";
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: t\r\n"
                              "Connection: close\r\n\r\n";
  std::string response;
  if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(request.size())) {
    char buffer[4096];
    ssize_t n;
    while ((n = recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      response.append(buffer, static_cast<size_t>(n));
    }
  }
  close(fd);
  return response;
}

/// utime + stime of `pid` in clock ticks, or -1.
long CpuTicks(pid_t pid) {
  FILE* file = std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(),
                          "r");
  if (file == nullptr) return -1;
  char buffer[1024];
  const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  buffer[n] = '\0';
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const char* p = std::strrchr(buffer, ')');
  if (p == nullptr) return -1;
  long utime = 0, stime = 0;
  if (std::sscanf(p + 2,
                  "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %ld %ld",
                  &utime, &stime) != 2) {
    return -1;
  }
  return utime + stime;
}

double MetricValue(const std::string& metrics, const std::string& name) {
  const size_t pos = metrics.find("\n" + name + " ");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(metrics.c_str() + pos + name.size() + 2, nullptr);
}

/// Child side: serve on an ephemeral port under the lowered descriptor
/// limit, report the port through `ready_fd`, exit 0 after a drained
/// SIGTERM. Never returns.
[[noreturn]] void RunServerChild(int ready_fd) {
  const rlimit limit{kFdLimit, kFdLimit};
  if (setrlimit(RLIMIT_NOFILE, &limit) != 0) _exit(2);
  InstallShutdownHandler();
  EnableDrainMode();
  serve::ModelRegistry registry;
  serve::SurrogateCache cache(1);
  serve::ServeContext context;
  context.registry = &registry;
  context.cache = &cache;
  serve::HttpServer::Options options;
  options.num_shards = 1;
  options.workers_per_shard = 1;
  // Idle clients must hold their descriptors for the whole test.
  options.read_timeout_ms = 60000;
  serve::HttpServer server(context, options);
  if (!server.Start().ok()) _exit(3);
  const int port = server.bound_port();
  if (write(ready_fd, &port, sizeof(port)) != sizeof(port)) _exit(4);
  close(ready_fd);
  server.Wait();
  _exit(0);
}

/// Kills and reaps the child if the test bails out early.
struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ServeFdLimitTest, ExhaustedDescriptorsNeitherSpinNorWedge) {
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  ChildGuard child;
  child.pid = fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    close(ready[0]);
    RunServerChild(ready[1]);
  }
  close(ready[1]);
  int port = 0;
  ASSERT_EQ(read(ready[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  close(ready[0]);
  ASSERT_GT(port, 0);

  // More idle clients than the server has descriptors: the kernel
  // completes every handshake, the server accepts until EMFILE and the
  // rest wait in the backlog.
  std::vector<int> idle;
  for (int i = 0; i < kIdleClients; ++i) {
    const int fd = ConnectLoopback(port);
    ASSERT_GE(fd, 0) << "client " << i;
    idle.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Bounded CPU while exhausted. A loop re-polling the level-triggered
  // listener burns a whole core (~100 ticks/s); a paused listener costs
  // one failed accept per wheel tick.
  const long ticks_per_s = sysconf(_SC_CLK_TCK);
  const long before = CpuTicks(child.pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const long after = CpuTicks(child.pid);
  ASSERT_GE(before, 0);
  ASSERT_GE(after, 0);
  EXPECT_LT(after - before, ticks_per_s / 5)
      << "server burned " << (after - before) << " of " << ticks_per_s
      << " ticks in one idle second while out of descriptors";

  // Once the clients leave, descriptors come free and the server serves.
  for (const int fd : idle) close(fd);
  std::string health;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (health.find("200 OK") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    health = HttpGet(port, "/healthz");
    if (health.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

  // Each failure was counted, and not once per loop spin.
  const std::string metrics = HttpGet(port, "/metrics");
  const double accept_errors = MetricValue(metrics, "serve.accept_errors");
  EXPECT_GE(accept_errors, 1.0) << metrics;
  EXPECT_LE(accept_errors, 200.0);

  ASSERT_EQ(kill(child.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child.pid, &status, 0), child.pid);
  child.pid = -1;
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace gef
