#include "serve_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "bench_util.h"

namespace gefbench {
namespace {

constexpr size_t kKeptBodiesPerThread = 64;

bool NumberAfter(const std::string& body, std::string_view key, size_t* pos,
                 double* out) {
  const size_t at = body.find(key, *pos);
  if (at == std::string::npos) return false;
  const char* begin = body.data() + at + key.size();
  const char* end = body.data() + body.size();
  auto [next, ec] = std::from_chars(begin, end, *out);
  if (ec != std::errc()) return false;
  *pos = static_cast<size_t>(next - body.data());
  return true;
}

bool CheckPredictBody(const std::string& body, double expected) {
  size_t pos = 0;
  double prediction = 0.0;
  return NumberAfter(body, "\"prediction\":", &pos, &prediction) &&
         SameBits(prediction, expected);
}

bool CheckExplainBody(const std::string& body, double expected_forest,
                      bool logit_link, double* gam_prediction) {
  size_t pos = 0;
  double forest = 0.0;
  double eta = 0.0;
  if (!NumberAfter(body, "\"gam_prediction\":", &pos, gam_prediction) ||
      !NumberAfter(body, "\"forest_prediction\":", &pos, &forest) ||
      !NumberAfter(body, "\"intercept\":", &pos, &eta) ||
      !SameBits(forest, expected_forest)) {
    return false;
  }
  double contribution = 0.0;
  int terms = 0;
  while (NumberAfter(body, "\"contribution\":", &pos, &contribution)) {
    eta += contribution;
    ++terms;
  }
  return terms > 0 && Reconstructs(eta, *gam_prediction, logit_link);
}

/// The checks RunClosedLoop documents, minus the per-row consistency;
/// `gam_prediction` is set for explains.
bool CheckResponse(const Request& request, int status,
                   const std::string& body, const RowPool& pool,
                   double* gam_prediction) {
  if (status != 200) return false;
  const double expected = pool.expected[request.row];
  return request.kind == Request::Kind::kPredict
             ? CheckPredictBody(body, expected)
             : CheckExplainBody(body, expected, pool.logit_link,
                                gam_prediction);
}

/// Per-thread share of a closed-loop run.
struct ThreadResult {
  LoadResult load;
  Clock::time_point finished;
};

}  // namespace

std::string HttpPost(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string RowBody(const std::vector<double>& row) {
  std::string out = "{\"row\":[";
  char number[32];
  for (size_t i = 0; i < row.size(); ++i) {
    auto [end, ec] = std::to_chars(number, number + sizeof(number), row[i]);
    (void)ec;  // 32 bytes always hold a shortest double
    if (i > 0) out += ',';
    out.append(number, end);
  }
  return out + "]}";
}

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    eof_ = true;
    return;
  }
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid_ < 0) {
    close(fds[0]);
    eof_ = true;
    return;
  }
  out_fd_ = fds[0];
  drain_ = std::thread([this] { Drain(); });
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
  if (out_fd_ >= 0) close(out_fd_);
}

void ServerProcess::Drain() {
  static constexpr std::string_view kListening = "listening on ";
  char chunk[4096];
  while (true) {
    const ssize_t n = read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    std::lock_guard<std::mutex> lock(mu_);
    if (n <= 0) {
      eof_ = true;
      cv_.notify_all();
      return;
    }
    log_.append(chunk, static_cast<size_t>(n));
    if (port_ == 0) {
      const size_t at = log_.find(kListening);
      const size_t eol = at == std::string::npos ? at : log_.find('\n', at);
      if (eol != std::string::npos) {
        const size_t colon = log_.rfind(':', eol);
        port_ = std::atoi(log_.c_str() + colon + 1);
        cv_.notify_all();
      }
    }
  }
}

bool ServerProcess::WaitListening(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
               [this] { return port_ != 0 || eof_; });
  return port_ != 0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point start = Clock::now();
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
         SecondsSince(start) < 20.0) {
    usleep(2000);
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (drain_.joinable()) drain_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         log_.find("drained, exiting") != std::string::npos;
}

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConn::Connect(int port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{60, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpConn::RoundTrip(const std::string& request, int* status,
                         std::string* body) {
  if (fd_ < 0) return false;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd_, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  size_t header_end = std::string::npos;
  size_t total = 0;
  char chunk[16384];
  while (true) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        header_end += 4;
        const std::string head = buffer_.substr(0, header_end);
        std::string lower = head;
        for (char& c : lower) c = static_cast<char>(std::tolower(c));
        const size_t length_at = lower.find("content-length:");
        if (head.size() < 12 || length_at == std::string::npos) {
          Close();
          return false;
        }
        *status = std::atoi(head.c_str() + 9);
        total = header_end + static_cast<size_t>(std::strtoul(
                                 head.c_str() + length_at + 15, nullptr, 10));
      }
    }
    if (header_end != std::string::npos && buffer_.size() >= total) break;
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  body->assign(buffer_, header_end, total - header_end);
  buffer_.erase(0, total);
  return true;
}

LoadResult RunClosedLoop(int port,
                         const std::vector<std::vector<Request>>& per_conn,
                         const RowPool& pool, double seconds) {
  std::vector<ThreadResult> results(per_conn.size());
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point run_start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < per_conn.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& requests = per_conn[c];
      LoadResult& out = results[c].load;
      out.predicts.reserve(1 << 18);
      HttpConn conn;
      bool connected = conn.Connect(port);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::string body;
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const Request& request = requests[i % requests.size()];
        ++out.attempted;
        if (!connected && !(connected = conn.Connect(port))) {
          ++out.failed;
          continue;
        }
        int status = 0;
        const Clock::time_point start = Clock::now();
        if (!conn.RoundTrip(request.bytes, &status, &body)) {
          ++out.failed;
          connected = false;
          continue;
        }
        const Timed timed{SecondsSince(run_start), SecondsSince(start)};
        double gam = 0.0;
        bool ok = CheckResponse(request, status, body, pool, &gam);
        if (request.kind == Request::Kind::kPredict) {
          out.predicts.push_back(timed);
          if (out.predict_bodies.size() < kKeptBodiesPerThread) {
            out.predict_bodies.push_back(body);
          }
        } else {
          out.explains.push_back(timed);
          if (ok) {
            auto [it, inserted] = out.explained.emplace(request.row, gam);
            ok = inserted || SameBits(it->second, gam);
          }
          if (out.explain_bodies.size() < kKeptBodiesPerThread) {
            out.explain_bodies.push_back(body);
          }
        }
        if (ok) {
          ++out.completed;
        } else {
          ++out.failed;
        }
      }
      results[c].finished = Clock::now();
    });
  }
  while (ready.load() < static_cast<int>(per_conn.size())) {
    std::this_thread::yield();
  }
  run_start = Clock::now();
  const Clock::time_point start = run_start;
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  LoadResult merged;
  Clock::time_point last = start;
  for (ThreadResult& result : results) {
    LoadResult& part = result.load;
    last = std::max(last, result.finished);
    merged.attempted += part.attempted;
    merged.failed += part.failed;
    merged.completed += part.completed;
    merged.predicts.insert(merged.predicts.end(), part.predicts.begin(),
                           part.predicts.end());
    merged.explains.insert(merged.explains.end(), part.explains.begin(),
                           part.explains.end());
    for (const auto& [row, gam] : part.explained) {
      auto [it, inserted] = merged.explained.emplace(row, gam);
      if (!inserted && !SameBits(it->second, gam)) ++merged.failed;
    }
    for (std::string& body : part.predict_bodies) {
      merged.predict_bodies.push_back(std::move(body));
    }
    for (std::string& body : part.explain_bodies) {
      merged.explain_bodies.push_back(std::move(body));
    }
  }
  merged.wall_s = std::chrono::duration<double>(last - start).count();
  return merged;
}

SliceStats Slices(const std::vector<Timed>& samples, double wall_s) {
  SliceStats stats;
  stats.samples = samples.size();
  stats.slices = static_cast<size_t>(wall_s / kSliceS);
  if (stats.slices == 0) stats.slices = 1;  // runs shorter than a slice
  std::vector<std::vector<double>> by_slice(stats.slices);
  for (const Timed& sample : samples) {
    const size_t slice = static_cast<size_t>(sample.done_s / kSliceS);
    if (slice < stats.slices) by_slice[slice].push_back(sample.latency_s);
  }
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  for (const std::vector<double>& latencies : by_slice) {
    rate.push_back(static_cast<double>(latencies.size()) /
                   std::min(kSliceS, wall_s));
    if (latencies.empty()) continue;
    p50.push_back(Quantile(latencies, 0.50));
    p99.push_back(Quantile(latencies, 0.99));
  }
  stats.rate_per_s = Median(rate);
  stats.p50_s = Median(p50);
  stats.p99_s = Median(p99);
  return stats;
}

bool SendChecked(int port, const Request& request, const RowPool& pool) {
  HttpConn conn;
  int status = 0;
  std::string body;
  double gam = 0.0;
  return conn.Connect(port) && conn.RoundTrip(request.bytes, &status, &body) &&
         CheckResponse(request, status, body, pool, &gam);
}

std::map<std::string, double> ScrapeMetrics(int port) {
  std::map<std::string, double> out;
  HttpConn conn;
  int status = 0;
  std::string body;
  if (!conn.Connect(port) ||
      !conn.RoundTrip("GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                      &status, &body) ||
      status != 200) {
    return out;
  }
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || line[0] == '#') continue;
    char* end = nullptr;
    const double parsed = std::strtod(line.c_str() + space + 1, &end);
    if (end != line.c_str() + space + 1 && *end == '\0') {
      out[line.substr(0, space)] = parsed;
    }
  }
  return out;
}

}  // namespace gefbench
