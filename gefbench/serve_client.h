#ifndef GEFBENCH_SERVE_CLIENT_H_
#define GEFBENCH_SERVE_CLIENT_H_

// The serving side of the benchmark: a gef_serve child process, a
// blocking keep-alive HTTP/1.1 client, the closed-loop load driver that
// checks every response, and the /metrics scraper.

#include <sys/types.h>

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gefbench {

/// One pre-serialized request of a workload.
struct Request {
  enum class Kind { kPredict, kExplain };
  Kind kind = Kind::kPredict;
  uint32_t row = 0;   // index into the RowPool
  std::string bytes;  // the complete HTTP request
};

/// The rows a workload's requests carry, with the in-process reference
/// prediction (Forest::Predict) of each, computed before any timing.
struct RowPool {
  std::vector<std::vector<double>> rows;
  std::vector<double> expected;
  bool logit_link = false;  // binary forest: surrogate μ = sigmoid(η)
};

/// Serializes a POST of `body` to `target`.
std::string HttpPost(const std::string& target, const std::string& body);

/// {"row":[...]} with shortest round-trip numbers, so the server parses
/// exactly the pooled doubles.
std::string RowBody(const std::vector<double>& row);

/// gef_serve as a child process. stdout/stderr go to a pipe drained by
/// a thread; the child is killed if this process dies.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the "listening on ADDR:PORT" line or `timeout_s`.
  bool WaitListening(double timeout_s);
  int port() const { return port_; }
  std::string pid() const { return std::to_string(pid_); }

  /// SIGTERM, then waits. True when the server drained and exited 0.
  bool Stop();

 private:
  void Drain();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string log_;  // guarded by mu_
  int port_ = 0;     // guarded by mu_ until WaitListening returns
  bool eof_ = false;
  std::thread drain_;  // declared last: uses the members above
};

/// Blocking keep-alive connection to 127.0.0.1:port.
class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  bool Connect(int port);
  /// Writes `request` and reads one response. False on transport error
  /// (the connection is then closed).
  bool RoundTrip(const std::string& request, int* status, std::string* body);

 private:
  void Close();
  int fd_ = -1;
  std::string buffer_;
};

/// One answered request: when it completed (seconds after the run
/// started) and how long it took.
struct Timed {
  double done_s = 0.0;
  double latency_s = 0.0;
};

/// What a closed-loop run observed.
struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-200, transport errors, wrong outputs
  uint64_t completed = 0;
  double wall_s = 0.0;
  std::vector<Timed> predicts;
  std::vector<Timed> explains;
  /// Served gam_prediction per explained pool row.
  std::map<uint32_t, double> explained;
  /// A few response bodies of each kind, for the in-process replay.
  std::vector<std::string> predict_bodies;
  std::vector<std::string> explain_bodies;
};

/// Per-slice view of a run: the window is cut into whole slices of
/// kSliceS and each statistic is the median over slices of its
/// per-slice value, so a burst of host interference moves one slice,
/// not the result.
struct SliceStats {
  double rate_per_s = 0.0;  // completions per second
  double p50_s = 0.0;
  double p99_s = 0.0;
  size_t slices = 0;
  size_t samples = 0;
};
inline constexpr double kSliceS = 1.0;
SliceStats Slices(const std::vector<Timed>& samples, double wall_s);

/// Closed loop: one thread and one keep-alive connection per entry of
/// `per_conn`; each sends its requests in order (wrapping) and waits
/// for every response, until `seconds` have passed.
///
/// Every response is checked; a non-200, a transport error or a wrong
/// output counts as failed. Predict: the prediction is bit-identical to
/// the pooled reference. Explain: forest_prediction is bit-identical to
/// the reference, link⁻¹(intercept + Σ contributions) reconstructs
/// gam_prediction, and every explain of one row serves the same value.
LoadResult RunClosedLoop(int port,
                         const std::vector<std::vector<Request>>& per_conn,
                         const RowPool& pool, double seconds);

/// One request on a fresh connection, checked like the load driver's.
bool SendChecked(int port, const Request& request, const RowPool& pool);

/// GET /metrics parsed as "name value" lines; empty on failure.
std::map<std::string, double> ScrapeMetrics(int port);

}  // namespace gefbench

#endif  // GEFBENCH_SERVE_CLIENT_H_
