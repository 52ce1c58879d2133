#ifndef GEFBENCH_BENCH_UTIL_H_
#define GEFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark harness: clocks, order
// statistics, /proc readers and the result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace gefbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True when link⁻¹(eta) reproduces `prediction`, where eta is a local
/// explanation's intercept plus its term contributions (summed in the
/// explanation's order, hence the tolerance).
inline bool Reconstructs(double eta, double prediction, bool logit_link) {
  const double mu = logit_link ? 1.0 / (1.0 + std::exp(-eta)) : eta;
  return std::fabs(mu - prediction) <= 1e-9 * std::max(1.0, std::fabs(mu));
}

/// Peak resident set (VmHWM) of `pid` in MiB, read from
/// /proc/<pid>/status; "self" for this process. 0 when unreadable.
double PeakRssMb(const std::string& pid);

/// utime + stime of `pid` in microseconds, from /proc/<pid>/stat.
double ProcessCpuUs(const std::string& pid);

/// Ordered metric list printed as the result line's "metrics" object.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  bool Finite() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Renders the harness's last stdout line.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics);

}  // namespace gefbench

#endif  // GEFBENCH_BENCH_UTIL_H_
