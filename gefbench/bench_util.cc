#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace gefbench {

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuUs(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may contain spaces; fields resume after its ')'.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // After ')': state is field 3, utime field 14, stime field 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (utime + stime) / ticks * 1e6;
}

bool MetricSet::Finite() const {
  for (const Entry& entry : entries_) {
    if (!std::isfinite(entry.value)) return false;
  }
  return true;
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entries_[i].value) ? entries_[i].value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const MetricSet& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.ToJson() + "}";
}

}  // namespace gefbench
