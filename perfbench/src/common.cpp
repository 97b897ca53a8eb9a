#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Dist::percentile(double p) {
  if (v_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(v_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  return v_[std::min(rank, v_.size()) - 1];
}

double Dist::tail_percentile() const noexcept {
  static constexpr double kGrid[] = {99.0, 95.0, 90.0, 80.0, 75.0};
  const double n = static_cast<double>(v_.size());
  for (double p : kGrid) {
    const double rank = std::ceil(p / 100.0 * n);
    if (n - rank >= 10.0) return p;
  }
  return 100.0;  // too few samples for any: report the maximum
}

std::string pct_name(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p);
  return buf;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
