#pragma once
// Shared plumbing for the perfbench workloads: run arguments, the metric
// report every workload fills, latency distributions and the wall clock.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "pram/types.hpp"
#include "trace.hpp"

namespace perfbench {

using sfcp::i64;
using sfcp::u32;
using sfcp::u64;

/// Monotonic wall clock in nanoseconds (steady_clock, shared by all threads).
inline i64 now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  u64 seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< scratch directory for journals and the span dump
  int nproc = 1;              ///< hardware threads the budget is derived from
};

/// One printed metric: value, unit, and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< what the value means on this workload
};

/// Everything a workload run produces: provenance lines, metrics, and the
/// correctness tally behind `failed_frac`.
struct Report {
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// Span logs of the traced run, one per recording thread, by thread name.
  std::vector<std::pair<std::string, SpanLog>> logs;

  void add_info(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string note = "") {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples, std::move(note)});
  }
  void fail(std::string what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(what));
  }
};

/// Samples of one timed operation; percentiles by nearest rank.
class Dist {
 public:
  void reserve(std::size_t n) { v_.reserve(n); }
  void add(double x) { v_.push_back(x); }
  void append(const Dist& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const noexcept { return v_.size(); }
  double percentile(double p);  ///< p in [0, 100]; sorts lazily
  double p50() { return percentile(50.0); }

  /// The highest percentile of {75, 80, 90, 95, 99} that still has
  /// at least ten samples beyond it (100, the maximum, when none does); the
  /// `_tail` metrics.
  double tail_percentile() const noexcept;
  double tail() { return percentile(tail_percentile()); }

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

/// Formats a percentile as a metric-note fragment, e.g. "p99.9".
std::string pct_name(double p);

/// Peak resident set of this process so far (getrusage), in MiB.
double peak_rss_mb();

/// Median of a small vector (copied).
double median(std::vector<double> v);

}  // namespace perfbench
