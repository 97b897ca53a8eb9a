#pragma once
// In-memory span recorder for the traced run.
//
// Each thread that records owns one SpanLog (no locking); logs are merged
// and written out after the run.  A span names the layer call it wraps
// ("<layer>.<call>"), its start and end on the shared steady clock, the
// span that caused it (the enclosing open span on the same log, or -1) and
// a request id that links spans of one request across threads: the solve
// index, the server epoch or the fleet batch index.
//
// A disabled log records nothing, so the untraced run pays one branch per
// instrumented call.

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "pram/types.hpp"

namespace perfbench {

using sfcp::i64;
using sfcp::u64;

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  i64 start_ns = 0;
  i64 end_ns = 0;
  int parent = -1;  ///< index into the same log, -1 for a root span
  u64 id = 0;       ///< request id
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : on_(enabled) {}

  bool enabled() const noexcept { return on_; }
  /// Starts or stops recording (e.g. only after a warm-up).
  void set_enabled(bool on) noexcept { on_ = on; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// RAII span nested under whatever span is open on this log.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, u64 id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Re-stamps the request id (e.g. with the epoch an apply produced).
    void set_id(u64 id) noexcept;

   private:
    SpanLog* log_;
    int idx_ = -1;
  };

  /// Records a finished span that was not opened as a Scope (pipelined
  /// frames overlap, so they cannot nest); parent is the open span, if any.
  void record(const char* name, i64 start_ns, i64 end_ns, u64 id);

  /// Self time of every span: its duration minus the part covered by its
  /// direct children.
  std::vector<i64> self_ns() const;

  /// Writes the spans as tab-separated lines tagged with `thread`.
  void write(std::ostream& os, const char* thread) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-layer totals over one or more logs: self time summed by the layer
/// prefix of each span name, and span counts.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  std::map<std::string, std::size_t> spans;

  void add(const SpanLog& log);
};

}  // namespace perfbench
