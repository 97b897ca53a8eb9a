#include "trace.hpp"

#include "common.hpp"

namespace perfbench {

SpanLog::Scope::Scope(SpanLog& log, const char* name, u64 id) : log_(&log) {
  if (!log.on_) return;
  idx_ = static_cast<int>(log.spans_.size());
  const int parent = log.open_.empty() ? -1 : log.open_.back();
  log.spans_.push_back(Span{name, now_ns(), 0, parent, id});
  log.open_.push_back(idx_);
}

SpanLog::Scope::~Scope() {
  if (idx_ < 0) return;
  log_->spans_[static_cast<std::size_t>(idx_)].end_ns = now_ns();
  log_->open_.pop_back();
}

void SpanLog::Scope::set_id(u64 id) noexcept {
  if (idx_ >= 0) log_->spans_[static_cast<std::size_t>(idx_)].id = id;
}

void SpanLog::record(const char* name, i64 start_ns, i64 end_ns, u64 id) {
  if (!on_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
}

std::vector<i64> SpanLog::self_ns() const {
  std::vector<i64> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

void SpanLog::write(std::ostream& os, const char* thread) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << thread << '\t' << i << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
       << s.parent << '\t' << s.id << '\n';
  }
}

void LayerTimes::add(const SpanLog& log) {
  const std::vector<i64> self = log.self_ns();
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] += static_cast<double>(self[i]) * 1e-6;
    ++this->spans[layer];
  }
}

}  // namespace perfbench
