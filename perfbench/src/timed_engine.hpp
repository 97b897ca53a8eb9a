#pragma once
// TimedEngine — an sfcp::Engine decorator for the traced serve_rw run.
//
// Forwards every virtual to the wrapped engine and records a span around
// apply(), view() and take_view_delta().  Each span's request id is the
// engine epoch after the call — the epoch the server's EDITED ack carries —
// so client-side frame spans link to the engine work that served them.
// apply() also records the engine's edit-stat deltas (repairs, rebuilds,
// dirty nodes).  Only the server's event-loop thread calls the engine, so
// the span log and records are single-writer; read them after the loop
// thread is joined.

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "engine.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedEngine final : public sfcp::Engine {
 public:
  struct ApplyRecord {
    u64 epoch = 0;
    std::size_t edits = 0;
    u64 repairs = 0;
    u64 rebuilds = 0;
    u64 dirty_nodes = 0;
  };

  TimedEngine(std::unique_ptr<sfcp::Engine> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::string_view kind() const noexcept override { return inner_->kind(); }
  const sfcp::graph::Instance& instance() const noexcept override { return inner_->instance(); }
  u64 epoch() const noexcept override { return inner_->epoch(); }

  sfcp::core::PartitionView view() override {
    SpanLog::Scope span(log_, "inc.view", inner_->epoch());
    return inner_->view();
  }

  void apply(std::span<const sfcp::inc::Edit> edits) override {
    const sfcp::inc::EditStats before = inner_->serving_stats().edits;
    {
      SpanLog::Scope span(log_, "inc.apply", 0);
      inner_->apply(edits);
      span.set_id(inner_->epoch());
    }
    const sfcp::inc::EditStats after = inner_->serving_stats().edits;
    applies_.push_back(ApplyRecord{inner_->epoch(), edits.size(), after.repairs - before.repairs,
                                   after.rebuilds - before.rebuilds,
                                   after.dirty_nodes - before.dirty_nodes});
  }

  bool checkpointable() const noexcept override { return inner_->checkpointable(); }
  bool save_checkpoint(std::ostream& os) const override { return inner_->save_checkpoint(os); }
  sfcp::EngineStats serving_stats() const override { return inner_->serving_stats(); }
  std::size_t footprint_bytes() const noexcept override { return inner_->footprint_bytes(); }

  sfcp::inc::ViewDelta take_view_delta() override {
    SpanLog::Scope span(log_, "inc.take_view_delta", inner_->epoch());
    return inner_->take_view_delta();
  }

  void install_pool(sfcp::pram::WorkerPool* pool) override { inner_->install_pool(pool); }
  void set_metrics(sfcp::pram::Metrics* m) override { inner_->set_metrics(m); }

  const std::vector<ApplyRecord>& applies() const noexcept { return applies_; }

 private:
  std::unique_ptr<sfcp::Engine> inner_;
  SpanLog& log_;
  std::vector<ApplyRecord> applies_;
};

}  // namespace perfbench
