// The TimedEngine decorator must be invisible to what the engine serves:
// labels, epochs and change feeds through it equal those of the bare engine,
// directly and through a serve::Server on loopback.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "engine.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "timed_engine.hpp"
#include "util/generators.hpp"

namespace {

using namespace sfcp;
using perfbench::SpanLog;
using perfbench::TimedEngine;

constexpr std::size_t kNodes = 1024;
constexpr std::size_t kChunk = 64;

struct Workload {
  graph::Instance inst;
  std::vector<inc::Edit> edits;
};

Workload make_workload(util::EditMix mix) {
  util::Rng rng(0x7e57 + static_cast<u64>(mix));
  Workload w;
  w.inst = util::random_function(kNodes, 4, rng);
  w.edits = util::random_edit_stream(w.inst, 24 * kChunk, mix, 6, rng);
  return w;
}

std::vector<u32> labels_of(const core::PartitionView& v) {
  const std::span<const u32> l = v.labels();
  return {l.begin(), l.end()};
}

class TimedEngineTest : public ::testing::TestWithParam<util::EditMix> {};

TEST_P(TimedEngineTest, EngineLabelsMatchUndecorated) {
  const Workload w = make_workload(GetParam());
  SpanLog log(true);
  std::unique_ptr<Engine> bare = engines().make("incremental", w.inst);
  TimedEngine timed(engines().make("incremental", w.inst), log);
  EXPECT_EQ(timed.kind(), bare->kind());
  EXPECT_EQ(labels_of(timed.view()), labels_of(bare->view()));
  for (std::size_t at = 0; at < w.edits.size(); at += kChunk) {
    const std::span<const inc::Edit> chunk = std::span(w.edits).subspan(at, kChunk);
    bare->apply(chunk);
    timed.apply(chunk);
    ASSERT_EQ(timed.epoch(), bare->epoch());
    ASSERT_EQ(labels_of(timed.view()), labels_of(bare->view()));
    const inc::ViewDelta dt = timed.take_view_delta();
    const inc::ViewDelta db = bare->take_view_delta();
    ASSERT_EQ(dt.full, db.full);
    ASSERT_EQ(dt.nodes, db.nodes);
  }
  EXPECT_EQ(timed.applies().size(), w.edits.size() / kChunk);
  // One span per apply, per view and per delta take, stamped with epochs.
  std::size_t applies = 0;
  for (const perfbench::Span& s : log.spans()) {
    if (std::string(s.name) == "inc.apply") {
      ++applies;
      EXPECT_GT(s.id, 0u);
      EXPECT_LE(s.start_ns, s.end_ns);
    }
  }
  EXPECT_EQ(applies, w.edits.size() / kChunk);
}

/// Runs the edit stream through a Server over `engine`, returning the final
/// served labels.
std::vector<u32> serve_labels(std::unique_ptr<Engine> engine, const Workload& w) {
  serve::ServerOptions opt;
  opt.pool_threads = 0;
  serve::Server server(std::move(engine), opt);
  std::thread loop([&server] { server.run(); });
  std::vector<u32> labels;
  {
    serve::Client c = serve::Client::connect("127.0.0.1", server.port());
    for (std::size_t at = 0; at < w.edits.size(); at += kChunk) {
      c.apply(std::span(w.edits).subspan(at, kChunk));
      (void)c.class_of(static_cast<u32>(at % kNodes));
    }
    labels = c.labels().labels;
  }
  server.stop();
  loop.join();
  return labels;
}

TEST_P(TimedEngineTest, ServedLabelsMatchUndecorated) {
  const Workload w = make_workload(GetParam());
  SpanLog log(true);
  const std::vector<u32> bare = serve_labels(engines().make("incremental", w.inst), w);
  const std::vector<u32> timed = serve_labels(
      std::make_unique<TimedEngine>(engines().make("incremental", w.inst), log), w);
  EXPECT_EQ(timed, bare);
  EXPECT_EQ(bare, core::solve([&] {
              graph::Instance inst = w.inst;
              for (const inc::Edit& e : w.edits) inc::apply_raw(e, inst.f, inst.b);
              return inst;
            }())
                      .q);
  EXPECT_FALSE(log.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(Mixes, TimedEngineTest,
                         ::testing::Values(util::EditMix::LocalizedHotspot,
                                           util::EditMix::Uniform, util::EditMix::CycleChurn));

}  // namespace
