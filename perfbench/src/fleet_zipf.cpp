// fleet_zipf — thousands of tiny solves through one fleet::FleetEngine.
//
// The fleet runs the "incremental" engine kind over a keyspace of 2^20
// instances of kNodesPer nodes, materialized on first touch by the
// benchmark's factory, with warm_limit = 1024.  A single caller runs
// closed-loop steps: one kBatchEdits-edit apply_batch with Zipf(0.99) ids,
// then kViewsPerStep Zipf-routed view() calls.  Timing starts after
// kWarmSteps steps, which fill the warm set and bring the growth in
// instance count per batch to a slow, steady decline (printed as
// provenance).
//
// The fleet has a worker pool of width nproc - 1 (the caller is one lane):
// the warm fan's per-batch epoch barrier waits for the slowest lane, and on
// a shared 4-vCPU host a pool of width nproc, with no core left for the
// host's own work, made batch p50 vary 16-24 % run to run against 8 % at
// width nproc - 1.  On the caller alone, batch time followed whichever
// core the caller ran on (25-31 %).
//
// Correctness: the most-edited ids and ids spread over every id touched are
// replayed locally (factory instance + their edits in stream order); each
// view() must equal core::solve on the replay and pass verify_labels.
// Every view in the loop must describe a kNodesPer-node partition.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/fleet_engine.hpp"
#include "pram/worker_pool.hpp"
#include "replay.hpp"
#include "util/generators.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sfcp::core;
namespace fleet = sfcp::fleet;
namespace graph = sfcp::graph;
namespace util = sfcp::util;

namespace {

constexpr u64 kInstances = u64{1} << 20;
constexpr std::size_t kNodesPer = 24;
constexpr u32 kLabels = 4;
constexpr std::size_t kWarmLimit = 1024;
constexpr std::size_t kBatchEdits = 256;
constexpr std::size_t kViewsPerStep = 16;
constexpr std::size_t kWarmSteps = 256;
constexpr int kSetups = 3;  ///< set-ups per run (each runs the warm-up); setup_s is their median
constexpr std::size_t kGateIds = 32;  ///< gate ids per selection (hottest, spread)
constexpr std::size_t kEvictProbes = 64;
/// Measured steps per second of --seconds, calibrated so a run measures
/// about --seconds on a 4-core x86 host.
constexpr std::size_t kStepsPerSecond = 120;

int pool_width(const Args& args) { return std::max(1, args.nproc - 1); }

graph::Instance make_instance(u64 seed, fleet::InstanceId id) {
  util::Rng rng((seed * 0x9e3779b97f4a7c15ull) ^ (id * 0xbf58476d1ce4e5b9ull + 1));
  return util::random_function(kNodesPer, kLabels, rng);
}

struct Inputs {
  std::size_t steps = 0;  ///< measured steps (after kWarmSteps warm-up steps)
  std::vector<fleet::InstanceEdit> edits;  ///< kBatchEdits per step
  std::vector<fleet::InstanceId> views;    ///< kViewsPerStep per step
  std::vector<std::vector<fleet::InstanceId>> distinct;  ///< per step: distinct batch ids
};

Inputs make_inputs(u64 seed, int seconds) {
  Inputs in;
  in.steps = kStepsPerSecond * static_cast<std::size_t>(seconds);
  const std::size_t total = kWarmSteps + in.steps;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xf1ee7);
  util::ZipfSampler zipf(kInstances);
  in.edits.resize(total * kBatchEdits);
  in.views.resize(total * kViewsPerStep);
  in.distinct.resize(total);
  for (std::size_t s = 0; s < total; ++s) {
    std::vector<fleet::InstanceId>& ids = in.distinct[s];
    for (std::size_t i = 0; i < kBatchEdits; ++i) {
      fleet::InstanceEdit& e = in.edits[s * kBatchEdits + i];
      e.id = zipf(rng);
      const u32 x = rng.below_u32(kNodesPer);
      e.edit = rng.chance(0.75) ? sfcp::inc::Edit::set_f(x, rng.below_u32(kNodesPer))
                                : sfcp::inc::Edit::set_b(x, rng.below_u32(kLabels));
      ids.push_back(e.id);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (std::size_t v = 0; v < kViewsPerStep; ++v) in.views[s * kViewsPerStep + v] = zipf(rng);
  }
  return in;
}

/// A fleet, its worker pool, its factory's span log and (traced) its
/// metrics sink; declared last, the fleet is destroyed first.
struct FleetSession {
  std::unique_ptr<sfcp::pram::WorkerPool> pool;
  sfcp::pram::Metrics sink;  ///< installed through FleetConfig::ctx when traced
  SpanLog log;               ///< off until the caller enables it
  std::vector<double> growth;  ///< new instances per batch, per warm-up window
  std::unique_ptr<fleet::FleetEngine> fleet;

  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;
  explicit FleetSession(const Args& args, bool traced) {
    fleet::FleetConfig cfg;
    cfg.engine = "incremental";
    cfg.warm_limit = kWarmLimit;
    if (traced) cfg.ctx.metrics = &sink;
    fleet = std::make_unique<fleet::FleetEngine>(std::move(cfg));
    const u64 seed = args.seed;
    fleet->set_factory([this, seed](fleet::InstanceId id) {
      // Materialization runs on the caller lane; never record from a worker.
      if (sfcp::pram::on_pool_worker()) return make_instance(seed, id);
      SpanLog::Scope span(log, "fleet.factory", id);
      return make_instance(seed, id);
    });
    pool = std::make_unique<sfcp::pram::WorkerPool>(pool_width(args));
    fleet->install_pool(pool.get());
  }
};

struct Measured {
  Dist batch_ms, read_us;
  double wall_s = 0.0;
  double warm_hits = 0.0, distinct_routed = 0.0;
  fleet::FleetStats before, after;
  sfcp::pram::MetricsSnapshot ops_before, ops_after;
};

/// Runs steps [first, first + count).  `m` collects timings when non-null.
void run_steps(FleetSession& fs, const Inputs& in, std::size_t first, std::size_t count,
               Measured* m, Report* rep) {
  fleet::FleetEngine& f = *fs.fleet;
  const i64 start = now_ns();
  for (std::size_t s = first; s < first + count; ++s) {
    if (m != nullptr && fs.log.enabled()) {
      for (fleet::InstanceId id : in.distinct[s]) m->warm_hits += f.is_warm(id) ? 1.0 : 0.0;
      m->distinct_routed += static_cast<double>(in.distinct[s].size());
    }
    {
      SpanLog::Scope span(fs.log, "fleet.apply_batch", s);
      const i64 t0 = now_ns();
      f.apply_batch(std::span(in.edits).subspan(s * kBatchEdits, kBatchEdits));
      if (m != nullptr) m->batch_ms.add(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    for (std::size_t v = 0; v < kViewsPerStep; ++v) {
      const fleet::InstanceId id = in.views[s * kViewsPerStep + v];
      std::size_t size = 0;
      {
        SpanLog::Scope span(fs.log, "fleet.view", s);
        const i64 t0 = now_ns();
        size = f.view(id).size();
        if (m != nullptr) m->read_us.add(static_cast<double>(now_ns() - t0) * 1e-3);
      }
      if (rep != nullptr) {
        ++rep->attempted;
        if (size != kNodesPer) rep->fail("view of instance " + std::to_string(id));
      }
    }
    if (rep != nullptr) rep->attempted += kBatchEdits;
  }
  if (m != nullptr) m->wall_s = static_cast<double>(now_ns() - start) * 1e-9;
}

/// Warm-up to steady state, recording instance growth per batch in windows.
void warm_up(FleetSession& fs, const Inputs& in) {
  constexpr std::size_t kWindows = 8;
  constexpr std::size_t kPer = kWarmSteps / kWindows;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t before = fs.fleet->instance_count();
    run_steps(fs, in, w * kPer, kPer, nullptr, nullptr);
    fs.growth.push_back(static_cast<double>(fs.fleet->instance_count() - before) / kPer);
  }
}

Measured measure(FleetSession& fs, const Inputs& in, Report& rep) {
  Measured m;
  m.batch_ms.reserve(in.steps);
  m.read_us.reserve(in.steps * kViewsPerStep);
  m.before = fs.fleet->stats();
  m.ops_before = fs.sink.snapshot();
  run_steps(fs, in, kWarmSteps, in.steps, &m, &rep);
  m.after = fs.fleet->stats();
  m.ops_after = fs.sink.snapshot();
  return m;
}

/// Gate: the views of the kGateIds most-edited ids and of kGateIds ids
/// spread over every touched id equal core::solve on their locally
/// replayed instances.
void gate(FleetSession& fs, const Inputs& in, const Args& args, Report& rep,
          Replayer* replayer) {
  std::unordered_map<fleet::InstanceId, std::size_t> edit_count;
  for (const fleet::InstanceEdit& e : in.edits) ++edit_count[e.id];
  std::vector<std::pair<std::size_t, fleet::InstanceId>> hottest;
  for (const auto& [id, count] : edit_count) hottest.emplace_back(count, id);
  std::partial_sort(hottest.begin(), hottest.begin() + kGateIds, hottest.end(),
                    std::greater<>());
  std::vector<fleet::InstanceId> touched(in.views.begin(), in.views.end());
  for (const auto& [id, count] : edit_count) touched.push_back(id);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  std::unordered_map<fleet::InstanceId, graph::Instance> replay;
  for (std::size_t k = 0; k < kGateIds; ++k) {
    replay.emplace(hottest[k].second, make_instance(args.seed, hottest[k].second));
    const fleet::InstanceId id = touched[k * touched.size() / kGateIds];
    replay.emplace(id, make_instance(args.seed, id));
  }
  for (const fleet::InstanceEdit& e : in.edits) {
    const auto it = replay.find(e.id);
    if (it != replay.end()) sfcp::inc::apply_raw(e.edit, it->second.f, it->second.b);
  }
  u64 k = 0;
  for (const auto& [id, inst] : replay) {
    ++rep.attempted;
    const core::Result expect = core::solve(inst);
    const core::PartitionView view = fs.fleet->view(id);
    const std::span<const u32> got = view.labels();
    if (!std::equal(got.begin(), got.end(), expect.q.begin(), expect.q.end()) ||
        !verify_labels(inst, got)) {
      rep.fail("instance " + std::to_string(id) + " view differs from its replay");
    }
    if (replayer != nullptr) {
      if (replayer->replay(inst, k).q != expect.q) rep.fail("replayed pipeline differs");
      (void)replayer->seq_solve(inst, k);
      if (k < 8) replayer->heap_probe(inst);
    }
    ++k;
  }
}

void add_layer_metrics(FleetSession& fs, const Measured& m, const Inputs& in, Report& rep) {
  const double batches = static_cast<double>(in.steps);
  const auto per_batch = [&](u64 after, u64 before) {
    return static_cast<double>(after - before) / batches;
  };
  double distinct = 0.0;
  for (std::size_t s = kWarmSteps; s < kWarmSteps + in.steps; ++s) {
    distinct += static_cast<double>(in.distinct[s].size());
  }
  rep.add("fleet.distinct_ids_per_batch", distinct / batches, "count", in.steps,
          "distinct instance ids per apply_batch");
  rep.add("fleet.warm_hit_frac", m.warm_hits / m.distinct_routed, "ratio",
          static_cast<std::size_t>(m.distinct_routed), "distinct ids warm before their batch");
  rep.add("fleet.faults_per_batch", per_batch(m.after.faults, m.before.faults), "count",
          in.steps, "cold -> warm fault-ins (batches and views)");
  rep.add("fleet.evictions_per_batch", per_batch(m.after.evictions, m.before.evictions), "count",
          in.steps, "warm -> cold evictions");
  rep.add("fleet.cold_starts_per_batch", per_batch(m.after.instances, m.before.instances),
          "count", in.steps, "first-touch materializations");

  double batch_ms = 0.0, factory_ms = 0.0;
  const std::vector<Span>& spans = fs.log.spans();
  for (const Span& sp : spans) {
    const std::string name = sp.name;
    const double ms = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
    if (name == "fleet.apply_batch") batch_ms += ms;
    if (name == "fleet.factory" && sp.parent >= 0 &&
        std::string(spans[static_cast<std::size_t>(sp.parent)].name) == "fleet.apply_batch") {
      factory_ms += ms;
    }
  }
  rep.add("fleet.factory_frac", batch_ms == 0.0 ? 0.0 : factory_ms / batch_ms, "ratio", in.steps,
          "benchmark factory time / apply_batch time");
  rep.add("fleet.arena_mb", static_cast<double>(m.after.arena_bytes) / (1024.0 * 1024.0), "MiB",
          1, "SlabArena live + pooled bytes after the window");
  rep.add("fleet.warm_mb", static_cast<double>(m.after.warm_bytes) / (1024.0 * 1024.0), "MiB", 1,
          "warm-set footprint after the window");
  const double edits = batches * kBatchEdits;
  rep.add("pram.ops_per_edit",
          static_cast<double>(m.ops_after.operations - m.ops_before.operations) / edits, "count",
          static_cast<std::size_t>(edits), "exact FleetConfig::ctx sink operations / edit");

  // Explicit evict(id) + view(id) round trips on ids the last batch left warm.
  Dist evict_us, fault_us;
  const std::vector<fleet::InstanceId>& last = in.distinct[kWarmSteps + in.steps - 1];
  for (fleet::InstanceId id : last) {
    if (evict_us.size() == kEvictProbes || !fs.fleet->is_warm(id)) continue;
    const i64 t0 = now_ns();
    if (!fs.fleet->evict(id)) continue;
    const i64 t1 = now_ns();
    ++rep.attempted;
    if (fs.fleet->view(id).size() != kNodesPer) rep.fail("fault-in of " + std::to_string(id));
    const i64 t2 = now_ns();
    evict_us.add(static_cast<double>(t1 - t0) * 1e-3);
    fault_us.add(static_cast<double>(t2 - t1) * 1e-3);
  }
  rep.add("fleet.evict_us_p50", evict_us.p50(), "us", evict_us.size(), "FleetEngine::evict");
  rep.add("fleet.fault_in_us_p50", fault_us.p50(), "us", fault_us.size(),
          "view() faulting the evicted id back in");
}

std::string fmt_growth(const std::vector<double>& g) {
  std::string s;
  for (double x : g) {
    if (!s.empty()) s += ' ';
    s += std::to_string(static_cast<int>(x + 0.5));
  }
  return s;
}

}  // namespace

Report run_fleet_zipf(const Args& args) {
  Report rep;
  const Inputs in = make_inputs(args.seed, args.seconds);
  rep.add_info("keyspace", std::to_string(kInstances) + " instances x " +
                               std::to_string(kNodesPer) + " nodes, engine incremental, warm_limit " +
                               std::to_string(kWarmLimit));
  rep.add_info("pool", "WorkerPool width " + std::to_string(pool_width(args)) +
                           " (nproc - 1, caller lane included); nproc=" +
                           std::to_string(args.nproc));
  rep.add_info("loop", "closed, 1 caller, " + std::to_string(kWarmSteps) + " warm-up + " +
                           std::to_string(in.steps) + " measured steps of apply_batch(" +
                           std::to_string(kBatchEdits) + " Zipf(0.99) edits) + " +
                           std::to_string(kViewsPerStep) + " Zipf view() calls");

  std::vector<double> setup_s;
  std::unique_ptr<FleetSession> fs;
  for (int k = 0; k < kSetups; ++k) {
    fs.reset();  // one fleet at a time
    const i64 t0 = now_ns();
    fs = std::make_unique<FleetSession>(args, false);
    warm_up(*fs, in);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  rep.add_info("steady state", "warm " + std::to_string(fs->fleet->warm_count()) + "/" +
                                   std::to_string(kWarmLimit) +
                                   "; new instances per batch over 8 warm-up windows: " +
                                   fmt_growth(fs->growth));
  Measured base = measure(*fs, in, rep);
  gate(*fs, in, args, rep, nullptr);
  fs.reset();

  const double edits = static_cast<double>(in.steps * kBatchEdits);
  const double tail_p = base.batch_ms.tail_percentile();
  const double read_tail_p = base.read_us.tail_percentile();
  rep.add("setup_s", median(setup_s), "s", setup_s.size(),
          "fleet + pool construction and the fixed warm-up");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "getrusage high-water mark");
  rep.add("ops_per_s", edits / base.wall_s, "1/s", static_cast<std::size_t>(edits),
          "edits_per_s: applied edits per second of loop wall time");
  rep.add("op_ms_p50", base.batch_ms.p50(), "ms", base.batch_ms.size(),
          "batch_ms_p50: apply_batch");
  rep.add("op_ms_tail", base.batch_ms.tail(), "ms", base.batch_ms.size(),
          "batch_ms_tail: apply_batch at " + pct_name(tail_p));
  rep.add("reads_per_s", static_cast<double>(base.read_us.size()) / base.wall_s, "1/s",
          base.read_us.size(), "view() calls per second of loop wall time");
  rep.add("read_us_p50", base.read_us.p50(), "us", base.read_us.size(), "view() call");
  rep.add("read_us_tail", base.read_us.tail(), "us", base.read_us.size(),
          "view() call at " + pct_name(read_tail_p));

  if (args.trace) {
    FleetSession traced_fs(args, true);
    warm_up(traced_fs, in);
    traced_fs.log.set_enabled(true);
    Measured traced = measure(traced_fs, in, rep);
    add_layer_metrics(traced_fs, traced, in, rep);
    SpanLog gate_log(true);
    Replayer replayer(gate_log, args.nproc);
    gate(traced_fs, in, args, rep, &replayer);
    replayer.report(rep);
    const double base_rate = edits / base.wall_s;
    const double traced_rate = edits / traced.wall_s;
    rep.add("trace.overhead_frac", (base_rate - traced_rate) / base_rate, "ratio", 2,
            "edits_per_s lost to tracing");
    rep.logs.emplace_back("caller", std::move(traced_fs.log));
    rep.logs.emplace_back("gate", std::move(gate_log));
  }
  return rep;
}

}  // namespace perfbench
