// serve_rw — reads and writes against one serve::Server coordinator.
//
// An in-process Server (engine "incremental", n = 2^17, write-ahead journal
// with kFsync, no worker pool) runs its event loop on its own
// thread.  This process drives it over loopback with three closed-loop
// connections: one writer pipelining LocalizedHotspot EDIT frames of
// kFrameEdits edits with kWindow frames in flight, and two readers issuing
// CLASSOF on random nodes and MEMBERS on random classes, with one VIEW in
// every 16 requests.  Every read forces the pending epoch to flush, so read
// load and write batching interact on the single coordinator thread.
//
// Correctness: the final LABELS reply equals core::solve on the instance
// replayed locally from the same edit stream; every frame must be acked
// and every read answered without an Error frame.
//
// Traced run: the server's engine is wrapped in TimedEngine, frames and
// reads get client-side spans, and ack latency is split into engine time of
// the acked epoch and everything else (protocol, journal, event loop).

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine.hpp"
#include "inc/edit.hpp"
#include "replay.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "timed_engine.hpp"
#include "util/generators.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = sfcp::core;
namespace graph = sfcp::graph;
namespace serve = sfcp::serve;
namespace util = sfcp::util;
using sfcp::inc::Edit;

namespace {

constexpr std::size_t kNodes = std::size_t{1} << 17;
constexpr std::size_t kFrameEdits = 64;
constexpr std::size_t kWindow = 8;
constexpr int kReaders = 2;
constexpr std::size_t kWarmFrames = 256;
constexpr std::size_t kWarmReads = 512;
/// The journal appends every edit but leaves flushing to the OS: with
/// FsyncPolicy::Epoch the ack latency follows the disk's fsync latency
/// (p99 4.7 ms on the development host), which varies with other tenants'
/// I/O and made edits_per_s and the ack percentiles unsteady run to run.
constexpr serve::FsyncPolicy kFsync = serve::FsyncPolicy::Off;
/// Fixed work per second of --seconds, calibrated so a run measures about
/// --seconds on a 4-core x86 host.
constexpr std::size_t kFramesPerSecond = 3000;
/// Requests pre-generated per reader and cycled: the readers run closed-loop
/// for exactly the writer's window, so every read is made under write load
/// however fast the host runs that day.
constexpr std::size_t kReadPool = std::size_t{1} << 18;
constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median

struct Inputs {
  graph::Instance inst;
  std::vector<Edit> edits;  ///< warm-up frames first, then the measured ones
  std::vector<std::vector<u32>> reader_args;  ///< per reader: node or class per request
  std::size_t frames = 0;                     ///< measured frames
};

Inputs make_inputs(u64 seed, int seconds) {
  Inputs in;
  in.frames = kFramesPerSecond * static_cast<std::size_t>(seconds);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e12);
  in.inst = util::random_function(kNodes, 4, rng);
  in.edits = util::random_edit_stream(in.inst, (kWarmFrames + in.frames) * kFrameEdits,
                                      util::EditMix::LocalizedHotspot, 6, rng);
  // MEMBERS targets classes below half the initial class count: a localized
  // edit relabels one leaf, so the count can never fall that far.
  const u32 safe_classes = std::max<u32>(1, core::solve(in.inst).num_blocks / 2);
  for (int r = 0; r < kReaders; ++r) {
    std::vector<u32>& args = in.reader_args.emplace_back(kWarmReads + kReadPool);
    for (std::size_t i = 0; i < args.size(); ++i) {
      args[i] = i % 2 == 0 ? rng.below_u32(static_cast<u32>(kNodes)) : rng.below_u32(safe_classes);
    }
  }
  return in;
}

/// One reader request: CLASSOF on even indices, MEMBERS on odd ones, VIEW
/// on every 16th.  Returns false on a malformed answer.
bool read_once(serve::Client& c, std::size_t i, u32 arg) {
  if (i % 16 == 15) return c.view().n == kNodes;
  if (i % 2 == 0) return c.class_of(arg) < kNodes;
  return !c.members(arg).empty();
}

struct Session {
  std::filesystem::path journal;
  std::unique_ptr<serve::Server> server;
  std::thread loop;
  serve::Client writer;
  std::vector<serve::Client> readers;
  TimedEngine* timed = nullptr;  ///< owned by the server; traced sessions only
  SpanLog engine_log;
  u64 warm_epoch = 0;  ///< engine epoch after the warm-up frames

  Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() { close(); }

  /// Stops the event loop; the server (and a TimedEngine inside it) stays
  /// readable until close().
  void stop_loop() {
    writer.close();
    for (serve::Client& r : readers) r.close();
    readers.clear();
    if (loop.joinable()) {
      server->stop();
      loop.join();
    }
  }

  void close() {
    stop_loop();
    server.reset();
    std::error_code ec;
    std::filesystem::remove(journal, ec);
  }
};

/// Pipelines frames [first, first + count) of the stream: up to kWindow in
/// flight, each ack collected FIFO.  Fills per-frame latency and ack epoch.
void pipeline(serve::Client& c, const std::vector<Edit>& edits, std::size_t first,
              std::size_t count, std::vector<i64>* sent_ns, std::vector<i64>* ack_ns,
              std::vector<u64>* ack_epoch) {
  std::size_t sent = 0, acked = 0;
  while (acked < count) {
    while (sent < count && sent - acked < kWindow) {
      if (sent_ns != nullptr) (*sent_ns)[sent] = now_ns();
      c.send_edits(std::span(edits).subspan((first + sent) * kFrameEdits, kFrameEdits));
      ++sent;
    }
    const u64 epoch = c.await_edited();
    if (ack_ns != nullptr) (*ack_ns)[acked] = now_ns();
    if (ack_epoch != nullptr) (*ack_epoch)[acked] = epoch;
    ++acked;
  }
}

/// Builds a server over a fresh engine, connects, and warms it up.
void open_session(Session& s, const Inputs& in, const Args& args, bool traced) {
  s.engine_log = SpanLog(traced);
  // One engine thread: the event loop applies epochs serially (pool off),
  // so the process runs at most the event loop plus three client threads.
  std::unique_ptr<sfcp::Engine> engine =
      sfcp::engines().make("incremental", in.inst, core::Options::parallel(),
                           sfcp::pram::ExecutionContext{}.with_threads(1));
  if (traced) {
    auto timed = std::make_unique<TimedEngine>(std::move(engine), s.engine_log);
    s.timed = timed.get();
    engine = std::move(timed);
  }
  serve::ServerOptions opt;
  std::filesystem::create_directories(args.workdir);
  s.journal = std::filesystem::path(args.workdir) / "serve_rw.wal";
  std::filesystem::remove(s.journal);
  opt.journal_path = s.journal.string();
  opt.fsync = kFsync;
  opt.pool_threads = 0;
  s.server = std::make_unique<serve::Server>(std::move(engine), opt);
  s.loop = std::thread([srv = s.server.get()] { srv->run(); });
  s.writer = serve::Client::connect("127.0.0.1", s.server->port());
  for (int r = 0; r < kReaders; ++r) {
    s.readers.push_back(serve::Client::connect("127.0.0.1", s.server->port()));
  }
  std::vector<u64> epochs(kWarmFrames);
  pipeline(s.writer, in.edits, 0, kWarmFrames, nullptr, nullptr, &epochs);
  s.warm_epoch = epochs.back();
  for (int r = 0; r < kReaders; ++r) {
    for (std::size_t i = 0; i < kWarmReads; ++i) {
      (void)read_once(s.readers[static_cast<std::size_t>(r)], i,
                      in.reader_args[static_cast<std::size_t>(r)][i]);
    }
  }
}

struct Measured {
  Dist ack_ms, read_us;
  double writer_wall_s = 0.0;
  double reader_wall_s = 0.0;
  std::size_t edits_acked = 0;
  std::vector<i64> sent_ns, ack_ns;
  std::vector<u64> ack_epoch;
  SpanLog writer_log, reader_logs[kReaders];
  std::map<std::string, u64> stats_before, stats_after;
};

std::map<std::string, u64> stats_map(serve::Client& c) {
  std::map<std::string, u64> m;
  for (auto& [k, v] : c.stats()) m[k] = v;
  return m;
}

/// The measured window: writer and readers start together; the writer sends
/// its fixed frame count and the readers read closed-loop until it is done.
Measured measure(Session& s, const Inputs& in, bool traced, Report& rep) {
  Measured m;
  m.writer_log = SpanLog(traced);
  for (SpanLog& l : m.reader_logs) l = SpanLog(traced);
  m.sent_ns.assign(in.frames, 0);
  m.ack_ns.assign(in.frames, 0);
  m.ack_epoch.assign(in.frames, 0);
  m.stats_before = stats_map(s.writer);

  std::atomic<bool> go{false};
  std::atomic<bool> writing{true};
  std::atomic<u64> failed_reads{0};
  std::vector<Dist> read_us(kReaders);
  std::vector<double> reader_wall(kReaders, 0.0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const i64 t0 = now_ns();
    try {
      pipeline(s.writer, in.edits, kWarmFrames, in.frames, &m.sent_ns, &m.ack_ns, &m.ack_epoch);
    } catch (const std::exception&) {
      // Frames left unacked are counted as failed below.
    }
    m.writer_wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    writing.store(false, std::memory_order_relaxed);
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const std::size_t ri = static_cast<std::size_t>(r);
      serve::Client& c = s.readers[ri];
      const std::vector<u32>& args = in.reader_args[ri];
      Dist& lat = read_us[ri];
      lat.reserve(kReadPool);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const i64 start = now_ns();
      for (std::size_t j = 0; writing.load(std::memory_order_relaxed); ++j) {
        const std::size_t i = kWarmReads + j % kReadPool;  // kReadPool is even: parity kept
        const i64 t0 = now_ns();
        bool ok = false;
        try {
          ok = read_once(c, i, args[i]);
        } catch (const std::exception&) {
          ok = false;
        }
        const i64 t1 = now_ns();
        lat.add(static_cast<double>(t1 - t0) * 1e-3);
        m.reader_logs[ri].record("serve.read", t0, t1, i);
        if (!ok) failed_reads.fetch_add(1, std::memory_order_relaxed);
      }
      reader_wall[ri] = static_cast<double>(now_ns() - start) * 1e-9;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  rep.attempted += in.frames;
  for (std::size_t f = 0; f < in.frames; ++f) {
    if (m.ack_ns[f] == 0) {
      rep.fail("EDIT frame " + std::to_string(f) + " was not acked");
      continue;
    }
    m.edits_acked += kFrameEdits;
    m.ack_ms.add(static_cast<double>(m.ack_ns[f] - m.sent_ns[f]) * 1e-6);
    m.writer_log.record("serve.edit_frame", m.sent_ns[f], m.ack_ns[f], m.ack_epoch[f]);
  }
  for (int r = 0; r < kReaders; ++r) {
    rep.attempted += read_us[static_cast<std::size_t>(r)].size();
    m.read_us.append(read_us[static_cast<std::size_t>(r)]);
    m.reader_wall_s = std::max(m.reader_wall_s, reader_wall[static_cast<std::size_t>(r)]);
  }
  for (u64 i = 0; i < failed_reads.load(); ++i) rep.fail("read failed or was refused");
  m.stats_after = stats_map(s.writer);
  return m;
}

/// Gate: the served labels equal core::solve on the locally replayed
/// instance (initial instance + every frame, in order).
graph::Instance replay_instance(const Inputs& in) {
  graph::Instance inst = in.inst;
  for (const Edit& e : in.edits) sfcp::inc::apply_raw(e, inst.f, inst.b);
  return inst;
}

void check_labels(serve::Client& c, const graph::Instance& replayed, Report& rep) {
  ++rep.attempted;
  const serve::Client::Labels served = c.labels();
  if (served.labels != core::solve(replayed).q) {
    rep.fail("served labels differ from core::solve on the replayed instance");
  }
}

void add_layer_metrics(const Session& s, const Measured& m, Report& rep) {
  Dist apply_ms, view_us;
  std::map<u64, double> engine_ms;  // by epoch
  double busy_ms = 0.0;
  for (const Span& sp : s.engine_log.spans()) {
    if (sp.id <= s.warm_epoch) continue;
    const double ms = static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
    const std::string name = sp.name;
    if (name == "inc.apply") apply_ms.add(ms);
    if (name == "inc.view") view_us.add(ms * 1e3);
    engine_ms[sp.id] += ms;
    busy_ms += ms;
  }
  u64 edits = 0, epochs = 0, repairs = 0, rebuilds = 0, dirty = 0;
  for (const TimedEngine::ApplyRecord& a : s.timed->applies()) {
    if (a.epoch <= s.warm_epoch) continue;
    ++epochs;
    edits += a.edits;
    repairs += a.repairs;
    rebuilds += a.rebuilds;
    dirty += a.dirty_nodes;
  }
  Dist self_ack_ms;
  for (std::size_t f = 0; f < m.ack_epoch.size(); ++f) {
    if (m.ack_ns[f] == 0) continue;
    const auto it = engine_ms.find(m.ack_epoch[f]);
    const double engine = it == engine_ms.end() ? 0.0 : it->second;
    self_ack_ms.add(static_cast<double>(m.ack_ns[f] - m.sent_ns[f]) * 1e-6 - engine);
  }
  const auto delta = [&](const char* key) {
    return static_cast<double>(m.stats_after.at(key) - m.stats_before.at(key));
  };
  const double apply_tail_p = apply_ms.tail_percentile();
  rep.add("inc.apply_ms_p50", apply_ms.p50(), "ms", apply_ms.size(), "Engine::apply per epoch");
  rep.add("inc.apply_ms_tail", apply_ms.tail(), "ms", apply_ms.size(),
          "Engine::apply at " + pct_name(apply_tail_p));
  rep.add("inc.view_us_p50", view_us.p50(), "us", view_us.size(), "Engine::view per epoch");
  rep.add("inc.edits_per_epoch", epochs == 0 ? 0.0 : static_cast<double>(edits) / epochs,
          "count", epochs, "edits per Engine::apply");
  rep.add("inc.repair_frac",
          repairs + rebuilds == 0 ? 0.0 : static_cast<double>(repairs) / (repairs + rebuilds),
          "ratio", repairs + rebuilds, "repairs / (repairs + rebuilds)");
  rep.add("inc.dirty_nodes_per_edit", edits == 0 ? 0.0 : static_cast<double>(dirty) / edits,
          "count", edits, "nodes relabelled per edit");
  rep.add("serve.engine_busy_frac", busy_ms * 1e-3 / m.writer_wall_s, "ratio",
          s.engine_log.spans().size(), "engine span time / writer wall time");
  rep.add("serve.self_ack_ms_p50", self_ack_ms.p50(), "ms", self_ack_ms.size(),
          "ack latency minus engine time of the acked epoch");
  const double flushed = delta("epochs_flushed");
  rep.add("serve.journal_fsyncs_per_epoch", flushed == 0 ? 0.0 : delta("journal_fsyncs") / flushed,
          "count", static_cast<std::size_t>(flushed), "STATS deltas over the window");
  const double accepted = delta("edits_accepted");
  rep.add("serve.journal_bytes_per_edit", accepted == 0 ? 0.0 : delta("journal_bytes") / accepted,
          "bytes", static_cast<std::size_t>(accepted), "STATS deltas over the window");
}

}  // namespace

Report run_serve_rw(const Args& args) {
  Report rep;
  const Inputs in = make_inputs(args.seed, args.seconds);
  rep.add_info("instance", "random_function n=" + std::to_string(kNodes) + ", engine incremental");
  rep.add_info("server", "journal on, fsync=" +
                             std::string(serve::fsync_policy_name(kFsync)) +
                             ", pool off, 1 event-loop thread");
  rep.add_info("load", "closed loop: 1 writer (" + std::to_string(in.frames) +
                           " LocalizedHotspot frames x " + std::to_string(kFrameEdits) +
                           " edits, window " + std::to_string(kWindow) + ") + " +
                           std::to_string(kReaders) +
                           " readers (CLASSOF/MEMBERS, VIEW every 16th, until the writer is done)");
  rep.add_info("threads", "4 (event loop + writer + 2 readers); nproc=" +
                              std::to_string(args.nproc));

  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int k = 0; k < kSetups; ++k) {
    session.reset();  // one server at a time
    session = std::make_unique<Session>();
    const i64 t0 = now_ns();
    open_session(*session, in, args, false);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Measured base = measure(*session, in, false, rep);
  const graph::Instance replayed = replay_instance(in);
  check_labels(session->writer, replayed, rep);
  session.reset();

  const double tail_p = base.ack_ms.tail_percentile();
  const double read_tail_p = base.read_us.tail_percentile();
  rep.add("setup_s", median(setup_s), "s", setup_s.size(),
          "engine construction solve + server + connects + warm-up");
  rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "getrusage high-water mark");
  rep.add("ops_per_s", static_cast<double>(base.edits_acked) / base.writer_wall_s, "1/s",
          base.edits_acked, "edits_per_s: acked edits per second of writer wall time");
  rep.add("op_ms_p50", base.ack_ms.p50(), "ms", base.ack_ms.size(),
          "edit_ack_ms_p50: EDIT frame sent -> EDITED ack");
  rep.add("op_ms_tail", base.ack_ms.tail(), "ms", base.ack_ms.size(),
          "edit_ack_ms_tail: at " + pct_name(tail_p));
  rep.add("reads_per_s", static_cast<double>(base.read_us.size()) / base.reader_wall_s, "1/s",
          base.read_us.size(), "reader round trips per second of reader wall time");
  rep.add("read_us_p50", base.read_us.p50(), "us", base.read_us.size(), "read round trip");
  rep.add("read_us_tail", base.read_us.tail(), "us", base.read_us.size(),
          "read round trip at " + pct_name(read_tail_p));

  if (args.trace) {
    Session traced_session;
    open_session(traced_session, in, args, true);
    Measured traced = measure(traced_session, in, true, rep);
    check_labels(traced_session.writer, replayed, rep);
    traced_session.stop_loop();
    add_layer_metrics(traced_session, traced, rep);
    const double base_rate = static_cast<double>(base.edits_acked) / base.writer_wall_s;
    const double traced_rate = static_cast<double>(traced.edits_acked) / traced.writer_wall_s;
    rep.add("trace.overhead_frac", (base_rate - traced_rate) / base_rate, "ratio", 2,
            "edits_per_s lost to tracing");

    SpanLog gate_log(true);
    Replayer replayer(gate_log, args.nproc);
    const core::Result expect = core::solve(replayed);
    for (u64 k = 0; k < 3; ++k) {
      ++rep.attempted;
      if (replayer.replay(replayed, k).q != expect.q) rep.fail("replayed pipeline differs");
      (void)replayer.seq_solve(replayed, k);
    }
    replayer.heap_probe(replayed);
    replayer.report(rep);
    rep.logs.emplace_back("server", std::move(traced_session.engine_log));
    rep.logs.emplace_back("writer", std::move(traced.writer_log));
    for (int r = 0; r < kReaders; ++r) {
      rep.logs.emplace_back("reader" + std::to_string(r),
                            std::move(traced.reader_logs[static_cast<std::size_t>(r)]));
    }
    rep.logs.emplace_back("gate", std::move(gate_log));
  }
  return rep;
}

}  // namespace perfbench
