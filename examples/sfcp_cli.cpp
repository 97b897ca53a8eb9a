// Command-line front end for the library: generate, solve and verify SFCP
// instances stored in the plain-text format of util/io.hpp.
//
//   $ ./sfcp_cli gen random 1000 4 instance.txt     # n=1000, 4 B-labels
//   $ ./sfcp_cli gen cycles 64 16 instance.txt      # 64 cycles of length 16
//   $ ./sfcp_cli solve instance.txt                 # prints Q summary
//   $ ./sfcp_cli solve instance.txt --strategy sequential
//   $ ./sfcp_cli solve instance.txt --strategy euler-jump-double --threads 2
//   $ ./sfcp_cli solve instance.txt --engine incremental
//   $ ./sfcp_cli solve instance.txt --engine sharded --shards 4
//   $ ./sfcp_cli solve instance.txt --engine incremental --policy adaptive
//   $ ./sfcp_cli solve instance.txt --engine sharded --max-dirty-fraction 0.1
//   $ ./sfcp_cli solve --help                        # full option list
//   $ ./sfcp_cli classes instance.txt 5             # largest Q-classes
//   $ ./sfcp_cli strategies                         # list the 14 registry entries
//   $ ./sfcp_cli engines                            # list engine kinds
//   $ ./sfcp_cli verify instance.txt                # solve + oracle check
//   $ ./sfcp_cli stats instance.txt                 # orbit statistics
//   $ ./sfcp_cli dot instance.txt > graph.dot       # Graphviz, Q-clustered
//   $ ./sfcp_cli serve instance.txt --port 7227 --journal edits.wal
//   $ ./sfcp_cli fleet --port 7227 --warm 4096      # multi-tenant fleet server
//   $ ./sfcp_cli connect 127.0.0.1:7227             # sfcp-wire REPL
//   $ ./sfcp_cli --version
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "fleet/fleet_engine.hpp"
#include "serve/client.hpp"
#include "serve/repl.hpp"
#include "serve/server.hpp"
#include "sfcp.hpp"

#ifndef SFCP_VERSION
#define SFCP_VERSION "dev"
#endif

namespace {

using namespace sfcp;

const char* kUsage =
    "usage: sfcp_cli {gen|solve|classes|verify|stats|dot|strategies|engines|serve|fleet|connect} ...\n"
    "       sfcp_cli --version\n"
    "  gen {random|cycles|tail} <n-or-k> <param> <out-file>   generate an instance\n"
    "  solve <instance> [options]       solve and summarize ('solve --help' for options)\n"
    "  classes <instance> [top]         largest canonical classes\n"
    "  verify <instance>                solve + oracle check\n"
    "  stats <instance>                 orbit statistics\n"
    "  dot <instance>                   Graphviz output, Q-clustered\n"
    "  strategies | engines             list registry entries\n"
    "  serve <instance> [options]       serve over TCP ('serve --help' for options)\n"
    "  fleet [options]                  multi-tenant fleet server ('fleet --help')\n"
    "  connect [host:]port              interactive sfcp-wire REPL\n";

int cmd_gen(int argc, char** argv) {
  if (argc < 4) {
    std::cerr << "usage: sfcp_cli gen {random|cycles|tail} <n-or-k> <param> <out-file>\n";
    return 2;
  }
  const std::string kind = argv[0];
  const std::size_t a = std::strtoul(argv[1], nullptr, 10);
  const std::size_t b = std::strtoul(argv[2], nullptr, 10);
  util::Rng rng(20260612);
  graph::Instance inst;
  if (kind == "random") {
    inst = util::random_function(a, static_cast<u32>(b), rng);
  } else if (kind == "cycles") {
    inst = util::equal_cycles(a, b, 4, 3, rng);
  } else if (kind == "tail") {
    inst = util::long_tail(a, b, 3, rng);
  } else {
    std::cerr << "unknown generator '" << kind << "'\n";
    return 2;
  }
  util::save_instance_file(argv[3], inst);
  std::cout << "wrote " << inst.size() << "-node instance to " << argv[3] << "\n";
  return 0;
}

void print_solve_help() {
  std::cout
      << "usage: sfcp_cli solve <instance> [options]\n"
         "  --strategy <name>         solver strategy (see 'sfcp_cli strategies'); default\n"
         "                            'parallel'.  --seq is shorthand for 'sequential'.\n"
         "  --threads <t>             worker threads for the session (0 = library default)\n"
         "  --engine <kind>           serving engine (see 'sfcp_cli engines'): 'batch' (one\n"
         "                            lazy solve), 'incremental' (per-edit repair, warm\n"
         "                            state), 'sharded' (component-parallel shards behind a\n"
         "                            per-class reconciliation merge).  Default 'batch'.\n"
         "  --shards <k>              shard count; implies --engine sharded\n"
         "  --policy static|adaptive  repair-vs-rebuild (and, for sharded, migrate-vs-\n"
         "                            reshard) policy mode.  'static' trusts the dirty-\n"
         "                            fraction thresholds; 'adaptive' fits the crossover\n"
         "                            online from observed per-delta costs (EWMA of wall ns\n"
         "                            per dirty node vs. ns per rebuild, pram::CostModel).\n"
         "                            Needs --engine incremental or sharded.\n"
         "  --max-dirty-fraction <f>  static repair budget: repair iff the dirty region is\n"
         "                            at most max(64, f * n) nodes (default 0.25); also the\n"
         "                            fallback while an adaptive fit converges.  Needs\n"
         "                            --engine incremental or sharded.\n"
         "  --profile                 print the per-phase profile tree after the summary\n"
         "                            (needs a -DSFCP_PROFILE=ON build to carry data)\n";
}

int cmd_solve(const std::string& path, const std::string& strategy, int threads,
              const std::string& engine_kind, std::size_t shards, bool adaptive,
              double max_dirty_fraction, bool profile) {
  auto inst = util::load_instance_file(path);
  const std::size_t n = inst.size();
  pram::Metrics metrics;
  prof::Profiler profiler;
  std::optional<prof::ScopedProfiler> prof_guard;
  if (profile) prof_guard.emplace(profiler);
  util::Timer timer;
  const auto ctx = pram::ExecutionContext{}.with_threads(threads).with_metrics(&metrics);
  inc::RepairPolicy repair;
  repair.adaptive = adaptive;
  if (max_dirty_fraction >= 0.0) repair.max_dirty_fraction = max_dirty_fraction;
  // Programs against the engine facade: the same lines serve "batch" (one
  // solve), "incremental" (solve + warm repair state for edits) and
  // "sharded" (component-parallel shards; --shards overrides the default k).
  // Engines that own a policy are built directly so --policy and
  // --max-dirty-fraction reach them.
  std::unique_ptr<Engine> engine;
  if (engine_kind == "sharded") {
    shard::ShardOptions sopt;
    if (shards > 0) sopt.shards = shards;
    sopt.repair = repair;
    sopt.reshard.adaptive = adaptive;
    engine = std::make_unique<shard::ShardedEngine>(std::move(inst),
                                                    sfcp::registry().at(strategy), ctx, sopt);
  } else if (engine_kind == "incremental") {
    engine = std::make_unique<IncrementalEngine>(std::move(inst),
                                                 sfcp::registry().at(strategy), ctx, repair);
  } else {
    engine =
        sfcp::engines().make(engine_kind, std::move(inst), sfcp::registry().at(strategy), ctx);
  }
  const core::PartitionView v = engine->view();
  const core::ViewCounters& c = v.counters();
  std::cout << "n=" << n << "  engine=" << engine->kind() << "  strategy=" << strategy
            << "  classes=" << v.num_classes() << "  cycles=" << c.num_cycles
            << "  cycle_nodes=" << c.cycle_nodes;
  const EngineStats es = engine->serving_stats();
  if (es.shards > 0) std::cout << "  shards=" << es.shards;
  if (engine_kind != "batch") {
    std::cout << "  policy=" << (adaptive ? "adaptive" : "static");
  }
  std::cout << "\n"
            << "time=" << timer.millis() << "ms  " << metrics.summary() << "\n";
  if (profile) profiler.snapshot().render(std::cout);
  return 0;
}

int cmd_classes(const std::string& path, std::size_t top) {
  const auto inst = util::load_instance_file(path);
  core::Solver solver;
  const core::PartitionView v = solver.solve_view(inst);
  std::vector<u32> ids(v.num_classes());
  for (u32 c = 0; c < v.num_classes(); ++c) ids[c] = c;
  std::stable_sort(ids.begin(), ids.end(),
                   [&](u32 a, u32 b) { return v.class_size(a) > v.class_size(b); });
  std::cout << "n=" << v.size() << "  classes=" << v.num_classes() << "\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(top, ids.size()); ++i) {
    const auto members = v.class_members(ids[i]);
    std::cout << "  class " << ids[i] << " (" << members.size() << "):";
    const std::size_t shown = std::min<std::size_t>(members.size(), 10);
    for (std::size_t j = 0; j < shown; ++j) std::cout << ' ' << members[j];
    if (shown < members.size()) std::cout << " ...";
    std::cout << "\n";
  }
  return 0;
}

int cmd_strategies() {
  for (const auto& e : sfcp::registry().all()) {
    std::cout << e.name << "\n    " << e.description << "\n";
  }
  return 0;
}

int cmd_engines() {
  for (const auto& e : sfcp::engines().all()) {
    std::cout << e.name << "\n    " << e.description << "\n";
  }
  return 0;
}

int cmd_verify(const std::string& path) {
  const auto inst = util::load_instance_file(path);
  const auto r = core::solve(inst);
  const auto report = core::verify_solution(inst, r.q);
  std::cout << report.to_string() << "\n";
  return report.ok() ? 0 : 1;
}

int cmd_stats(const std::string& path) {
  const auto inst = util::load_instance_file(path);
  const auto st = graph::orbit_stats(inst.f);
  std::cout << "n=" << inst.size() << "  components=" << st.num_components
            << "  cycle_nodes=" << st.cycle_nodes << "  max_cycle=" << st.max_cycle_len
            << "  max_tail=" << st.max_tail << "  mean_tail=" << st.mean_tail << "\n";
  return 0;
}

int cmd_dot(const std::string& path) {
  const auto inst = util::load_instance_file(path);
  const auto r = core::solve(inst);
  util::DotOptions opts;
  opts.cluster_by_q = true;
  util::write_dot(std::cout, inst, r.q, opts);
  return 0;
}

void print_serve_help() {
  std::cout
      << "usage: sfcp_cli serve <instance> [options]\n"
         "  --host <addr>             bind address (default 127.0.0.1)\n"
         "  --port <p>                TCP port (default 0 = ephemeral, printed at start)\n"
         "  --engine <kind>           serving engine (default 'incremental')\n"
         "  --journal <path>          write-ahead edit journal; restart replays it on top\n"
         "                            of the last checkpoint (durable serving)\n"
         "  --fsync always|epoch|off  journal durability (default 'epoch': one fsync per\n"
         "                            epoch flush)\n"
         "  --checkpoint <path>       checkpoint target (default '<journal>.ckpt'); loaded\n"
         "                            at startup when present\n"
         "  --checkpoint-every <k>    auto-checkpoint (and reset the journal) every k\n"
         "                            accepted edits (default 0 = only on request)\n"
         "  --pool-threads <t>        worker-pool width for epoch applies (default -1 =\n"
         "                            auto from the session thread budget; 0/1 = never\n"
         "                            pool; >= 2 = exactly t lanes incl. the event loop)\n";
}

int cmd_serve(int argc, char** argv) {
  const std::string path = argv[0];
  serve::ServerOptions opt;
  std::string engine_kind = "incremental";
  u64 checkpoint_every = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_serve_help();
      return 0;
    } else if (arg == "--host" && i + 1 < argc) {
      opt.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      opt.port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--engine" && i + 1 < argc) {
      engine_kind = argv[++i];
    } else if (arg == "--journal" && i + 1 < argc) {
      opt.journal_path = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      opt.fsync = serve::parse_fsync_policy(argv[++i]);
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      opt.checkpoint_path = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      checkpoint_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pool-threads" && i + 1 < argc) {
      opt.pool_threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::cerr << "unknown serve option '" << arg << "' (try 'serve --help')\n";
      return 2;
    }
  }
  opt.checkpoint_every = checkpoint_every;
  if (!engines().find(engine_kind)) {
    std::cerr << "unknown engine '" << engine_kind << "' (see 'sfcp_cli engines')\n";
    return 2;
  }
  // A configured checkpoint restores warm state; the Server constructor then
  // replays the journal tail on top of it.
  std::string ckpt = opt.checkpoint_path;
  if (ckpt.empty() && !opt.journal_path.empty()) ckpt = opt.journal_path + ".ckpt";
  std::unique_ptr<Engine> engine =
      serve::recover_engine(ckpt, engine_kind, util::load_instance_file(path));
  // Process-default profiler: in SFCP_PROFILE builds the serve loop records
  // journal/apply/notify phases a REPL `profile` (or STATS frame) can read;
  // in default builds every scope compiles out and this is inert.
  prof::Profiler profiler;
  prof::ScopedProfiler prof_guard(profiler);
  serve::Server server(std::move(engine), opt);
  const serve::ServeStats st = server.stats();
  std::cout << "serving " << server.engine().size() << " nodes (engine="
            << server.engine().kind() << ") on " << opt.host << ":" << server.port();
  if (!opt.journal_path.empty()) {
    std::cout << " journal=" << opt.journal_path << " fsync="
              << serve::fsync_policy_name(opt.fsync) << " replayed="
              << st.recovered_records << (st.journal_tail_torn ? " (torn tail trimmed)" : "");
  }
  std::cout << std::endl;
  server.run();
  return 0;
}

void print_fleet_help() {
  std::cout
      << "usage: sfcp_cli fleet [options]\n"
         "Serves a fleet of instance-keyed engines behind one port: FLEET_EDIT/\n"
         "FLEET_VIEW frames route by instance id, instances materialize on first\n"
         "touch from a deterministic generator, and idle ones are checkpointed\n"
         "out of memory (warm/cold tiering).\n"
         "  --host <addr>             bind address (default 127.0.0.1)\n"
         "  --port <p>                TCP port (default 0 = ephemeral, printed at start)\n"
         "  --engine <kind>           per-instance engine (default 'incremental')\n"
         "  --instances <k>           valid instance ids are [0, k) (default 0 = any id)\n"
         "  --n <nodes>               nodes per generated instance (default 64)\n"
         "  --labels <k>              B-labels per generated instance (default 4)\n"
         "  --warm <k>                max warm (in-memory) instances (default 1024,\n"
         "                            0 = unbounded)\n"
         "  --warm-bytes <b>          max warm-set footprint in bytes (default 0 =\n"
         "                            unbounded); evicts least-recently-used first\n"
         "  --spill-dir <dir>         evict cold instances to <dir>/i<id>.ckpt instead\n"
         "                            of in-memory images; adopted back on restart\n"
         "  --journal <path>          write-ahead fleet edit journal (sfcp-fleet-journal\n"
         "                            v1); restart replays it per instance\n"
         "  --fsync always|epoch|off  journal durability (default 'epoch')\n"
         "  --seed <s>                generator seed (default 20260807)\n"
         "  --pool-threads <t>        worker-pool width for epoch applies: distinct\n"
         "                            instances in one epoch repair concurrently on\n"
         "                            lane slot%width (default -1 = auto from the\n"
         "                            session thread budget; 0/1 = never pool)\n";
}

int cmd_fleet(int argc, char** argv) {
  serve::ServerOptions opt;
  fleet::FleetConfig cfg;
  u64 instances = 0;
  std::size_t nodes = 64;
  u32 labels = 4;
  u64 seed = 20260807;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      print_fleet_help();
      return 0;
    } else if (arg == "--host" && i + 1 < argc) {
      opt.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      opt.port = static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--engine" && i + 1 < argc) {
      cfg.engine = argv[++i];
    } else if (arg == "--instances" && i + 1 < argc) {
      instances = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--n" && i + 1 < argc) {
      nodes = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--labels" && i + 1 < argc) {
      labels = static_cast<u32>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--warm" && i + 1 < argc) {
      cfg.warm_limit = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--warm-bytes" && i + 1 < argc) {
      cfg.warm_bytes_limit = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--spill-dir" && i + 1 < argc) {
      cfg.spill_dir = argv[++i];
    } else if (arg == "--journal" && i + 1 < argc) {
      opt.journal_path = argv[++i];
    } else if (arg == "--fsync" && i + 1 < argc) {
      opt.fsync = serve::parse_fsync_policy(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pool-threads" && i + 1 < argc) {
      opt.pool_threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      std::cerr << "unknown fleet option '" << arg << "' (try 'fleet --help')\n";
      return 2;
    }
  }
  if (!engines().find(cfg.engine)) {
    std::cerr << "unknown engine '" << cfg.engine << "' (see 'sfcp_cli engines')\n";
    return 2;
  }
  cfg.durable_spill = opt.fsync == serve::FsyncPolicy::Always;
  auto fleet_engine = std::make_unique<fleet::FleetEngine>(std::move(cfg));
  // Deterministic per-id generator: any instance id maps to the same graph
  // on every process, so a journal (or spill dir) replays against identical
  // instances after a restart.
  fleet_engine->set_factory([instances, nodes, labels, seed](fleet::InstanceId id) {
    if (instances != 0 && id >= instances) {
      throw std::runtime_error("instance id " + std::to_string(id) + " out of range [0, " +
                               std::to_string(instances) + ")");
    }
    util::Rng rng(seed ^ (id * 0x9e3779b97f4a7c15ull + 1));
    return util::random_function(nodes, labels, rng);
  });
  prof::Profiler profiler;
  prof::ScopedProfiler prof_guard(profiler);
  serve::Server server(std::move(fleet_engine), opt);
  const serve::ServeStats st = server.stats();
  std::cout << "serving fleet (engine=" << server.fleet().config().engine << ", "
            << nodes << " nodes/instance) on " << opt.host << ":" << server.port();
  if (instances != 0) std::cout << " instances=" << instances;
  if (!opt.journal_path.empty()) {
    std::cout << " journal=" << opt.journal_path << " fsync="
              << serve::fsync_policy_name(opt.fsync) << " replayed="
              << st.recovered_records << (st.journal_tail_torn ? " (torn tail trimmed)" : "");
  }
  std::cout << std::endl;
  server.run();
  return 0;
}

int cmd_connect(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port_str = argv[0];
  if (argc > 1) {
    std::cerr << "usage: sfcp_cli connect [host:]port\n";
    return 2;
  }
  const std::size_t colon = port_str.rfind(':');
  if (colon != std::string::npos) {
    host = port_str.substr(0, colon);
    port_str = port_str.substr(colon + 1);
  }
  const unsigned long port = std::strtoul(port_str.c_str(), nullptr, 10);
  if (port == 0 || port > 65535) {
    std::cerr << "bad port '" << port_str << "'\n";
    return 2;
  }
  serve::Client client = serve::Client::connect(host, static_cast<std::uint16_t>(port));
  // STATS works in both server modes; a classic VIEW frame would be
  // rejected by a fleet server before we know which kind we dialed.
  u64 fleet_instances = 0;
  bool fleet_mode = false;
  for (const auto& [key, value] : client.stats()) {
    if (key == "fleet_instances") {
      fleet_mode = true;
      fleet_instances = value;
    }
  }
  if (fleet_mode) {
    std::cout << "connected to " << host << ":" << port << " — fleet server, "
              << fleet_instances
              << " instances ('instance <id>' to route, 'help' for commands)\n";
  } else {
    const serve::Client::ViewInfo v = client.view();
    std::cout << "connected to " << host << ":" << port << " — n=" << v.n
              << " classes=" << v.num_classes << " epoch=" << v.epoch
              << " ('help' for commands)\n";
  }
  std::string line;
  serve::ReplState repl_state;  // `instance <id>` fleet routing
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    if (line == "help") {
      serve::print_serve_help(std::cout);
      continue;
    }
    const serve::ReplResult r =
        serve::run_serve_command(client, line, std::cout, {}, &repl_state);
    if (r == serve::ReplResult::Quit) break;
    if (r == serve::ReplResult::Unknown) {
      std::cout << "unknown command — try 'help'\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "--version" || cmd == "version") {
      std::cout << "sfcp_cli " << SFCP_VERSION << " (sfcp-wire v1, sfcp-checkpoint v1, "
                   "sfcp-journal v1)\n";
      return 0;
    }
    if (cmd == "--help" || cmd == "help") {
      std::cout << kUsage;
      return 0;
    }
    if (cmd == "strategies") return cmd_strategies();
    if (cmd == "engines") return cmd_engines();
    if (cmd == "fleet") return cmd_fleet(argc - 2, argv + 2);
    if (argc < 3) {
      std::cerr << kUsage;
      return 2;
    }
    if (cmd == "gen") return cmd_gen(argc - 2, argv + 2);
    if (cmd == "solve") {
      if (std::string(argv[2]) == "--help") {
        print_solve_help();
        return 0;
      }
      std::string strategy = "parallel";
      std::string engine = "batch";
      bool engine_set = false;
      int threads = 0;
      std::size_t shards = 0;  // 0 = engine default; > 0 selects "sharded"
      bool adaptive = false;
      bool policy_set = false;
      bool profile = false;
      double max_dirty_fraction = -1.0;  // < 0 = policy default
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
          print_solve_help();
          return 0;
        } else if (arg == "--seq") {
          strategy = "sequential";  // backwards-compatible spelling
        } else if (arg == "--strategy" && i + 1 < argc) {
          strategy = argv[++i];
        } else if (arg == "--engine" && i + 1 < argc) {
          engine = argv[++i];
          engine_set = true;
        } else if (arg == "--threads" && i + 1 < argc) {
          threads = std::atoi(argv[++i]);
        } else if (arg == "--shards" && i + 1 < argc) {
          shards = std::strtoul(argv[++i], nullptr, 10);
        } else if (arg == "--policy" && i + 1 < argc) {
          const std::string mode = argv[++i];
          if (mode == "adaptive") {
            adaptive = true;
          } else if (mode == "static") {
            adaptive = false;
          } else {
            std::cerr << "--policy must be 'static' or 'adaptive' (got '" << mode << "')\n";
            return 2;
          }
          policy_set = true;
        } else if (arg == "--max-dirty-fraction" && i + 1 < argc) {
          max_dirty_fraction = std::strtod(argv[++i], nullptr);
          if (max_dirty_fraction < 0.0 || max_dirty_fraction > 1.0) {
            std::cerr << "--max-dirty-fraction must be in [0, 1]\n";
            return 2;
          }
          policy_set = true;
        } else if (arg == "--profile") {
          profile = true;
        } else {
          std::cerr << "unknown solve option '" << arg << "' (try 'solve --help')\n";
          return 2;
        }
      }
      // A bare --shards implies the sharded engine; combined with an
      // explicit different --engine it is a contradiction, not an override.
      if (shards > 0 && engine_set && engine != "sharded") {
        std::cerr << "--shards only applies to --engine sharded\n";
        return 2;
      }
      if (shards > 0) engine = "sharded";
      // Policies live in the repair/reshard engines; "batch" has none.
      if (policy_set && engine != "incremental" && engine != "sharded") {
        std::cerr << "--policy/--max-dirty-fraction need --engine incremental or sharded\n";
        return 2;
      }
      return cmd_solve(argv[2], strategy, threads, engine, shards, adaptive,
                       max_dirty_fraction, profile);
    }
    if (cmd == "classes") {
      const std::size_t top = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 10;
      return cmd_classes(argv[2], top);
    }
    if (cmd == "verify") return cmd_verify(argv[2]);
    if (cmd == "stats") return cmd_stats(argv[2]);
    if (cmd == "dot") return cmd_dot(argv[2]);
    if (cmd == "serve") {
      if (std::string(argv[2]) == "--help") {
        print_serve_help();
        return 0;
      }
      return cmd_serve(argc - 2, argv + 2);
    }
    if (cmd == "connect") return cmd_connect(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command '" << cmd << "'\n" << kUsage;
  return 2;
}
