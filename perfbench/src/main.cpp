// perfbench — the repository benchmark binary.
//
//   perfbench --workload solve_cold|serve_rw|fleet_zipf --seed N --seconds S
//             [--trace 0|1] [--workdir DIR]
//
// Prints provenance lines, every metric of the run as
// `metric <name> = <value> <unit> (n=<samples>) <note>`, and, in the traced
// run, per-layer self time from the span logs (also written to
// DIR/spans-<workload>.tsv).  The last line is `PERFBENCH_RESULT {json}`
// with every metric; perfbench/run.py selects the ones BENCHMARK.json names.
// Exit status is 1 when any output failed its correctness check.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload solve_cold|serve_rw|fleet_zipf "
               "--seed N --seconds S [--trace 0|1] [--workdir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stoi(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val) != 0;
      } else if (key == "--workdir") {
        a.workdir = val;
      } else {
        usage(("unknown flag " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 1) usage("--seconds must be at least 1");
  a.nproc = static_cast<int>(std::thread::hardware_concurrency());
  if (a.nproc < 1) a.nproc = 1;
  return a;
}

void print_report(const Args& args, Report& rep) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d nproc=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.nproc);
  for (const auto& [k, v] : rep.info) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  const double failed_frac =
      rep.attempted == 0 ? 1.0 : static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  rep.add("failed_frac", failed_frac, "ratio", rep.attempted,
          "failed, refused or wrong results / attempted");
  for (const Metric& m : rep.metrics) {
    std::printf("metric %s = %.6g %s (n=%zu) %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples, m.note.c_str());
  }
  for (const std::string& f : rep.failures) std::printf("FAILED: %s\n", f.c_str());

  if (args.trace) {
    LayerTimes layers;
    std::filesystem::create_directories(args.workdir);
    const std::string path = args.workdir + "/spans-" + args.workload + ".tsv";
    std::ofstream os(path);
    os << "thread\tindex\tname\tstart_ns\tend_ns\tparent\tid\n";
    for (const auto& [thread, log] : rep.logs) {
      layers.add(log);
      log.write(os, thread.c_str());
    }
    for (const auto& [layer, ms] : layers.self_ms) {
      std::printf("layer %s self_ms = %.6g (spans=%zu)\n", layer.c_str(), ms,
                  layers.spans[layer]);
    }
    std::printf("# spans written to %s\n", path.c_str());
  }

  std::printf("PERFBENCH_RESULT {\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              args.workload.c_str(), static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", \"samples\": %zu}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Report rep;
  try {
    if (args.workload == "solve_cold") {
      rep = run_solve_cold(args);
    } else if (args.workload == "serve_rw") {
      rep = run_serve_rw(args);
    } else if (args.workload == "fleet_zipf") {
      rep = run_fleet_zipf(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  print_report(args, rep);
  return rep.failed == 0 ? 0 : 1;
}
