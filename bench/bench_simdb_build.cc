// Micro-benchmark for the simulation-database build path: cold trace-driven
// characterization vs restore from a binary snapshot (workload/db_io.hh).
// The snapshot load is the prerequisite for sharded multi-process sweeps, so
// this tracks the speedup in the perf trajectory.
//
// It prints the cold build at 1 thread and at --threads, then splits a
// serial characterization of every suite phase into its stages (trace
// synthesis, recency annotation, oracle leading misses, arrival emulation
// and MLP-ATD counters), so the ledger sees which layer a change moves.
// It also prints the evaluation table's cell count and bytes; the
// "table bytes per cell" line is deterministic (timings are not).
//
// Flags: --cores=2  --threads=0 (0 = hardware concurrency)  --loads=5
//        --path=bench_simdb.qosdb  --keep (leave the snapshot file behind)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "common/cli.hh"
#include "common/thread_pool.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"

using namespace qosrm;
using Clock = std::chrono::steady_clock;

namespace {

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv, {"keep"});
  const int cores = static_cast<int>(args.get_int("cores", 2));
  const int loads = static_cast<int>(args.get_int("loads", 5));
  const std::string path = args.get("path", "bench_simdb.qosdb");

  arch::SystemConfig system;
  system.cores = cores;
  const power::PowerModel power;
  const workload::SpecSuite& suite = workload::spec_suite();
  const int threads = static_cast<int>(args.get_int("threads", 0));
  workload::SimDbOptions options;

  std::printf("=== SimDb build vs snapshot load (%d apps, %d cores) ===\n\n",
              suite.size(), cores);

  options.threads = 1;
  const auto t_serial = Clock::now();
  { const workload::SimDb serial(suite, system, power, options); }
  std::printf("cold build, 1 thread:  %8.1f ms\n", secs_since(t_serial) * 1e3);

  options.threads = threads;
  const auto t_build = Clock::now();
  const workload::SimDb db(suite, system, power, options);
  const double build_s = secs_since(t_build);
  std::printf("cold build, %zu threads: %7.1f ms\n", resolve_thread_count(threads),
              build_s * 1e3);
  const auto cells = static_cast<double>(db.interval_key_space());
  std::printf("table cells:           %8.0f\n", cells);
  std::printf("table bytes:           %8zu\n", db.table_bytes());
  std::printf("table bytes per cell:  %8.2f\n",
              static_cast<double>(db.table_bytes()) / cells);

  workload::PhaseStageSeconds stages;
  for (int a = 0; a < suite.size(); ++a) {
    const workload::AppProfile& app = suite.app(a);
    for (int ph = 0; ph < app.num_phases(); ++ph) {
      (void)workload::characterize_phase(app.phases[static_cast<std::size_t>(ph)],
                                         system, options.phase,
                                         workload::phase_trace_seed(app, ph), &stages);
    }
  }
  std::printf("\ncharacterization split (1 thread, %.1f ms):\n", stages.total() * 1e3);
  const std::pair<const char*, double> split[] = {
      {"synthesis", stages.synthesis}, {"recency", stages.recency},
      {"oracle", stages.oracle},       {"arrival", stages.arrival},
      {"atd", stages.atd}};
  for (const auto& [name, s] : split) {
    std::printf("  %-10s %8.1f ms  %5.1f%%\n", name, s * 1e3,
                100.0 * s / stages.total());
  }
  std::printf("\n");

  std::string error;
  const auto t_save = Clock::now();
  if (!save_simdb(db, path, &error)) {
    std::fprintf(stderr, "save failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("snapshot save:         %8.1f ms -> %s\n",
              secs_since(t_save) * 1e3, path.c_str());

  double best_load_s = 1e300;
  for (int i = 0; i < loads; ++i) {
    const auto t_load = Clock::now();
    const std::optional<workload::SimDb> loaded =
        load_simdb(suite, system, power, options.phase, path, &error);
    const double load_s = secs_since(t_load);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "load failed: %s\n", error.c_str());
      return 1;
    }
    best_load_s = std::min(best_load_s, load_s);
    std::printf("snapshot load #%d:      %8.1f ms\n", i + 1, load_s * 1e3);
  }

  std::printf("\nspeedup (build / best load): %.0fx\n", build_s / best_load_s);
  if (!args.get_bool("keep", false)) std::remove(path.c_str());
  return 0;
}
