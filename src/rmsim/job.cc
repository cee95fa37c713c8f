#include "rmsim/job.hh"

#include <algorithm>
#include <climits>
#include <csignal>
#include <filesystem>
#include <fstream>

#include "common/file_util.hh"
#include "common/str.hh"
#include "common/subprocess.hh"
#include "power/power_model.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim::job {

namespace {

std::string self_exe_path(const std::string& argv0) {
  // /proc/self/exe survives PATH-relative invocation and cwd changes;
  // argv[0] is the fallback on exotic systems.
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? argv0 : self.string();
}

bool contains(std::span<const char* const> names, const std::string& name) {
  return std::any_of(names.begin(), names.end(),
                     [&](const char* n) { return name == n; });
}

/// The simulated system a job's database covers.
arch::SystemConfig system_for(int cores, int bw_shares) {
  arch::SystemConfig system;
  system.cores = cores;
  system.bw = arch::bw_config_for_shares(bw_shares);
  return system;
}

}  // namespace

std::uint64_t db_fingerprint(int cores, int bw_shares) {
  return workload::simdb_fingerprint(workload::spec_suite(),
                                     system_for(cores, bw_shares),
                                     workload::PhaseStatsOptions{});
}

bool get_int_flag(const CliArgs& args, const char* name, int* value) {
  const std::int64_t parsed = args.get_int(name, *value);
  if (parsed < INT_MIN || parsed > INT_MAX) {
    std::fprintf(stderr, "--%s=%lld is out of range\n", name,
                 static_cast<long long>(parsed));
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

std::optional<Mode> parse_mode(const CliArgs& args, const Cli& cli) {
  // Reject unknown flags: a typo'd flag name would otherwise silently run
  // a default grid labeled as if the request had been honored.
  for (const std::string& flag : args.flag_names()) {
    if (!contains(cli.flags, flag)) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (!args.positional().empty()) {
    std::fprintf(stderr,
                 "unexpected argument '%s' (flags take --name=value or "
                 "--name value form; see --help)\n",
                 args.positional().front().c_str());
    return std::nullopt;
  }

  Mode mode;
  mode.worker = args.has("shard") || args.has("part-output");
  mode.orchestrate = args.has("workers");
  if (args.has("shard") != args.has("part-output")) {
    std::fprintf(stderr,
                 "--shard and --part-output must be given together (a shard "
                 "worker writes a part file, not CSV)\n");
    return std::nullopt;
  }
  if (mode.worker && mode.orchestrate) {
    std::fprintf(stderr,
                 "--shard and --workers are mutually exclusive (a worker "
                 "runs one shard; the orchestrator forks the workers)\n");
    return std::nullopt;
  }
  if (mode.worker &&
      std::any_of(cli.worker_rejected.begin(), cli.worker_rejected.end(),
                  [&](const char* flag) { return args.has(flag); })) {
    std::string flags;
    for (const char* flag : cli.worker_rejected) {
      flags += std::string(flags.empty() ? "--" : "/--") + flag;
    }
    std::fprintf(stderr,
                 "%s do not apply in --shard worker mode (the merge step "
                 "writes the outputs)\n",
                 flags.c_str());
    return std::nullopt;
  }
  if (!mode.orchestrate &&
      (args.has("resume") || args.has("parts-dir") || args.has("keep-parts"))) {
    std::fprintf(stderr,
                 "--resume/--parts-dir/--keep-parts require --workers\n");
    return std::nullopt;
  }
  if (mode.worker) {
    const std::optional<ShardArg> shard =
        parse_shard_arg(args.get("shard", ""));
    if (!shard.has_value()) {
      std::fprintf(stderr,
                   "bad --shard value '%s' (want I/N with 0 <= I < N)\n",
                   args.get("shard", "").c_str());
      return std::nullopt;
    }
    mode.shard = *shard;
  }
  if (!get_int_flag(args, "workers", &mode.workers)) return std::nullopt;
  if (mode.orchestrate && mode.workers < 1) {
    std::fprintf(stderr, "--workers must be >= 1\n");
    return std::nullopt;
  }
  return mode;
}

std::optional<Context> prepare(const CliArgs& args, const Mode& mode,
                               const char* argv0, int cores, int bw_shares,
                               int threads, const std::string& rows_csv,
                               const std::vector<std::string>& outputs) {
  Context ctx;
  ctx.mode = mode;
  ctx.exe = argv0;
  ctx.system = system_for(cores, bw_shares);
  ctx.threads = threads;
  ctx.part_output = args.get("part-output", "");
  // Orchestrator part files live next to the rows CSV unless --parts-dir
  // says otherwise; the prefix keeps the sharding self-describing
  // ("<prefix>.<i>-of-<n>.qospart").
  if (mode.orchestrate) {
    const std::string parts_dir = args.get("parts-dir", "");
    ctx.parts_prefix =
        parts_dir.empty()
            ? rows_csv
            : (std::filesystem::path(parts_dir) /
               std::filesystem::path(rows_csv).filename())
                  .string();
  }

  // Probe the output paths: a bad path should fail here, before the
  // multi-second database build, not after the run. Each probe touches only
  // the uniquely named temp sibling the later atomic commit will use, NEVER
  // the target itself - an interrupted or failed run must not leave an
  // empty decoy output, and an existing file stays untouched until its
  // atomic replacement.
  std::vector<std::string> probe_paths;
  if (mode.worker) {
    probe_paths.push_back(ctx.part_output);
  } else {
    probe_paths = outputs;
    if (mode.orchestrate) {
      const std::vector<std::string> parts = part_files(ctx);
      probe_paths.insert(probe_paths.end(), parts.begin(), parts.end());
    }
  }
  for (const std::string& path : probe_paths) {
    std::string probe_error;
    if (!probe_writable_atomic(path, &probe_error)) {
      std::fprintf(stderr, "%s\n", probe_error.c_str());
      return std::nullopt;
    }
  }

  // --db-cache: decide hit/miss now, and on a miss probe writability, so a
  // bad path fails here instead of after the multi-second database build.
  // The probe uses the uniquely named sibling save_simdb stages into, never
  // the cache path itself: concurrent shards must not see a transient decoy
  // snapshot, nor have a just-written real one deleted from under them.
  ctx.db_cache = args.get("db-cache", "");
  if (!ctx.db_cache.empty()) {
    // A directory means the shared per-core-count layout the benches and
    // QOSRM_DB_CACHE_DIR use; resolve it the same way.
    std::error_code ec;
    if (std::filesystem::is_directory(ctx.db_cache, ec)) {
      ctx.db_cache = workload::db_cache_path(ctx.db_cache, cores, bw_shares);
    }
    std::ifstream rprobe(ctx.db_cache, std::ios::binary);
    ctx.db_cache_hit = rprobe.good();
    std::string probe_error;
    if (!ctx.db_cache_hit &&
        !probe_writable_atomic(ctx.db_cache, &probe_error)) {
      std::fprintf(stderr, "--db-cache: %s\n", probe_error.c_str());
      return std::nullopt;
    }
  }
  return ctx;
}

std::optional<workload::SimDb> open_db(const Context& ctx) {
  const workload::SpecSuite& suite = workload::spec_suite();
  const power::PowerModel power;
  workload::SimDbOptions options;
  options.threads = ctx.threads;
  std::string error;
  if (ctx.db_cache_hit) {
    std::printf("loading simulation database from %s...\n",
                ctx.db_cache.c_str());
    std::optional<workload::SimDb> db = workload::load_simdb(
        suite, ctx.system, power, options.phase, ctx.db_cache, &error);
    if (!db.has_value()) {
      std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
    }
    return db;
  }
  std::printf("characterizing %d-app suite for %d cores...\n", suite.size(),
              ctx.system.cores);
  std::optional<workload::SimDb> db(std::in_place, suite, ctx.system, power,
                                    options);
  if (!ctx.db_cache.empty()) {
    if (!workload::save_simdb(*db, ctx.db_cache, &error)) {
      std::fprintf(stderr, "--db-cache: %s\n", error.c_str());
      return std::nullopt;
    }
    std::printf("saved simulation database snapshot to %s\n",
                ctx.db_cache.c_str());
  }
  return db;
}

bool share_db(Context& ctx) {
  // With --db-cache a present-but-stale snapshot is a hard error, matching
  // the single-process contract; without --db-cache a temporary snapshot
  // next to the parts is handed to the workers and removed after the run.
  if (ctx.db_cache.empty()) {
    ctx.temp_db = true;
    ctx.db_cache = ctx.parts_prefix + ".shared.qosdb";
    std::remove(ctx.db_cache.c_str());  // never trust a stale leftover
  }
  if (open_db(ctx).has_value()) return true;
  drop_temp_db(ctx);
  return false;
}

void drop_temp_db(const Context& ctx) {
  if (ctx.temp_db) std::remove(ctx.db_cache.c_str());
}

bool run_workers(const Context& ctx, const Cli& cli,
                 const std::vector<std::string>& grid_flags,
                 const std::vector<std::size_t>& pending, std::size_t rows) {
  const auto n = static_cast<std::size_t>(ctx.mode.workers);
  const std::size_t worker_threads = std::max<std::size_t>(
      1, resolve_thread_count(ctx.threads) / std::max<std::size_t>(1, pending.size()));
  std::printf("%s %zu runs across %d shard workers (%zu threads each)...\n",
              cli.verb, rows, ctx.mode.workers, worker_threads);

  struct Worker {
    std::size_t shard = 0;
    std::vector<std::string> argv;
    Subprocess process;
  };
  const std::string exe = self_exe_path(ctx.exe);
  std::vector<Worker> spawned;
  spawned.reserve(pending.size());
  for (const std::size_t i : pending) {
    Worker worker;
    worker.shard = i;
    worker.argv.push_back(exe);
    worker.argv.insert(worker.argv.end(), grid_flags.begin(), grid_flags.end());
    worker.argv.push_back(format("--threads=%zu", worker_threads));
    worker.argv.push_back(format("--shard=%zu/%zu", i, n));
    worker.argv.push_back("--part-output=" + part_path(ctx.parts_prefix, i, n));
    if (!ctx.db_cache.empty()) {
      worker.argv.push_back("--db-cache=" + ctx.db_cache);
    }
    worker.process = Subprocess::spawn(worker.argv);
    spawned.push_back(std::move(worker));
  }

  // Fail fast: workers are reaped in COMPLETION order (wait_any), so the
  // first failure - whichever shard it strikes - immediately terminates
  // the rest instead of hiding behind long-running earlier shards. The
  // diagnostic names the shard, its fate and its exact command line so
  // the operator can re-run just that shard by hand. Shards we cancelled
  // ourselves get one short line, not a failure diagnostic of their own -
  // the actionable failure must stay visible.
  bool failed = false;
  const auto handle_exit = [&](const Worker& worker,
                               const SubprocessExit& exit) {
    if (exit.success()) return;
    if (failed && exit.term_signal == SIGTERM) {
      std::fprintf(stderr, "shard %zu/%zu cancelled\n", worker.shard, n);
      return;
    }
    if (!failed) {
      failed = true;
      for (Worker& other : spawned) other.process.terminate();
    }
    std::string cmd;
    for (const std::string& arg : worker.argv) {
      if (!cmd.empty()) cmd += ' ';
      cmd += arg;
    }
    std::fprintf(stderr, "shard %zu/%zu failed (%s): %s\n", worker.shard, n,
                 describe(exit).c_str(), cmd.c_str());
  };

  std::vector<Subprocess*> processes;
  processes.reserve(spawned.size());
  for (Worker& worker : spawned) {
    processes.push_back(&worker.process);
    // A fork that failed outright never enters wait_any.
    if (!worker.process.running()) handle_exit(worker, worker.process.wait());
  }
  for (;;) {
    const std::optional<std::size_t> done = Subprocess::wait_any(processes);
    if (!done.has_value()) break;
    handle_exit(spawned[*done], spawned[*done].process.wait());
  }
  if (failed) {
    std::fprintf(stderr,
                 "%s run aborted; completed parts are kept - re-run with "
                 "--resume to redo only the failed shards\n",
                 cli.noun);
  }
  return !failed;
}

std::vector<std::string> part_files(const Context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.mode.workers);
  std::vector<std::string> paths;
  paths.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    paths.push_back(part_path(ctx.parts_prefix, i, n));
  }
  return paths;
}

}  // namespace qosrm::rmsim::job
