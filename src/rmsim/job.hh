// Sharded-job driver shared by sweep_main and service_main.
//
// Both binaries expand a grid of independent rows and run it in one of
// three modes:
//   (default)     run the whole grid in this process
//   --shard=i/N   worker: run only shard i's row range and write a part
//                 file (--part-output) for a later merge
//   --workers=N   orchestrator: fork/exec N shard workers of this binary,
//                 wait, merge their parts and write the same outputs as a
//                 single-process run (byte-identical)
//
// The driver owns everything but the grid: flag and mode validation, the
// output and --db-cache probes, loading or building the simulation
// database (the orchestrator builds one shared snapshot for its workers),
// fail-fast worker supervision, the merge and part cleanup. A main only
// parses its setup into a Job: a DB-free fingerprint and shape, the flags
// its workers need, and two hooks - run_range(db, begin, end) and
// write_outputs(rows, shape, fingerprint). Default mode runs [0, size) and
// calls the same write_outputs the orchestrator calls after its merge.
//
// Every validation runs before the multi-second database build, so a bad
// flag, path or mode combination fails in milliseconds with exit code 1.
#ifndef QOSRM_RMSIM_JOB_HH
#define QOSRM_RMSIM_JOB_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/system_config.hh"
#include "common/cli.hh"
#include "common/thread_pool.hh"
#include "rmsim/shard.hh"
#include "workload/sim_db.hh"

namespace qosrm::rmsim::job {

/// --help text of the flags the driver handles for every binary.
inline constexpr const char* kSharedUsage =
    "  --db-cache=PATH    simulation-database snapshot: load it when the\n"
    "                     file exists (a stale/corrupt snapshot is an\n"
    "                     error), otherwise characterize and save it; a\n"
    "                     directory selects <dir>/suite-c<cores>.qosdb\n"
    "                     (same layout as the benches)\n"
    "multi-process sharding:\n"
    "  --shard=I/N        worker mode: run only rows of shard I of N and\n"
    "                     write them to --part-output instead of CSV\n"
    "  --part-output=PATH part file this worker writes (requires --shard)\n"
    "  --workers=N        orchestrator mode: fork N --shard workers of\n"
    "                     this binary, merge their parts, write the CSVs\n"
    "  --parts-dir=DIR    where the orchestrator keeps part files\n"
    "                     (default: next to --rows-csv)\n"
    "  --resume           orchestrator: skip shards whose part file is\n"
    "                     already complete and matching; re-run the rest\n"
    "  --keep-parts       orchestrator: keep part files after the merge\n"
    "                     (default: removed on success)";

/// What a binary tells the driver about itself before anything is parsed.
struct Cli {
  const char* usage = "";  ///< --help text of the binary's own flags
  std::span<const char* const> flags;  ///< every accepted flag (cli_flags.hh)
  /// Output flags a --shard worker rejects (the merge writes the outputs).
  std::span<const char* const> worker_rejected;
  const char* noun = "";  ///< "sweep": "db build 1.2s, sweep 3.4s"
  const char* verb = "";  ///< "sweeping": "sweeping 96 runs (...)"
};

/// The process role, validated before the setup is parsed.
struct Mode {
  bool worker = false;       ///< --shard=I/N --part-output=PATH
  bool orchestrate = false;  ///< --workers=N
  ShardArg shard;
  int workers = 0;
};

/// A parsed grid: everything the driver needs from a main.
template <typename Codec>
struct Job {
  using Rows = std::vector<typename Codec::Row>;

  int cores = 0;      ///< cores of the simulated system (the database's)
  int bw_shares = 1;  ///< memory-bandwidth shares per core
  int threads = 0;    ///< --threads; 0 = hardware concurrency
  /// Identity of the run, computed without the database (the database
  /// identity is itself a fingerprint of suite, system and phase options).
  std::uint64_t fingerprint = 0;
  typename Codec::Shape shape{};
  std::string axes;      ///< progress-line summary, e.g. "4 mixes x 4 policies"
  std::string rows_csv;  ///< orchestrator parts live next to it
  /// Output files of default and orchestrator mode, probed before any work.
  std::vector<std::string> outputs;
  /// Grid flags every worker needs to expand the same grid ("--cores=4", ...).
  std::vector<std::string> grid_flags;
  std::function<Rows(const workload::SimDb& db, std::size_t begin,
                     std::size_t end)>
      run_range;
  /// Writes the outputs and prints the summary; false after an error.
  std::function<bool(const Rows& rows, const typename Codec::Shape& shape,
                     std::uint64_t fingerprint)>
      write_outputs;
};

/// Identity (workload::simdb_fingerprint) of the database of a `cores`-core
/// system with `bw_shares` bandwidth shares per core, computed without
/// building it - a job's fingerprint needs no database.
[[nodiscard]] std::uint64_t db_fingerprint(int cores, int bw_shares);

/// Reads int flag `--name` into *value (left unchanged when absent). A value
/// outside int prints a diagnostic naming the flag and returns false;
/// non-integers abort in CliArgs::get_int.
bool get_int_flag(const CliArgs& args, const char* name, int* value);

/// Checks the flags and the mode combination. Prints the reason and
/// returns nullopt on any error.
[[nodiscard]] std::optional<Mode> parse_mode(const CliArgs& args,
                                             const Cli& cli);

/// What the driver resolved before any expensive work.
struct Context {
  Mode mode;
  std::string exe;  ///< this binary, which the orchestrator forks
  arch::SystemConfig system;
  int threads = 0;
  std::string part_output;   ///< worker: the part this process writes
  std::string parts_prefix;  ///< orchestrator: <prefix>.<i>-of-<n>.qospart
  std::string db_cache;      ///< resolved --db-cache path ("" = none)
  bool db_cache_hit = false;
  bool temp_db = false;      ///< db_cache is the orchestrator's temp snapshot
};

/// Probes every output path and resolves --db-cache. nullopt after
/// printing the error.
[[nodiscard]] std::optional<Context> prepare(
    const CliArgs& args, const Mode& mode, const char* argv0, int cores,
    int bw_shares, int threads, const std::string& rows_csv,
    const std::vector<std::string>& outputs);

/// Default and worker mode: loads the --db-cache snapshot or builds the
/// database (saving it when --db-cache names a missing file).
[[nodiscard]] std::optional<workload::SimDb> open_db(const Context& ctx);

/// Orchestrator: makes sure ctx.db_cache names a snapshot the workers can
/// load, building it (or a temporary one) once here instead of N times.
/// Leaves no temporary snapshot behind on failure.
bool share_db(Context& ctx);

/// Removes the orchestrator's temporary snapshot, if it made one.
void drop_temp_db(const Context& ctx);

/// Forks one worker per pending shard with `grid_flags`, reaps them in
/// completion order and, on the first failure, terminates the rest. False
/// after printing each failed shard's command line.
bool run_workers(const Context& ctx, const Cli& cli,
                 const std::vector<std::string>& grid_flags,
                 const std::vector<std::size_t>& pending, std::size_t rows);

/// The part files of an orchestrated run, in shard order.
[[nodiscard]] std::vector<std::string> part_files(const Context& ctx);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Orchestrator mode: runs the pending shards as workers of this binary,
/// merges all parts and writes the outputs.
template <typename Codec>
int orchestrate(const CliArgs& args, const Cli& cli, Context& ctx,
                const Job<Codec>& job) {
  const auto n = static_cast<std::size_t>(ctx.mode.workers);
  // Which shards still need to run? Without --resume: all of them (workers
  // atomically overwrite any stale part). Computed before any database
  // work, so a resume with every part complete goes straight to the merge.
  std::vector<std::size_t> pending;
  if (args.get_bool("resume", false)) {
    pending = shards_to_run<Codec>(ctx.parts_prefix, n, job.fingerprint,
                                   job.shape);
    std::printf("resume: %zu of %zu shards already complete\n",
                n - pending.size(), n);
  } else {
    for (std::size_t i = 0; i < n; ++i) pending.push_back(i);
  }

  const auto t_db = Clock::now();
  if (!pending.empty() && !share_db(ctx)) return 1;
  const auto t_run = Clock::now();
  if (!run_workers(ctx, cli, job.grid_flags, pending, job.shape.size())) {
    drop_temp_db(ctx);
    return 1;
  }

  // Every part must match the fingerprint computed here - a worker that
  // somehow ran a different grid is caught by the merge.
  std::string error;
  const std::optional<typename Job<Codec>::Rows> rows =
      merge_part_files<Codec>(part_files(ctx), &job.fingerprint, &error);
  drop_temp_db(ctx);
  if (!rows.has_value()) {
    std::fprintf(stderr, "merge: %s\n", error.c_str());
    return 1;
  }
  const auto t_done = Clock::now();
  if (!job.write_outputs(*rows, job.shape, job.fingerprint)) return 1;
  if (!args.get_bool("keep-parts", false)) {
    for (const std::string& path : part_files(ctx)) std::remove(path.c_str());
  }
  std::printf("\ndb prep %.2fs, %s+merge %.2fs (%d workers)\n",
              secs(t_db, t_run), cli.noun, secs(t_run, t_done),
              ctx.mode.workers);
  return 0;
}

/// Default and worker mode: one process runs the whole grid or one shard.
template <typename Codec>
int run_here(const Cli& cli, const Context& ctx, const Job<Codec>& job) {
  const auto t_db = Clock::now();
  const std::optional<workload::SimDb> db = open_db(ctx);
  if (!db.has_value()) return 1;
  const std::size_t threads = resolve_thread_count(ctx.threads);
  const std::size_t size = job.shape.size();
  const char* db_step = ctx.db_cache_hit ? "load" : "build";

  if (ctx.mode.worker) {
    Part<Codec> part;
    part.fingerprint = job.fingerprint;
    part.shape = job.shape;
    part.shard_index = ctx.mode.shard.index;
    part.shard_count = ctx.mode.shard.count;
    part.range = shard_range(size, part.shard_index, part.shard_count);
    std::printf("shard %zu/%zu: %s rows [%zu, %zu) of %zu on %zu threads...\n",
                part.shard_index, part.shard_count, cli.verb, part.range.begin,
                part.range.end, size, threads);
    const auto t_run = Clock::now();
    part.rows = job.run_range(*db, part.range.begin, part.range.end);
    const auto t_done = Clock::now();
    std::string error;
    if (!save_part(part, ctx.part_output, &error)) {
      std::fprintf(stderr, "--part-output: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %zu rows to %s\n", part.rows.size(),
                ctx.part_output.c_str());
    std::printf("db %s %.2fs, %s %.2fs\n", db_step, secs(t_db, t_run),
                cli.noun, secs(t_run, t_done));
    return 0;
  }

  std::printf("%s %zu runs (%s) on %zu threads...\n", cli.verb, size,
              job.axes.c_str(), threads);
  const auto t_run = Clock::now();
  const typename Job<Codec>::Rows rows = job.run_range(*db, 0, size);
  const auto t_done = Clock::now();
  if (!job.write_outputs(rows, job.shape, job.fingerprint)) return 1;
  std::printf("\ndb %s %.2fs, %s %.2fs\n", db_step, secs(t_db, t_run),
              cli.noun, secs(t_run, t_done));
  return 0;
}

/// The whole binary: `parse(args)` turns the validated flags into a Job
/// (nullopt after printing a usage error). Returns the process exit code.
template <typename Codec, typename Parse>
int run(int argc, char** argv, const Cli& cli, Parse&& parse) {
  const CliArgs args(argc, argv, {"help", "resume", "keep-parts"});
  if (args.has("help")) {
    std::printf("%s\n%s\n", cli.usage, kSharedUsage);
    return 0;
  }
  const std::optional<Mode> mode = parse_mode(args, cli);
  if (!mode.has_value()) return 1;
  const std::optional<Job<Codec>> job = parse(args);
  if (!job.has_value()) return 1;
  std::optional<Context> ctx =
      prepare(args, *mode, argv[0], job->cores, job->bw_shares, job->threads,
              job->rows_csv, job->outputs);
  if (!ctx.has_value()) return 1;
  return mode->orchestrate ? orchestrate(args, cli, *ctx, *job)
                           : run_here(cli, *ctx, *job);
}

}  // namespace qosrm::rmsim::job

#endif  // QOSRM_RMSIM_JOB_HH
