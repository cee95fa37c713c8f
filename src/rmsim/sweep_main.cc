// sweep_main - CLI driver for the parallel policy-sweep subsystem.
//
// Expands a {policy x model x qos_alpha} x workload grid over a generated
// workload suite, shards the runs across a thread pool, and writes per-run
// rows plus per-configuration aggregates as CSV. Output is byte-identical
// for any --threads value.
//
//   sweep_main --cores=4 --per-scenario=1 --policies=idle,rm1,rm2,rm3
//              --models=model3 --alphas=0 --threads=4
//              --rows-csv=sweep_rows.csv --agg-csv=sweep_agg.csv
//
// Default, --shard worker and --workers orchestrator modes come from the
// sharded-job driver (rmsim/job.hh); this file holds only the sweep grid.
#include <array>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/str.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/job.hh"
#include "rmsim/report.hh"
#include "rmsim/shard.hh"
#include "rmsim/sweep.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_gen.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;

/// --help text; the driver appends the --db-cache and sharding flags.
constexpr const char* kUsage =
    "sweep_main: sweep RM policies over generated workload mixes\n"
    "  --cores=N          cores per generated workload (default 4)\n"
    "  --replicate=K      scale every mix to K x its cores by scenario-\n"
    "                     preserving replication (default 1; e.g.\n"
    "                     --cores=4 --replicate=2 sweeps 8-core scaled\n"
    "                     versions of the 4-core paper mixes)\n"
    "  --bw-shares=N      memory-bandwidth shares per core (default 1 =\n"
    "                     unpartitioned bandwidth; N >= 2 adds the CBP\n"
    "                     share axis to the optimizer's knob space)\n"
    "  --per-scenario=N   workload mixes per scenario (default 1; paper: 6)\n"
    "  --seed=N           workload-generation seed (default 2020)\n"
    "  --policies=LIST    comma list of idle|rm1|rm2|rm3|ucp|fcp|classpart\n"
    "                     (default idle,rm1,rm2,rm3)\n"
    "  --models=LIST      comma list of model1|model2|model3|perfect\n"
    "                     (default model3)\n"
    "  --alphas=LIST      comma list of QoS alphas; 0 = system default\n"
    "                     (default 0)\n"
    "  --threads=N        sweep parallelism; 0 = hardware concurrency\n"
    "  --rows-csv=PATH    per-run CSV output (default sweep_rows.csv)\n"
    "  --agg-csv=PATH     per-configuration CSV output (optional)\n"
    "  --report-json=PATH Fig. 6/7/9 figure report (byte-stable JSON,\n"
    "                     stamped with the sweep fingerprint; optional)\n"
    "  --overheads=BOOL   model RM/enforcement overheads (default true)";

/// The sweep grid, options and outputs, parsed and validated once, before
/// any expensive work. It lives in main: the job's hooks refer to it.
struct SweepSetup {
  int cores = 4;
  int replicate = 1;  ///< scenario-preserving mix scaling factor
  int bw_shares = 1;  ///< baseline memory-bandwidth shares per core
  int threads = 0;
  int per_scenario = 1;
  rmsim::SweepGrid grid;
  rmsim::SweepOptions options;
  std::string rows_csv;
  std::string agg_csv;
  std::string report_json;
};

void print_aggregates(const std::vector<rmsim::SweepAggregate>& aggregates) {
  std::printf("\n%-6s %-8s %9s %14s %12s %14s\n", "policy", "model", "alpha",
              "wtd-savings", "mean-savings", "viol-rate");
  for (const rmsim::SweepAggregate& agg : aggregates) {
    std::printf("%-6s %-8s %9.4g %13.2f%% %11.2f%% %14.4g\n",
                qosrm::rm::rm_policy_name(agg.policy),
                qosrm::rm::perf_model_name(agg.model), agg.qos_alpha,
                100.0 * agg.weighted_savings, 100.0 * agg.mean_savings,
                agg.mean_violation_rate);
  }
}

/// The rows CSV, the optional aggregates CSV and the optional figure report
/// (stamped with the sweep fingerprint so it can never be matched against
/// foreign rows), then the aggregate table.
bool write_outputs(const SweepSetup& setup,
                   const std::vector<rmsim::SweepRow>& rows,
                   const rmsim::GridShape& shape, std::uint64_t fingerprint) {
  const std::array<double, 4> weights =
      rmsim::scenario_weights(workload::spec_suite());
  rmsim::SweepResult result;
  result.rows = rows;
  result.aggregates = rmsim::compute_aggregates(rows, shape, weights);
  rmsim::write_rows_csv(result, setup.rows_csv);
  std::printf("wrote %zu rows to %s\n", rows.size(), setup.rows_csv.c_str());
  if (!setup.agg_csv.empty()) {
    rmsim::write_aggregates_csv(result, setup.agg_csv);
    std::printf("wrote %zu aggregates to %s\n", result.aggregates.size(),
                setup.agg_csv.c_str());
  }
  if (!setup.report_json.empty()) {
    const rmsim::FigureReport report =
        rmsim::build_figure_report(rows, shape, fingerprint, weights);
    std::string error;
    if (!rmsim::write_report_json(report, setup.report_json, &error)) {
      std::fprintf(stderr, "--report-json: %s\n", error.c_str());
      return false;
    }
    std::printf("wrote figure report to %s\n", setup.report_json.c_str());
  }
  print_aggregates(result.aggregates);
  return true;
}

std::optional<rmsim::job::Job<rmsim::SweepCodec>> make_job(
    const qosrm::CliArgs& args, SweepSetup& setup) {
  if (!rmsim::job::get_int_flag(args, "cores", &setup.cores) ||
      !rmsim::job::get_int_flag(args, "replicate", &setup.replicate) ||
      !rmsim::job::get_int_flag(args, "bw-shares", &setup.bw_shares) ||
      !rmsim::job::get_int_flag(args, "threads", &setup.threads) ||
      !rmsim::job::get_int_flag(args, "per-scenario", &setup.per_scenario)) {
    return std::nullopt;
  }
  if (setup.cores < 1 || setup.replicate < 1 || setup.per_scenario < 1 ||
      setup.threads < 0) {
    std::fprintf(stderr,
                 "--cores/--replicate/--per-scenario must be >= 1 and "
                 "--threads >= 0\n");
    return std::nullopt;
  }
  if (std::int64_t{setup.cores} * setup.replicate > INT_MAX) {
    std::fprintf(stderr, "--cores x --replicate is out of range\n");
    return std::nullopt;
  }
  if (setup.bw_shares < 1) {
    std::fprintf(stderr, "--bw-shares must be >= 1\n");
    return std::nullopt;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization.
  const std::string policies = args.get("policies", "idle,rm1,rm2,rm3");
  const std::string models = args.get("models", "model3");
  const std::string alphas = args.get("alphas", "0");
  setup.grid.policies = rmsim::parse_policies(policies);
  setup.grid.models = rmsim::parse_models(models);
  setup.grid.qos_alphas = rmsim::parse_alphas(alphas);
  if (setup.grid.policies.empty() || setup.grid.models.empty() ||
      setup.grid.qos_alphas.empty()) {
    std::fprintf(stderr,
                 "--policies/--models/--alphas must each name at least one "
                 "value (see --help)\n");
    return std::nullopt;
  }
  const bool overheads = args.get_bool("overheads", true);
  setup.options.threads = setup.threads;
  setup.options.sim.model_overheads = overheads;
  setup.rows_csv = args.get("rows-csv", "sweep_rows.csv");
  setup.agg_csv = args.get("agg-csv", "");
  setup.report_json = args.get("report-json", "");

  // Expand the workload mixes (cheap: needs only the suite, not the
  // database) - the orchestrator uses them for the fingerprint and shard
  // math without ever building a database itself.
  workload::WorkloadGenOptions gen;
  gen.cores = setup.cores;
  gen.per_scenario = setup.per_scenario;
  gen.seed = seed;
  setup.grid.mixes = workload::replicate_workloads(
      workload::generate_workloads(workload::spec_suite(), gen),
      setup.replicate);

  rmsim::job::Job<rmsim::SweepCodec> job;
  // Replication scales the 4-core paper mixes to 8/16-core systems.
  job.cores = setup.cores * setup.replicate;
  job.bw_shares = setup.bw_shares;
  job.threads = setup.threads;
  job.fingerprint = rmsim::sweep_fingerprint(
      setup.grid, setup.options.sim,
      rmsim::job::db_fingerprint(job.cores, job.bw_shares));
  job.shape = setup.grid.shape();
  job.axes = qosrm::format("%zu mixes x %zu policies x %zu models x %zu alphas",
                           job.shape.mixes, job.shape.policies,
                           job.shape.models, job.shape.alphas);
  job.rows_csv = setup.rows_csv;
  job.outputs = {setup.rows_csv};
  if (!setup.agg_csv.empty()) job.outputs.push_back(setup.agg_csv);
  if (!setup.report_json.empty()) job.outputs.push_back(setup.report_json);
  job.grid_flags = {
      qosrm::format("--cores=%d", setup.cores),
      qosrm::format("--replicate=%d", setup.replicate),
      qosrm::format("--bw-shares=%d", setup.bw_shares),
      qosrm::format("--per-scenario=%d", setup.per_scenario),
      qosrm::format("--seed=%llu", static_cast<unsigned long long>(seed)),
      "--policies=" + policies,
      "--models=" + models,
      "--alphas=" + alphas,
      qosrm::format("--overheads=%s", overheads ? "true" : "false"),
  };
  job.run_range = [&setup](const workload::SimDb& db, std::size_t begin,
                           std::size_t end) {
    rmsim::SweepRunner runner(db, setup.options);
    std::size_t idle_computations = 0;
    std::vector<rmsim::SweepRow> rows =
        runner.run_range(setup.grid, begin, end, &idle_computations);
    std::printf("idle references simulated: %zu\n", idle_computations);
    return rows;
  };
  job.write_outputs = [&setup](const std::vector<rmsim::SweepRow>& rows,
                               const rmsim::GridShape& shape,
                               std::uint64_t fingerprint) {
    return write_outputs(setup, rows, shape, fingerprint);
  };
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr const char* kWorkerRejected[] = {"rows-csv", "agg-csv",
                                                     "report-json"};
  const rmsim::job::Cli cli{kUsage, rmsim::cli::kSweepMainFlags,
                            kWorkerRejected, "sweep", "sweeping"};
  SweepSetup setup;
  return rmsim::job::run<rmsim::SweepCodec>(
      argc, argv, cli,
      [&setup](const qosrm::CliArgs& args) { return make_job(args, setup); });
}
