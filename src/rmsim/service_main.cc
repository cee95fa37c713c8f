// service_main - CLI driver for the colocation-service mode.
//
// Draws a seeded open-loop arrival trace (poisson/bursty/diurnal) over a
// pool of cores, admits and evicts applications against the interval
// simulator, and reports streaming tail metrics (p50/p95/p99 QoS-violation
// magnitude, energy per served app, RM decisions/sec, occupancy) per
// {arrival pattern x load x admission x policy x alpha} grid point. Output
// is byte-identical for any --threads value.
//
//   service_main --cores=16 --arrivals=poisson --load=0.8 --policies=rm3
//                --admission=fifo,sdf,qos-aware --alphas=0
//                --num-arrivals=5000 --seed=2020
//                --rows-csv=service_rows.csv --report-json=service.json
//
// A dense --loads sweep plus --knee-report folds the load axis into one
// p99-violation curve per {pattern x admission x policy x alpha} and marks
// the knee: the first load whose p99 Eq. 6 magnitude crosses
// --knee-threshold (rmsim/report.hh, build_service_knee_report).
//
// Default, --shard worker and --workers orchestrator modes come from the
// sharded-job driver (rmsim/job.hh); this file holds only the service grid.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/str.hh"
#include "rmsim/cli_flags.hh"
#include "rmsim/job.hh"
#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "rmsim/shard.hh"
#include "rmsim/sweep.hh"
#include "workload/arrival_gen.hh"

namespace {

namespace workload = qosrm::workload;
namespace rmsim = qosrm::rmsim;

/// --help text; the driver appends the --db-cache and sharding flags.
constexpr const char* kUsage =
    "service_main: open-loop colocation service over the RM simulator\n"
    "  --cores=N          size of the served core pool (default 16)\n"
    "  --bw-shares=N      memory-bandwidth shares per core (default 1 =\n"
    "                     unpartitioned bandwidth; N >= 2 adds the CBP\n"
    "                     share axis to the optimizer's knob space)\n"
    "  --arrivals=LIST    comma list of poisson|bursty|diurnal arrival\n"
    "                     patterns (default poisson)\n"
    "  --num-arrivals=N   arrivals per grid point (default 5000)\n"
    "  --load=LIST        comma list of offered utilizations > 0\n"
    "                     (default 0.8; --loads is an accepted alias)\n"
    "  --admission=LIST   comma list of fifo|sdf|qos-aware admission\n"
    "                     policies (default fifo); every admission cell of\n"
    "                     one (pattern, load) faces the identical trace\n"
    "  --policies=LIST    comma list of idle|rm1|rm2|rm3|ucp|fcp|classpart\n"
    "                     (default idle,rm1,rm2,rm3)\n"
    "  --model=NAME       performance model: model1|model2|model3|perfect\n"
    "                     (exactly one; default model3)\n"
    "  --alphas=LIST      comma list of QoS alphas; 0 = system default\n"
    "                     (default 0)\n"
    "  --seed=N           arrival-trace seed (default 2020)\n"
    "  --demand-min=N     per-app demand lower bound, intervals (default 40)\n"
    "  --demand-max=N     per-app demand upper bound (default 160)\n"
    "  --queue-cap=N      admission-queue capacity (default 4096)\n"
    "  --threads=N        grid parallelism; 0 = hardware concurrency\n"
    "  --rows-csv=PATH    per-run CSV output (default service_rows.csv)\n"
    "  --report-json=PATH tail-metric report (byte-stable JSON, stamped\n"
    "                     with the service fingerprint; optional)\n"
    "  --knee-report=PATH aggregate knee report: folds the load axis into\n"
    "                     one p99-violation curve per {pattern x admission\n"
    "                     x policy x alpha} and marks the first load whose\n"
    "                     p99 crosses the threshold (byte-stable JSON)\n"
    "  --knee-threshold=X p99 Eq. 6 magnitude counting as past the knee\n"
    "                     (> 0; default 0.1; requires --knee-report)\n"
    "  --knee-csv-prefix=P  also write per-pattern knee curves to\n"
    "                     <P><pattern>.csv (requires --knee-report)";

/// The service grid, config and outputs, parsed and validated once, before
/// any expensive work. It lives in main: the job's hooks refer to it.
struct ServiceSetup {
  int cores = 16;
  int bw_shares = 1;  ///< baseline memory-bandwidth shares per core
  int threads = 0;
  rmsim::ServiceGrid grid;
  rmsim::ServiceConfig config;
  std::string rows_csv;
  std::string report_json;
  std::string knee_report;
  std::string knee_csv_prefix;
  double knee_threshold = rmsim::kDefaultKneeThreshold;
};

void print_rows(const std::vector<rmsim::ServiceRow>& rows) {
  std::printf("\n%-8s %6s %-9s %-6s %9s %9s %9s %12s %10s %10s\n", "pattern",
              "load", "admission", "policy", "alpha", "viol-rate", "p99-viol",
              "energy/app", "rm-dec/s", "occupancy");
  for (const rmsim::ServiceRow& row : rows) {
    std::printf(
        "%-8s %6.3g %-9s %-6s %9.4g %9.4g %9.4g %11.4gJ %10.4g %10.4g\n",
        workload::arrival_pattern_name(row.pattern), row.load,
        rmsim::admission_policy_name(row.admission),
        qosrm::rm::rm_policy_name(row.policy), row.qos_alpha,
        row.metrics.violation_rate, row.metrics.p99_violation,
        row.metrics.energy_per_app_j, row.metrics.decisions_per_sec,
        row.metrics.occupancy);
  }
}

/// The rows CSV, the optional tail-metric report (stamped with the service
/// fingerprint so it can never be matched against foreign rows), the
/// optional knee report and curve CSVs, then the row table.
bool write_outputs(const ServiceSetup& setup,
                   const std::vector<rmsim::ServiceRow>& rows,
                   const rmsim::ServiceGridShape& shape,
                   std::uint64_t fingerprint) {
  rmsim::write_service_csv(rows, setup.rows_csv);
  std::printf("wrote %zu rows to %s\n", rows.size(), setup.rows_csv.c_str());
  std::string error;
  if (!setup.report_json.empty()) {
    if (!rmsim::write_service_report_json(rows, shape, fingerprint,
                                          setup.report_json, &error)) {
      std::fprintf(stderr, "--report-json: %s\n", error.c_str());
      return false;
    }
    std::printf("wrote service report to %s\n", setup.report_json.c_str());
  }
  if (!setup.knee_report.empty()) {
    // Fold the load axis into per-configuration p99 knee curves.
    const rmsim::ServiceKneeReport knee = rmsim::build_service_knee_report(
        rows, shape, fingerprint, setup.knee_threshold);
    if (!rmsim::write_service_knee_report_json(knee, setup.knee_report,
                                               &error)) {
      std::fprintf(stderr, "--knee-report: %s\n", error.c_str());
      return false;
    }
    std::size_t detected = 0;
    for (const rmsim::KneeCurve& curve : knee.curves) {
      if (curve.knee_index >= 0) ++detected;
    }
    std::printf("wrote knee report to %s (%zu of %zu curves cross p99 > %g)\n",
                setup.knee_report.c_str(), detected, knee.curves.size(),
                setup.knee_threshold);
    if (!setup.knee_csv_prefix.empty()) {
      if (!rmsim::write_knee_curve_csvs(knee, setup.knee_csv_prefix, &error)) {
        std::fprintf(stderr, "--knee-csv-prefix: %s\n", error.c_str());
        return false;
      }
      std::printf("wrote %zu per-pattern knee-curve CSVs to %s<pattern>.csv\n",
                  shape.patterns, setup.knee_csv_prefix.c_str());
    }
  }
  print_rows(rows);
  return true;
}

std::optional<rmsim::job::Job<rmsim::ServiceCodec>> make_job(
    const qosrm::CliArgs& args, ServiceSetup& setup) {
  int demand_min = 40;
  int demand_max = 160;
  if (!rmsim::job::get_int_flag(args, "cores", &setup.cores) ||
      !rmsim::job::get_int_flag(args, "bw-shares", &setup.bw_shares) ||
      !rmsim::job::get_int_flag(args, "threads", &setup.threads) ||
      !rmsim::job::get_int_flag(args, "demand-min", &demand_min) ||
      !rmsim::job::get_int_flag(args, "demand-max", &demand_max)) {
    return std::nullopt;
  }
  if (setup.bw_shares < 1) {
    std::fprintf(stderr, "--bw-shares must be >= 1\n");
    return std::nullopt;
  }
  const long long num_arrivals = args.get_int("num-arrivals", 5000);
  const long long queue_cap = args.get_int("queue-cap", 4096);
  if (setup.cores < 1 || setup.threads < 0 || num_arrivals < 1) {
    std::fprintf(stderr,
                 "--cores/--num-arrivals must be >= 1 and --threads >= 0\n");
    return std::nullopt;
  }
  if (demand_min < 1 || demand_max < demand_min) {
    std::fprintf(stderr,
                 "--demand-min must be >= 1 and --demand-max >= "
                 "--demand-min\n");
    return std::nullopt;
  }
  if (queue_cap < 1) {
    std::fprintf(stderr, "--queue-cap must be >= 1\n");
    return std::nullopt;
  }
  rmsim::ServiceConfig& config = setup.config;
  config.arrivals = static_cast<std::size_t>(num_arrivals);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
  config.demand_min = demand_min;
  config.demand_max = demand_max;
  config.queue_capacity = static_cast<std::size_t>(queue_cap);

  // Parse the grid flags up front: a bad value should fail immediately, not
  // after the multi-second database characterization. The list parsers
  // abort with a diagnostic on malformed specs (same contract as sweep_main).
  if (args.has("load") && args.has("loads")) {
    std::fprintf(stderr,
                 "--load and --loads are aliases; give only one of them\n");
    return std::nullopt;
  }
  const std::string arrivals = args.get("arrivals", "poisson");
  const std::string loads = args.get("load", args.get("loads", "0.8"));
  const std::string admissions = args.get("admission", "fifo");
  const std::string policies = args.get("policies", "idle,rm1,rm2,rm3");
  const std::string model = args.get("model", "model3");
  const std::string alphas = args.get("alphas", "0");
  setup.grid.patterns = workload::parse_arrival_patterns(arrivals);
  setup.grid.loads = rmsim::parse_loads(loads);
  setup.grid.admissions = rmsim::parse_admissions(admissions);
  setup.grid.policies = rmsim::parse_policies(policies);
  setup.grid.qos_alphas = rmsim::parse_alphas(alphas);
  const std::vector<qosrm::rm::PerfModelKind> models =
      rmsim::parse_models(model);
  if (models.size() != 1) {
    std::fprintf(stderr,
                 "--model must name exactly one performance model (the "
                 "service grid sweeps patterns/loads/policies/alphas)\n");
    return std::nullopt;
  }
  config.model = models.front();

  setup.rows_csv = args.get("rows-csv", "service_rows.csv");
  setup.report_json = args.get("report-json", "");
  setup.knee_report = args.get("knee-report", "");
  setup.knee_csv_prefix = args.get("knee-csv-prefix", "");
  setup.knee_threshold =
      args.get_double("knee-threshold", rmsim::kDefaultKneeThreshold);
  if (setup.knee_report.empty() &&
      (args.has("knee-threshold") || !setup.knee_csv_prefix.empty())) {
    std::fprintf(stderr,
                 "--knee-threshold/--knee-csv-prefix require --knee-report\n");
    return std::nullopt;
  }
  if (!(setup.knee_threshold > 0.0)) {
    std::fprintf(stderr, "--knee-threshold must be > 0\n");
    return std::nullopt;
  }

  rmsim::job::Job<rmsim::ServiceCodec> job;
  job.cores = setup.cores;
  job.bw_shares = setup.bw_shares;
  job.threads = setup.threads;
  job.fingerprint = rmsim::service_fingerprint(
      setup.grid, config, rmsim::job::db_fingerprint(job.cores, job.bw_shares));
  job.shape = setup.grid.shape();
  job.axes = qosrm::format(
      "%zu patterns x %zu loads x %zu admissions x %zu policies x %zu alphas",
      job.shape.patterns, job.shape.loads, job.shape.admissions,
      job.shape.policies, job.shape.alphas);
  job.rows_csv = setup.rows_csv;
  job.outputs = {setup.rows_csv};
  if (!setup.report_json.empty()) job.outputs.push_back(setup.report_json);
  if (!setup.knee_report.empty()) job.outputs.push_back(setup.knee_report);
  if (!setup.knee_csv_prefix.empty()) {
    for (const workload::ArrivalPattern pattern : setup.grid.patterns) {
      job.outputs.push_back(setup.knee_csv_prefix +
                            workload::arrival_pattern_name(pattern) + ".csv");
    }
  }
  job.grid_flags = {
      qosrm::format("--cores=%d", setup.cores),
      qosrm::format("--bw-shares=%d", setup.bw_shares),
      qosrm::format("--num-arrivals=%zu", config.arrivals),
      qosrm::format("--seed=%llu",
                    static_cast<unsigned long long>(config.seed)),
      "--arrivals=" + arrivals,
      "--load=" + loads,
      "--admission=" + admissions,
      "--policies=" + policies,
      "--model=" + model,
      "--alphas=" + alphas,
      qosrm::format("--demand-min=%d", config.demand_min),
      qosrm::format("--demand-max=%d", config.demand_max),
      qosrm::format("--queue-cap=%zu", config.queue_capacity),
  };
  job.run_range = [&setup](const workload::SimDb& db, std::size_t begin,
                           std::size_t end) {
    rmsim::ServiceOptions options;
    options.threads = setup.threads;
    return rmsim::run_service_range(db, setup.grid, setup.config, begin, end,
                                    options);
  };
  job.write_outputs = [&setup](const std::vector<rmsim::ServiceRow>& rows,
                               const rmsim::ServiceGridShape& shape,
                               std::uint64_t fingerprint) {
    return write_outputs(setup, rows, shape, fingerprint);
  };
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  static constexpr const char* kWorkerRejected[] = {
      "rows-csv", "report-json", "knee-report", "knee-threshold",
      "knee-csv-prefix"};
  const rmsim::job::Cli cli{kUsage, rmsim::cli::kServiceMainFlags,
                            kWorkerRejected, "service", "serving"};
  ServiceSetup setup;
  return rmsim::job::run<rmsim::ServiceCodec>(
      argc, argv, cli,
      [&setup](const qosrm::CliArgs& args) { return make_job(args, setup); });
}
