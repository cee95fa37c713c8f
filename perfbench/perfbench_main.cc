// perfbench_main - runs one benchmark workload against libqosrm from
// outside, through the public entry points of the workload, rmsim and rm
// layers, and writes the raw measurements as JSON (+ a binary file of
// per-call durations) for perfbench/run.py to reduce.
//
//   perfbench_main --workload=paper-grid --seed=2020 --seconds=20
//                    --trace=0 --out=DIR --golden-dir=tests/data
//
// Workloads (see perfbench/README.md for why each exists):
//   paper-grid      4 cores, 24 mixes x idle,rm1,rm2,rm3 x model3,perfect
//                   x alpha 1,1.05,1.1 (576 rows), bw_shares=1
//   cbp-grid        4 cores, bw_shares=2, 24 mixes x idle,rm1,rm2,rm3,ucp,
//                   fcp,classpart x model3 x alpha 1,1.05,1.1 (504 rows)
//   service-knee64  64-core pool, poisson,bursty x load 0.7,1.3 x fifo,
//                   qos-aware x rm3 x model3
//
// --trace=0 measures the untraced end-to-end passes (one thread for the
// sweeps, concurrent replicas for the service; see run_service_untraced);
// --trace=1 records spans around every call into the layers and replays
// each sweep row's RM invocation sequence to split its time (see
// run_sweep_traced).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/binary_io.hh"
#include "common/cli.hh"
#include "common/simd.hh"
#include "power/power_model.hh"
#include "rm/global_opt.hh"
#include "rm/local_opt.hh"
#include "rm/resource_manager.hh"
#include "rmsim/experiment.hh"
#include "rmsim/interval_sim.hh"
#include "rmsim/report.hh"
#include "rmsim/service.hh"
#include "rmsim/shard.hh"
#include "rmsim/snapshot.hh"
#include "rmsim/sweep.hh"
#include "workload/arrival_gen.hh"
#include "workload/db_io.hh"
#include "workload/sim_db.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_gen.hh"

namespace {

namespace rm = qosrm::rm;
namespace rmsim = qosrm::rmsim;
namespace workload = qosrm::workload;
using Clock = std::chrono::steady_clock;

/// The seed the committed goldens were generated with. The sweep workloads'
/// modelled outcomes are always taken from the grid at this seed (see
/// README.md, "Modelled metrics").
constexpr std::uint64_t kReferenceSeed = 2020;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The measurement window of one run: passes repeat while one more pass as
/// long as the last one would still end inside the window (at least one).
class Window {
 public:
  explicit Window(double seconds)
      : start_(now_ns()), budget_(static_cast<std::uint64_t>(seconds * 1e9)) {}

  /// `pass_start`: when the pass that just finished began.
  [[nodiscard]] bool fits_another(std::uint64_t pass_start) const {
    const std::uint64_t now = now_ns();
    return (now - start_) + (now - pass_start) <= budget_;
  }

 private:
  std::uint64_t start_;
  std::uint64_t budget_;
};

// ---------------------------------------------------------------------------
// Recording: coarse spans plus per-call duration series.
// ---------------------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span (-1 at the top); `row` is the grid row or service point (-1 when
/// the span belongs to the whole run).
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  long row = -1;
};

/// Calls too frequent for one span each (RM invocations, service steps):
/// every call's duration is kept, with call/op totals, and attributed to
/// the span that was open when it ran. The calls of one series never
/// overlap, so their sum is the time they cover inside that parent.
struct Series {
  std::string name;
  int parent = -1;
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t memo_repeats = 0;
  std::vector<std::uint32_t> ns;

  void add(std::uint64_t dur_ns, std::uint64_t op_count = 0) {
    ++calls;
    busy_ns += dur_ns;
    ops += op_count;
    ns.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dur_ns, UINT32_MAX)));
  }
};

class Recorder {
 public:
  int open(const std::string& name, int parent = -1, long row = -1) {
    spans_.push_back({name, now_ns(), 0, parent, row});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now_ns(); }

  /// The series `name` attributed to span `parent` (created on first use).
  Series& series(const std::string& name, int parent) {
    for (Series& s : series_) {
      if (s.name == name && s.parent == parent) return s;
    }
    series_.push_back({name, parent, 0, 0, 0, 0, 0, {}});
    return series_.back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const std::deque<Series>& all_series() const noexcept {
    return series_;
  }

 private:
  std::vector<Span> spans_;
  std::deque<Series> series_;  ///< deque: references stay valid on growth
};

// ---------------------------------------------------------------------------
// Minimal JSON emission (the output is machine-read by run.py).
// ---------------------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jnum(std::uint64_t v) { return std::to_string(v); }

/// Incremental writer of one JSON object per scope; values are appended as
/// pre-rendered JSON text.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + jstr(key) + ":" + raw;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return add(key, jnum(v)); }
  JsonObject& u64(const std::string& key, std::uint64_t v) {
    return add(key, jnum(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return add(key, jstr(v));
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? "," : "") + items[i];
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Output checks: attempted / failed counts plus the first messages.
// ---------------------------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  /// Records one check covering `units` rows (or points).
  void expect(bool ok, const std::string& what, std::uint64_t units = 1) {
    attempted += units;
    if (ok) return;
    failed += units;
    if (messages.size() < 20) messages.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------------------
// Host context.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// Cost of one steady_clock read, as the smallest of many back-to-back
/// deltas; every timed call's duration includes about one such read.
std::uint64_t timer_overhead_ns() {
  std::uint64_t best = UINT64_MAX;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = now_ns();
    best = std::min(best, now_ns() - a);
  }
  return best;
}

std::string host_context_json(int build_threads) {
#ifdef __OPTIMIZE__
  const bool optimized_code = true;
#else
  const bool optimized_code = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool optimized = optimized_code && (build_type == "Release" ||
                                            build_type == "RelWithDebInfo" ||
                                            build_type == "MinSizeRel");
  JsonObject ctx;
  ctx.u64("nproc", std::thread::hardware_concurrency())
      .str("cpu_model", cpu_model())
      .str("simd_level", qosrm::simd::level_name(qosrm::simd::active_level()))
      .str("build_type", build_type)
      .str("compiler", PERFBENCH_COMPILER)
      .add("optimized", optimized ? "true" : "false")
      .u64("timer_ns", timer_overhead_ns())
      .u64("setup_threads", static_cast<std::uint64_t>(build_threads));
  return ctx.text();
}

/// The process's resident high-water mark since set_up_timed_db() reset it
/// (VmHWM), or since start when /proc does not provide it.
double peak_rss_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kReferenceSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string golden_dir;
  int build_threads = 1;
};

struct SweepSpec {
  int bw_shares = 1;
  std::vector<rm::RmPolicy> policies;
  std::vector<rm::PerfModelKind> models;
  std::vector<double> alphas;
  /// The committed golden report this workload's code path must reproduce
  /// at the reference seed, and the sweep that produces it.
  std::string golden_report;
  int golden_per_scenario = 6;
  std::vector<rm::RmPolicy> golden_policies;
  std::vector<rm::PerfModelKind> golden_models;
};

constexpr int kCores = 4;
/// Cold database builds per untraced run; setup_s is their median.
constexpr int kSetupBuilds = 3;
constexpr int kPerScenario = 6;

SweepSpec sweep_spec(const std::string& name) {
  using P = rm::RmPolicy;
  using M = rm::PerfModelKind;
  SweepSpec s;
  s.alphas = {1.0, 1.05, 1.1};
  if (name == "paper-grid") {
    s.policies = {P::Idle, P::Rm1, P::Rm2, P::Rm3};
    s.models = {M::Model3, M::Perfect};
    s.golden_report = "golden_paper_grid_report.json";
    s.golden_per_scenario = kPerScenario;
    s.golden_policies = s.policies;
    s.golden_models = s.models;
  } else {
    s.bw_shares = 2;
    s.policies = {P::Idle, P::Rm1, P::Rm2, P::Rm3, P::Ucp, P::Fcp, P::ClassPart};
    s.models = {M::Model3};
    s.golden_report = "golden_cbp_grid_report.json";
    s.golden_per_scenario = 1;
    s.golden_policies = {P::Idle, P::Rm1, P::Rm2, P::Rm3};
    s.golden_models = {M::Model3};
  }
  return s;
}

constexpr int kServiceCores = 64;
/// Arrivals per service point: enough for the 64-core pool to spend most of
/// the trace near steady occupancy rather than in ramp-up and drain.
constexpr std::size_t kServiceArrivals = 300;
/// Concurrent replicas of the service's timed pass (see
/// run_service_untraced); fewer when the process may use fewer CPUs.
constexpr std::size_t kServiceReplicas = 4;

rmsim::ServiceGrid service_grid() {
  rmsim::ServiceGrid g;
  g.patterns = {workload::ArrivalPattern::Poisson, workload::ArrivalPattern::Bursty};
  g.loads = {0.7, 1.3};
  g.admissions = {rmsim::AdmissionPolicy::Fifo, rmsim::AdmissionPolicy::QosAware};
  g.policies = {rm::RmPolicy::Rm3};
  g.qos_alphas = {0.0};
  return g;
}

rmsim::ServiceConfig service_config(std::uint64_t seed) {
  rmsim::ServiceConfig c;
  c.arrivals = kServiceArrivals;
  c.seed = seed;
  c.model = rm::PerfModelKind::Model3;
  return c;
}

qosrm::arch::SystemConfig system_for(int cores, int bw_shares) {
  qosrm::arch::SystemConfig sys;
  sys.cores = cores;
  sys.bw = qosrm::arch::bw_config_for_shares(bw_shares);
  return sys;
}

rmsim::SweepGrid make_grid(const SweepSpec& spec, std::uint64_t seed,
                           int per_scenario,
                           const std::vector<rm::RmPolicy>& policies,
                           const std::vector<rm::PerfModelKind>& models) {
  workload::WorkloadGenOptions gen;
  gen.cores = kCores;
  gen.per_scenario = per_scenario;
  gen.seed = seed;
  rmsim::SweepGrid grid;
  grid.mixes = workload::generate_workloads(workload::spec_suite(), gen);
  grid.policies = policies;
  grid.models = models;
  grid.qos_alphas = spec.alphas;
  return grid;
}

/// Builds the database `reps` times (the first `reps - 1` are discarded)
/// and returns the last; `seconds` receives each build's wall time.
std::optional<workload::SimDb> build_db(const qosrm::arch::SystemConfig& sys,
                                        const qosrm::power::PowerModel& power,
                                        int reps, int threads,
                                        std::vector<double>* seconds) {
  workload::SimDbOptions options;
  options.threads = threads;
  std::optional<workload::SimDb> db;
  for (int r = 0; r < reps; ++r) {
    db.reset();
    const std::uint64_t t0 = now_ns();
    db.emplace(workload::spec_suite(), sys, power, options);
    seconds->push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return db;
}

/// The set-up of an untraced run: kSetupBuilds timed cold builds, then the
/// database the timed phase uses, restored from a snapshot of the last
/// build. The restore allocates the database from one thread, so the
/// resident size the timed phase starts from does not depend on how the
/// parallel builds interleaved; the kernel's resident high-water mark is
/// reset after it, so peak_rss_kib() measures the timed phase.
std::optional<workload::SimDb> set_up_timed_db(
    const qosrm::arch::SystemConfig& sys, const qosrm::power::PowerModel& power,
    const Options& opt, std::vector<double>* seconds, Checks& checks) {
  const std::string path = opt.out_dir + "/setup.qosdb";
  std::string error;
  {
    const std::optional<workload::SimDb> built =
        build_db(sys, power, kSetupBuilds, opt.build_threads, seconds);
    checks.expect(workload::save_simdb(*built, path, &error),
                  "db snapshot save: " + error);
  }
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::optional<workload::SimDb> db =
      workload::load_simdb(workload::spec_suite(), sys, power,
                           workload::PhaseStatsOptions{}, path, &error);
  if (!db.has_value()) {
    std::fprintf(stderr, "perfbench: db snapshot load: %s\n", error.c_str());
    std::exit(1);
  }
  std::filesystem::remove(path);
  std::ofstream("/proc/self/clear_refs") << "5";
  return db;
}

// ---------------------------------------------------------------------------
// Sweep workloads.
// ---------------------------------------------------------------------------

struct RowIndex {
  std::size_t mix = 0, policy = 0, model = 0, alpha = 0;
};

/// Grid row order of SweepRunner: mix-minor, then policy, model, alpha.
RowIndex decompose(const rmsim::SweepGrid& grid, std::size_t idx) {
  RowIndex r;
  r.mix = idx % grid.mixes.size();
  idx /= grid.mixes.size();
  r.policy = idx % grid.policies.size();
  idx /= grid.policies.size();
  r.model = idx % grid.models.size();
  r.alpha = idx / grid.models.size();
  return r;
}

rm::RmConfig row_config(const rmsim::SweepRow& row) {
  rm::RmConfig config;
  config.policy = row.policy;
  config.model = row.model;
  config.energy.perfect = row.model == rm::PerfModelKind::Perfect;
  return config;
}

/// One pass over the grid the way SweepRunner::run does it at --threads=1
/// (one ExperimentRunner per alpha, whose idle cache starts cold, and one
/// reused RunScratch), timing each ExperimentRunner::run call. With a
/// recorder, every row is a span under `parent`.
std::vector<rmsim::SweepRow> run_rows(const workload::SimDb& db,
                                      const rmsim::SweepGrid& grid,
                                      rmsim::RunScratch& scratch,
                                      std::vector<std::uint64_t>* row_ns,
                                      Recorder* rec = nullptr, int parent = -1) {
  std::vector<std::unique_ptr<rmsim::ExperimentRunner>> runners;
  for (const double alpha : grid.qos_alphas) {
    rmsim::SimOptions sim;
    sim.qos_alpha_override = alpha;
    runners.push_back(std::make_unique<rmsim::ExperimentRunner>(db, sim));
  }
  std::vector<rmsim::SweepRow> rows(grid.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowIndex ri = decompose(grid, i);
    const workload::WorkloadMix& mix = grid.mixes[ri.mix];
    rmsim::SweepRow& row = rows[i];
    row.workload = mix.name;
    row.scenario = mix.scenario;
    row.policy = grid.policies[ri.policy];
    row.model = grid.models[ri.model];
    row.qos_alpha = grid.qos_alphas[ri.alpha];
    const rm::RmConfig config = row_config(row);
    const int span = rec ? rec->open("rmsim.row", parent, static_cast<long>(i)) : -1;
    const std::uint64_t t0 = now_ns();
    row.result = runners[ri.alpha]->run(mix, config, &scratch);
    const std::uint64_t t1 = now_ns();
    if (rec) rec->close(span);
    if (row_ns) row_ns->push_back(t1 - t0);
  }
  return rows;
}

std::uint64_t sweep_report_fingerprint(const workload::SimDb& db,
                                       const rmsim::SweepGrid& grid) {
  const std::uint64_t db_fp = workload::simdb_fingerprint(
      db.suite(), db.system(), db.phase_options());
  return rmsim::sweep_fingerprint(grid, rmsim::SimOptions{}, db_fp);
}

/// Builds the figure report and writes it (the output stage of every
/// sweep_main --report-json run).
std::string write_sweep_report(const workload::SimDb& db,
                               const rmsim::SweepGrid& grid,
                               const std::vector<rmsim::SweepRow>& rows,
                               const std::string& path) {
  const rmsim::FigureReport report = rmsim::build_figure_report(
      rows, grid.shape(), sweep_report_fingerprint(db, grid),
      rmsim::scenario_weights(db.suite()));
  std::string json = rmsim::figure_report_json(report);
  std::string error;
  if (!rmsim::write_report_json(report, path, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  return json;
}

bool same_run(const rmsim::RunResult& a, const rmsim::RunResult& b) {
  if (a.cores.size() != b.cores.size()) return false;
  for (std::size_t k = 0; k < a.cores.size(); ++k) {
    const rmsim::CoreResult& x = a.cores[k];
    const rmsim::CoreResult& y = b.cores[k];
    if (x.app != y.app || x.counted_energy_j != y.counted_energy_j ||
        x.intervals != y.intervals || x.qos_violations != y.qos_violations ||
        x.violation_sum != y.violation_sum) {
      return false;
    }
  }
  return a.uncore_energy_j == b.uncore_energy_j &&
         a.wall_time_s == b.wall_time_s && a.rm_invocations == b.rm_invocations &&
         a.rm_ops == b.rm_ops;
}

bool same_aggregates(const std::vector<rmsim::SweepAggregate>& a,
                     const std::vector<rmsim::SweepAggregate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].policy != b[i].policy || a[i].model != b[i].model ||
        a[i].qos_alpha != b[i].qos_alpha ||
        a[i].weighted_savings != b[i].weighted_savings ||
        a[i].mean_savings != b[i].mean_savings ||
        a[i].mean_violation_rate != b[i].mean_violation_rate) {
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string();
}

/// Invariant checks on one grid's rows: every non-idle row invoked the RM
/// and has a finite saving, the rows equal SweepRunner's own output, and the
/// aggregates recomputed through compute_aggregates match SweepRunner's.
void check_sweep_rows(const workload::SimDb& db, const rmsim::SweepGrid& grid,
                      const std::vector<rmsim::SweepRow>& rows,
                      const rmsim::SweepResult& official, Checks& checks) {
  const std::vector<rmsim::SweepAggregate> aggregates = rmsim::compute_aggregates(
      rows, grid.shape(), rmsim::scenario_weights(db.suite()));
  const bool aggregates_match = same_aggregates(aggregates, official.aggregates);
  if (!aggregates_match) {
    std::fprintf(stderr, "perfbench: aggregates differ from SweepRunner's\n");
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const rmsim::SweepRow& row = rows[i];
    bool ok = aggregates_match && i < official.rows.size() &&
              same_run(row.result.run, official.rows[i].result.run) &&
              row.result.savings == official.rows[i].result.savings;
    if (row.policy != rm::RmPolicy::Idle) {
      ok = ok && row.result.run.rm_invocations > 0 &&
           std::isfinite(row.result.savings);
    }
    checks.expect(ok, "row " + std::to_string(i) + " (" + row.workload + ", " +
                          rm::rm_policy_name(row.policy) + ")");
  }
}

/// Intervals, ids and labels of every row, for run.py's reductions.
std::string rows_table_json(const rmsim::SweepGrid& grid,
                            const std::vector<rmsim::SweepRow>& rows) {
  std::vector<std::string> items;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowIndex ri = decompose(grid, i);
    JsonObject o;
    o.str("policy", rm::rm_policy_name(rows[i].policy))
        .u64("mix", ri.mix)
        .u64("model", ri.model)
        .u64("alpha", ri.alpha)
        .u64("intervals", rows[i].result.run.total_intervals())
        .u64("rm_invocations", rows[i].result.run.rm_invocations);
    items.push_back(o.text());
  }
  return jarray(items);
}

/// Modelled outcomes of one grid at alpha = 1: the paper's Fig. 6/7/9
/// numbers for RM3 under model3 (and its perfect-oracle gap when the grid
/// has the perfect model).
std::string sweep_modelled_json(const workload::SimDb& db,
                                const rmsim::SweepGrid& grid,
                                const std::vector<rmsim::SweepRow>& rows) {
  const rmsim::FigureReport report = rmsim::build_figure_report(
      rows, grid.shape(), 0, rmsim::scenario_weights(db.suite()));
  JsonObject m;
  auto is_target = [](rm::RmPolicy p, rm::PerfModelKind k, double a) {
    return p == rm::RmPolicy::Rm3 && k == rm::PerfModelKind::Model3 && a == 1.0;
  };
  for (const rmsim::Fig6Entry& e : report.fig6) {
    if (is_target(e.policy, e.model, e.qos_alpha)) {
      m.num("energy_savings", e.weighted_savings);
    }
  }
  for (const rmsim::Fig7Entry& e : report.fig7) {
    if (is_target(e.policy, e.model, e.qos_alpha)) {
      m.num("violation_rate", e.mean_violation_rate);
    }
  }
  for (const rmsim::Fig9Entry& e : report.fig9) {
    if (is_target(e.policy, e.model, e.qos_alpha)) {
      m.num("model_gap", std::fabs(e.weighted_gap));
    }
  }
  double energy = 0.0;
  std::uint64_t apps = 0;
  for (const rmsim::SweepRow& row : rows) {
    if (!is_target(row.policy, row.model, row.qos_alpha)) continue;
    for (const rmsim::CoreResult& c : row.result.run.cores) {
      energy += c.counted_energy_j;
      ++apps;
    }
  }
  m.num("energy_per_app_j", apps ? energy / static_cast<double>(apps) : 0.0);
  return m.text();
}

/// One timed repetition: its wall time and the part of it outside the timed
/// units (rows or steps) recorded in `unit_ns` from index `first`.
std::string repetition_json(std::uint64_t wall_ns,
                            const std::vector<std::uint64_t>& unit_ns,
                            std::size_t first) {
  std::uint64_t units = 0;
  for (std::size_t i = first; i < unit_ns.size(); ++i) units += unit_ns[i];
  return JsonObject()
      .u64("wall_ns", wall_ns)
      .u64("other_ns", wall_ns > units ? wall_ns - units : 0)
      .text();
}

/// Runs the timed passes: each pass is the whole grid plus building and
/// writing its figure report. Returns the rows of the first pass.
std::vector<rmsim::SweepRow> timed_sweep_passes(
    const workload::SimDb& db, const rmsim::SweepGrid& grid, double seconds,
    const std::string& report_path, std::vector<std::string>* passes,
    std::vector<std::uint64_t>* row_ns, Checks& checks) {
  rmsim::RunScratch scratch;
  std::vector<rmsim::SweepRow> first;
  const Window window(seconds);
  std::uint64_t t0 = 0;
  do {
    t0 = now_ns();
    const std::size_t first_row = row_ns->size();
    std::vector<rmsim::SweepRow> rows = run_rows(db, grid, scratch, row_ns);
    write_sweep_report(db, grid, rows, report_path);
    passes->push_back(repetition_json(now_ns() - t0, *row_ns, first_row));
    if (first.empty()) {
      first = std::move(rows);
    } else {
      // Every pass must reproduce the first one bit for bit.
      bool same = rows.size() == first.size();
      for (std::size_t i = 0; same && i < rows.size(); ++i) {
        same = same_run(rows[i].result.run, first[i].result.run);
      }
      checks.expect(same, "pass " + std::to_string(passes->size()) +
                              " differs from the first pass");
    }
  } while (window.fits_another(t0));
  return first;
}

/// Golden check: the code path of this workload must reproduce the
/// committed golden report byte for byte.
void check_golden(const workload::SimDb& db, const SweepSpec& spec,
                  const Options& opt, Checks& checks) {
  const rmsim::SweepGrid grid =
      make_grid(spec, kReferenceSeed, spec.golden_per_scenario,
                spec.golden_policies, spec.golden_models);
  rmsim::RunScratch scratch;
  const std::vector<rmsim::SweepRow> rows = run_rows(db, grid, scratch, nullptr);
  const std::string produced = write_sweep_report(
      db, grid, rows, opt.out_dir + "/golden_check_report.json");
  const std::string golden = read_file(opt.golden_dir + "/" + spec.golden_report);
  checks.expect(!golden.empty() && produced == golden,
                "report differs from " + spec.golden_report, rows.size());
}

void run_sweep_untraced(const Options& opt, JsonObject& out, Checks& checks,
                        std::vector<std::uint64_t>* row_ns) {
  const SweepSpec spec = sweep_spec(opt.workload);
  const qosrm::arch::SystemConfig sys = system_for(kCores, spec.bw_shares);
  const qosrm::power::PowerModel power;

  std::vector<double> setup_s;
  const std::optional<workload::SimDb> db =
      set_up_timed_db(sys, power, opt, &setup_s, checks);

  const rmsim::SweepGrid grid =
      make_grid(spec, opt.seed, kPerScenario, spec.policies, spec.models);
  std::vector<std::string> passes;
  const std::vector<rmsim::SweepRow> rows =
      timed_sweep_passes(*db, grid, opt.seconds, opt.out_dir + "/report.json",
                         &passes, row_ns, checks);
  const double rss_kib = peak_rss_kib();

  rmsim::SweepOptions sweep_options;
  sweep_options.threads = 1;
  check_sweep_rows(*db, grid, rows,
                   rmsim::SweepRunner(*db, sweep_options).run(grid), checks);
  check_golden(*db, spec, opt, checks);

  // Modelled outcomes come from the grid at the reference seed, so they are
  // one fixed number per commit whatever seed the host loop runs.
  std::vector<rmsim::SweepRow> reference_rows;
  rmsim::SweepGrid reference_grid = grid;
  if (opt.seed == kReferenceSeed) {
    reference_rows = rows;
  } else {
    reference_grid =
        make_grid(spec, kReferenceSeed, kPerScenario, spec.policies, spec.models);
    rmsim::RunScratch scratch;
    reference_rows = run_rows(*db, reference_grid, scratch, nullptr);
  }

  std::vector<std::string> setup_items;
  for (const double s : setup_s) setup_items.push_back(jnum(s));
  out.add("setup_s", jarray(setup_items))
      .add("repetitions", jarray(passes))
      .u64("units", grid.size())
      .u64("timed_threads", 1)
      .add("rows", rows_table_json(grid, rows))
      .add("modelled", sweep_modelled_json(*db, reference_grid, reference_rows))
      .add("seeded_modelled", sweep_modelled_json(*db, grid, rows))
      .num("peak_rss_kib", rss_kib);
}

// --- traced sweep run ------------------------------------------------------

/// What one completed interval looked like, as the simulator's observer saw
/// it; enough to rebuild the boundary snapshot the RM was handed.
struct Boundary {
  int core = 0;
  int app = 0;
  int phase = 0;
  workload::Setting setting{};
};

/// Replays one row's RM invocation sequence outside the simulator:
///   1. IntervalSimulator::run with an observer records every core's
///      (app, phase, setting) per interval;
///   2. the invoke replay rebuilds each boundary snapshot through
///      make_snapshot_into and hands it to a fresh ResourceManager with the
///      row's RmConfig, timing both calls;
///   3. for the local/global RM policies, the decomposed replay runs the
///      optimizer pieces separately: LocalOptimizer::optimize_into for each
///      core needing a curve, then GlobalOptimizer::optimize_into.
/// Both replays must charge exactly the row's rm_invocations and rm_ops.
void replay_row(const workload::SimDb& db, const rmsim::SweepRow& row, long row_id,
                Recorder& rec, int parent, Checks& checks) {
  const rm::RmConfig config = row_config(row);
  rmsim::SimOptions sim_options;
  sim_options.qos_alpha_override = row.qos_alpha;
  qosrm::arch::SystemConfig sys = db.system();
  sys.qos_alpha = row.qos_alpha;
  const int cores = sys.cores;
  const bool perfect = config.model == rm::PerfModelKind::Perfect;
  const workload::Setting base = workload::baseline_setting(sys);
  std::string policy = rm::rm_policy_name(row.policy);
  for (char& c : policy) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

  std::vector<Boundary> seq;
  const workload::WorkloadMix mix{row.workload, row.scenario, [&] {
                                    std::vector<int> apps;
                                    for (const auto& c : row.result.run.cores) {
                                      apps.push_back(c.app);
                                    }
                                    return apps;
                                  }()};
  const rmsim::IntervalSimulator sim(db, sim_options);
  const rmsim::RunResult observed = sim.run(
      mix, config, [&](const rmsim::IntervalObservation& o) {
        seq.push_back({o.core, o.app, o.phase, o.setting});
      });
  checks.expect(same_run(observed, row.result.run),
                "observed rerun of row " + std::to_string(row_id));

  // The last interval of each core ends its run: no invocation follows it.
  std::vector<std::size_t> last(static_cast<std::size_t>(cores), 0);
  for (std::size_t i = 0; i < seq.size(); ++i) {
    last[static_cast<std::size_t>(seq[i].core)] = i;
  }
  auto phase_at = [&](int app, std::size_t pos) {
    const std::vector<int>& s = db.suite().app(app).phase_sequence;
    return s[pos % s.size()];
  };
  // Walks the recorded boundaries the way the simulator invokes the RM:
  // cold-start snapshots at the baseline setting, then at every boundary
  // the finished interval's snapshot (oracle phase under perfect: the next
  // entry of the app's phase sequence) and `invoke(core, snapshots)`, with
  // no invocation after a core's last interval.
  auto replay = [&](Series* snapshot_timing, auto&& invoke) {
    std::vector<rm::CounterSnapshot> snaps(static_cast<std::size_t>(cores));
    for (std::size_t k = 0; k < snaps.size(); ++k) {
      const int app = row.result.run.cores[k].app;
      const int phase0 = phase_at(app, 0);
      const std::uint64_t t0 = now_ns();
      rmsim::make_snapshot_into(db, app, phase0, base, perfect ? phase0 : -1,
                                snaps[k]);
      if (snapshot_timing) snapshot_timing->add(now_ns() - t0);
    }
    std::vector<std::size_t> done(static_cast<std::size_t>(cores), 0);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const Boundary& b = seq[i];
      const std::size_t k = static_cast<std::size_t>(b.core);
      ++done[k];
      if (i == last[k]) continue;
      const std::uint64_t t0 = now_ns();
      rmsim::make_snapshot_into(db, b.app, b.phase, b.setting,
                                perfect ? phase_at(b.app, done[k]) : -1, snaps[k]);
      if (snapshot_timing) snapshot_timing->add(now_ns() - t0);
      invoke(b.core, snaps);
    }
  };
  auto reconcile = [&](const char* what, std::uint64_t calls, std::uint64_t ops) {
    const rmsim::RunResult& run = row.result.run;
    checks.expect(calls == run.rm_invocations && ops == run.rm_ops,
                  std::string(what) + " replay of row " + std::to_string(row_id) +
                      ": " + std::to_string(calls) + " calls / " +
                      std::to_string(ops) + " ops vs " +
                      std::to_string(run.rm_invocations) + " / " +
                      std::to_string(run.rm_ops));
  };

  // --- invoke replay -------------------------------------------------------
  {
    const int span = rec.open("rmsim.replay.invoke", parent, row_id);
    Series& snap_series = rec.series("rmsim.snapshot", span);
    Series& invoke_series = rec.series("rm.invoke." + policy, span);
    rm::ResourceManager manager(config, sys, db.power());
    std::unordered_set<std::int64_t> seen_keys;
    replay(&snap_series, [&](int core, const std::vector<rm::CounterSnapshot>& snaps) {
      const std::uint64_t t0 = now_ns();
      const rm::RmDecision& decision = manager.invoke(core, snaps);
      invoke_series.add(now_ns() - t0, decision.ops);
      if (!decision.feasible) ++invoke_series.infeasible;
      const std::int64_t key = snaps[static_cast<std::size_t>(core)].memo_key;
      if (!seen_keys.insert(key).second) ++invoke_series.memo_repeats;
    });
    rec.close(span);
    reconcile("invoke", invoke_series.calls, invoke_series.ops);
  }

  // --- decomposed replay (local + global optimizer policies only) ----------
  if (rm::is_baseline_policy(row.policy)) return;
  const int span = rec.open("rmsim.replay.decomposed", parent, row_id);
  Series& local_series = rec.series("rm.local_opt", span);
  Series& global_series = rec.series("rm.global_dp", span);
  const rm::ResourceManager models(config, sys, db.power());
  rm::LocalOptOptions knobs;  // the knobs ResourceManager derives per policy
  knobs.allow_dvfs = row.policy == rm::RmPolicy::Rm2 || row.policy == rm::RmPolicy::Rm3;
  knobs.allow_resize = row.policy == rm::RmPolicy::Rm3;
  const rm::LocalOptimizer local(models.perf_model(), models.energy_model(), knobs);
  std::vector<rm::LocalOptResult> curves(static_cast<std::size_t>(cores));
  std::vector<char> valid(static_cast<std::size_t>(cores), 0);
  std::vector<std::vector<double>> energy(static_cast<std::size_t>(cores));
  std::vector<rm::EnergyCurveView> views;
  rm::GlobalOptWorkspace ws;
  rm::GlobalOptResult result;
  std::uint64_t ops = 0, invocations = 0;
  replay(nullptr, [&](int core, const std::vector<rm::CounterSnapshot>& snaps) {
    ++invocations;
    // A fresh curve for the invoking core; cold starts for cores without
    // one, which (as in ResourceManager::invoke) are not charged.
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const bool fresh = static_cast<int>(c) == core;
      if (!fresh && valid[c]) continue;
      std::uint64_t local_ops = 0;
      const std::uint64_t t0 = now_ns();
      local.optimize_into(snaps[c], curves[c], &local_ops);
      local_series.add(now_ns() - t0, local_ops);
      if (fresh) ops += local_ops;
      valid[c] = 1;
      energy[c].resize(curves[c].choices.size());
      for (std::size_t j = 0; j < curves[c].choices.size(); ++j) {
        const rm::WayChoice& choice = curves[c].choices[j];
        energy[c][j] = choice.feasible ? choice.energy_j : rm::kInfeasibleEnergy;
      }
    }
    views.clear();
    for (std::size_t c = 0; c < curves.size(); ++c) {
      views.push_back({curves[c].min_ways, std::span<const double>(energy[c]),
                       curves[c].min_shares, curves[c].num_shares});
    }
    std::uint64_t global_ops = 0;
    const std::uint64_t t0 = now_ns();
    rm::GlobalOptimizer::optimize_into(views, sys.total_ways(), sys.total_shares(),
                                       ws, result, &global_ops);
    global_series.add(now_ns() - t0, global_ops);
    ops += global_ops;
  });
  rec.close(span);
  reconcile("decomposed", invocations, ops);
}

/// Saves `part` as one part file, loads it back and merges it: the
/// single-process cost of the sharded output path. The merged rows must
/// equal the saved ones (`same_row`). Returns the file's size in bytes.
template <typename Part, typename Save, typename Load, typename Merge,
          typename SameRow>
std::uint64_t shard_roundtrip(const Part& part, const std::string& path, Save save,
                              Load load, Merge merge, SameRow same_row,
                              Recorder& rec, Checks& checks) {
  const int span = rec.open("rmsim.shard");
  std::string error;
  bool ok = save(part, path, &error);
  std::optional<Part> loaded;
  if (ok) loaded = load(path, &error);
  std::optional<decltype(part.rows)> merged;
  if (loaded) {
    std::vector<Part> parts;
    parts.push_back(std::move(*loaded));
    merged = merge(std::move(parts), &error);
  }
  rec.close(span);
  ok = ok && merged.has_value() && merged->size() == part.rows.size();
  for (std::size_t i = 0; ok && i < part.rows.size(); ++i) {
    ok = same_row((*merged)[i], part.rows[i]);
  }
  checks.expect(ok, "part round trip: " + error);
  std::error_code ec;
  return static_cast<std::uint64_t>(std::filesystem::file_size(path, ec));
}

/// The set-up of a traced run: one timed cold build, then a timed
/// save_simdb + load_simdb round trip (the --db-cache hit path, which only
/// rebuilds the evaluation table). Returns the built database.
std::optional<workload::SimDb> set_up_traced_db(
    const qosrm::arch::SystemConfig& sys, const qosrm::power::PowerModel& power,
    const Options& opt, Recorder& rec, JsonObject& out, Checks& checks) {
  std::vector<double> build_s;
  const int build = rec.open("workload.db_build");
  std::optional<workload::SimDb> db =
      build_db(sys, power, 1, opt.build_threads, &build_s);
  rec.close(build);
  const std::string path = opt.out_dir + "/db.qosdb";
  std::string error;
  const bool saved = workload::save_simdb(*db, path, &error);
  const int load = rec.open("workload.db_load");
  const std::optional<workload::SimDb> loaded =
      saved ? workload::load_simdb(db->suite(), db->system(), db->power(),
                                   db->phase_options(), path, &error)
            : std::nullopt;
  rec.close(load);
  checks.expect(loaded.has_value(), "db snapshot round trip: " + error);
  std::filesystem::remove(path);
  const Span& load_span = rec.spans()[static_cast<std::size_t>(load)];
  out.num("db_build_s", build_s.front())
      .num("db_load_s",
           static_cast<double>(load_span.end_ns - load_span.start_ns) * 1e-9);
  return db;
}

/// Alternates untraced and traced passes until the window is used; the
/// difference of their median wall times is the tracing overhead. `pass`
/// runs one pass, recording spans under the given parent when the recorder
/// is non-null.
template <typename Pass>
void alternate_passes(double seconds, Recorder& rec, Pass&& pass,
                      JsonObject& out) {
  std::vector<std::string> untraced, traced;
  const Window window(seconds);
  std::uint64_t pair_start = 0;
  do {
    pair_start = now_ns();
    pass(nullptr, -1);
    untraced.push_back(jnum(now_ns() - pair_start));
    const std::uint64_t t0 = now_ns();
    const int span = rec.open("rmsim.pass");
    pass(&rec, span);
    rec.close(span);
    traced.push_back(jnum(now_ns() - t0));
  } while (window.fits_another(pair_start));
  out.add("untraced_pass_ns", jarray(untraced))
      .add("traced_pass_ns", jarray(traced));
}

void run_sweep_traced(const Options& opt, JsonObject& out, Recorder& rec,
                      Checks& checks) {
  const SweepSpec spec = sweep_spec(opt.workload);
  const std::optional<workload::SimDb> db = set_up_traced_db(
      system_for(kCores, spec.bw_shares), qosrm::power::PowerModel(), opt, rec,
      out, checks);
  const rmsim::SweepGrid grid =
      make_grid(spec, opt.seed, kPerScenario, spec.policies, spec.models);

  rmsim::RunScratch scratch;
  std::vector<rmsim::SweepRow> rows;
  alternate_passes(opt.seconds, rec, [&](Recorder* r, int pass) {
    rows = run_rows(*db, grid, scratch, nullptr, r, pass);
    const int report = r ? r->open("rmsim.report", pass) : -1;
    write_sweep_report(*db, grid, rows, opt.out_dir + "/report.json");
    if (r) r->close(report);
  }, out);

  const int replay = rec.open("rmsim.replay");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].policy == rm::RmPolicy::Idle) continue;
    replay_row(*db, rows[i], static_cast<long>(i), rec, replay, checks);
  }
  rec.close(replay);

  rmsim::SweepPart part;
  part.fingerprint = sweep_report_fingerprint(*db, grid);
  part.shape = grid.shape();
  part.range = rmsim::shard_range(grid.size(), 0, 1);
  part.rows = rows;
  const std::uint64_t shard_bytes = shard_roundtrip(
      part, opt.out_dir + "/rows.qospart", rmsim::save_sweep_part,
      rmsim::load_sweep_part, rmsim::merge_sweep_parts,
      [](const rmsim::SweepRow& a, const rmsim::SweepRow& b) {
        return same_run(a.result.run, b.result.run);
      },
      rec, checks);

  out.add("rows", rows_table_json(grid, rows)).u64("shard_bytes", shard_bytes);
}

// ---------------------------------------------------------------------------
// Service workload.
// ---------------------------------------------------------------------------

/// Runs every grid point: engine construction, then one step() per event
/// until drained. `step_ns` receives every step's duration; with a recorder,
/// each point is a span with the construction as a child span and the steps
/// as a series.
std::vector<rmsim::ServiceRow> run_points(const workload::SimDb& db,
                                          const rmsim::ServiceGrid& grid,
                                          const rmsim::ServiceConfig& config,
                                          std::vector<std::uint64_t>* step_ns,
                                          Recorder* rec = nullptr, int parent = -1,
                                          const std::string& prefix = "rmsim",
                                          bool time_each_step = true) {
  std::vector<rmsim::ServiceRow> rows(grid.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const rmsim::ServicePoint point = grid.point(i);
    rmsim::ServiceRow& row = rows[i];
    row.pattern = point.pattern;
    row.load = point.load;
    row.admission = point.admission;
    row.policy = point.policy;
    row.model = config.model;
    row.qos_alpha = point.qos_alpha;
    const long id = static_cast<long>(i);
    const int span = rec ? rec->open(prefix + ".row", parent, id) : -1;
    const int init = rec ? rec->open(prefix + ".service.init", span, id) : -1;
    rmsim::ServiceEngine engine(db, config, point);
    if (rec) rec->close(init);
    Series* steps = rec ? &rec->series(prefix + ".service.step", span) : nullptr;
    if (time_each_step) {
      for (;;) {
        const std::uint64_t t0 = now_ns();
        const bool more = engine.step();
        const std::uint64_t dt = now_ns() - t0;
        if (!more) break;
        if (step_ns) step_ns->push_back(dt);
        if (steps) steps->add(dt);
      }
    } else {
      // Steps too cheap to time one by one (a clock read would be a large
      // share of each): one duration for the whole loop.
      std::uint64_t n = 0;
      const std::uint64_t t0 = now_ns();
      while (engine.step()) ++n;
      if (steps) {
        steps->calls += n;
        steps->busy_ns += now_ns() - t0;
      }
    }
    row.metrics = engine.metrics();
    if (rec) rec->close(span);
  }
  return rows;
}

std::uint64_t service_report_fingerprint(const workload::SimDb& db,
                                         const rmsim::ServiceGrid& grid,
                                         const rmsim::ServiceConfig& config) {
  return rmsim::service_fingerprint(
      grid, config,
      workload::simdb_fingerprint(db.suite(), db.system(), db.phase_options()));
}

/// The service's output stage: the per-row service report plus the knee
/// report, both built and written.
void write_service_reports(const workload::SimDb& db, const rmsim::ServiceGrid& grid,
                           const rmsim::ServiceConfig& config,
                           const std::vector<rmsim::ServiceRow>& rows,
                           const std::string& dir) {
  const std::uint64_t fp = service_report_fingerprint(db, grid, config);
  std::string error;
  bool ok = rmsim::write_service_report_json(rows, grid.shape(), fp,
                                             dir + "/service_report.json", &error);
  const rmsim::ServiceKneeReport knee =
      rmsim::build_service_knee_report(rows, grid.shape(), fp);
  ok = ok && rmsim::write_service_knee_report_json(knee, dir + "/knee_report.json",
                                                   &error);
  if (!ok) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
}

bool same_service_metrics(const rmsim::ServiceMetrics& a,
                          const rmsim::ServiceMetrics& b) {
  return a.arrivals == b.arrivals && a.served == b.served &&
         a.rejected == b.rejected && a.intervals == b.intervals &&
         a.violations == b.violations && a.energy_total_j == b.energy_total_j &&
         a.rm_invocations == b.rm_invocations && a.rm_ops == b.rm_ops;
}

/// Accounting invariants at drain.
void check_service_rows(const std::vector<rmsim::ServiceRow>& rows,
                        std::size_t arrivals, bool managed, Checks& checks) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const rmsim::ServiceMetrics& m = rows[i].metrics;
    checks.expect(m.arrivals == arrivals && m.arrivals == m.served + m.rejected &&
                      m.qos_rejected <= m.rejected && m.violations <= m.intervals &&
                      m.intervals > 0 && (m.rm_invocations > 0) == managed,
                  "service point " + std::to_string(i) + " accounting");
  }
}

std::string service_rows_json(const std::vector<rmsim::ServiceRow>& rows) {
  std::vector<std::string> items;
  for (const rmsim::ServiceRow& row : rows) {
    const rmsim::ServiceMetrics& m = row.metrics;
    items.push_back(JsonObject()
                        .u64("arrivals", m.arrivals)
                        .u64("served", m.served)
                        .u64("rejected", m.rejected)
                        .u64("qos_rejected", m.qos_rejected)
                        .u64("intervals", m.intervals)
                        .u64("violations", m.violations)
                        .num("p99_violation", m.p99_violation)
                        .num("energy_per_app_j", m.energy_per_app_j)
                        .num("occupancy", m.occupancy)
                        .u64("rm_invocations", m.rm_invocations)
                        .text());
  }
  return jarray(items);
}

rmsim::ServiceGrid idle_companion_grid() {
  rmsim::ServiceGrid grid = service_grid();
  grid.policies = {rm::RmPolicy::Idle};
  return grid;
}

/// One replica of the service's timed passes (see run_service_untraced).
struct Replica {
  std::vector<std::uint64_t> step_ns;  ///< passes x steps, in step order
  std::vector<std::string> passes;     ///< repetition_json per pass
  std::vector<rmsim::ServiceRow> rows;  ///< of the first pass
  bool consistent = true;  ///< every later pass reproduced the first
};

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: unpinned is valid
}

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void run_service_replica(const workload::SimDb& db, const rmsim::ServiceGrid& grid,
                         const rmsim::ServiceConfig& config, double seconds,
                         const std::string& dir, int cpu, Replica* r) {
  pin_to_cpu(cpu);
  std::filesystem::create_directories(dir);
  const Window window(seconds);
  std::uint64_t t0 = 0;
  do {
    t0 = now_ns();
    const std::size_t first_step = r->step_ns.size();
    std::vector<rmsim::ServiceRow> rows = run_points(db, grid, config, &r->step_ns);
    write_service_reports(db, grid, config, rows, dir);
    r->passes.push_back(repetition_json(now_ns() - t0, r->step_ns, first_step));
    if (r->rows.empty()) {
      r->rows = std::move(rows);
    } else {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        r->consistent &= same_service_metrics(rows[i].metrics, r->rows[i].metrics);
      }
    }
  } while (window.fits_another(t0));
}

/// The service's timed passes run as concurrent replicas, one per CPU (at
/// most four), each pinned to its CPU and replaying the whole grid on its
/// own engines. The steps are deterministic, so every replica and pass
/// times the same step sequence: each step gets one sample per replica and
/// pass, which run.py reduces to the step's best time. A single 20-second
/// pass gives no repetition to take a best from, and the measurement host's
/// speed swings by about 1.8x on a scale of seconds.
void run_service_untraced(const Options& opt, JsonObject& out, Checks& checks,
                          std::vector<std::uint64_t>* step_ns) {
  const qosrm::arch::SystemConfig sys = system_for(kServiceCores, 1);
  const qosrm::power::PowerModel power;
  std::vector<double> setup_s;
  const std::optional<workload::SimDb> db =
      set_up_timed_db(sys, power, opt, &setup_s, checks);

  const rmsim::ServiceGrid grid = service_grid();
  const rmsim::ServiceConfig config = service_config(opt.seed);
  const std::vector<int> cpus = allowed_cpus();
  std::vector<Replica> replicas(std::min<std::size_t>(kServiceReplicas, cpus.size()));
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      threads.emplace_back(run_service_replica, std::cref(*db), std::cref(grid),
                           std::cref(config), opt.seconds,
                           opt.out_dir + "/replica" + std::to_string(i), cpus[i],
                           &replicas[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double rss_kib = peak_rss_kib();

  std::vector<std::string> passes;
  const std::vector<rmsim::ServiceRow>& first = replicas.front().rows;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const Replica& r = replicas[i];
    bool same = r.consistent;
    for (std::size_t k = 0; k < first.size(); ++k) {
      same = same && same_service_metrics(r.rows[k].metrics, first[k].metrics);
    }
    checks.expect(same, "replica " + std::to_string(i) +
                            " differs from replica 0 or from its first pass");
    step_ns->insert(step_ns->end(), r.step_ns.begin(), r.step_ns.end());
    passes.insert(passes.end(), r.passes.begin(), r.passes.end());
  }
  check_service_rows(first, config.arrivals, true, checks);

  const std::vector<rmsim::ServiceRow> idle =
      run_points(*db, idle_companion_grid(), config, nullptr);
  check_service_rows(idle, config.arrivals, false, checks);

  std::vector<std::string> setup_items;
  for (const double s : setup_s) setup_items.push_back(jnum(s));
  out.add("setup_s", jarray(setup_items))
      .add("repetitions", jarray(passes))
      .u64("units", passes.empty() ? 0 : step_ns->size() / passes.size())
      .u64("timed_threads", replicas.size())
      .add("service_rows", service_rows_json(first))
      .add("idle_rows", service_rows_json(idle))
      .num("peak_rss_kib", rss_kib);
}

/// generate_arrivals_into with the options ServiceEngine derives for each
/// (pattern, load) of the grid (one trace per pair, shared by every
/// admission and policy cell).
void time_arrival_generation(const workload::SimDb& db,
                             const rmsim::ServiceGrid& grid,
                             const rmsim::ServiceConfig& config, Recorder& rec) {
  workload::ArrivalTrace trace;
  for (const workload::ArrivalPattern pattern : grid.patterns) {
    for (const double load : grid.loads) {
      qosrm::Fnv1a64 seed_hash;
      seed_hash.add_u64(config.seed);
      seed_hash.add_u32(static_cast<std::uint32_t>(pattern));
      seed_hash.add_f64(load);
      workload::ArrivalGenOptions gen;
      gen.pattern = pattern;
      gen.load = load;
      gen.cores = db.system().cores;
      gen.count = config.arrivals;
      gen.seed = seed_hash.digest();
      gen.mean_service_time = rmsim::mean_baseline_interval_s(db) * 0.5 *
                              static_cast<double>(config.demand_min + config.demand_max);
      gen.num_apps = db.suite().size();
      gen.demand_min = config.demand_min;
      gen.demand_max = config.demand_max;
      const int span = rec.open("workload.arrivals");
      workload::generate_arrivals_into(gen, &trace);
      rec.close(span);
    }
  }
}

void run_service_traced(const Options& opt, JsonObject& out, Recorder& rec,
                        Checks& checks) {
  const std::optional<workload::SimDb> db = set_up_traced_db(
      system_for(kServiceCores, 1), qosrm::power::PowerModel(), opt, rec, out,
      checks);
  const rmsim::ServiceGrid grid = service_grid();
  const rmsim::ServiceConfig config = service_config(opt.seed);
  time_arrival_generation(*db, grid, config, rec);

  std::vector<rmsim::ServiceRow> rows;
  alternate_passes(opt.seconds, rec, [&](Recorder* r, int pass) {
    rows = run_points(*db, grid, config, nullptr, r, pass);
    const int report = r ? r->open("rmsim.report", pass) : -1;
    write_service_reports(*db, grid, config, rows, opt.out_dir);
    if (r) r->close(report);
  }, out);
  check_service_rows(rows, config.arrivals, true, checks);

  // The same points with policy idle: the engine's cost without any RM.
  const int idle_span = rec.open("rmsim.idle_pass");
  const std::vector<rmsim::ServiceRow> idle = run_points(
      *db, idle_companion_grid(), config, nullptr, &rec, idle_span, "rmsim.idle",
      false);
  rec.close(idle_span);

  rmsim::ServicePart part;
  part.fingerprint = service_report_fingerprint(*db, grid, config);
  part.shape = grid.shape();
  part.range = rmsim::shard_range(grid.size(), 0, 1);
  part.rows = rows;
  const std::uint64_t shard_bytes = shard_roundtrip(
      part, opt.out_dir + "/rows.qospart", rmsim::save_service_part,
      rmsim::load_service_part, rmsim::merge_service_parts,
      [](const rmsim::ServiceRow& a, const rmsim::ServiceRow& b) {
        return same_service_metrics(a.metrics, b.metrics);
      },
      rec, checks);

  out.add("service_rows", service_rows_json(rows))
      .add("idle_rows", service_rows_json(idle))
      .u64("shard_bytes", shard_bytes);
}

// ---------------------------------------------------------------------------
// Trace output.
// ---------------------------------------------------------------------------

/// Spans go into the JSON; each series' per-call durations are appended to
/// `bin` (uint32 ns, host byte order) and located by offset/count.
std::string trace_json(const Recorder& rec, std::ofstream& bin) {
  std::vector<std::string> spans;
  for (const Span& s : rec.spans()) {
    spans.push_back("[" + jstr(s.name) + "," + jnum(s.start_ns) + "," +
                    jnum(s.end_ns) + "," + std::to_string(s.parent) + "," +
                    std::to_string(s.row) + "]");
  }
  std::vector<std::string> series;
  std::uint64_t offset = 0;
  for (const Series& s : rec.all_series()) {
    bin.write(reinterpret_cast<const char*>(s.ns.data()),
              static_cast<std::streamsize>(s.ns.size() * sizeof(std::uint32_t)));
    series.push_back(JsonObject()
                         .str("name", s.name)
                         .add("parent", std::to_string(s.parent))
                         .u64("calls", s.calls)
                         .u64("busy_ns", s.busy_ns)
                         .u64("ops", s.ops)
                         .u64("infeasible", s.infeasible)
                         .u64("memo_repeats", s.memo_repeats)
                         .u64("offset", offset)
                         .u64("count", s.ns.size())
                         .text());
    offset += s.ns.size();
  }
  return JsonObject().add("spans", jarray(spans)).add("series", jarray(series)).text();
}

bool parse_options(int argc, char** argv, Options* opt) {
  const qosrm::CliArgs args(argc, argv);
  opt->workload = args.get("workload", "");
  opt->seed = static_cast<std::uint64_t>(args.get_int("seed", kReferenceSeed));
  opt->seconds = args.get_double("seconds", 10.0);
  opt->trace = args.get_int("trace", 0) != 0;
  opt->out_dir = args.get("out", "");
  opt->golden_dir = args.get("golden-dir", "tests/data");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt->build_threads = static_cast<int>(std::min(4u, hw));
  const bool known = opt->workload == "paper-grid" || opt->workload == "cbp-grid" ||
                     opt->workload == "service-knee64";
  if (!known || opt->out_dir.empty() || !(opt->seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench_main --workload=paper-grid|cbp-grid|"
                 "service-knee64 --out=DIR [--seed=N] [--seconds=S] "
                 "[--trace=0|1] [--golden-dir=DIR]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  std::filesystem::create_directories(opt.out_dir);

  JsonObject out;
  out.str("workload", opt.workload)
      .u64("seed", opt.seed)
      .num("seconds", opt.seconds)
      .add("trace", opt.trace ? "true" : "false")
      .add("context", host_context_json(opt.build_threads));
  Checks checks;
  Recorder rec;
  std::ofstream bin(opt.out_dir + "/samples.bin", std::ios::binary | std::ios::trunc);
  const bool service = opt.workload == "service-knee64";
  if (opt.trace) {
    if (service) {
      run_service_traced(opt, out, rec, checks);
    } else {
      run_sweep_traced(opt, out, rec, checks);
    }
    out.add("trace_data", trace_json(rec, bin));
  } else {
    // The timed units, one block per repetition: grid rows
    // (ExperimentRunner::run) on the sweeps, ServiceEngine::step() calls on
    // the service.
    std::vector<std::uint64_t> unit_ns;
    if (service) {
      run_service_untraced(opt, out, checks, &unit_ns);
    } else {
      run_sweep_untraced(opt, out, checks, &unit_ns);
    }
    std::vector<std::uint32_t> samples;
    for (const std::uint64_t ns : unit_ns) {
      samples.push_back(static_cast<std::uint32_t>(
          std::min<std::uint64_t>(ns, UINT32_MAX)));
    }
    bin.write(reinterpret_cast<const char*>(samples.data()),
              static_cast<std::streamsize>(samples.size() * sizeof(std::uint32_t)));
  }
  std::vector<std::string> messages;
  for (const std::string& m : checks.messages) messages.push_back(jstr(m));
  out.u64("attempted", checks.attempted)
      .u64("failed", checks.failed)
      .add("messages", jarray(messages));
  std::ofstream(opt.out_dir + "/result.json") << out.text() << "\n";
  return checks.failed == 0 ? 0 : 1;
}
