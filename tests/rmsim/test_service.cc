// Integration tests for the colocation-service engine: metric sanity,
// bit-exact determinism across repeats, thread counts and range slicing,
// service-part save/load/merge, and the queue/rejection edge cases.
//
// Builds the full simulation database (tests/support/shared_db.hh), so the
// whole binary carries LABELS slow.
#include "rmsim/service.hh"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rmsim/report.hh"
#include "rmsim/shard.hh"
#include "support/rows.hh"
#include "support/shared_db.hh"
#include "workload/db_io.hh"

namespace qosrm::rmsim {
namespace {

/// Small but non-trivial run: enough arrivals to exercise queueing,
/// departures and violations at 2 cores in well under a second per point.
ServiceConfig small_config() {
  ServiceConfig config;
  config.arrivals = 300;
  config.seed = 99;
  config.demand_min = 10;
  config.demand_max = 40;
  return config;
}

ServiceGrid small_grid() {
  ServiceGrid grid;
  grid.patterns = {workload::ArrivalPattern::Poisson,
                   workload::ArrivalPattern::Bursty};
  grid.loads = {0.7};
  grid.admissions = {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
                     AdmissionPolicy::QosAware};
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm3};
  grid.qos_alphas = {0.0};
  return grid;
}

void expect_rows_equal(const std::vector<ServiceRow>& a,
                       const std::vector<ServiceRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    qosrm::testing::expect_service_rows_identical(a[i], b[i]);
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Service, MetricsAreSane) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.load = 0.7;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics m = engine.run();

  EXPECT_EQ(m.arrivals, small_config().arrivals);
  EXPECT_EQ(m.arrivals, m.served + m.rejected);
  EXPECT_GT(m.served, 0u);
  EXPECT_GT(m.intervals, 0u);
  EXPECT_GT(m.wall_time_s, 0.0);
  EXPECT_GT(m.energy_total_j, 0.0);
  EXPECT_GT(m.uncore_energy_j, 0.0);
  EXPECT_LT(m.uncore_energy_j, m.energy_total_j);
  EXPECT_GT(m.energy_per_app_j, 0.0);
  EXPECT_GT(m.occupancy, 0.0);
  EXPECT_LE(m.occupancy, 1.0);
  EXPECT_GE(m.mean_wait_s, 0.0);
  EXPECT_GT(m.rm_invocations, 0u);
  EXPECT_GT(m.decisions_per_sec, 0.0);
  EXPECT_LE(m.violations, m.intervals);
  if (m.violations > 0) {
    EXPECT_GT(m.p99_violation, 0.0);
    EXPECT_GE(m.p99_violation, m.p50_violation);
    EXPECT_GE(m.max_violation, m.p99_violation);
  }
}

TEST(Service, RunIsRepeatable) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.pattern = workload::ArrivalPattern::Bursty;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics first = engine.run();
  const ServiceMetrics second = engine.run();  // reset() + replay
  ServiceEngine other(db, small_config(), point);
  const ServiceMetrics fresh = other.run();

  std::vector<ServiceRow> a(1), b(1), c(1);
  a[0].metrics = first;
  b[0].metrics = second;
  c[0].metrics = fresh;
  expect_rows_equal(a, b);
  expect_rows_equal(a, c);
}

TEST(Service, ThreadCountDoesNotChangeRows) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceOptions serial;
  serial.threads = 1;
  ServiceOptions parallel;
  parallel.threads = 4;
  const ServiceResult a = run_service(db, small_grid(), small_config(), serial);
  const ServiceResult b =
      run_service(db, small_grid(), small_config(), parallel);
  ASSERT_EQ(a.rows.size(), small_grid().size());
  expect_rows_equal(a.rows, b.rows);
}

TEST(Service, RangeSlicingMatchesFullRun) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  const ServiceGrid grid = small_grid();
  const ServiceConfig config = small_config();
  const ServiceResult full = run_service(db, grid, config);

  const std::size_t mid = grid.size() / 2;
  std::vector<ServiceRow> sliced = run_service_range(db, grid, config, 0, mid);
  const std::vector<ServiceRow> tail =
      run_service_range(db, grid, config, mid, grid.size());
  sliced.insert(sliced.end(), tail.begin(), tail.end());
  expect_rows_equal(full.rows, sliced);
}

TEST(Service, PartRoundtripAndMerge) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  const ServiceGrid grid = small_grid();
  const ServiceConfig config = small_config();
  const std::uint64_t db_fp = workload::simdb_fingerprint(
      db.suite(), db.system(), db.phase_options());
  const std::uint64_t fingerprint = service_fingerprint(grid, config, db_fp);
  const ServiceResult full = run_service(db, grid, config);

  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    ServicePart part;
    part.fingerprint = fingerprint;
    part.shape = grid.shape();
    part.shard_index = i;
    part.shard_count = 2;
    part.range = shard_range(grid.size(), i, 2);
    part.rows = run_service_range(db, grid, config, part.range.begin,
                                  part.range.end);
    paths.push_back(temp_path("service_part_" + std::to_string(i) + ".qospart"));
    std::string error;
    ASSERT_TRUE(save_service_part(part, paths.back(), &error)) << error;

    const std::optional<ServicePart> loaded =
        load_service_part(paths.back(), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->fingerprint, fingerprint);
    EXPECT_EQ(loaded->range, part.range);
    expect_rows_equal(part.rows, loaded->rows);
  }

  std::string error;
  ServiceIdentity identity;
  const std::optional<std::vector<ServiceRow>> merged =
      merge_part_files<ServiceCodec>(paths, &fingerprint, &error, &identity);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(identity.fingerprint, fingerprint);
  EXPECT_TRUE(identity.shape == grid.shape());
  expect_rows_equal(full.rows, *merged);

  // A foreign fingerprint must be rejected, never silently merged.
  const std::uint64_t wrong = fingerprint + 1;
  EXPECT_FALSE(merge_part_files<ServiceCodec>(paths, &wrong, &error).has_value());
  EXPECT_NE(error.find("different service sweep"), std::string::npos) << error;

  // The merged rows feed a byte-stable report.
  const std::string json =
      service_report_json(*merged, grid.shape(), fingerprint);
  EXPECT_EQ(json, service_report_json(full.rows, grid.shape(), fingerprint));
  EXPECT_NE(json.find("qosrm-service-report"), std::string::npos);
  EXPECT_NE(json.find("p99_violation"), std::string::npos);

  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(Service, IdlePolicyNeverInvokesTheRm) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServicePoint point;
  point.policy = rm::RmPolicy::Idle;
  ServiceEngine engine(db, small_config(), point);
  const ServiceMetrics m = engine.run();
  EXPECT_EQ(m.rm_invocations, 0u);
  EXPECT_EQ(m.rm_ops, 0u);
  EXPECT_EQ(m.decisions_per_sec, 0.0);
  EXPECT_GT(m.served, 0u);
}

TEST(Service, FullQueueRejectsInsteadOfLosingArrivals) {
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 1;
  ServicePoint point;
  point.load = 4.0;  // heavy overload: the 1-slot queue must overflow
  ServiceEngine engine(db, config, point);
  const ServiceMetrics m = engine.run();
  EXPECT_GT(m.rejected, 0u);
  EXPECT_EQ(m.arrivals, m.served + m.rejected);
}

TEST(Service, FingerprintSeparatesDifferentRuns) {
  const ServiceGrid grid = small_grid();
  const ServiceConfig config = small_config();
  const std::uint64_t fp = service_fingerprint(grid, config, 42);
  EXPECT_EQ(fp, service_fingerprint(grid, config, 42));
  EXPECT_NE(fp, service_fingerprint(grid, config, 43));

  ServiceConfig other = config;
  other.seed = config.seed + 1;
  EXPECT_NE(fp, service_fingerprint(grid, other, 42));
  other = config;
  other.queue_capacity = 7;
  EXPECT_NE(fp, service_fingerprint(grid, other, 42));

  ServiceGrid wider = grid;
  wider.loads.push_back(1.1);
  EXPECT_NE(fp, service_fingerprint(wider, config, 42));

  ServiceGrid more_admissions = grid;
  more_admissions.admissions = {AdmissionPolicy::Fifo};
  EXPECT_NE(fp, service_fingerprint(more_admissions, config, 42));
}

TEST(Service, AdmissionCellsConserveArrivalsOnIdenticalTraces) {
  // All admission policies of one (pattern, load) face byte-identical
  // arrival traces: same arrival count, and arrivals = served + rejected
  // under every policy - an admission policy may turn arrivals away, never
  // lose them.
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 8;
  for (const AdmissionPolicy admission :
       {AdmissionPolicy::Fifo, AdmissionPolicy::Sdf,
        AdmissionPolicy::QosAware}) {
    SCOPED_TRACE(admission_policy_name(admission));
    ServicePoint point;
    point.load = 3.0;  // overload so the queue and rejection paths engage
    point.admission = admission;
    ServiceEngine engine(db, config, point);
    const ServiceMetrics m = engine.run();
    EXPECT_EQ(m.arrivals, config.arrivals);
    EXPECT_EQ(m.arrivals, m.served + m.rejected);
    EXPECT_LE(m.qos_rejected, m.rejected);
    if (admission != AdmissionPolicy::QosAware) {
      EXPECT_EQ(m.qos_rejected, 0u);  // only qos-aware rejects by predicate
    }
  }
}

TEST(Service, SdfReordersTheQueueUnderOverload) {
  // Under heavy overload smallest-demand-first must release the queue in a
  // different order than FIFO - the fixed-seed runs are deterministic, so a
  // genuine behavioural difference shows up as different mean queueing
  // delay (and equal arrival accounting, per the test above).
  const workload::SimDb& db = qosrm::testing::shared_db(2);
  ServiceConfig config = small_config();
  config.queue_capacity = 64;
  ServicePoint fifo;
  fifo.load = 3.0;
  fifo.admission = AdmissionPolicy::Fifo;
  ServicePoint sdf = fifo;
  sdf.admission = AdmissionPolicy::Sdf;
  const ServiceMetrics m_fifo = ServiceEngine(db, config, fifo).run();
  const ServiceMetrics m_sdf = ServiceEngine(db, config, sdf).run();
  EXPECT_EQ(m_fifo.arrivals, m_sdf.arrivals);
  EXPECT_NE(m_fifo.mean_wait_s, m_sdf.mean_wait_s);
}

TEST(ServiceDeathTest, ParseAdmissionsRejectsBadSpecs) {
  EXPECT_DEATH((void)parse_admissions(""), "empty --admission entry");
  EXPECT_DEATH((void)parse_admissions("fifo,"), "empty --admission entry");
  EXPECT_DEATH((void)parse_admissions("lifo"), "bad --admission entry");
  EXPECT_DEATH((void)parse_admissions("qosaware"), "bad --admission entry");
  const std::vector<AdmissionPolicy> admissions =
      parse_admissions("fifo, sdf,qos-aware");
  ASSERT_EQ(admissions.size(), 3u);
  EXPECT_EQ(admissions[1], AdmissionPolicy::Sdf);
  EXPECT_EQ(admissions[2], AdmissionPolicy::QosAware);
}

TEST(ServiceDeathTest, ParseLoadsRejectsBadSpecs) {
  EXPECT_DEATH((void)parse_loads(""), "empty --load entry");
  EXPECT_DEATH((void)parse_loads("0.8,"), "empty --load entry");
  EXPECT_DEATH((void)parse_loads("0"), "bad --load entry");
  EXPECT_DEATH((void)parse_loads("-1"), "bad --load entry");
  EXPECT_DEATH((void)parse_loads("fast"), "bad --load entry");
  const std::vector<double> loads = parse_loads("0.5, 0.8,1.1");
  ASSERT_EQ(loads.size(), 3u);
  EXPECT_EQ(loads[1], 0.8);
}

}  // namespace
}  // namespace qosrm::rmsim
