// Bit-exact comparisons of sweep runs and service rows, shared by the
// determinism, sharding and part round-trip suites. No tolerances anywhere:
// every one of these paths must reproduce its results exactly.
#ifndef QOSRM_TESTS_SUPPORT_ROWS_HH
#define QOSRM_TESTS_SUPPORT_ROWS_HH

#include <gtest/gtest.h>

#include "rmsim/service.hh"
#include "rmsim/sweep.hh"

namespace qosrm::testing {

inline void expect_runs_identical(const rmsim::RunResult& a,
                                  const rmsim::RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.uncore_energy_j, b.uncore_energy_j);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.rm_invocations, b.rm_invocations);
  EXPECT_EQ(a.rm_ops, b.rm_ops);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t k = 0; k < a.cores.size(); ++k) {
    EXPECT_EQ(a.cores[k].app, b.cores[k].app);
    EXPECT_EQ(a.cores[k].counted_energy_j, b.cores[k].counted_energy_j);
    EXPECT_EQ(a.cores[k].executed_instructions,
              b.cores[k].executed_instructions);
    EXPECT_EQ(a.cores[k].finish_time_s, b.cores[k].finish_time_s);
    EXPECT_EQ(a.cores[k].intervals, b.cores[k].intervals);
    EXPECT_EQ(a.cores[k].qos_violations, b.cores[k].qos_violations);
    EXPECT_EQ(a.cores[k].violation_sum, b.cores[k].violation_sum);
    EXPECT_EQ(a.cores[k].violation_max, b.cores[k].violation_max);
  }
}

inline void expect_sweep_rows_identical(const rmsim::SweepRow& a,
                                        const rmsim::SweepRow& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.qos_alpha, b.qos_alpha);
  EXPECT_EQ(a.result.savings, b.result.savings);
  expect_runs_identical(a.result.run, b.result.run);
}

inline void expect_service_rows_identical(const rmsim::ServiceRow& a,
                                          const rmsim::ServiceRow& b) {
  EXPECT_EQ(a.pattern, b.pattern);
  EXPECT_EQ(a.load, b.load);
  EXPECT_EQ(a.admission, b.admission);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.qos_alpha, b.qos_alpha);
  const rmsim::ServiceMetrics& ma = a.metrics;
  const rmsim::ServiceMetrics& mb = b.metrics;
  EXPECT_EQ(ma.arrivals, mb.arrivals);
  EXPECT_EQ(ma.served, mb.served);
  EXPECT_EQ(ma.rejected, mb.rejected);
  EXPECT_EQ(ma.qos_rejected, mb.qos_rejected);
  EXPECT_EQ(ma.intervals, mb.intervals);
  EXPECT_EQ(ma.violations, mb.violations);
  EXPECT_EQ(ma.violation_rate, mb.violation_rate);
  EXPECT_EQ(ma.p50_violation, mb.p50_violation);
  EXPECT_EQ(ma.p95_violation, mb.p95_violation);
  EXPECT_EQ(ma.p99_violation, mb.p99_violation);
  EXPECT_EQ(ma.max_violation, mb.max_violation);
  EXPECT_EQ(ma.mean_violation, mb.mean_violation);
  EXPECT_EQ(ma.energy_total_j, mb.energy_total_j);
  EXPECT_EQ(ma.uncore_energy_j, mb.uncore_energy_j);
  EXPECT_EQ(ma.energy_per_app_j, mb.energy_per_app_j);
  EXPECT_EQ(ma.rm_invocations, mb.rm_invocations);
  EXPECT_EQ(ma.rm_ops, mb.rm_ops);
  EXPECT_EQ(ma.decisions_per_sec, mb.decisions_per_sec);
  EXPECT_EQ(ma.occupancy, mb.occupancy);
  EXPECT_EQ(ma.mean_wait_s, mb.mean_wait_s);
  EXPECT_EQ(ma.wall_time_s, mb.wall_time_s);
}

}  // namespace qosrm::testing

#endif  // QOSRM_TESTS_SUPPORT_ROWS_HH
