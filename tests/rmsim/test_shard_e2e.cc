// End-to-end sharded-sweep equivalence on the real simulation database:
// worker row ranges must be bit-identical to the corresponding slice of a
// single-process run, and a save/load/merge cycle over N parts must
// reproduce the single-process CSV byte for byte. This is the in-process
// half of the guarantee; CI runs the same check across actual worker
// processes (sweep_main --workers).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rmsim/shard.hh"
#include "rmsim/sweep.hh"
#include "support/shared_db.hh"
#include "workload/db_io.hh"
#include "workload/workload_gen.hh"

namespace qosrm::rmsim {
namespace {

SweepGrid two_core_grid() {
  const workload::SimDb& db = testing::shared_db(2);
  workload::WorkloadGenOptions gen;
  gen.cores = 2;
  gen.per_scenario = 1;
  SweepGrid grid;
  grid.mixes = workload::generate_workloads(db.suite(), gen);
  grid.policies = {rm::RmPolicy::Idle, rm::RmPolicy::Rm1, rm::RmPolicy::Rm2,
                   rm::RmPolicy::Rm3};
  grid.models = {rm::PerfModelKind::Model3};
  grid.qos_alphas = {0.0};
  return grid;
}

std::uint64_t grid_fingerprint(const SweepGrid& grid) {
  const workload::SimDb& db = testing::shared_db(2);
  return sweep_fingerprint(
      grid, SimOptions{},
      workload::simdb_fingerprint(db.suite(), db.system(), db.phase_options()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ShardE2E, RunRangeMatchesFullRunSlice) {
  const SweepGrid grid = two_core_grid();
  SweepRunner runner(testing::shared_db(2), {});
  const SweepResult full = runner.run(grid);

  for (const ShardRange& range : shard_ranges(grid.size(), 3)) {
    const std::vector<SweepRow> slice =
        runner.run_range(grid, range.begin, range.end);
    ASSERT_EQ(slice.size(), range.size());
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const SweepRow& a = slice[i];
      const SweepRow& b = full.rows[range.begin + i];
      EXPECT_EQ(a.workload, b.workload);
      EXPECT_EQ(a.policy, b.policy);
      EXPECT_EQ(a.qos_alpha, b.qos_alpha);
      // Bit-identical outcomes, not approximately equal ones.
      EXPECT_EQ(a.result.savings, b.result.savings);
      EXPECT_EQ(a.result.run.uncore_energy_j, b.result.run.uncore_energy_j);
      EXPECT_EQ(a.result.run.wall_time_s, b.result.run.wall_time_s);
      EXPECT_EQ(a.result.run.total_energy_j(), b.result.run.total_energy_j());
      EXPECT_EQ(a.result.run.total_violations(),
                b.result.run.total_violations());
    }
  }
}

TEST(ShardE2E, FourShardSaveLoadMergeReproducesCsvByteForByte) {
  const SweepGrid grid = two_core_grid();
  SweepRunner runner(testing::shared_db(2), {});
  const SweepResult full = runner.run(grid);

  const std::string dir = ::testing::TempDir();
  const std::string single_csv = dir + "/shard_e2e_single.csv";
  write_rows_csv(full, single_csv);

  // Worker side: each shard runs its own range and writes a real part file.
  const std::uint64_t fp = grid_fingerprint(grid);
  const std::string prefix = dir + "/shard_e2e_rows.csv";
  constexpr std::size_t kShards = 4;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kShards; ++i) {
    SweepPart part;
    part.fingerprint = fp;
    part.shape = grid.shape();
    part.shard_index = i;
    part.shard_count = kShards;
    part.range = shard_range(grid.size(), i, kShards);
    part.rows = runner.run_range(grid, part.range.begin, part.range.end);
    paths.push_back(part_path(prefix, i, kShards));
    std::string error;
    ASSERT_TRUE(save_sweep_part(part, paths.back(), &error)) << error;
  }

  // Merger side: load from disk, check the fingerprint, merge, recompute
  // the aggregates and write the same CSVs.
  std::string error;
  const std::optional<SweepResult> merged_result =
      merge_part_files(paths, &fp, &error);
  ASSERT_TRUE(merged_result.has_value()) << error;
  const SweepResult& merged = *merged_result;
  const std::string merged_csv = dir + "/shard_e2e_merged.csv";
  write_rows_csv(merged, merged_csv);

  const std::string single_bytes = slurp(single_csv);
  EXPECT_FALSE(single_bytes.empty());
  EXPECT_EQ(single_bytes, slurp(merged_csv));

  // The recomputed aggregates are bit-identical to the in-process ones too.
  ASSERT_EQ(merged.aggregates.size(), full.aggregates.size());
  for (std::size_t i = 0; i < full.aggregates.size(); ++i) {
    EXPECT_EQ(merged.aggregates[i].policy, full.aggregates[i].policy);
    EXPECT_EQ(merged.aggregates[i].weighted_savings,
              full.aggregates[i].weighted_savings);
    EXPECT_EQ(merged.aggregates[i].mean_savings,
              full.aggregates[i].mean_savings);
    EXPECT_EQ(merged.aggregates[i].mean_violation_rate,
              full.aggregates[i].mean_violation_rate);
  }

  std::remove(single_csv.c_str());
  std::remove(merged_csv.c_str());
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(ShardE2E, FingerprintSeparatesDifferentSweeps) {
  const SweepGrid grid = two_core_grid();
  const std::uint64_t fp = grid_fingerprint(grid);

  SweepGrid other = grid;
  other.qos_alphas = {1.1};
  EXPECT_NE(grid_fingerprint(other), fp);

  other = grid;
  other.policies = {rm::RmPolicy::Rm3};
  EXPECT_NE(grid_fingerprint(other), fp);

  other = grid;
  other.mixes.pop_back();
  EXPECT_NE(grid_fingerprint(other), fp);

  SimOptions no_overheads;
  no_overheads.model_overheads = false;
  const workload::SimDb& db = testing::shared_db(2);
  const std::uint64_t db_fp = workload::simdb_fingerprint(
      db.suite(), db.system(), db.phase_options());
  EXPECT_NE(sweep_fingerprint(grid, no_overheads, db_fp), fp);
  EXPECT_NE(sweep_fingerprint(grid, SimOptions{}, db_fp ^ 1), fp);
}

}  // namespace
}  // namespace qosrm::rmsim
