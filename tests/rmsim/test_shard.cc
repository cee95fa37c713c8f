#include "rmsim/shard.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.hh"
#include "common/rng.hh"
#include "support/rows.hh"

namespace qosrm::rmsim {
namespace {

// ---------------------------------------------------------------------------
// Partition properties (pure arithmetic - no database, fast suite).
// ---------------------------------------------------------------------------

TEST(ShardRangeTest, ExactPartitionSmallCases) {
  EXPECT_EQ(shard_range(10, 0, 1), (ShardRange{0, 10}));
  EXPECT_EQ(shard_range(10, 0, 2), (ShardRange{0, 5}));
  EXPECT_EQ(shard_range(10, 1, 2), (ShardRange{5, 10}));
  // 10 = 3 + 3 + 2 + 2: remainder rows go to the first shards.
  EXPECT_EQ(shard_range(10, 0, 4), (ShardRange{0, 3}));
  EXPECT_EQ(shard_range(10, 1, 4), (ShardRange{3, 6}));
  EXPECT_EQ(shard_range(10, 2, 4), (ShardRange{6, 8}));
  EXPECT_EQ(shard_range(10, 3, 4), (ShardRange{8, 10}));
  // More shards than rows: trailing shards get empty ranges.
  EXPECT_EQ(shard_range(2, 0, 4).size(), 1u);
  EXPECT_EQ(shard_range(2, 1, 4).size(), 1u);
  EXPECT_EQ(shard_range(2, 2, 4).size(), 0u);
  EXPECT_EQ(shard_range(2, 3, 4).size(), 0u);
  EXPECT_EQ(shard_range(0, 0, 3).size(), 0u);
}

TEST(ShardRangeTest, RandomizedPartitionIsDisjointGaplessOrdered) {
  Rng rng(20260728);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t total = static_cast<std::size_t>(rng.uniform_u64(10000));
    const std::size_t count =
        1 + static_cast<std::size_t>(rng.uniform_u64(64));

    const std::vector<ShardRange> ranges = shard_ranges(total, count);
    ASSERT_EQ(ranges.size(), count);

    // Gapless + disjoint + ordered: consecutive ranges tile [0, total).
    std::size_t next = 0;
    std::size_t min_size = total, max_size = 0;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_LE(ranges[i].begin, ranges[i].end);
      EXPECT_EQ(ranges[i].begin, next) << "gap/overlap at shard " << i;
      next = ranges[i].end;
      min_size = std::min(min_size, ranges[i].size());
      max_size = std::max(max_size, ranges[i].size());
      // The vector form must agree with the single-shard form (workers
      // compute their range independently of the orchestrator).
      EXPECT_EQ(ranges[i], shard_range(total, i, count));
    }
    EXPECT_EQ(next, total);
    // Balanced: sizes differ by at most one row.
    EXPECT_LE(max_size - min_size, 1u);
  }
}

TEST(ShardRangeTest, StableAcrossCalls) {
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(shard_ranges(12345, 17), shard_ranges(12345, 17));
  }
}

// ---------------------------------------------------------------------------
// Part file round-trip and corruption rejection (synthetic rows - no
// database needed, so this stays in the fast suite).
// ---------------------------------------------------------------------------

SweepRow synthetic_row(std::size_t idx) {
  SweepRow row;
  row.workload = "2Core-W" + std::to_string(idx % 7);
  row.scenario = static_cast<workload::Scenario>(1 + idx % 4);
  row.policy = static_cast<rm::RmPolicy>(idx % 4);
  row.model = static_cast<rm::PerfModelKind>(idx % 4);
  row.qos_alpha = 1.0 + 0.05 * static_cast<double>(idx % 3);
  row.result.savings = 0.0625 * static_cast<double>(idx) - 1.0;

  RunResult& run = row.result.run;
  run.workload = row.workload;
  run.scenario = row.scenario;
  run.policy = row.policy;
  run.model = row.model;
  for (int k = 0; k < 2; ++k) {
    CoreResult core;
    core.app = static_cast<int>(idx) + k;
    core.counted_energy_j = 1.5e-3 * static_cast<double>(idx + 1) + k;
    core.executed_instructions = 1e9 + static_cast<double>(idx * 31 + k);
    core.finish_time_s = 0.25 + 0.001 * static_cast<double>(idx);
    core.intervals = 100 + idx;
    core.qos_violations = idx % 5;
    core.violation_sum = 1e-4 * static_cast<double>(idx);
    core.violation_max = 2e-4 * static_cast<double>(idx);
    run.cores.push_back(core);
  }
  run.uncore_energy_j = 3.25e-2 + static_cast<double>(idx);
  run.wall_time_s = 0.5 + 0.01 * static_cast<double>(idx);
  run.rm_invocations = 10 * idx;
  run.rm_ops = 1000 * idx + 7;
  return row;
}

ServiceRow synthetic_service_row(std::size_t idx) {
  ServiceRow row;
  row.pattern = static_cast<workload::ArrivalPattern>(
      idx % workload::kNumArrivalPatterns);
  row.load = 0.5 + 0.125 * static_cast<double>(idx);
  row.admission = static_cast<AdmissionPolicy>(idx % kNumAdmissionPolicies);
  row.policy = static_cast<rm::RmPolicy>(idx % 7);
  row.model = static_cast<rm::PerfModelKind>(idx % 4);
  row.qos_alpha = 1.0 + 0.05 * static_cast<double>(idx % 3);
  ServiceMetrics& m = row.metrics;
  m.arrivals = 400 + idx;
  m.served = 390 + idx;
  m.rejected = idx % 9;
  m.qos_rejected = idx % 4;
  m.intervals = 10000 + 17 * idx;
  m.violations = 30 + idx;
  m.violation_rate = 0.003 * static_cast<double>(idx + 1);
  m.p50_violation = 0.01 + 0.001 * static_cast<double>(idx);
  m.p95_violation = 0.05 + 0.001 * static_cast<double>(idx);
  m.p99_violation = 0.09 + 0.001 * static_cast<double>(idx);
  m.max_violation = 0.2 + 0.001 * static_cast<double>(idx);
  m.mean_violation = 0.02 + 0.001 * static_cast<double>(idx);
  m.energy_total_j = 7500.0 + static_cast<double>(idx);
  m.uncore_energy_j = 120.5 + static_cast<double>(idx);
  m.energy_per_app_j = 18.25 + 0.01 * static_cast<double>(idx);
  m.rm_invocations = 2000 + 3 * idx;
  m.rm_ops = 900000 + 11 * idx;
  m.decisions_per_sec = 25.5 + static_cast<double>(idx);
  m.occupancy = 0.6 + 0.01 * static_cast<double>(idx);
  m.mean_wait_s = 0.004 * static_cast<double>(idx);
  m.wall_time_s = 60.0 + static_cast<double>(idx);
  return row;
}

// The two part kinds, so every codec-level case runs on both. Each kind's
// synthetic grid has 16 rows; kOtherShape has the same size but a
// different shape.
struct SweepKind {
  using Codec = SweepCodec;
  static constexpr GridShape kShape{8, 2, 1, 1};
  static constexpr GridShape kOtherShape{4, 4, 1, 1};
  static SweepRow row(std::size_t idx) { return synthetic_row(idx); }
  static void set_policy(SweepRow& row, rm::RmPolicy policy) {
    row.policy = policy;
    row.result.run.policy = policy;
  }
  static constexpr auto expect_equal = testing::expect_sweep_rows_identical;
};

struct ServiceKind {
  using Codec = ServiceCodec;
  static constexpr ServiceGridShape kShape{2, 2, 2, 2, 1};
  static constexpr ServiceGridShape kOtherShape{1, 4, 2, 2, 1};
  static ServiceRow row(std::size_t idx) { return synthetic_service_row(idx); }
  static void set_policy(ServiceRow& row, rm::RmPolicy policy) {
    row.policy = policy;
  }
  static constexpr auto expect_equal = testing::expect_service_rows_identical;
};

/// A consistent synthetic part for shard `index` of `count` over the
/// kind's 16-row grid.
template <typename Kind>
Part<typename Kind::Codec> synthetic_part(
    std::size_t index, std::size_t count,
    std::uint64_t fingerprint = 0xfeedfacecafebeefULL) {
  Part<typename Kind::Codec> part;
  part.fingerprint = fingerprint;
  part.shape = Kind::kShape;
  part.shard_index = index;
  part.shard_count = count;
  part.range = shard_range(part.shape.size(), index, count);
  for (std::size_t r = part.range.begin; r < part.range.end; ++r) {
    part.rows.push_back(Kind::row(r));
  }
  return part;
}

// Defines one test body templated on the part kind and registers it twice:
// SweepSuite.Name runs it on sweep parts, ServiceSuite.Name on service
// parts. (Plain TESTs rather than TYPED_TEST keep the sweep test names.)
#define PART_KIND_TEST(SweepSuite, ServiceSuite, Name)      \
  template <typename Kind>                                  \
  void Name##Body();                                        \
  TEST(SweepSuite, Name) { Name##Body<SweepKind>(); }       \
  TEST(ServiceSuite, Name) { Name##Body<ServiceKind>(); }   \
  template <typename Kind>                                  \
  void Name##Body()

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A temp path unique to the part kind: the sweep and service instances of
/// one test may run at the same time in separate processes.
template <typename Kind>
std::string kind_path(const std::string& name) {
  return temp_path(std::string(Kind::Codec::kNoun) + "_" + name);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Saves and reloads `part`, expecting every header field and row back
/// bit-identical.
template <typename Kind>
void expect_round_trip(const Part<typename Kind::Codec>& part,
                       const std::string& name) {
  const std::string path = kind_path<Kind>(name);
  std::string error;
  ASSERT_TRUE(save_part(part, path, &error)) << error;
  const auto loaded = load_part<typename Kind::Codec>(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->fingerprint, part.fingerprint);
  EXPECT_EQ(loaded->shape, part.shape);
  EXPECT_EQ(loaded->shard_index, part.shard_index);
  EXPECT_EQ(loaded->shard_count, part.shard_count);
  EXPECT_EQ(loaded->range, part.range);
  ASSERT_EQ(loaded->rows.size(), part.rows.size());
  for (std::size_t i = 0; i < part.rows.size(); ++i) {
    Kind::expect_equal(loaded->rows[i], part.rows[i]);
  }
  std::remove(path.c_str());
}

PART_KIND_TEST(SweepPartTest, ServicePartTest, RoundTripIsBitIdentical) {
  expect_round_trip<Kind>(synthetic_part<Kind>(1, 3), "roundtrip.qospart");
}

PART_KIND_TEST(SweepPartTest, ServicePartTest,
               PartitioningBaselinePoliciesSurviveRoundTrip) {
  // Regression: the deserializers range-checked policy values against the
  // pre-baseline enum (<= Rm3), so any part holding Ucp/Fcp/ClassPart rows
  // was rejected at merge time as "corrupt (truncated row data)".
  auto part = synthetic_part<Kind>(0, 2);
  ASSERT_GE(part.rows.size(), 3u);
  const rm::RmPolicy extended[] = {rm::RmPolicy::Ucp, rm::RmPolicy::Fcp,
                                   rm::RmPolicy::ClassPart};
  for (std::size_t i = 0; i < 3; ++i) {
    Kind::set_policy(part.rows[i], extended[i]);
  }
  expect_round_trip<Kind>(part, "baseline_policies.qospart");
}

PART_KIND_TEST(SweepPartTest, ServicePartTest,
               SaveRejectsInconsistentMetadata) {
  std::string error;
  const std::string path = kind_path<Kind>("bad_meta.qospart");

  auto wrong_range = synthetic_part<Kind>(0, 2);
  wrong_range.range.end += 1;  // no longer shard_range(total, 0, 2)
  EXPECT_FALSE(save_part(wrong_range, path, &error));

  auto wrong_rows = synthetic_part<Kind>(0, 2);
  wrong_rows.rows.pop_back();
  EXPECT_FALSE(save_part(wrong_rows, path, &error));

  auto bad_index = synthetic_part<Kind>(0, 2);
  bad_index.shard_index = 2;
  EXPECT_FALSE(save_part(bad_index, path, &error));
}

PART_KIND_TEST(SweepPartTest, ServicePartTest,
               TruncationIsRejectedAtEveryLength) {
  const auto part = synthetic_part<Kind>(0, 2);
  const std::string path = kind_path<Kind>("trunc.qospart");
  std::string error;
  ASSERT_TRUE(save_part(part, path, &error)) << error;
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);

  // A part cut anywhere - header, row payload or inside the trailing
  // checksum - must never load (this is the crash-mid-write scenario).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{24}, std::size_t{63},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    spit(path, bytes.substr(0, keep));
    EXPECT_FALSE(load_part<typename Kind::Codec>(path, &error).has_value())
        << "truncated to " << keep << " bytes";
  }
  std::remove(path.c_str());
}

PART_KIND_TEST(SweepPartTest, ServicePartTest,
               BitFlipAndTrailingGarbageAreRejected) {
  using Codec = typename Kind::Codec;
  const auto part = synthetic_part<Kind>(1, 2);
  const std::string path = kind_path<Kind>("corrupt.qospart");
  std::string error;
  ASSERT_TRUE(save_part(part, path, &error)) << error;
  const std::string bytes = slurp(path);

  // Flip one bit in the row payload: the checksum must catch it.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  spit(path, flipped);
  EXPECT_FALSE(load_part<Codec>(path, &error).has_value());

  // Appended bytes after the checksum are also rejected.
  spit(path, bytes + "xx");
  EXPECT_FALSE(load_part<Codec>(path, &error).has_value());

  // And the pristine bytes still load (the guard is the content, not luck).
  spit(path, bytes);
  EXPECT_TRUE(load_part<Codec>(path, &error).has_value()) << error;
  std::remove(path.c_str());
}

PART_KIND_TEST(SweepPartTest, ServicePartTest, NonPartFileIsRejected) {
  using Codec = typename Kind::Codec;
  const std::string path = kind_path<Kind>("not_a_part.qospart");
  spit(path, "workload,policy,savings\nfoo,rm3,0.07\n");
  std::string error;
  EXPECT_FALSE(load_part<Codec>(path, &error).has_value());
  EXPECT_NE(error.find(std::string("not a ") + Codec::kNoun + " part"),
            std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(PartKindTest, MagicsKeepTheKindsApart) {
  std::string error;
  const std::string sweep_path = temp_path("kind_sweep.qospart");
  ASSERT_TRUE(save_sweep_part(synthetic_part<SweepKind>(0, 1), sweep_path,
                              &error))
      << error;
  EXPECT_FALSE(load_service_part(sweep_path, &error).has_value());
  EXPECT_NE(error.find("not a service part"), std::string::npos) << error;

  const std::string service_path = temp_path("kind_service.qospart");
  ASSERT_TRUE(save_service_part(synthetic_part<ServiceKind>(0, 1),
                                service_path, &error))
      << error;
  EXPECT_FALSE(load_sweep_part(service_path, &error).has_value());
  EXPECT_NE(error.find("not a sweep part"), std::string::npos) << error;
  std::remove(sweep_path.c_str());
  std::remove(service_path.c_str());
}

// The part format is a contract between binaries of different builds
// (--resume reuses parts, sweep_merge and report_main read them). These
// digests were recorded from the format's previous implementation; any
// byte that moves fails here.
template <typename Kind>
std::uint64_t saved_digest(const std::string& name) {
  const std::string path = kind_path<Kind>(name);
  std::string error;
  EXPECT_TRUE(save_part(synthetic_part<Kind>(1, 3), path, &error)) << error;
  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  Fnv1a64 hash;
  hash.add_bytes(bytes.data(), bytes.size());
  return hash.digest();
}

TEST(PartBytesTest, SavedBytesArePinned) {
  EXPECT_EQ(saved_digest<SweepKind>("pinned.qospart"), 0xf2168c2f109ea07bULL);
  EXPECT_EQ(saved_digest<ServiceKind>("pinned.qospart"), 0xf565d07d6620e44cULL);
}

TEST(SweepPartTest, PartPathIsSelfDescribing) {
  EXPECT_EQ(part_path("out/rows.csv", 2, 8), "out/rows.csv.2-of-8.qospart");
}

// ---------------------------------------------------------------------------
// Merge validation.
// ---------------------------------------------------------------------------

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest,
               MergesOutOfOrderPartsIntoGridOrder) {
  std::vector<Part<typename Kind::Codec>> parts = {synthetic_part<Kind>(2, 3),
                                                   synthetic_part<Kind>(0, 3),
                                                   synthetic_part<Kind>(1, 3)};
  std::string error;
  const auto rows = merge_parts(std::move(parts), &error);
  ASSERT_TRUE(rows.has_value()) << error;
  ASSERT_EQ(rows->size(), 16u);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    Kind::expect_equal((*rows)[i], Kind::row(i));
  }
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest, SingleShardMergesToo) {
  std::string error;
  const auto rows = merge_parts<typename Kind::Codec>(
      {synthetic_part<Kind>(0, 1)}, &error);
  ASSERT_TRUE(rows.has_value()) << error;
  EXPECT_EQ(rows->size(), 16u);
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest, RejectsMissingShard) {
  std::string error;
  EXPECT_FALSE(merge_parts<typename Kind::Codec>(
                   {synthetic_part<Kind>(0, 3), synthetic_part<Kind>(2, 3)},
                   &error)
                   .has_value());
  EXPECT_NE(error.find("3 ways"), std::string::npos) << error;
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest, RejectsDuplicateShard) {
  std::string error;
  EXPECT_FALSE(merge_parts<typename Kind::Codec>(
                   {synthetic_part<Kind>(0, 3), synthetic_part<Kind>(1, 3),
                    synthetic_part<Kind>(1, 3)},
                   &error)
                   .has_value());
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest,
               RejectsForeignFingerprint) {
  using Codec = typename Kind::Codec;
  std::string error;
  EXPECT_FALSE(merge_parts<Codec>({synthetic_part<Kind>(0, 2),
                                   synthetic_part<Kind>(
                                       1, 2, 0x1111111111111111ULL)},
                                  &error)
                   .has_value());
  EXPECT_NE(error.find(std::string("different ") + Codec::kRunNoun),
            std::string::npos)
      << error;
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest,
               RejectsMismatchedShardCount) {
  std::string error;
  EXPECT_FALSE(merge_parts<typename Kind::Codec>(
                   {synthetic_part<Kind>(0, 2), synthetic_part<Kind>(1, 3),
                    synthetic_part<Kind>(2, 3)},
                   &error)
                   .has_value());
}

PART_KIND_TEST(MergePartsTest, ServiceMergePartsTest, RejectsEmptyInput) {
  std::string error;
  EXPECT_FALSE(merge_parts<typename Kind::Codec>({}, &error).has_value());
}

// ---------------------------------------------------------------------------
// Resume: which shards still need running.
// ---------------------------------------------------------------------------

PART_KIND_TEST(ShardsToRunTest, ServiceShardsToRunTest,
               CorruptPartIsReRunAloneAndValidOnesSkipped) {
  using Codec = typename Kind::Codec;
  const std::string prefix = kind_path<Kind>("resume_rows.csv");
  const std::uint64_t fp = 0xfeedfacecafebeefULL;
  std::string error;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(save_part(synthetic_part<Kind>(i, 4), part_path(prefix, i, 4),
                          &error))
        << error;
  }

  // All parts valid: nothing to run.
  EXPECT_TRUE(shards_to_run<Codec>(prefix, 4, fp, Kind::kShape).empty());

  // Truncate shard 2 (the mid-write crash): exactly shard 2 is re-run.
  const std::string victim = part_path(prefix, 2, 4);
  const std::string bytes = slurp(victim);
  spit(victim, bytes.substr(0, bytes.size() - 11));
  EXPECT_EQ(shards_to_run<Codec>(prefix, 4, fp, Kind::kShape),
            (std::vector<std::size_t>{2}));

  // Delete shard 0 as well: both pending, still not the valid ones.
  std::remove(part_path(prefix, 0, 4).c_str());
  EXPECT_EQ(shards_to_run<Codec>(prefix, 4, fp, Kind::kShape),
            (std::vector<std::size_t>{0, 2}));

  // A part from a different run (wrong fingerprint) is also re-run.
  EXPECT_EQ(
      shards_to_run<Codec>(prefix, 4, 0x2222222222222222ULL, Kind::kShape),
            (std::vector<std::size_t>{0, 1, 2, 3}));

  // And a different grid shape never reuses these parts.
  EXPECT_EQ(shards_to_run<Codec>(prefix, 4, fp, Kind::kOtherShape),
            (std::vector<std::size_t>{0, 1, 2, 3}));

  for (std::size_t i = 0; i < 4; ++i) {
    std::remove(part_path(prefix, i, 4).c_str());
  }
}

PART_KIND_TEST(ShardsToRunTest, ServiceShardsToRunTest,
               AllMissingMeansAllPending) {
  EXPECT_EQ(shards_to_run<typename Kind::Codec>(
                kind_path<Kind>("nonexistent_prefix"), 3, 1, Kind::kShape),
            (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace qosrm::rmsim
