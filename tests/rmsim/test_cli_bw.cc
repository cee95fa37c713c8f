// The CLI contracts both mains share, on the REAL binaries: --bw-shares
// validation, int-range checks, and the default/--shard/--workers mode
// rules. Plus the cross-merge guard: shard parts produced under different
// bandwidth-partitioning configurations must never merge.
//
// The binaries are spawned through sh so their diagnostics don't clutter the
// test log; a value below 1 is a clean usage error (exit 1) and garbage is a
// hard QOSRM_CHECK abort from the strict get_int parser (signal exit).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "arch/system_config.hh"
#include "common/subprocess.hh"
#include "rmsim/shard.hh"
#include "rmsim/sweep.hh"
#include "workload/db_io.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim {
namespace {

/// Runs `binary flag` through sh with its output discarded, or with stderr
/// captured into *err when given. Returns the exit code; sh reports a
/// signal death as 128 + signo.
int run_silenced(const std::string& binary, const std::string& flag,
                 std::string* err = nullptr) {
  const std::string err_path =
      ::testing::TempDir() + "/" + binary + "_cli_bw_stderr.txt";
  const std::string cmd = std::string(QOSRM_BIN_DIR) + "/" + binary + " " +
                          flag + " >/dev/null 2>" +
                          (err != nullptr ? err_path : "&1");
  const SubprocessExit exit = Subprocess::spawn({"sh", "-c", cmd}).wait();
  if (err != nullptr) {
    std::ifstream in(err_path);
    err->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    std::remove(err_path.c_str());
  }
  return exit.exited ? exit.exit_code : 128 + exit.term_signal;
}

class BwSharesCli : public ::testing::TestWithParam<const char*> {};

TEST_P(BwSharesCli, RejectsZeroAndNegativeWithUsageError) {
  const std::string binary = GetParam();
  EXPECT_EQ(run_silenced(binary, "--bw-shares=0"), 1);
  EXPECT_EQ(run_silenced(binary, "--bw-shares=-2"), 1);
}

TEST_P(BwSharesCli, RejectsGarbageViaStrictIntegerParse) {
  const std::string binary = GetParam();
  // SIGABRT from QOSRM_CHECK -> 128 + 6 through sh.
  EXPECT_EQ(run_silenced(binary, "--bw-shares=abc"), 134);
  EXPECT_EQ(run_silenced(binary, "--bw-shares=2.5"), 134);
  EXPECT_EQ(run_silenced(binary, "--bw-shares="), 134);
}

// Integer flags are read as 64-bit values; one that does not fit an int is
// a usage error naming the flag, never a silently wrapped value (2^32 + 1
// would otherwise run as 1). Each case is rejected before any work starts.
TEST_P(BwSharesCli, IntFlagsOutsideIntAreRejected) {
  const std::string binary = GetParam();
  EXPECT_EQ(run_silenced(binary, "--cores=4294967296"), 1);
  EXPECT_EQ(run_silenced(binary, "--bw-shares=-4294967295"), 1);
  if (binary == "sweep_main") {  // the simulated system has cores x replicate
    EXPECT_EQ(run_silenced(binary, "--cores=65536 --replicate=65536"), 1);
  }
  std::string err;
  EXPECT_EQ(run_silenced(binary, "--cores=4294967297", &err), 1);
  EXPECT_NE(err.find("--cores"), std::string::npos) << err;
  EXPECT_EQ(run_silenced(binary, "--workers=4294967297", &err), 1);
  EXPECT_NE(err.find("--workers"), std::string::npos) << err;
}

// The three-mode contract (default / --shard worker / --workers
// orchestrator): every invalid combination, stray flag or argument is a
// usage error (exit 1) that fails before the database build.
TEST_P(BwSharesCli, InvalidModeCombinationsAreRejected) {
  for (const char* flags : {
           "--shard=0/2",                                       // no part
           "--shard=0/2 --part-output=x.qospart --workers=2",   // both modes
           "--shard=0/2 --part-output=x.qospart --rows-csv=r.csv",
           "--resume", "--parts-dir=.", "--keep-parts",         // no --workers
           "--workers=0",
           "--shard=2/2 --part-output=x.qospart",               // index >= N
           "--bogus=1",                                         // unknown flag
           "stray",                                             // positional
       }) {
    EXPECT_EQ(run_silenced(GetParam(), flags), 1) << flags;
  }
}

INSTANTIATE_TEST_SUITE_P(Binaries, BwSharesCli,
                         ::testing::Values("sweep_main", "service_main"));

// Parts stamped under different share counts carry different fingerprints
// (the bw config feeds simdb_fingerprint, which feeds sweep_fingerprint),
// so the merger refuses the mix outright.
TEST(BwSharesCli, PartsFromDifferentShareCountsNeverCrossMerge) {
  auto fingerprint_for = [](int bw_shares) {
    arch::SystemConfig system;
    system.cores = 2;
    system.bw = arch::bw_config_for_shares(bw_shares);
    const std::uint64_t db_fp = workload::simdb_fingerprint(
        workload::spec_suite(), system, workload::PhaseStatsOptions{});
    return sweep_fingerprint(SweepGrid{}, SimOptions{}, db_fp);
  };
  const std::uint64_t fp1 = fingerprint_for(1);
  const std::uint64_t fp2 = fingerprint_for(2);
  ASSERT_NE(fp1, fp2);

  SweepPart a;
  a.fingerprint = fp1;
  a.shard_index = 0;
  a.shard_count = 2;
  SweepPart b;
  b.fingerprint = fp2;
  b.shard_index = 1;
  b.shard_count = 2;

  std::string error;
  const auto merged = merge_sweep_parts({a, b}, &error);
  EXPECT_FALSE(merged.has_value());
  EXPECT_NE(error.find("different sweep"), std::string::npos) << error;
}

}  // namespace
}  // namespace qosrm::rmsim
