#include "rm/resource_manager.hh"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "rmsim/snapshot.hh"
#include "support/shared_db.hh"

namespace qosrm::rm {
namespace {

using workload::Setting;

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

std::vector<CounterSnapshot> snapshots_for(const std::vector<const char*>& apps) {
  std::vector<CounterSnapshot> snaps;
  for (const char* name : apps) {
    snaps.push_back(rmsim::make_snapshot(db(), db().suite().index_of(name), 0,
                                         workload::baseline_setting(db().system())));
  }
  return snaps;
}

RmConfig config(RmPolicy policy, PerfModelKind model = PerfModelKind::Model3) {
  RmConfig cfg;
  cfg.policy = policy;
  cfg.model = model;
  return cfg;
}

TEST(ResourceManager, IdleKeepsBaselineEverywhere) {
  ResourceManager manager(config(RmPolicy::Idle), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision d = manager.invoke(0, snaps);
  const Setting base = workload::baseline_setting(db().system());
  for (const Setting& s : d.settings) EXPECT_TRUE(s == base);
  EXPECT_EQ(d.ops, 0u);
}

TEST(ResourceManager, WayBudgetAlwaysRespected) {
  for (const RmPolicy policy : {RmPolicy::Rm1, RmPolicy::Rm2, RmPolicy::Rm3}) {
    ResourceManager manager(config(policy), db().system(), db().power());
    const auto snaps = snapshots_for({"mcf", "libquantum"});
    const RmDecision d = manager.invoke(0, snaps);
    int total = 0;
    for (const Setting& s : d.settings) total += s.w;
    EXPECT_EQ(total, db().system().total_ways()) << rm_policy_name(policy);
  }
}

TEST(ResourceManager, Rm1NeverTouchesFrequencyOrSize) {
  ResourceManager manager(config(RmPolicy::Rm1), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "bwaves"});
  const RmDecision d = manager.invoke(1, snaps);
  for (const Setting& s : d.settings) {
    EXPECT_EQ(s.c, arch::kBaselineCoreSize);
    EXPECT_EQ(s.f_idx, arch::VfTable::kBaselineIndex);
  }
}

TEST(ResourceManager, Rm2AdjustsFrequencyNotSize) {
  ResourceManager manager(config(RmPolicy::Rm2), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision d = manager.invoke(0, snaps);
  bool any_f_change = false;
  for (const Setting& s : d.settings) {
    EXPECT_EQ(s.c, arch::kBaselineCoreSize);
    any_f_change |= s.f_idx != arch::VfTable::kBaselineIndex;
  }
  EXPECT_TRUE(any_f_change);
}

TEST(ResourceManager, Rm3CanResizeCores) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"libquantum", "bwaves"});
  const RmDecision d = manager.invoke(0, snaps);
  bool any_resize = false;
  for (const Setting& s : d.settings) {
    any_resize |= s.c != arch::kBaselineCoreSize;
  }
  EXPECT_TRUE(any_resize);
}

TEST(ResourceManager, CacheSensitiveAppGainsWaysFromInsensitiveOne) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  // mcf is cache-sensitive; bwaves is streaming (flat miss curve).
  const auto snaps = snapshots_for({"mcf", "bwaves"});
  const RmDecision d = manager.invoke(0, snaps);
  EXPECT_GT(d.settings[0].w, d.settings[1].w);
}

TEST(ResourceManager, DecisionsSatisfyPredictedQos) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "xalancbmk"});
  const RmDecision d = manager.invoke(0, snaps);
  const PerfModel& perf = manager.perf_model();
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    EXPECT_TRUE(perf.qos_ok(snaps[k], d.settings[k])) << "core " << k;
  }
}

TEST(ResourceManager, CachedCurvesReusedAcrossInvocations) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision first = manager.invoke(0, snaps);
  // Second invocation on core 1: core 0's cached curve is reused, so total
  // ops are lower than a cold start that computes curves for both cores.
  const RmDecision second = manager.invoke(1, snaps);
  EXPECT_GT(first.ops, 0u);
  EXPECT_GT(second.ops, 0u);
  // Decisions stay consistent (same counters -> same curves -> same split).
  EXPECT_EQ(first.settings[0].w + first.settings[1].w,
            second.settings[0].w + second.settings[1].w);
}

TEST(ResourceManager, ResetForcesCurveRebuild) {
  ResourceManager manager(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  (void)manager.invoke(0, snaps);
  manager.reset();
  const RmDecision d = manager.invoke(0, snaps);
  int total = 0;
  for (const Setting& s : d.settings) total += s.w;
  EXPECT_EQ(total, db().system().total_ways());
}

TEST(ResourceManager, RepeatedInvokeDoesNotLeakWorkspaceState) {
  // Two managers fed the same invocation sequence must agree step by step:
  // the reused workspace (flat curves, DP buffers, decision storage) may not
  // carry anything observable from one boundary to the next.
  ResourceManager a(config(RmPolicy::Rm3), db().system(), db().power());
  ResourceManager b(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps1 = snapshots_for({"mcf", "libquantum"});
  const auto snaps2 = snapshots_for({"xalancbmk", "bwaves"});
  const std::vector<std::pair<int, const std::vector<CounterSnapshot>*>> seq = {
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}, {1, &snaps2}, {0, &snaps1},
      {1, &snaps2}, {0, &snaps1}, {1, &snaps1}};
  for (std::size_t step = 0; step < seq.size(); ++step) {
    const RmDecision da = a.invoke(seq[step].first, *seq[step].second);
    const RmDecision db_ = b.invoke(seq[step].first, *seq[step].second);
    ASSERT_EQ(da.settings.size(), db_.settings.size()) << "step " << step;
    for (std::size_t k = 0; k < da.settings.size(); ++k) {
      EXPECT_TRUE(da.settings[k] == db_.settings[k])
          << "step " << step << " core " << k;
    }
    EXPECT_EQ(da.ops, db_.ops) << "step " << step;
    EXPECT_EQ(da.feasible, db_.feasible) << "step " << step;
  }
}

TEST(ResourceManager, ResetPlusReuseMatchesFreshManager) {
  // A manager that has been through unrelated boundaries and then reset()
  // must decide exactly like a brand-new manager: reset invalidates every
  // cached curve while the workspace buffers are merely reused.
  ResourceManager seasoned(config(RmPolicy::Rm3), db().system(), db().power());
  const auto warmup = snapshots_for({"xalancbmk", "bwaves"});
  (void)seasoned.invoke(0, warmup);
  (void)seasoned.invoke(1, warmup);
  seasoned.reset();

  ResourceManager fresh(config(RmPolicy::Rm3), db().system(), db().power());
  const auto snaps = snapshots_for({"mcf", "libquantum"});
  const RmDecision a = seasoned.invoke(0, snaps);
  const RmDecision b = fresh.invoke(0, snaps);
  ASSERT_EQ(a.settings.size(), b.settings.size());
  for (std::size_t k = 0; k < a.settings.size(); ++k) {
    EXPECT_TRUE(a.settings[k] == b.settings[k]) << "core " << k;
  }
  EXPECT_EQ(a.ops, b.ops);
}

// ---------------------------------------------------------------------------
// Interval-outcome memo. A keyed snapshot's local optimization is a pure
// function of its (app, phase, setting) evaluation cell, so replaying a
// memoized outcome must be completely transparent: identical settings AND
// identical charged ops, whether the cell is fresh or replayed.

RmConfig memo_config(RmMemoMode memo) {
  RmConfig cfg = config(RmPolicy::Rm3);
  cfg.memo = memo;
  return cfg;
}

TEST(ResourceManagerMemo, DefaultEnablesAtEveryCoreCountAndOffDisables) {
  for (const int cores : {2, 4, 8, 16}) {
    arch::SystemConfig system;
    system.cores = cores;
    EXPECT_TRUE(ResourceManager(config(RmPolicy::Rm3), system, db().power())
                    .memo_enabled())
        << cores << " cores";
    EXPECT_FALSE(ResourceManager(memo_config(RmMemoMode::Off), system,
                                 db().power())
                     .memo_enabled())
        << cores << " cores";
  }
}

TEST(ResourceManagerMemo, ReplayedOutcomesAreBitIdenticalToRecomputation) {
  ResourceManager memoized(memo_config(RmMemoMode::On), db().system(),
                           db().power());
  ResourceManager plain(memo_config(RmMemoMode::Off), db().system(),
                        db().power());
  ASSERT_TRUE(memoized.memo_enabled());
  ASSERT_FALSE(plain.memo_enabled());

  const auto snaps1 = snapshots_for({"mcf", "libquantum"});
  const auto snaps2 = snapshots_for({"xalancbmk", "bwaves"});
  // Revisits guarantee memo hits (same cells as the first two steps) and a
  // reset() in the middle proves the memo legitimately survives it: the
  // replayed outcome for an unchanged cell is what a recomputation would
  // produce anyway.
  const std::vector<std::pair<int, const std::vector<CounterSnapshot>*>> seq = {
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}, {1, &snaps2},
      {0, &snaps1}, {1, &snaps2}, {-1, nullptr} /* reset */,
      {0, &snaps1}, {1, &snaps1}, {0, &snaps2}};
  for (std::size_t step = 0; step < seq.size(); ++step) {
    if (seq[step].first < 0) {
      memoized.reset();
      plain.reset();
      continue;
    }
    const RmDecision a = memoized.invoke(seq[step].first, *seq[step].second);
    const RmDecision b = plain.invoke(seq[step].first, *seq[step].second);
    ASSERT_EQ(a.settings.size(), b.settings.size()) << "step " << step;
    for (std::size_t k = 0; k < a.settings.size(); ++k) {
      EXPECT_TRUE(a.settings[k] == b.settings[k])
          << "step " << step << " core " << k;
    }
    EXPECT_EQ(a.ops, b.ops) << "step " << step;
    EXPECT_EQ(a.feasible, b.feasible) << "step " << step;
  }
}

TEST(ResourceManagerMemo, SnapshotRefreshNeverServesStaleOutcome) {
  // The memo key is stamped by make_snapshot_into at refresh time, so
  // re-pointing a snapshot slot at a different evaluation cell (app change on
  // the same core - the service-mode departure/admission pattern) must be
  // picked up immediately, not served from the old cell's memo entry.
  ResourceManager memoized(memo_config(RmMemoMode::On), db().system(),
                           db().power());
  ResourceManager plain(memo_config(RmMemoMode::Off), db().system(),
                        db().power());
  const Setting base = workload::baseline_setting(db().system());

  std::vector<CounterSnapshot> snaps(2);
  const int apps[] = {db().suite().index_of("mcf"),
                      db().suite().index_of("libquantum"),
                      db().suite().index_of("xalancbmk")};
  rmsim::make_snapshot_into(db(), apps[0], 0, base, -1, snaps[0]);
  rmsim::make_snapshot_into(db(), apps[1], 0, base, -1, snaps[1]);

  for (int round = 0; round < 6; ++round) {
    // Rotate core 0 through the apps, refreshing IN PLACE; core 1 keeps its
    // cell so its memo entry is replayed while core 0's key changes.
    rmsim::make_snapshot_into(db(), apps[round % 3], 0, base, -1, snaps[0]);
    const RmDecision a = memoized.invoke(0, snaps);
    const RmDecision b = plain.invoke(0, snaps);
    ASSERT_EQ(a.settings.size(), b.settings.size()) << "round " << round;
    for (std::size_t k = 0; k < a.settings.size(); ++k) {
      EXPECT_TRUE(a.settings[k] == b.settings[k])
          << "round " << round << " core " << k;
    }
    EXPECT_EQ(a.ops, b.ops) << "round " << round;
  }
}

/// One step of an oracle-snapshot sequence: core `core`'s snapshot is
/// refreshed in place to (its app, `phase`, `current`) with `oracle_phase`,
/// then the RM is invoked on its behalf. core < 0 means reset().
struct OracleStep {
  int core;
  int phase;
  Setting current;
  int oracle_phase;
};

/// Runs `seq` through a memo-on and a memo-off manager of `energy_perfect`
/// pairing and requires bitwise-equal decisions. Returns the memo-off
/// decisions so callers can check the sequence is sensitive to the oracle.
std::vector<RmDecision> expect_oracle_memo_transparent(
    const std::vector<OracleStep>& seq, bool energy_perfect) {
  RmConfig cfg = memo_config(RmMemoMode::On);
  cfg.model = PerfModelKind::Perfect;
  cfg.energy.perfect = energy_perfect;
  ResourceManager memoized(cfg, db().system(), db().power());
  cfg.memo = RmMemoMode::Off;
  ResourceManager plain(cfg, db().system(), db().power());
  const Setting base = workload::baseline_setting(db().system());
  // Both apps decide differently across their first two phases.
  const int apps[] = {db().suite().index_of("soplex"),
                      db().suite().index_of("bwaves")};
  std::vector<CounterSnapshot> snaps(2);
  for (int k = 0; k < 2; ++k) {
    rmsim::make_snapshot_into(db(), apps[k], 0, base, 0, snaps[k]);
  }
  std::vector<RmDecision> plain_decisions;
  for (std::size_t step = 0; step < seq.size(); ++step) {
    const OracleStep& s = seq[step];
    if (s.core < 0) {
      memoized.reset();
      plain.reset();
      continue;
    }
    rmsim::make_snapshot_into(db(), apps[s.core], s.phase, s.current,
                              s.oracle_phase,
                              snaps[static_cast<std::size_t>(s.core)]);
    const RmDecision a = memoized.invoke(s.core, snaps);
    const RmDecision b = plain.invoke(s.core, snaps);
    EXPECT_TRUE(a.settings == b.settings) << "step " << step;
    EXPECT_EQ(a.ops, b.ops) << "step " << step;
    EXPECT_EQ(a.feasible, b.feasible) << "step " << step;
    plain_decisions.push_back(b);
  }
  return plain_decisions;
}

TEST(ResourceManagerMemo, PerfectOracleSnapshotsMemoizeByOracleCell) {
  // Under Perfect time with perfect energy the local optimization reads only
  // the oracle's (app, phase), so the memo keys those snapshots by the
  // oracle cell. The sequence revisits one current cell with different
  // oracle phases (a current-cell key would replay the wrong outcome),
  // reaches one oracle phase from different current cells (the oracle key
  // must hit), and repeats both after a reset(). Memo on and off must agree
  // bit for bit.
  const Setting base = workload::baseline_setting(db().system());
  const Setting big{arch::CoreSize::L, 1, base.w + 2, base.b};
  const Setting small{arch::CoreSize::S, arch::VfTable::kNumPoints - 1,
                      base.w - 2, base.b};
  const std::vector<OracleStep> seq = {
      {0, 0, base, 0},  {1, 0, base, 0},   {0, 0, base, 1},
      {1, 0, base, 1},  {0, 1, big, 1},    {0, 0, small, 1},
      {1, 1, small, 0}, {0, 1, big, 0},    {-1, 0, base, 0} /* reset */,
      {0, 0, base, 1},  {0, 0, base, 0},   {1, 1, big, 1},
      {0, 1, small, 0}, {1, 0, small, 1},  {0, 0, big, 1}};
  const std::vector<RmDecision> plain = expect_oracle_memo_transparent(seq, true);
  // Sensitivity: the same current cell under different oracle phases must
  // decide differently, or the sequence could not expose a wrong key.
  EXPECT_FALSE(plain[0].settings == plain[2].settings);
  EXPECT_NE(plain[0].ops, plain[2].ops);
}

TEST(ResourceManagerMemo, PerfectTimeWithOnlineEnergyBypassesTheMemo) {
  // Perfect time with the online energy model reads the oracle cell AND the
  // measured counters, so no single cell keys the outcome: such snapshots
  // bypass the memo and still match a memo-off manager.
  const Setting base = workload::baseline_setting(db().system());
  const Setting big{arch::CoreSize::L, 1, base.w + 2, base.b};
  const std::vector<OracleStep> seq = {
      {0, 0, base, 1}, {1, 0, base, 0}, {0, 1, big, 1},  {0, 0, base, 0},
      {1, 1, big, 0},  {0, 0, base, 1}, {-1, 0, base, 0}, {0, 1, big, 1},
      {1, 0, base, 0}, {0, 1, base, 1}};
  (void)expect_oracle_memo_transparent(seq, false);
}

TEST(ResourceManager, PolicyNames) {
  EXPECT_STREQ(rm_policy_name(RmPolicy::Idle), "Idle");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm1), "RM1");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm2), "RM2");
  EXPECT_STREQ(rm_policy_name(RmPolicy::Rm3), "RM3");
}

}  // namespace
}  // namespace qosrm::rm
