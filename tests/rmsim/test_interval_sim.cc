#include "rmsim/interval_sim.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "support/shared_db.hh"

namespace qosrm::rmsim {
namespace {

const workload::SimDb& db() { return qosrm::testing::shared_db(); }

workload::WorkloadMix mix2(const char* a, const char* b) {
  workload::WorkloadMix mix;
  mix.name = std::string(a) + "+" + b;
  mix.scenario = workload::Scenario::One;
  mix.app_ids = {db().suite().index_of(a), db().suite().index_of(b)};
  return mix;
}

rm::RmConfig cfg(rm::RmPolicy policy,
                 rm::PerfModelKind model = rm::PerfModelKind::Model3) {
  rm::RmConfig c;
  c.policy = policy;
  c.model = model;
  return c;
}

TEST(IntervalSim, RunsToInstructionBound) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Idle));
  const double interval = db().system().interval_instructions;
  const double bound =
      std::max(db().suite().app(r.cores[0].app).length_intervals(),
               db().suite().app(r.cores[1].app).length_intervals()) *
      interval;
  for (const CoreResult& c : r.cores) {
    EXPECT_GE(c.executed_instructions, bound);
    EXPECT_EQ(c.executed_instructions,
              static_cast<double>(c.intervals) * interval);
  }
}

TEST(IntervalSim, IdleRmNeverViolatesQos) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Idle));
  EXPECT_EQ(r.total_violations(), 0u);
  EXPECT_EQ(r.rm_invocations, 0u);
}

TEST(IntervalSim, EnergyAndTimePositive) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("gcc", "namd"), cfg(rm::RmPolicy::Rm3));
  EXPECT_GT(r.total_energy_j(), 0.0);
  EXPECT_GT(r.wall_time_s, 0.0);
  EXPECT_GT(r.uncore_energy_j, 0.0);
  EXPECT_NEAR(r.uncore_energy_j,
              db().power().uncore_power(2) * r.wall_time_s, 1e-9);
}

TEST(IntervalSim, ActiveRmInvokedOncePerBoundary) {
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm2));
  // One invocation per completed interval except final ones per core.
  EXPECT_GE(r.rm_invocations, r.total_intervals() - 2 * 2);
  EXPECT_GT(r.rm_ops, 0u);
}

TEST(IntervalSim, DeterministicRuns) {
  const IntervalSimulator sim(db());
  const RunResult a = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm3));
  const RunResult b = sim.run(mix2("mcf", "libquantum"), cfg(rm::RmPolicy::Rm3));
  EXPECT_DOUBLE_EQ(a.total_energy_j(), b.total_energy_j());
  EXPECT_EQ(a.total_violations(), b.total_violations());
  EXPECT_DOUBLE_EQ(a.wall_time_s, b.wall_time_s);
}

TEST(IntervalSim, ObserverSeesEveryInterval) {
  const IntervalSimulator sim(db());
  std::uint64_t observed = 0;
  double energy_sum = 0.0;
  const RunResult r =
      sim.run(mix2("povray", "sjeng"), cfg(rm::RmPolicy::Idle),
              [&](const IntervalObservation& obs) {
                ++observed;
                energy_sum += obs.energy_j;
                EXPECT_GE(obs.core, 0);
                EXPECT_LT(obs.core, 2);
                EXPECT_GT(obs.duration_s, 0.0);
              });
  EXPECT_EQ(observed, r.total_intervals());
  double counted = 0.0;
  for (const CoreResult& c : r.cores) counted += c.counted_energy_j;
  EXPECT_NEAR(energy_sum, counted, counted * 1e-9);
}

TEST(IntervalSim, OverheadsIncreaseEnergy) {
  SimOptions with;
  with.model_overheads = true;
  SimOptions without;
  without.model_overheads = false;
  const IntervalSimulator sim_with(db(), with);
  const IntervalSimulator sim_without(db(), without);
  const auto mix = mix2("mcf", "libquantum");
  const RunResult a = sim_with.run(mix, cfg(rm::RmPolicy::Rm3));
  const RunResult b = sim_without.run(mix, cfg(rm::RmPolicy::Rm3));
  EXPECT_GE(a.total_energy_j(), b.total_energy_j());
}

TEST(IntervalSim, ShorterAppRestartsUntilBound) {
  // povray (32 intervals) paired with mcf (64): povray must restart and
  // execute as many intervals as the longer app requires.
  const IntervalSimulator sim(db());
  const RunResult r = sim.run(mix2("povray", "mcf"), cfg(rm::RmPolicy::Idle));
  const int povray = db().suite().index_of("povray");
  ASSERT_EQ(r.cores[0].app, povray);
  EXPECT_GT(r.cores[0].intervals,
            static_cast<std::uint64_t>(
                db().suite().app(povray).length_intervals()));
}

/// Violation statistics recomputed from the observer stream against the
/// alpha-relaxed target (Eq. 6 with T_base * alpha as the reference).
struct ViolationTally {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
};

ViolationTally expected_violations(const RunResult& r, double alpha,
                                   double epsilon,
                                   const std::vector<IntervalObservation>& obs) {
  (void)r;
  ViolationTally t;
  for (const IntervalObservation& o : obs) {
    const double target = db().baseline_time(o.app, o.phase) * alpha;
    if (o.duration_s > target * (1.0 + epsilon)) {
      ++t.count;
      const double v = (o.duration_s - target) / target;
      t.sum += v;
      t.max = std::max(t.max, v);
    }
  }
  return t;
}

// Regression for the alpha-relative accounting fix: with a relaxed QoS
// constraint (alpha = 1.1) BOTH the violation condition and the Eq. 6
// magnitude must be measured against the alpha-relaxed target. The old code
// triggered on the relaxed target but accumulated (T - T_base) / T_base,
// overstating every magnitude by roughly the relaxation factor.
TEST(IntervalSim, ViolationMagnitudeMeasuredAgainstAlphaRelaxedTarget) {
  SimOptions opt;
  opt.qos_alpha_override = 1.1;
  const IntervalSimulator sim(db(), opt);
  std::vector<IntervalObservation> observations;
  // Model1 ignores MLP entirely, so its mispredictions produce violations
  // even under a relaxed constraint.
  const RunResult r =
      sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1),
              [&](const IntervalObservation& o) { observations.push_back(o); });

  const ViolationTally expect =
      expected_violations(r, 1.1, opt.qos_epsilon, observations);
  ASSERT_GT(expect.count, 0u) << "mix produces no violations at alpha=1.1; "
                                 "the regression test would be vacuous";

  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  for (const CoreResult& c : r.cores) {
    count += c.qos_violations;
    sum += c.violation_sum;
    max = std::max(max, c.violation_max);
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_DOUBLE_EQ(sum, expect.sum);
  EXPECT_DOUBLE_EQ(max, expect.max);

  // The base-relative (buggy) magnitude is strictly larger for every
  // violating interval; equality with the alpha-relative tally pins the fix.
  const ViolationTally base_relative =
      expected_violations(r, 1.0, (1.1 / 1.0) * (1.0 + opt.qos_epsilon) - 1.0,
                          observations);
  EXPECT_GT(base_relative.sum, expect.sum);
}

// At alpha = 1 the relaxed target IS the baseline time, so the fix must not
// move any number: magnitudes still equal the base-relative Eq. 6 values
// (this is why the alpha=1 golden CSV is unaffected by the fix).
TEST(IntervalSim, AlphaOneViolationAccountingUnchanged) {
  SimOptions opt;
  opt.qos_alpha_override = 1.0;
  const IntervalSimulator sim(db(), opt);
  std::vector<IntervalObservation> observations;
  const RunResult r =
      sim.run(mix2("mcf", "xalancbmk"), cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1),
              [&](const IntervalObservation& o) { observations.push_back(o); });
  const ViolationTally expect =
      expected_violations(r, 1.0, opt.qos_epsilon, observations);
  std::uint64_t count = 0;
  double sum = 0.0;
  for (const CoreResult& c : r.cores) {
    count += c.qos_violations;
    sum += c.violation_sum;
  }
  EXPECT_EQ(count, expect.count);
  EXPECT_DOUBLE_EQ(sum, expect.sum);

  // An explicit alpha=1 override and the database default (qos_alpha = 1)
  // must also be indistinguishable.
  const IntervalSimulator sim_default(db());
  const RunResult d = sim_default.run(mix2("mcf", "xalancbmk"),
                                      cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Model1));
  EXPECT_EQ(d.total_violations(), r.total_violations());
  EXPECT_DOUBLE_EQ(d.total_energy_j(), r.total_energy_j());
}

/// Bitwise equality of everything a sweep row reports about a run.
void expect_same_run(const RunResult& a, const RunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.total_energy_j(), b.total_energy_j()) << what;
  EXPECT_EQ(a.wall_time_s, b.wall_time_s) << what;
  EXPECT_EQ(a.total_violations(), b.total_violations()) << what;
  EXPECT_EQ(a.rm_ops, b.rm_ops) << what;
  EXPECT_EQ(a.rm_invocations, b.rm_invocations) << what;
}

TEST(IntervalSim, ScratchReuseProducesIdenticalResults) {
  // One RunScratch threaded through several runs must not change a single
  // bit of any result. The scratch keeps the ResourceManager (and its memo)
  // while config, system and database stay the same, so the sequence covers
  // reuse over several mixes, a Perfect-model row and an idle row in
  // between, baseline policies, and an alpha change and back - each run
  // checked against a scratch-less run and a memo-off run. The sweep's
  // perfect rows (Perfect time with perfect energy, memoized by the oracle
  // cell) run on consecutive mixes, so their memo is reused across mixes,
  // and once more after the alpha change.
  SimOptions relaxed;
  relaxed.qos_alpha_override = 1.1;
  const IntervalSimulator sim(db());
  const IntervalSimulator sim_relaxed(db(), relaxed);
  const auto mix_a = mix2("mcf", "libquantum");
  const auto mix_b = mix2("gcc", "namd");
  const auto mix_c = mix2("xalancbmk", "bwaves");
  const auto rm3 = cfg(rm::RmPolicy::Rm3);
  const auto perfect = cfg(rm::RmPolicy::Rm3, rm::PerfModelKind::Perfect);
  auto sweep_perfect = perfect;  // the sweep's Fig. 9 pairing
  sweep_perfect.energy.perfect = true;
  auto sweep_perfect_rm1 = sweep_perfect;
  sweep_perfect_rm1.policy = rm::RmPolicy::Rm1;
  struct Step {
    const IntervalSimulator* sim;
    const workload::WorkloadMix* mix;
    rm::RmConfig config;
  };
  const std::vector<Step> steps = {
      {&sim, &mix_a, rm3},
      {&sim, &mix_b, rm3},
      {&sim, &mix_c, rm3},
      {&sim, &mix_a, perfect},
      {&sim, &mix_b, rm3},
      {&sim, &mix_c, cfg(rm::RmPolicy::Idle)},
      {&sim, &mix_a, rm3},
      {&sim, &mix_b, cfg(rm::RmPolicy::Rm2)},
      {&sim, &mix_c, cfg(rm::RmPolicy::Ucp)},
      {&sim, &mix_a, cfg(rm::RmPolicy::Ucp)},
      {&sim, &mix_b, cfg(rm::RmPolicy::Fcp)},
      {&sim, &mix_a, sweep_perfect},
      {&sim, &mix_b, sweep_perfect},
      {&sim, &mix_c, sweep_perfect},
      {&sim, &mix_a, sweep_perfect_rm1},
      {&sim, &mix_b, sweep_perfect_rm1},
      {&sim_relaxed, &mix_a, rm3},
      {&sim_relaxed, &mix_c, rm3},
      {&sim_relaxed, &mix_b, sweep_perfect},
      {&sim_relaxed, &mix_c, sweep_perfect},
      {&sim, &mix_c, rm3},
      {&sim, &mix_b, rm3},
      {&sim, &mix_a, sweep_perfect},
  };
  RunScratch scratch;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    rm::RmConfig memo_off = s.config;
    memo_off.memo = rm::RmMemoMode::Off;
    const RunResult reused = s.sim->run(*s.mix, s.config, {}, &scratch);
    const RunResult fresh = s.sim->run(*s.mix, s.config);
    const RunResult plain = s.sim->run(*s.mix, memo_off);
    expect_same_run(reused, fresh, "step " + std::to_string(i));
    expect_same_run(reused, plain, "step " + std::to_string(i) + " memo off");
  }
}

/// A copy of `source` restored from its characterization under `power`: the
/// same system and key space, different interval energies.
workload::SimDb restored_db(const workload::SimDb& source,
                            const power::PowerModel& power) {
  std::vector<std::vector<workload::PhaseStats>> stats(
      static_cast<std::size_t>(source.suite().size()));
  for (int a = 0; a < source.suite().size(); ++a) {
    for (int ph = 0; ph < source.num_phases(a); ++ph) {
      stats[static_cast<std::size_t>(a)].push_back(source.stats(a, ph));
    }
  }
  return workload::SimDb(source.suite(), source.system(), power,
                         source.phase_options(), std::move(stats));
}

TEST(IntervalSim, ScratchNeverServesAFreedDatabasesOutcomes) {
  // A scratch outlives the databases it ran on. Two databases built one
  // after the other in the SAME storage share an address, but not an id:
  // the second must get a fresh ResourceManager and memo, so both match
  // scratch-less runs bit for bit.
  power::PowerParams hot;
  hot.leak_watt *= 4.0;
  hot.mem_energy_joule *= 0.25;
  const power::PowerModel powers[] = {db().power(), power::PowerModel(hot)};
  const auto mix = mix2("mcf", "libquantum");
  const auto rm3 = cfg(rm::RmPolicy::Rm3);

  RunScratch scratch;
  std::optional<workload::SimDb> slot;
  const workload::SimDb* first_address = nullptr;
  std::uint64_t first_id = 0;
  std::vector<RunResult> results;
  for (const power::PowerModel& power : powers) {
    slot.reset();
    slot.emplace(restored_db(db(), power));
    if (first_address == nullptr) {
      first_address = &*slot;
      first_id = slot->id();
    } else {
      ASSERT_EQ(&*slot, first_address);
      ASSERT_NE(slot->id(), first_id);
    }
    const IntervalSimulator sim(*slot);
    const RunResult reused = sim.run(mix, rm3, {}, &scratch);
    expect_same_run(reused, sim.run(mix, rm3),
                    "database " + std::to_string(results.size()));
    results.push_back(reused);
  }
  // The databases really differ, so a stale outcome would have shown.
  EXPECT_NE(results[0].rm_ops, results[1].rm_ops);
}

TEST(IntervalSim, SavingsAgainstSelfIsZero) {
  const IntervalSimulator sim(db());
  const RunResult idle = sim.run(mix2("gcc", "wrf"), cfg(rm::RmPolicy::Idle));
  EXPECT_DOUBLE_EQ(energy_savings(idle, idle), 0.0);
}

TEST(IntervalSim, ActiveRmSavesEnergyOnFavourableMix) {
  const IntervalSimulator sim(db());
  const auto mix = mix2("mcf", "libquantum");
  const RunResult idle = sim.run(mix, cfg(rm::RmPolicy::Idle));
  const RunResult rm3 = sim.run(mix, cfg(rm::RmPolicy::Rm3));
  EXPECT_GT(energy_savings(rm3, idle), 0.05);
}

}  // namespace
}  // namespace qosrm::rmsim
