#include "rmsim/interval_sim.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/check.hh"
#include "rmsim/snapshot.hh"

namespace qosrm::rmsim {

double RunResult::total_energy_j() const noexcept {
  double e = uncore_energy_j;
  for (const CoreResult& c : cores) e += c.counted_energy_j;
  return e;
}

std::uint64_t RunResult::total_intervals() const noexcept {
  std::uint64_t n = 0;
  for (const CoreResult& c : cores) n += c.intervals;
  return n;
}

std::uint64_t RunResult::total_violations() const noexcept {
  std::uint64_t n = 0;
  for (const CoreResult& c : cores) n += c.qos_violations;
  return n;
}

double RunResult::violation_rate() const noexcept {
  const std::uint64_t n = total_intervals();
  return n == 0 ? 0.0
                : static_cast<double>(total_violations()) / static_cast<double>(n);
}

IntervalSimulator::IntervalSimulator(const workload::SimDb& db,
                                     const SimOptions& options)
    : db_(&db), opt_(options) {}

namespace {

/// Per-core simulation state. An interval is FROZEN when it starts: its
/// phase, setting, duration and energy never change mid-flight. RM decisions
/// reaching a core mid-interval take effect at its next interval start
/// (interval-granularity enforcement, see DESIGN.md).
struct CoreState {
  int app = -1;
  int seq_pos = 0;          ///< sequence position of the RUNNING interval
  double executed = 0.0;    ///< instructions retired before this interval
  workload::Setting setting{};   ///< setting of the running interval
  workload::Setting pending{};   ///< latest RM decision for this core
  rm::EnforcementCost next_overhead{};  ///< charged to the next interval
  bool done = false;

  // Frozen properties of the running interval:
  int phase = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double energy_j = 0.0;
  double base_time_s = 0.0;  ///< baseline-setting time of the same phase
};

}  // namespace

/// Heap-allocated once per scratch; the vectors inside keep their capacity
/// (including each CounterSnapshot's ATD buffers) across runs.
struct RunScratch::Impl {
  std::vector<CoreState> cores;
  std::vector<rm::CounterSnapshot> snapshots;

  /// The last run's resource manager and the database it was built over
  /// (SimDb::id, never an address: a database freed and rebuilt in the same
  /// storage gets a new id).
  std::optional<rm::ResourceManager> manager;
  std::uint64_t manager_db = 0;

  /// A manager for (config, system, db): the previous run's, reset(), while
  /// all three are unchanged - a reset manager decides exactly like a fresh
  /// one, and its interval-outcome memo keeps every entry of the earlier
  /// mixes - otherwise a new one.
  rm::ResourceManager& manager_for(const rm::RmConfig& config,
                                   const arch::SystemConfig& system,
                                   const workload::SimDb& db) {
    if (manager.has_value() && manager_db == db.id() &&
        manager->config() == config && manager->system() == system) {
      manager->reset();
    } else {
      manager.emplace(config, system, db.power());
      manager_db = db.id();
    }
    return *manager;
  }
};

RunScratch::RunScratch() : impl_(std::make_unique<Impl>()) {}
RunScratch::~RunScratch() = default;
RunScratch::RunScratch(RunScratch&&) noexcept = default;
RunScratch& RunScratch::operator=(RunScratch&&) noexcept = default;

RunResult IntervalSimulator::run(const workload::WorkloadMix& mix,
                                 const rm::RmConfig& rm_config,
                                 const IntervalObserver& observer,
                                 RunScratch* scratch) const {
  const workload::SimDb& db = *db_;
  arch::SystemConfig sys = db.system();
  if (opt_.qos_alpha_override > 0.0) sys.qos_alpha = opt_.qos_alpha_override;
  QOSRM_CHECK(static_cast<int>(mix.app_ids.size()) == sys.cores);

  const workload::Setting base = workload::baseline_setting(sys);
  const bool perfect = rm_config.model == rm::PerfModelKind::Perfect;

  // Instruction bound: the longest application in the mix (paper: 4146B, the
  // longest SPEC app; every application restarts until it has run that much).
  double bound = 0.0;
  for (const int app : mix.app_ids) {
    bound = std::max(bound, static_cast<double>(db.suite().app(app).length_intervals()) *
                                sys.interval_instructions);
  }

  // Fallback scratch, materialized only when the caller brings none (a
  // caller-supplied scratch keeps the run free of even this allocation).
  std::optional<RunScratch> local;
  if (scratch == nullptr) scratch = &local.emplace();
  RunScratch::Impl& scr = *scratch->impl_;

  // The idle RM is never invoked (see the event loop), so an idle run leaves
  // the scratch's manager - and its memo - to the next managed run.
  rm::ResourceManager* manager =
      rm_config.policy == rm::RmPolicy::Idle
          ? nullptr
          : &scr.manager_for(rm_config, sys, db);
  rm::OverheadModel overheads(opt_.overheads, db.power());

  RunResult result;
  result.workload = mix.name;
  result.scenario = mix.scenario;
  result.policy = rm_config.policy;
  result.model = rm_config.model;
  result.cores.resize(static_cast<std::size_t>(sys.cores));

  std::vector<CoreState>& cores = scr.cores;
  std::vector<rm::CounterSnapshot>& snapshots = scr.snapshots;
  cores.assign(static_cast<std::size_t>(sys.cores), CoreState{});
  // resize (not assign) keeps each snapshot's ATD buffers; every field is
  // overwritten by make_snapshot_into before first use.
  snapshots.resize(static_cast<std::size_t>(sys.cores));

  auto phase_at = [&](const CoreState& st, int seq_pos) {
    const auto& seq = db.suite().app(st.app).phase_sequence;
    return seq[static_cast<std::size_t>(seq_pos) % seq.size()];
  };

  /// Freezes the next interval of `st`, adopting the pending setting and
  /// charging any accumulated enforcement/RM overheads.
  auto start_interval = [&](CoreState& st, double now_s) {
    if (!(st.pending == st.setting)) {
      if (opt_.model_overheads) {
        st.next_overhead += overheads.transition(st.setting, st.pending);
      }
      st.setting = st.pending;
    }
    st.phase = phase_at(st, st.seq_pos);
    st.start_s = now_s;
    st.end_s = now_s + db.total_seconds(st.app, st.phase, st.setting) +
               st.next_overhead.time_s;
    st.energy_j = db.total_joules(st.app, st.phase, st.setting) +
                  st.next_overhead.energy_j;
    st.base_time_s = db.baseline_time(st.app, st.phase);
    st.next_overhead = {};
  };

  for (int k = 0; k < sys.cores; ++k) {
    CoreState& st = cores[static_cast<std::size_t>(k)];
    st.app = mix.app_ids[static_cast<std::size_t>(k)];
    st.setting = base;
    st.pending = base;
    result.cores[static_cast<std::size_t>(k)].app = st.app;
    // Cold-start counters: pretend the first phase just ran at the baseline
    // so the RM has something to reason from at the first boundary.
    const int phase0 = phase_at(st, 0);
    make_snapshot_into(db, st.app, phase0, base, perfect ? phase0 : -1,
                       snapshots[static_cast<std::size_t>(k)]);
    start_interval(st, 0.0);
  }

  // Event loop: advance the earliest-completing interval (the "next global
  // event" of paper Fig. 5).
  for (;;) {
    int next_core = -1;
    double best_end = std::numeric_limits<double>::infinity();
    for (int k = 0; k < sys.cores; ++k) {
      const CoreState& st = cores[static_cast<std::size_t>(k)];
      if (!st.done && st.end_s < best_end) {
        best_end = st.end_s;
        next_core = k;
      }
    }
    if (next_core < 0) break;

    CoreState& st = cores[static_cast<std::size_t>(next_core)];
    CoreResult& cr = result.cores[static_cast<std::size_t>(next_core)];

    // --- account the completed interval ------------------------------------
    const double duration = st.end_s - st.start_s;
    st.executed += sys.interval_instructions;
    ++cr.intervals;
    cr.counted_energy_j += st.energy_j;

    // QoS target is the alpha-relaxed baseline time (Eq. 3); the violation
    // magnitude (Eq. 6) is measured against that SAME target, so relaxing
    // alpha shrinks both the violation count and the reported magnitudes.
    const double qos_target_s = st.base_time_s * sys.qos_alpha;
    if (duration > qos_target_s * (1.0 + opt_.qos_epsilon)) {
      ++cr.qos_violations;
      const double violation = (duration - qos_target_s) / qos_target_s;
      cr.violation_sum += violation;
      cr.violation_max = std::max(cr.violation_max, violation);
    }

    if (observer) {
      observer({next_core, st.app, st.phase, st.setting, st.start_s, duration,
                st.energy_j});
    }

    const int finished_phase = st.phase;
    ++st.seq_pos;

    if (st.executed >= bound) {
      st.done = true;
      cr.executed_instructions = st.executed;
      cr.finish_time_s = st.end_s;
      bool all_done = true;
      for (const CoreState& other : cores) all_done &= other.done;
      if (all_done) break;
      continue;
    }

    // --- RM invocation on the boundary core ---------------------------------
    // The idle RM never reconfigures anything; skip the invocation entirely
    // (it is the energy reference, not a managed run).
    if (manager == nullptr) {
      start_interval(st, st.end_s);
      continue;
    }
    const int next_phase = phase_at(st, st.seq_pos);
    make_snapshot_into(db, st.app, finished_phase, st.setting,
                       perfect ? next_phase : -1,
                       snapshots[static_cast<std::size_t>(next_core)]);

    const rm::RmDecision& decision = manager->invoke(next_core, snapshots);
    ++result.rm_invocations;
    result.rm_ops += decision.ops;

    if (opt_.model_overheads) {
      st.next_overhead += overheads.rm_execution(decision.ops, st.setting);
    }
    for (int k = 0; k < sys.cores; ++k) {
      if (!cores[static_cast<std::size_t>(k)].done) {
        cores[static_cast<std::size_t>(k)].pending =
            decision.settings[static_cast<std::size_t>(k)];
      }
    }

    start_interval(st, st.end_s);
  }

  double wall = 0.0;
  for (const CoreState& st : cores) wall = std::max(wall, st.end_s);
  result.wall_time_s = wall;
  result.uncore_energy_j = db.power().uncore_power(sys.cores) * wall;
  return result;
}

double energy_savings(const RunResult& run, const RunResult& idle) {
  const double e_idle = idle.total_energy_j();
  QOSRM_CHECK(e_idle > 0.0);
  return 1.0 - run.total_energy_j() / e_idle;
}

}  // namespace qosrm::rmsim
