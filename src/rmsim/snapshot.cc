#include "rmsim/snapshot.hh"

#include "arch/dvfs.hh"
#include "power/energy_meter.hh"

namespace qosrm::rmsim {

void make_snapshot_into(const workload::SimDb& db, int app, int phase,
                        const workload::Setting& current, int oracle_phase,
                        rm::CounterSnapshot& out) {
  const workload::PhaseStats& st = db.stats(app, phase);
  const arch::IntervalTiming timing = db.timing(app, phase, current);
  const double f_hz = arch::VfTable::frequency_hz(current.f_idx);

  out.current = current;
  out.instructions = st.interval_instructions;
  out.total_time_s = timing.total_seconds;
  out.t_width_s = timing.width_cycles / f_hz;
  out.t_ilp_s = timing.ilp_cycles / f_hz;
  out.t_branch_s = timing.branch_cycles / f_hz;
  out.t_cache_s = timing.cache_cycles / f_hz;
  out.t_mem_s = timing.mem_seconds;
  out.llc_accesses = st.llc_accesses;
  out.llc_misses = st.misses[static_cast<std::size_t>(current.w - 1)];
  out.writebacks = st.writebacks(current.w);
  out.measured_mlp = st.mlp_true(current.c, current.w);
  // assign() reuses the capacity of the caller's vectors.
  out.atd_misses.assign(st.misses.begin(), st.misses.end());
  for (std::size_t i = 0; i < out.atd_leading_misses.size(); ++i) {
    out.atd_leading_misses[i].assign(st.lm_atd[i].begin(), st.lm_atd[i].end());
  }

  // RAPL-like dynamic power sample from the measured interval.
  out.power_sample = power::sample_interval(
      db.power(), current.c, arch::VfTable::point(current.f_idx),
      db.core_joules(app, phase, current), timing.total_seconds);

  out.oracle = oracle_phase >= 0 ? rm::OracleRef{&db, app, oracle_phase}
                                 : rm::OracleRef{};

  // Memo identity: every refresh restamps the key, so a stale outcome can
  // never be served for counters the snapshot no longer holds.
  out.memo_key = db.interval_key(app, phase, current);
  out.memo_space = db.interval_key_space();
  out.memo_db = db.id();
}

rm::CounterSnapshot make_snapshot(const workload::SimDb& db, int app, int phase,
                                  const workload::Setting& current,
                                  int oracle_phase) {
  rm::CounterSnapshot snap;
  make_snapshot_into(db, app, phase, current, oracle_phase, snap);
  return snap;
}

}  // namespace qosrm::rmsim
