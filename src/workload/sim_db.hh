// The simulation database (paper Section IV-A).
//
// The paper runs Sniper+McPAT once per (phase, core configuration, VF
// setting, LLC allocation) and stores the results; the RM simulator then
// replays applications against that database. SimDb mirrors that split:
//
//   * characterization - one PhaseStats per (app, phase), produced by the
//     trace-driven cache substrate (the expensive part, parallel build);
//   * materialized evaluation - an EvalTable holding interval time and core
//     energy densely over the full finite (core size x VF point x share x
//     way) grid, the other timing and energy fields factored over only the
//     axes they depend on, plus baseline-time/MPKI/MLP aggregates, so every
//     hot query is an array lookup.
//
// The characterization is serializable: workload/db_io.hh saves it to a
// versioned binary snapshot and restores it in milliseconds (the table is
// rebuilt deterministically from the restored stats).
#ifndef QOSRM_WORKLOAD_SIM_DB_HH
#define QOSRM_WORKLOAD_SIM_DB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "arch/system_config.hh"
#include "power/power_model.hh"
#include "workload/eval_table.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {

struct SimDbOptions {
  PhaseStatsOptions phase{};
  /// Build parallelism, the calling thread included; 0 = hardware
  /// concurrency. The database is identical for every value.
  int threads = 0;
};

/// Seed of the synthesized trace of `app`'s phase `phase`.
[[nodiscard]] std::uint64_t phase_trace_seed(const AppProfile& app, int phase) noexcept;

class SimDb {
 public:
  /// Characterizes every phase of every suite application (parallel build),
  /// then materializes the evaluation table.
  SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
        const power::PowerModel& power, const SimDbOptions& options = {});

  /// Restores a database from an already-computed characterization (snapshot
  /// load path; see workload/db_io.hh). Only the evaluation table is rebuilt.
  SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
        const power::PowerModel& power, const PhaseStatsOptions& phase_options,
        std::vector<std::vector<PhaseStats>> stats);

  [[nodiscard]] const SpecSuite& suite() const noexcept { return *suite_; }
  [[nodiscard]] const arch::SystemConfig& system() const noexcept { return system_; }
  [[nodiscard]] const power::PowerModel& power() const noexcept { return power_; }
  [[nodiscard]] const PhaseStatsOptions& phase_options() const noexcept {
    return phase_opts_;
  }

  [[nodiscard]] const PhaseStats& stats(int app, int phase) const;
  [[nodiscard]] int num_phases(int app) const;

  /// Ground-truth interval timing of (app, phase) at setting s.
  [[nodiscard]] arch::IntervalTiming timing(int app, int phase,
                                            const Setting& s) const {
    return table_.timing(app, phase, s);
  }

  /// Ground-truth interval energy (core + memory; uncore is system-level),
  /// recomputed with the power-model call the table build makes. The hot
  /// paths read core_joules()/total_joules() instead.
  [[nodiscard]] power::IntervalEnergy energy(int app, int phase,
                                             const Setting& s) const;

  /// timing(...).total_seconds (one dense lookup).
  [[nodiscard]] double total_seconds(int app, int phase, const Setting& s) const {
    return table_.total_seconds(app, phase, s);
  }

  /// timing(...).mem_seconds (one factored lookup).
  [[nodiscard]] double mem_seconds(int app, int phase, const Setting& s) const {
    return table_.mem_seconds(app, phase, s);
  }

  /// energy(...).core_j() (one dense lookup).
  [[nodiscard]] double core_joules(int app, int phase, const Setting& s) const {
    return table_.core_joules(app, phase, s);
  }

  /// energy(...).total_j() (a dense and a factored lookup).
  [[nodiscard]] double total_joules(int app, int phase, const Setting& s) const {
    return table_.total_joules(app, phase, s);
  }

  /// Contiguous w-row of interval wall-clock times at fixed (c, f_idx, b);
  /// element w-1 is timing(app, phase, {c, f_idx, w, b}).total_seconds.
  [[nodiscard]] std::span<const double> total_seconds_row(int app, int phase,
                                                          arch::CoreSize c,
                                                          int f_idx,
                                                          int b = 1) const {
    return table_.total_seconds_row(app, phase, c, f_idx, b);
  }

  /// Contiguous w-row of interval memory stall times at fixed (c, f_idx, b).
  [[nodiscard]] std::span<const double> mem_seconds_row(int app, int phase,
                                                        arch::CoreSize c,
                                                        int f_idx,
                                                        int b = 1) const {
    return table_.mem_seconds_row(app, phase, c, f_idx, b);
  }

  /// Dense memo key of the (app, phase, setting) evaluation cell.
  [[nodiscard]] std::int64_t interval_key(int app, int phase,
                                          const Setting& s) const {
    return table_.interval_key(app, phase, s);
  }

  /// One past the largest interval_key() this database can produce.
  [[nodiscard]] std::int64_t interval_key_space() const noexcept {
    return table_.interval_key_space();
  }

  /// Heap bytes of the evaluation table's dense and factored value arrays.
  [[nodiscard]] std::size_t table_bytes() const noexcept { return table_.bytes(); }

  /// Process-unique identity of this instance's contents: never 0, never
  /// reused, and redrawn whenever the object is copied, moved or assigned
  /// to. Caches keyed by it (the RM's interval-outcome memo, RunScratch's
  /// reused ResourceManager) can therefore never confuse a database with one
  /// built later at the same address.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_.value; }

  /// Interval wall-clock time at the baseline setting (the QoS reference).
  [[nodiscard]] double baseline_time(int app, int phase) const {
    return table_.baseline_time(app, phase);
  }

  /// Weighted-average MPKI of an application at allocation w (phase weights).
  [[nodiscard]] double app_mpki(int app, int w) const {
    return table_.app_mpki(app, w);
  }

  /// Weighted-average ground-truth MLP of an application at (c, baseline w).
  [[nodiscard]] double app_mlp(int app, arch::CoreSize c) const {
    return table_.app_mlp(app, c);
  }

 private:
  const SpecSuite* suite_;
  arch::SystemConfig system_;
  power::PowerModel power_;
  PhaseStatsOptions phase_opts_;
  std::vector<std::vector<PhaseStats>> stats_;  // [app][phase]
  EvalTable table_;

  /// Draws a fresh id on construction, copy and assignment alike, so the
  /// defaulted special members of SimDb keep the identity guarantee.
  struct InstanceId {
    std::uint64_t value = next();
    InstanceId() = default;
    InstanceId(const InstanceId&) noexcept : value(next()) {}
    InstanceId& operator=(const InstanceId&) noexcept {
      value = next();
      return *this;
    }
    [[nodiscard]] static std::uint64_t next() noexcept;
  };
  InstanceId id_;
};

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_SIM_DB_HH
