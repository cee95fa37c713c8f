// Materialized evaluation layer (paper Section IV-A).
//
// The paper runs Sniper+McPAT once per (phase, core configuration, VF
// setting, LLC allocation) and the RM simulator replays applications against
// the stored results. EvalTable is that materialization: at build time it
// evaluates the ground-truth analytical models over the full finite
// (core size x VF point x bandwidth share x way) grid of every characterized
// phase - plus the baseline-time, MPKI and MLP aggregates the QoS check and
// the classifier ask for on every query - so the hot loops of the interval
// simulator and the QoS evaluator are array lookups instead of repeated
// evaluate_interval/memory_truth calls.
//
// Each value is stored once, over only the axes it depends on:
//
//   dense    [c][f][b][w]  total_s, core_j   (the only values that vary
//                                             along every axis)
//   factored [c][b][w]     mem_s             (no frequency term)
//            [c]           width_cycles, ilp_cycles
//            per phase     branch_cycles, cache_cycles
//            [w]           memory_j          (DRAM accesses depend on w only)
//
// That is about 16 bytes per cell. Everything else is derived on lookup with
// the same arithmetic the models use: core_seconds = busy_cycles() / f,
// total_joules = core_j + memory_j, and timing() assembles an IntervalTiming
// by value. The build checks that every factored value is bitwise equal
// along each axis it drops (and that the derived core_seconds matches), so a
// model change that breaks a factorization aborts the build instead of
// serving wrong cells. Every stored value is produced by exactly the calls
// the pre-table SimDb made on demand, so lookups are bit-identical to direct
// evaluation (tests enforce this over the full grid).
#ifndef QOSRM_WORKLOAD_EVAL_TABLE_HH
#define QOSRM_WORKLOAD_EVAL_TABLE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/core_config.hh"
#include "arch/core_model.hh"
#include "arch/dvfs.hh"
#include "arch/system_config.hh"
#include "power/power_model.hh"
#include "workload/phase_stats.hh"
#include "workload/spec_suite.hh"

namespace qosrm::workload {

/// A concrete resource setting for one core: the full multi-resource
/// allocation vector (core size, VF point, LLC ways, memory-bandwidth
/// shares). `b` defaults to the degenerate single share, so ways-only code
/// paths and literals keep their pre-CBP meaning.
struct Setting {
  arch::CoreSize c = arch::kBaselineCoreSize;
  int f_idx = arch::VfTable::kBaselineIndex;
  int w = 8;
  int b = 1;  ///< granted memory-bandwidth shares

  [[nodiscard]] bool operator==(const Setting&) const = default;
};

/// The per-core slice of a global resource allocation: the shared-resource
/// pair the global optimizer distributes (ways x bandwidth shares).
struct ResourceAlloc {
  int ways = 0;
  int bw_shares = 1;

  [[nodiscard]] bool operator==(const ResourceAlloc&) const = default;
};

/// The baseline system setting (M core, 2 GHz, even LLC split).
[[nodiscard]] Setting baseline_setting(const arch::SystemConfig& system);

class EvalTable {
 public:
  EvalTable() = default;

  /// Evaluates timing/energy for every (app, phase) in `stats` over the full
  /// (core size x VF point x share x way) grid, and precomputes the
  /// per-phase baseline times and per-app MPKI/MLP aggregates.
  EvalTable(const SpecSuite& suite, const arch::SystemConfig& system,
            const power::PowerModel& power,
            const std::vector<std::vector<PhaseStats>>& stats);

  /// Ground-truth interval timing of (app, phase) at setting s, assembled
  /// from the dense and factored arrays.
  [[nodiscard]] arch::IntervalTiming timing(int app, int phase,
                                            const Setting& s) const;

  // --- scalar accessors ----------------------------------------------------
  // Single-field consumers (the interval simulators' start-of-interval
  // accounting, the QoS evaluator's t_act sweep, the perfect models' oracle
  // scans) read one or two doubles instead of assembling a struct.

  /// timing(...).total_seconds.
  [[nodiscard]] double total_seconds(int app, int phase, const Setting& s) const;
  /// timing(...).mem_seconds.
  [[nodiscard]] double mem_seconds(int app, int phase, const Setting& s) const;
  /// Ground-truth core energy (dynamic + static) at setting s.
  [[nodiscard]] double core_joules(int app, int phase, const Setting& s) const;
  /// Ground-truth interval energy, core + memory: core_joules + memory_j(w).
  [[nodiscard]] double total_joules(int app, int phase, const Setting& s) const;

  /// Contiguous w-row of interval wall-clock times at fixed (c, f_idx, b):
  /// element w-1 equals timing(app, phase, {c, f_idx, w, b}).total_seconds
  /// for w in [1, row.size()]. The batched form of a per-setting sweep over
  /// w. Rows are bw-major: all w-rows of one (c, f) block sit back to back
  /// in ascending b, so a b-sweep at fixed (c, f) streams contiguously too.
  [[nodiscard]] std::span<const double> total_seconds_row(int app, int phase,
                                                          arch::CoreSize c,
                                                          int f_idx,
                                                          int b = 1) const;
  /// Contiguous w-row of interval memory stall times at fixed (c, f_idx, b).
  /// Memory time has no frequency term, so every f_idx yields the same row.
  [[nodiscard]] std::span<const double> mem_seconds_row(int app, int phase,
                                                        arch::CoreSize c,
                                                        int f_idx,
                                                        int b = 1) const;

  // --- dense interval keys -------------------------------------------------
  // Every (app, phase, setting) cell of this table has a unique dense key in
  // [0, interval_key_space()), suitable for flat-array memoization of
  // per-cell decisions (rm::ResourceManager's interval-outcome memo).
  // Settings whose w clamps to the same grid cell share the key - and, by
  // construction, every stored value.

  /// Dense key of the (app, phase, setting) grid cell.
  [[nodiscard]] std::int64_t interval_key(int app, int phase,
                                          const Setting& s) const;
  /// One past the largest key this table can produce.
  [[nodiscard]] std::int64_t interval_key_space() const noexcept {
    return key_space_;
  }

  /// Interval wall-clock time at the baseline setting (the QoS reference).
  [[nodiscard]] double baseline_time(int app, int phase) const;

  /// Weighted-average MPKI of an application at allocation w (phase weights).
  [[nodiscard]] double app_mpki(int app, int w) const;

  /// Weighted-average ground-truth MLP of an application at (c, baseline w).
  [[nodiscard]] double app_mlp(int app, arch::CoreSize c) const;

  [[nodiscard]] bool empty() const noexcept { return grids_.empty(); }

  /// Bytes held by the dense and factored value arrays of every phase.
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  /// One phase's values. Dense arrays are [c][f][b][w-1] flattened
  /// row-major (bw-major w-rows: the w axis stays innermost and contiguous;
  /// the share axis sits directly above it); mem_s is the same layout
  /// without the f axis. The share axis covers [min_shares, max_shares] of
  /// the system's BwConfig and has exactly one point in the degenerate
  /// default.
  struct PhaseGrid {
    int max_ways = 0;
    int min_shares = 1;    ///< lowest share the b axis covers
    int num_shares = 1;    ///< extent of the b axis
    double baseline_time_s = 0.0;
    std::int64_t key_off = 0;  ///< cumulative cell offset (interval keys)
    double branch_cycles = 0.0;
    double cache_cycles = 0.0;
    std::array<double, arch::kNumCoreSizes> width_cycles{};  ///< [c]
    std::array<double, arch::kNumCoreSizes> ilp_cycles{};    ///< [c]
    std::vector<double> total_s;   ///< [c][f][b][w-1]
    std::vector<double> core_j;    ///< [c][f][b][w-1]
    std::vector<double> mem_s;     ///< [c][b][w-1]
    std::vector<double> memory_j;  ///< [w-1]
  };

  struct AppAggregates {
    std::vector<double> mpki;  ///< [w-1]
    std::array<double, arch::kNumCoreSizes> mlp{};
  };

  [[nodiscard]] const PhaseGrid& grid(int app, int phase) const;
  /// Flat offset of the contiguous w-row at (c, f_idx, b) in the dense
  /// arrays.
  [[nodiscard]] static std::size_t row_offset(const PhaseGrid& g,
                                              arch::CoreSize c, int f_idx,
                                              int b);
  /// Flat offset of the contiguous w-row at (c, b) in mem_s.
  [[nodiscard]] static std::size_t mem_row_offset(const PhaseGrid& g,
                                                  arch::CoreSize c, int b);
  /// The four cycle fields of core size c_idx (the rest zero); the caller
  /// derives core_seconds as busy_cycles() / f, as evaluate_interval does.
  [[nodiscard]] static arch::IntervalTiming cycles(const PhaseGrid& g,
                                                   int c_idx);
  /// Way index of s into a w-row (w clamped like PhaseStats accessors).
  [[nodiscard]] static std::size_t way_index(const PhaseGrid& g, const Setting& s);

  std::vector<std::vector<PhaseGrid>> grids_;  // [app][phase]
  std::vector<AppAggregates> aggregates_;      // [app]
  std::int64_t key_space_ = 0;                 // total cells across all grids
};

}  // namespace qosrm::workload

#endif  // QOSRM_WORKLOAD_EVAL_TABLE_HH
