#include "workload/eval_table.hh"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "workload/sim_db.hh"

namespace qosrm::workload {
namespace {

/// A plausible characterization of every suite phase without running the
/// cache substrate: miss curves fall with w, leading misses with core size.
/// The table build only needs the shapes and the model inputs, so a SimDb
/// restored from these stats materializes its table in milliseconds.
std::vector<std::vector<PhaseStats>> synthetic_stats(const SpecSuite& suite,
                                                     const arch::SystemConfig& sys) {
  std::vector<std::vector<PhaseStats>> stats(static_cast<std::size_t>(suite.size()));
  for (int a = 0; a < suite.size(); ++a) {
    for (int ph = 0; ph < suite.app(a).num_phases(); ++ph) {
      PhaseStats st;
      st.interval_instructions = sys.interval_instructions;
      st.llc_accesses = 2e6;
      st.write_frac = 0.25;
      st.ilp = 1.5 + 0.1 * ph;
      st.cpi_branch = 0.05;
      st.cpi_cache = 0.1 + 0.01 * a;
      for (int w = 1; w <= sys.llc.max_ways; ++w) {
        const double misses = 1e6 / w;
        st.misses.push_back(misses);
        for (int c = 0; c < arch::kNumCoreSizes; ++c) {
          st.lm_true[static_cast<std::size_t>(c)].push_back(misses / (2 + c));
          st.lm_atd[static_cast<std::size_t>(c)].push_back(misses / (2 + c));
        }
      }
      stats[static_cast<std::size_t>(a)].push_back(std::move(st));
    }
  }
  return stats;
}

// Each value is stored once over the axes it depends on: two dense doubles
// per (c, f, b, w) cell plus factored arrays, about 16 B per cell.
TEST(EvalTable, HoldsAtMostSeventeenBytesPerCell) {
  for (const int shares : {1, 2}) {
    arch::SystemConfig sys;
    sys.cores = 4;
    sys.bw = arch::bw_config_for_shares(shares);
    const SimDb db(spec_suite(), sys, power::PowerModel{}, PhaseStatsOptions{},
                   synthetic_stats(spec_suite(), sys));
    const double cells = static_cast<double>(db.interval_key_space());
    ASSERT_GT(cells, 0.0);
    EXPECT_LE(static_cast<double>(db.table_bytes()) / cells, 17.0)
        << shares << " shares: " << db.table_bytes() << " bytes for " << cells
        << " cells";
    // The two dense arrays alone are 16 B per cell.
    EXPECT_GE(static_cast<double>(db.table_bytes()), 16.0 * cells);
  }
}

}  // namespace
}  // namespace qosrm::workload
