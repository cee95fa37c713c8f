#include "cache/mlp_oracle.hh"

#include <algorithm>
#include <limits>

#include "cache/recency.hh"
#include "common/check.hh"

namespace qosrm::cache {

double MlpOracle::leading_misses(std::span<const LlcAccess> trace,
                                 std::span<const std::uint8_t> recency,
                                 arch::CoreSize c, int w) {
  QOSRM_CHECK(trace.size() == recency.size());
  const arch::CoreParams& core = arch::core_params(c);
  const std::uint64_t rob = static_cast<std::uint64_t>(core.rob);
  const int lsq = core.lsq;

  double lm = 0.0;
  bool has_last_lm = false;
  std::uint64_t last_lm_index = 0;
  int group_outstanding = 0;   // loads overlapping the current leading miss
  bool prev_load_missed = false;  // did the previous trace load miss at w?

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LlcAccess& a = trace[i];
    const bool miss = misses_at(recency[i], w);
    if (!miss) {
      // Hits complete quickly; they neither extend nor break overlap groups.
      prev_load_missed = false;
      continue;
    }

    // Serialized behind a missing producer: the address depends on data that
    // is still in flight, so this load cannot overlap the current group.
    const bool serialized = a.depends_on_prev && prev_load_missed;

    const bool within_window =
        has_last_lm && (a.inst_index - last_lm_index) < rob;
    const bool lsq_room = group_outstanding + 1 < lsq;

    if (within_window && !serialized && lsq_room) {
      ++group_outstanding;  // overlapped miss
    } else {
      lm += 1.0;
      has_last_lm = true;
      last_lm_index = a.inst_index;
      group_outstanding = 1;
    }
    prev_load_missed = true;
  }
  return lm;
}

std::array<std::vector<double>, arch::kNumCoreSizes> MlpOracle::leading_miss_curves(
    std::span<const LlcAccess> trace, std::span<const std::uint8_t> recency,
    int min_ways, int max_ways) {
  QOSRM_CHECK(trace.size() == recency.size());
  QOSRM_CHECK(min_ways >= 1 && min_ways <= max_ways);
  const auto ways = static_cast<std::size_t>(max_ways - min_ways + 1);

  // The state of leading_misses() per (core size, allocation) lane. A hit
  // leaves the group state alone, so only the lanes an access misses at
  // (w <= recency) are visited. Hit lanes need no state either: the
  // prev_load_missed flag of lane w is misses_at(previous recency, w),
  // because every access, hit or miss, sets it.
  struct Lane {
    std::uint64_t lm = 0;  // leading misses so far; > 0 <=> has_last_lm
    std::uint64_t last_lm_index = 0;
    int group_outstanding = 0;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(arch::kNumCoreSizes) * ways);
  std::array<std::uint64_t, arch::kNumCoreSizes> rob{};
  std::array<int, arch::kNumCoreSizes> lsq{};
  for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
    const arch::CoreParams& core = arch::core_params(arch::kAllCoreSizes[c_idx]);
    rob[static_cast<std::size_t>(c_idx)] = static_cast<std::uint64_t>(core.rob);
    lsq[static_cast<std::size_t>(c_idx)] = core.lsq;
  }

  // Largest w at which recency r misses (kRecencyMiss misses everywhere).
  auto miss_top = [](std::uint8_t r) {
    return r == kRecencyMiss ? std::numeric_limits<int>::max() : static_cast<int>(r);
  };
  int prev_top = 0;  // nothing precedes the first access: no lane missed
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const LlcAccess& a = trace[i];
    const int top = miss_top(recency[i]);
    // Lanes w <= serial_top are serialized behind a missing producer.
    const int serial_top = a.depends_on_prev ? prev_top : 0;
    prev_top = top;
    const int hi = std::min(top, max_ways);
    if (hi < min_ways) continue;
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      const std::uint64_t c_rob = rob[static_cast<std::size_t>(c_idx)];
      const int c_lsq = lsq[static_cast<std::size_t>(c_idx)];
      Lane* row = lanes.data() + static_cast<std::size_t>(c_idx) * ways;
      for (int w = min_ways; w <= hi; ++w) {
        Lane& lane = row[w - min_ways];
        const bool within_window =
            lane.lm > 0 && (a.inst_index - lane.last_lm_index) < c_rob;
        if (within_window && w > serial_top && lane.group_outstanding + 1 < c_lsq) {
          ++lane.group_outstanding;  // overlapped miss
        } else {
          ++lane.lm;
          lane.last_lm_index = a.inst_index;
          lane.group_outstanding = 1;
        }
      }
    }
  }

  std::array<std::vector<double>, arch::kNumCoreSizes> curves;
  for (std::size_t c_idx = 0; c_idx < curves.size(); ++c_idx) {
    curves[c_idx].reserve(ways);
    for (std::size_t k = 0; k < ways; ++k) {
      curves[c_idx].push_back(static_cast<double>(lanes[c_idx * ways + k].lm));
    }
  }
  return curves;
}

}  // namespace qosrm::cache
