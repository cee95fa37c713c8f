#include "cache/mlp_atd.hh"

#include <algorithm>

#include "common/check.hh"

namespace qosrm::cache {

MlpAtd::MlpAtd(const MlpAtdConfig& config) : cfg_(config) {
  QOSRM_CHECK(cfg_.sets > 0);
  QOSRM_CHECK(cfg_.max_ways > 0 && cfg_.max_ways < kRecencyMiss);
  QOSRM_CHECK(cfg_.min_ways >= 1 && cfg_.min_ways <= cfg_.max_ways);
  QOSRM_CHECK(cfg_.sample_period >= 1);
  QOSRM_CHECK(cfg_.index_bits >= 4 && cfg_.index_bits <= 32);
  const int sampled = (cfg_.sets + cfg_.sample_period - 1) / cfg_.sample_period;
  sampled_sets_.reserve(static_cast<std::size_t>(sampled));
  for (int i = 0; i < sampled; ++i) sampled_sets_.emplace_back(cfg_.max_ways);
  counters_.assign(static_cast<std::size_t>(arch::kNumCoreSizes) *
                       static_cast<std::size_t>(cfg_.num_allocations()),
                   Counter{});
  hit_at_.assign(static_cast<std::size_t>(cfg_.max_ways), 0);
  for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
    rob_[static_cast<std::size_t>(c_idx)] =
        arch::core_params(arch::kAllCoreSizes[c_idx]).rob;
  }
}

void MlpAtd::observe(const LlcAccess& access) {
  QOSRM_DCHECK(access.set < static_cast<std::uint32_t>(cfg_.sets));
  if (access.set % static_cast<std::uint32_t>(cfg_.sample_period) != 0) return;

  const std::uint32_t set_idx =
      access.set / static_cast<std::uint32_t>(cfg_.sample_period);
  const std::uint8_t pos = sampled_sets_[set_idx].access(access.tag);
  if (pos == kRecencyMiss) {
    ++atd_misses_;
  } else {
    ++hit_at_[pos];
  }

  // The instruction index is transmitted quantized: the low index_bits of the
  // dynamic instruction count (paper: 10 bits = a 1024-instruction window,
  // 4x the largest ROB).
  const std::uint32_t q_index =
      static_cast<std::uint32_t>(access.inst_index) & cfg_.index_mask();

  // Predicted to miss at allocation w <=> recency position >= w. A hit
  // leaves a counter untouched, so only the allocations the access misses
  // at are visited: w <= pos, or every w on an ATD miss.
  const int top = pos == kRecencyMiss ? cfg_.max_ways
                                      : std::min(static_cast<int>(pos), cfg_.max_ways);
  if (top < cfg_.min_ways) return;
  const auto missed = static_cast<std::size_t>(top - cfg_.min_ways + 1);
  for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
    const int rob = rob_[static_cast<std::size_t>(c_idx)];
    Counter* row = &counter(c_idx, cfg_.min_ways);
    for (std::size_t k = 0; k < missed; ++k) update_counter(row[k], rob, q_index);
  }
}

void MlpAtd::update_counter(Counter& ctr, int rob, std::uint32_t q_index) noexcept {
  auto count_lm = [&] {
    if (ctr.lm_count < cfg_.counter_max()) ++ctr.lm_count;
    ctr.last_lm_index = q_index;
    ctr.has_last_lm = true;
    ctr.has_ov = false;
    ctr.last_ov_dist = 0;
  };

  if (!ctr.has_last_lm) {  // first observed miss: leading by definition
    count_lm();
    return;
  }

  // Distance in the quantized index space (wraps modulo the window).
  const std::uint32_t dist =
      (q_index - ctr.last_lm_index) & cfg_.index_mask();

  if (dist != 0 && dist < static_cast<std::uint32_t>(rob)) {
    if (!ctr.has_ov || dist > ctr.last_ov_dist) {
      // In-order arrival within the ROB window: overlaps the last LM.
      ctr.has_ov = true;
      ctr.last_ov_dist = dist;
    } else {
      // Out-of-order arrival (smaller distance than the previous OV): the
      // load likely waited on data from the last LM -> new leading miss.
      count_lm();
    }
  } else {
    // Outside the ROB window (or aliased to zero): cannot overlap.
    count_lm();
  }
}

double MlpAtd::leading_misses(arch::CoreSize c, int w) const {
  QOSRM_CHECK(w >= cfg_.min_ways && w <= cfg_.max_ways);
  return static_cast<double>(counter(arch::core_size_index(c), w).lm_count) *
         static_cast<double>(cfg_.sample_period);
}

double MlpAtd::total_misses(int w) const {
  QOSRM_CHECK(w >= cfg_.min_ways && w <= cfg_.max_ways);
  // misses(w) = ATD misses + hits at recency positions >= w.
  std::uint64_t m = atd_misses_;
  for (int r = w; r < cfg_.max_ways; ++r) {
    m += hit_at_[static_cast<std::size_t>(r)];
  }
  return static_cast<double>(m) * static_cast<double>(cfg_.sample_period);
}

double MlpAtd::mlp(arch::CoreSize c, int w) const {
  const double lm = leading_misses(c, w);
  if (lm <= 0.0) return 1.0;
  return std::max(1.0, total_misses(w) / lm);
}

void MlpAtd::reset_counters() {
  std::fill(counters_.begin(), counters_.end(), Counter{});
  std::fill(hit_at_.begin(), hit_at_.end(), 0ULL);
  atd_misses_ = 0;
}

std::uint64_t MlpAtd::extension_storage_bits() const noexcept {
  // Per counter: lm_count (counter_bits) + last LM index (index_bits) +
  // last OV distance (index_bits) + 2 presence flags.
  const std::uint64_t per_counter = static_cast<std::uint64_t>(cfg_.counter_bits) +
                                    2ULL * static_cast<std::uint64_t>(cfg_.index_bits) +
                                    2ULL;
  return per_counter * counters_.size();
}

MlpAtd::Counter& MlpAtd::counter(int c_idx, int w) noexcept {
  return counters_[static_cast<std::size_t>(c_idx) *
                       static_cast<std::size_t>(cfg_.num_allocations()) +
                   static_cast<std::size_t>(w - cfg_.min_ways)];
}

const MlpAtd::Counter& MlpAtd::counter(int c_idx, int w) const noexcept {
  return counters_[static_cast<std::size_t>(c_idx) *
                       static_cast<std::size_t>(cfg_.num_allocations()) +
                   static_cast<std::size_t>(w - cfg_.min_ways)];
}

}  // namespace qosrm::cache
