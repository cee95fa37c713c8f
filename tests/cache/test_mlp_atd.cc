#include "cache/mlp_atd.hh"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/rng.hh"

namespace qosrm::cache {
namespace {

MlpAtdConfig tiny_config() {
  MlpAtdConfig cfg;
  cfg.sets = 1;
  cfg.max_ways = 16;
  cfg.min_ways = 1;
  cfg.index_bits = 10;
  return cfg;
}

/// Feeds accesses that ALL miss (unique tags) with the given instruction
/// indices, in the given arrival order.
void feed_misses(MlpAtd& atd, const std::vector<std::uint64_t>& inst_indices) {
  std::uint64_t tag = 1000;
  for (const std::uint64_t idx : inst_indices) {
    atd.observe({idx, 0, tag++, false});
  }
}

// ---------------------------------------------------------------------------
// Paper Fig. 4, literally: loads LD1(inst 5), LD2(inst 20), LD3(inst 33),
// LD4(inst 90); ATD arrival order LD1, LD3, LD2, LD4 (LD2 delayed by a data
// dependency on LD1). All predicted to miss.
//
//   Core S (ROB 64): LD1 LM; LD3 dist 28 < 64 -> OV; LD2 dist 15 < 28 ->
//   out-of-order -> dependency -> LM; LD4 dist 70 > 64 -> LM.   => 3 LMs
//   Core M (ROB 128): same until LD4: dist 70 < 128 -> OV.      => 2 LMs
// ---------------------------------------------------------------------------
TEST(MlpAtd, PaperFigure4WalkthroughCoreS) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
}

TEST(MlpAtd, PaperFigure4WalkthroughCoreM) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::M, 16), 2.0);
}

TEST(MlpAtd, PaperFigure4WalkthroughCoreL) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {5, 33, 20, 90});
  // ROB 256: LD4 also overlaps; only LD1 and the dependent LD2 lead.
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 2.0);
}

TEST(MlpAtd, FirstMissIsAlwaysLeading) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {100});
  for (const arch::CoreSize c : arch::kAllCoreSizes) {
    EXPECT_DOUBLE_EQ(atd.leading_misses(c, 16), 1.0);
  }
}

TEST(MlpAtd, InOrderBurstWithinRobOverlaps) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 20, 30, 40});  // distances 10,20,30 all < 64
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 1.0);
}

TEST(MlpAtd, BeyondRobStartsNewGroup) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 100, 400});  // 90 > 64 and 300 > 256
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::M, 16), 2.0);  // 90 < 128
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 2.0);  // 300 > 256
}

TEST(MlpAtd, OutOfOrderArrivalFlaggedAsDependencyPerCounter) {
  MlpAtd atd(tiny_config());
  // Arrival: 10, then 50 (OV dist 40), then 30 (dist 20 < 40 -> LM).
  feed_misses(atd, {10, 50, 30});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 2.0);
}

TEST(MlpAtd, HitsDoNotTouchCounters) {
  MlpAtd atd(tiny_config());
  atd.observe({10, 0, 7, false});   // cold miss -> LM at every w
  atd.observe({20, 0, 7, false});   // hits at recency 0 -> misses nowhere
  for (int w = 1; w <= 16; ++w) {
    EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, w), 1.0) << w;
  }
}

TEST(MlpAtd, PerAllocationMissPredicateDiffers) {
  MlpAtd atd(tiny_config());
  // Build up a set with tags A,B; touching A at recency position 1 counts as
  // a miss for w=1 but a hit for w>=2.
  atd.observe({10, 0, 1, false});   // A cold
  atd.observe({200, 0, 2, false});  // B cold (new LM group at S, dist 190)
  atd.observe({420, 0, 1, false});  // A at recency 1: miss only for w=1
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 1), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 2), 2.0);
}

TEST(MlpAtd, IndexQuantizationAliasesLongDistances) {
  // Window = 2^10 = 1024. A distance of 1024+32 aliases to 32 < ROB, so the
  // hardware wrongly counts OV - the documented pessimism of 10-bit indices.
  MlpAtd atd(tiny_config());
  feed_misses(atd, {0, 1056});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 1.0);

  // With more index bits the same pattern is classified correctly.
  MlpAtdConfig wide = tiny_config();
  wide.index_bits = 16;
  MlpAtd atd_wide(wide);
  feed_misses(atd_wide, {0, 1056});
  EXPECT_DOUBLE_EQ(atd_wide.leading_misses(arch::CoreSize::S, 16), 2.0);
}

// index_bits == 32 is the widest width the config accepts; its mask must keep
// all 32 bits (a mask of 0 would count every miss as leading). On a stream
// whose index gaps fit in 31 bits, 31 and 32 index bits see the same
// distances and so must give identical counters.
TEST(MlpAtd, ThirtyTwoIndexBitsMatchThirtyOne) {
  auto counters = [](int index_bits) {
    MlpAtdConfig cfg = tiny_config();
    cfg.index_bits = index_bits;
    MlpAtd atd(cfg);
    // Indices start above 2^32 so quantization truncates; arrivals are
    // displaced by up to 200 instructions, so some gaps are negative.
    Rng rng(7);
    std::uint64_t inst = (std::uint64_t{1} << 33) + 5;
    std::uint64_t fresh = 1000;
    for (int i = 0; i < 4000; ++i) {
      inst += 1 + rng.uniform_u64(300);
      const std::uint64_t tag = rng.bernoulli(0.5) ? fresh++ : rng.uniform_u64(24);
      atd.observe({inst + rng.uniform_u64(200), 0, tag, false});
    }
    std::vector<double> lm;
    for (const arch::CoreSize c : arch::kAllCoreSizes) {
      for (int w = 1; w <= cfg.max_ways; ++w) lm.push_back(atd.leading_misses(c, w));
    }
    return lm;
  };
  const std::vector<double> at31 = counters(31);
  EXPECT_EQ(counters(32), at31);

  // The stream overlaps misses, so "every miss leads" would show.
  MlpAtdConfig cfg = tiny_config();
  cfg.index_bits = 32;
  MlpAtd atd(cfg);
  feed_misses(atd, {5, 33, 20, 90});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 3.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 2.0);
}

TEST(MlpAtd, TotalMissesMatchUmonView) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 500, 2000});  // three cold misses
  for (int w = 1; w <= 16; ++w) {
    EXPECT_DOUBLE_EQ(atd.total_misses(w), 3.0);
  }
}

TEST(MlpAtd, MlpIsMissesOverLeading) {
  MlpAtd atd(tiny_config());
  feed_misses(atd, {10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(atd.mlp(arch::CoreSize::S, 16), 4.0);
  EXPECT_DOUBLE_EQ(atd.mlp(arch::CoreSize::M, 16), 4.0);
}

TEST(MlpAtd, ResetClearsCountersKeepsTags) {
  MlpAtd atd(tiny_config());
  atd.observe({10, 0, 7, false});
  atd.reset_counters();
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 0.0);
  // Tag 7 is still resident: re-touching it is a hit, not a new LM.
  atd.observe({20, 0, 7, false});
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 0.0);
}

TEST(MlpAtd, SetSamplingScalesEstimates) {
  MlpAtdConfig cfg = tiny_config();
  cfg.sets = 4;
  cfg.sample_period = 2;  // observe sets 0 and 2
  MlpAtd atd(cfg);
  atd.observe({10, 0, 1, false});   // sampled
  atd.observe({20, 1, 2, false});   // not sampled
  atd.observe({600, 2, 3, false});  // sampled
  EXPECT_DOUBLE_EQ(atd.total_misses(16), 2.0 * 2.0);
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::S, 16), 2.0 * 2.0);
}

TEST(MlpAtd, StorageBudgetBelowPaperEstimate) {
  // Paper Section III-E: < 300 bytes per core for the 48-counter extension.
  MlpAtdConfig cfg;
  cfg.min_ways = 1;
  cfg.max_ways = 16;
  MlpAtd atd(cfg);
  EXPECT_LE(atd.extension_storage_bits(), 300u * 8u);
}

TEST(MlpAtd, CounterSaturatesAtConfiguredWidth) {
  MlpAtdConfig cfg = tiny_config();
  cfg.counter_bits = 8;  // max 255
  MlpAtd atd(cfg);
  std::uint64_t inst = 0;
  for (int i = 0; i < 300; ++i) {
    inst += 2000;  // always beyond every ROB -> every miss is leading
    atd.observe({inst, 0, 10000 + static_cast<std::uint64_t>(i), false});
  }
  EXPECT_DOUBLE_EQ(atd.leading_misses(arch::CoreSize::L, 16), 255.0);
}

// ---------------------------------------------------------------------------
// Differential test: MlpAtd visits only the counters an access misses at.
// ReferenceAtd keeps the straightforward loop that visits every (c, w)
// counter on every access and skips it on a hit; both must agree exactly.
// ---------------------------------------------------------------------------
class ReferenceAtd {
 public:
  explicit ReferenceAtd(const MlpAtdConfig& cfg) : cfg_(cfg) {
    const int sampled = (cfg.sets + cfg.sample_period - 1) / cfg.sample_period;
    for (int i = 0; i < sampled; ++i) sets_.emplace_back(cfg.max_ways);
    counters_.resize(static_cast<std::size_t>(arch::kNumCoreSizes * cfg.num_allocations()));
  }

  void observe(const LlcAccess& a) {
    const auto period = static_cast<std::uint32_t>(cfg_.sample_period);
    if (a.set % period != 0) return;
    const std::uint8_t pos = sets_[a.set / period].access(a.tag);
    const std::uint32_t mask = cfg_.index_mask();
    const std::uint32_t q = static_cast<std::uint32_t>(a.inst_index) & mask;
    for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
      const auto rob = static_cast<std::uint32_t>(
          arch::core_params(arch::kAllCoreSizes[c_idx]).rob);
      for (int w = cfg_.min_ways; w <= cfg_.max_ways; ++w) {
        const bool miss = pos == kRecencyMiss || static_cast<int>(pos) >= w;
        if (!miss) continue;
        Ctr& ctr = at(c_idx, w);
        const std::uint32_t dist = (q - ctr.last_lm) & mask;
        if (ctr.has_lm && dist != 0 && dist < rob &&
            (!ctr.has_ov || dist > ctr.last_ov)) {
          ctr.has_ov = true;
          ctr.last_ov = dist;
          continue;
        }
        if (ctr.lm < cfg_.counter_max()) ++ctr.lm;
        ctr = {ctr.lm, q, 0, true, false};
      }
    }
  }

  [[nodiscard]] double leading_misses(int c_idx, int w) {
    return static_cast<double>(at(c_idx, w).lm) * cfg_.sample_period;
  }

 private:
  struct Ctr {
    std::uint64_t lm = 0;
    std::uint32_t last_lm = 0;
    std::uint32_t last_ov = 0;
    bool has_lm = false;
    bool has_ov = false;
  };
  Ctr& at(int c_idx, int w) {
    return counters_[static_cast<std::size_t>(c_idx * cfg_.num_allocations() +
                                              (w - cfg_.min_ways))];
  }

  MlpAtdConfig cfg_;
  std::vector<LruStack> sets_;
  std::vector<Ctr> counters_;
};

// gtest prints a parameter it has no printer for as raw bytes, and ctest
// takes that text into the test name. The case therefore carries an index
// into kAtdCaseNames rather than a pointer, whose bytes would move with the
// binary's layout and rename the test on every unrelated change.
constexpr const char* kAtdCaseNames[] = {"paper",   "saturating", "aliasing",
                                         "sampled", "min_ways_3", "all_at_once"};

struct AtdCase {
  std::uint64_t id;  ///< index into kAtdCaseNames
  int sets;
  int min_ways;
  int max_ways;
  int sample_period;
  int index_bits;
  int counter_bits;
};

// No padding, so every printed byte is a field's value.
static_assert(std::has_unique_object_representations_v<AtdCase>);

constexpr AtdCase kAtdCases[] = {
    {0, 8, 1, 16, 1, 10, 27},   // paper
    {1, 8, 1, 16, 1, 10, 3},    // saturating
    {2, 8, 1, 16, 1, 4, 27},    // aliasing
    {3, 16, 1, 16, 4, 10, 27},  // sampled
    {4, 8, 3, 12, 1, 10, 27},   // min_ways_3
    {5, 16, 2, 16, 2, 4, 5},    // all_at_once
};

class MlpAtdLaneTrim
    : public ::testing::TestWithParam<std::tuple<AtdCase, std::uint64_t>> {};

TEST_P(MlpAtdLaneTrim, EqualsVisitEveryCounterReference) {
  const auto& [c, seed] = GetParam();
  MlpAtdConfig cfg;
  cfg.sets = c.sets;
  cfg.min_ways = c.min_ways;
  cfg.max_ways = c.max_ways;
  cfg.sample_period = c.sample_period;
  cfg.index_bits = c.index_bits;
  cfg.counter_bits = c.counter_bits;
  MlpAtd atd(cfg);
  ReferenceAtd ref(cfg);

  // A random arrival stream: program-order indices displaced by up to 200
  // instructions (out-of-order arrival), tags reused often enough to hit at
  // every recency position and fresh often enough to miss.
  Rng rng(seed);
  std::uint64_t inst = 0;
  std::uint64_t fresh = 1000;
  for (int i = 0; i < 6000; ++i) {
    inst += 1 + rng.uniform_u64(40);
    const std::uint64_t arrival = inst + rng.uniform_u64(200);
    const std::uint64_t tag = rng.bernoulli(0.35) ? fresh++ : rng.uniform_u64(24);
    const LlcAccess a{arrival, static_cast<std::uint32_t>(rng.uniform_u64(
                                   static_cast<std::uint64_t>(c.sets))),
                      tag, false};
    atd.observe(a);
    ref.observe(a);
  }
  for (int c_idx = 0; c_idx < arch::kNumCoreSizes; ++c_idx) {
    for (int w = c.min_ways; w <= c.max_ways; ++w) {
      EXPECT_EQ(atd.leading_misses(arch::kAllCoreSizes[c_idx], w),
                ref.leading_misses(c_idx, w))
          << kAtdCaseNames[c.id] << " seed " << seed << " c=" << c_idx << " w=" << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MlpAtdLaneTrim,
    ::testing::Combine(::testing::ValuesIn(kAtdCases), ::testing::Values(5, 99)),
    [](const auto& info) {
      return std::string(kAtdCaseNames[std::get<0>(info.param).id]) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace qosrm::cache
