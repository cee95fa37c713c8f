#include "rm/global_opt.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hh"

#ifdef QOSRM_SIMD_HAVE_AVX2
#include <immintrin.h>
#endif

namespace qosrm::rm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Per-row combine kernels. One call folds row ia of the left child into the
// output slice starting at ne (already offset by ia, so index k in the
// kernel addresses output total lo + ia + k): the min-plus update
//
//   ne[k] = min(ne[k], ea + eb[k])
//
// The forward pass keeps values only - the argmin is recovered during
// backtracking by an equality re-scan (see optimize_into), so the kernels
// carry no index lanes. The scalar kernel iterates the compacted feasible
// entries of the right child; the AVX2 kernel runs dense over the child's
// feasible span instead - all of its b-rows at once, laid out at the output
// row stride with +inf padding - and an infinite eb produces an infinite
// sum, which can never lower the running min, so both kernels leave
// bitwise-identical energies (pinned by the randomized equivalence tests in
// rm_test_global_opt and rm_test_global_opt_2d).

inline void combine_row_scalar(double ea, std::span<const int> feas_idx,
                               std::span<const double> feas_val, double* ne) {
  const std::size_t n = feas_idx.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double v = ea + feas_val[k];
    const int idx = feas_idx[k];
    if (v < ne[idx]) ne[idx] = v;
  }
}

#ifdef QOSRM_SIMD_HAVE_AVX2

__attribute__((target("avx2"))) void combine_row_avx2(double ea,
                                                      const double* eb, int n,
                                                      double* ne) {
  const __m256d vea = _mm256_set1_pd(ea);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_add_pd(vea, _mm256_loadu_pd(eb + i));
    // minpd returns its SECOND operand when the lanes compare equal, so
    // passing the current value second preserves it on ties - the same
    // outcome as the scalar strict-less update.
    _mm256_storeu_pd(ne + i, _mm256_min_pd(v, _mm256_loadu_pd(ne + i)));
  }
  for (; i < n; ++i) {
    const double v = ea + eb[i];
    if (v < ne[i]) ne[i] = v;
  }
}

#endif  // QOSRM_SIMD_HAVE_AVX2

}  // namespace

void GlobalOptWorkspace::clear_nodes() {
  // clear() keeps capacity: after one call per problem shape, nothing in the
  // reduction allocates.
  lo_.clear();
  size_.clear();
  b_lo_.clear();
  b_size_.clear();
  energy_off_.clear();
  leaf_energy_.clear();
  first_core_.clear();
  last_core_.clear();
  left_.clear();
  right_.clear();
  energy_.clear();
  level_.clear();
  next_.clear();
}

int GlobalOptWorkspace::push_node(int lo, int size, int b_lo, int b_size,
                                  std::size_t energy_off,
                                  const double* leaf_energy, int first_core,
                                  int last_core, int left, int right) {
  const int idx = static_cast<int>(num_nodes());
  lo_.push_back(lo);
  size_.push_back(size);
  b_lo_.push_back(b_lo);
  b_size_.push_back(b_size);
  energy_off_.push_back(energy_off);
  leaf_energy_.push_back(leaf_energy);
  first_core_.push_back(first_core);
  last_core_.push_back(last_core);
  left_.push_back(left);
  right_.push_back(right);
  return idx;
}

namespace {

/// Share budget implied by ways-only calls: every core at its lowest share.
/// For single-row (degenerate) surfaces this is the only feasible budget, so
/// the 1-D entry points keep their exact pre-CBP semantics.
[[nodiscard]] int default_total_shares(std::span<const EnergyCurveView> curves) {
  int total = 0;
  for (const EnergyCurveView& c : curves) total += c.min_shares;
  return total;
}

}  // namespace

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, int total_shares,
                                    GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops) {
  optimize_into(curves, total_ways, total_shares, ws, out, ops,
                simd::active_level());
}

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops) {
  optimize_into(curves, total_ways, default_total_shares(curves), ws, out, ops,
                simd::active_level());
}

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops,
                                    simd::Level level) {
  optimize_into(curves, total_ways, default_total_shares(curves), ws, out, ops,
                level);
}

void GlobalOptimizer::optimize_into(std::span<const EnergyCurveView> curves,
                                    int total_ways, int total_shares,
                                    GlobalOptWorkspace& ws,
                                    GlobalOptResult& out, std::uint64_t* ops,
                                    simd::Level level) {
  QOSRM_CHECK(!curves.empty());
  const bool vectorized = level == simd::Level::Avx2;
#ifndef QOSRM_SIMD_HAVE_AVX2
  QOSRM_CHECK_MSG(!vectorized,
                  "AVX2 dispatch requested but the kernel was not compiled");
#endif

  out.feasible = false;
  out.total_energy = 0.0;
  out.ways.clear();
  out.shares.clear();

  ws.clear_nodes();

  // Leaves view the input surfaces directly - no copy.
  for (std::size_t i = 0; i < curves.size(); ++i) {
    QOSRM_CHECK(!curves[i].energy.empty());
    QOSRM_CHECK(curves[i].num_shares >= 1);
    QOSRM_CHECK(static_cast<int>(curves[i].energy.size()) %
                    curves[i].num_shares ==
                0);
    const int core = static_cast<int>(i);
    ws.level_.push_back(ws.push_node(
        curves[i].min_ways, curves[i].num_ways(), curves[i].min_shares,
        curves[i].num_shares, 0, curves[i].energy.data(), core, core, -1, -1));
  }

  // Reduce adjacent pairs until one curve remains.
  std::uint64_t steps = 0;
  while (ws.level_.size() > 1) {
    // The root combine produces a curve that is only ever read at one index
    // (total_ways; see below), so it evaluates just that output cell - an
    // O(a+b) scan instead of the O(a*b) row sweep. The cell is accumulated
    // over the same pairs in the same ia-ascending strict-less order, so its
    // value and argmin are bit-identical to the full sweep's. The charged op
    // count stays the full feasible-pair product: ops are the MODEL of the
    // RM's work (paper Section III-E) and must not depend on which cells an
    // implementation can prove dead, exactly as they must not depend on the
    // SIMD width.
    const bool root_combine = ws.level_.size() == 2;
    ws.next_.clear();
    for (std::size_t i = 0; i + 1 < ws.level_.size(); i += 2) {
      const auto ai = static_cast<std::size_t>(ws.level_[i]);
      const auto bi = static_cast<std::size_t>(ws.level_[i + 1]);
      // Child metadata by value: the push_node below may relocate the SoA
      // metadata arrays.
      const int a_lo = ws.lo_[ai];
      const int a_size = ws.size_[ai];
      const int a_b_lo = ws.b_lo_[ai];
      const int a_b_size = ws.b_size_[ai];
      const std::size_t a_energy_off = ws.energy_off_[ai];
      const double* a_leaf = ws.leaf_energy_[ai];
      const int b_lo = ws.lo_[bi];
      const int b_size = ws.size_[bi];
      const int b_b_lo = ws.b_lo_[bi];
      const int b_b_size = ws.b_size_[bi];
      const std::size_t b_energy_off = ws.energy_off_[bi];
      const double* b_leaf = ws.leaf_energy_[bi];

      const int n_lo = a_lo + b_lo;
      const int n_size = a_size + b_size - 1;
      const int n_b_lo = a_b_lo + b_b_lo;
      const int n_b_size = a_b_size + b_b_size - 1;
      const std::size_t energy_off = ws.energy_.size();
      ws.energy_.resize(energy_off + static_cast<std::size_t>(n_size) *
                                         static_cast<std::size_t>(n_b_size),
                        kInf);

      // Pointers taken after the resize (which may relocate on warmup).
      const double* ea_arr =
          a_leaf != nullptr ? a_leaf : ws.energy_.data() + a_energy_off;
      const double* eb_arr =
          b_leaf != nullptr ? b_leaf : ws.energy_.data() + b_energy_off;
      double* ne = ws.energy_.data() + energy_off;

      // Compact the right child's feasible cells once, in storage order
      // (b-row-major, ascending w - so the pair visit order, and thus the
      // first-split tie-breaking, matches the plain quadruple loop). A
      // cell's stored index is its CONTRIBUTION to the output flat index,
      // ibb * n_size + ib: because n_size = a_size + b_size - 1, the w parts
      // of any (left, right) pair can never carry into the b-row term, so
      // out_flat = left_contribution + right_contribution. The scalar kernel
      // consumes the compacted arrays; the vector kernel runs dense over the
      // child, clipped to the span from its first to its last feasible cell
      // (infinite entries outside it can never win a strict-less), and only
      // needs the total count. With a single b-row everything reduces
      // exactly to the 1-D compaction.
      ws.feas_idx_.clear();
      ws.feas_val_.clear();
      const bool compact_b = !vectorized && !root_combine;
      std::uint64_t n_feas_b = 0;
      int first_bb = -1;  // (b-row, w index) of the first and last feasible
      [[maybe_unused]] int first_b = 0;  // right cells in storage order
      [[maybe_unused]] int last_bb = 0;
      [[maybe_unused]] int last_b = 0;
      for (int ibb = 0; ibb < b_b_size; ++ibb) {
        const double* eb_row = eb_arr + static_cast<std::size_t>(ibb) *
                                            static_cast<std::size_t>(b_size);
        for (int ib = 0; ib < b_size; ++ib) {
          const double eb = eb_row[ib];
          if (std::isinf(eb)) continue;
          ++n_feas_b;
          if (first_bb < 0) {
            first_bb = ibb;
            first_b = ib;
          }
          last_bb = ibb;
          last_b = ib;
          if (compact_b) {
            ws.feas_idx_.push_back(ibb * n_size + ib);
            ws.feas_val_.push_back(eb);
          }
        }
      }

      // One op = one feasible-pair DP step, counted uniformly whichever side
      // an infeasible entry is on (accumulated in bulk per feasible cell) and
      // independent of how many lanes a kernel call covers.
      std::uint64_t feas_a = 0;
      if (root_combine) {
        // Only the (total_ways, total_shares) cell of the root surface is
        // observable: evaluate it directly (and count the feasible left
        // cells for the op charge). Out-of-range targets leave the surface
        // infinite, which the feasibility check below reports just like the
        // full sweep would.
        const int target_w = total_ways - n_lo;
        const int target_b = total_shares - n_b_lo;
        double best = kInf;
        for (int iba = 0; iba < a_b_size; ++iba) {
          const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                              static_cast<std::size_t>(a_size);
          for (int ia = 0; ia < a_size; ++ia) {
            const double ea = ea_row[ia];
            if (std::isinf(ea)) continue;
            ++feas_a;
            const int ibb = target_b - iba;
            if (ibb < 0 || ibb >= b_b_size) continue;
            const int ib = target_w - ia;
            if (ib < 0 || ib >= b_size) continue;
            const double v =
                ea + eb_arr[static_cast<std::size_t>(ibb) *
                                static_cast<std::size_t>(b_size) +
                            static_cast<std::size_t>(ib)];
            if (v < best) best = v;
          }
        }
        if (target_w >= 0 && target_w < n_size && target_b >= 0 &&
            target_b < n_b_size) {
          ne[static_cast<std::size_t>(target_b) *
                 static_cast<std::size_t>(n_size) +
             static_cast<std::size_t>(target_w)] = best;
        }
      } else if (n_feas_b > 0) {
        // The vector kernel's dense view of the right child: the child itself
        // when it has one b-row, else its rows copied at the output stride
        // n_size with +inf padding, so that right cell (ibb, ib) sits at
        // ibb * n_size + ib - its output contribution, as in the compaction.
        // Either way [dense_first, dense_first + dense_len) spans the first
        // to the last feasible cell, and a left cell's whole update is one
        // kernel call. A call touches each output index once, so every cell
        // still sees its pairs in ascending left-cell order (the scalar
        // kernel's tie-breaking), and padding lanes store back the value they
        // loaded. The span stays inside the output surface: its last lane is
        // at most ca + (b_b_size - 1) * n_size + b_size - 1.
#ifdef QOSRM_SIMD_HAVE_AVX2
        const double* eb_dense = eb_arr;
        int stride = b_size;
        if (vectorized && b_b_size > 1) {
          stride = n_size;
          ws.padded_b_.assign(static_cast<std::size_t>(b_b_size) *
                                  static_cast<std::size_t>(n_size),
                              kInf);
          for (int ibb = first_bb; ibb <= last_bb; ++ibb) {
            const auto row = static_cast<std::size_t>(ibb);
            std::copy_n(eb_arr + row * static_cast<std::size_t>(b_size), b_size,
                        ws.padded_b_.data() +
                            row * static_cast<std::size_t>(n_size));
          }
          eb_dense = ws.padded_b_.data();
        }
        const int dense_first = first_bb * stride + first_b;
        const int dense_len = last_bb * stride + last_b - dense_first + 1;
#endif
        for (int iba = 0; iba < a_b_size; ++iba) {
          const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                              static_cast<std::size_t>(a_size);
          for (int ia = 0; ia < a_size; ++ia) {
            const double ea = ea_row[ia];
            if (std::isinf(ea)) continue;
            ++feas_a;
            // Output flat index: left contribution iba * n_size + ia plus
            // the right cell's stored contribution (no w carry, see above).
            const int ca = iba * n_size + ia;
            if (vectorized) {
#ifdef QOSRM_SIMD_HAVE_AVX2
              combine_row_avx2(ea, eb_dense + dense_first, dense_len,
                               ne + ca + dense_first);
#endif
            } else {
              combine_row_scalar(ea, ws.feas_idx_, ws.feas_val_, ne + ca);
            }
          }
        }
      }
      steps += feas_a * n_feas_b;

      ws.next_.push_back(ws.push_node(n_lo, n_size, n_b_lo, n_b_size,
                                      energy_off, nullptr, ws.first_core_[ai],
                                      ws.last_core_[bi], static_cast<int>(ai),
                                      static_cast<int>(bi)));
    }
    if (ws.level_.size() % 2 == 1) ws.next_.push_back(ws.level_.back());
    std::swap(ws.level_, ws.next_);
  }
  if (ops != nullptr) *ops += steps;

  const auto root = static_cast<std::size_t>(ws.level_.front());
  const int root_lo = ws.lo_[root];
  const int root_hi = root_lo + ws.size_[root] - 1;
  const int root_b_lo = ws.b_lo_[root];
  const int root_b_hi = root_b_lo + ws.b_size_[root] - 1;
  if (total_ways < root_lo || total_ways > root_hi) return;
  if (total_shares < root_b_lo || total_shares > root_b_hi) return;
  const std::size_t root_cell =
      static_cast<std::size_t>(total_shares - root_b_lo) *
          static_cast<std::size_t>(ws.size_[root]) +
      static_cast<std::size_t>(total_ways - root_lo);
  const double e = ws.leaf_energy_[root] != nullptr
                       ? ws.leaf_energy_[root][root_cell]
                       : ws.energy_[ws.energy_off_[root] + root_cell];
  if (std::isinf(e)) return;

  out.feasible = true;
  out.total_energy = e;
  out.ways.assign(curves.size(), 0);
  out.shares.assign(curves.size(), 0);

  // Backtrack the argmin splits down the reduction (depth is log2(cores), so
  // plain recursion over node indices needs no scratch). The forward pass
  // stores no argmin lanes; each split is recovered here by re-scanning the
  // left child's cells in the same storage order (b-row-major, ascending w -
  // the order the forward kernels visit pairs for any fixed output cell) for
  // the first feasible pair whose sum reproduces the node's value
  // bit-for-bit. The strict-less forward sweep keeps the FIRST pair
  // attaining the final minimum, and the sums are the same IEEE double
  // additions, so the recovered split is identical to a recorded one. Cost:
  // log2(cores) surface scans per invocation - versus an index blend in
  // every kernel step.
  const auto backtrack = [&ws, &out](auto&& self, std::size_t idx, int total_w,
                                     int total_b, double value) -> void {
    if (ws.left_[idx] < 0) {  // leaf
      const auto core = static_cast<std::size_t>(ws.first_core_[idx]);
      out.ways[core] = total_w;
      out.shares[core] = total_b;
      return;
    }
    const auto ai = static_cast<std::size_t>(ws.left_[idx]);
    const auto bi = static_cast<std::size_t>(ws.right_[idx]);
    const double* ea_arr = ws.leaf_energy_[ai] != nullptr
                               ? ws.leaf_energy_[ai]
                               : ws.energy_.data() + ws.energy_off_[ai];
    const double* eb_arr = ws.leaf_energy_[bi] != nullptr
                               ? ws.leaf_energy_[bi]
                               : ws.energy_.data() + ws.energy_off_[bi];
    const int a_size = ws.size_[ai];
    const int b_size = ws.size_[bi];
    const int a_b_size = ws.b_size_[ai];
    const int b_b_size = ws.b_size_[bi];
    const int rel_w = total_w - ws.lo_[idx];
    const int rel_b = total_b - ws.b_lo_[idx];
    int wl = -1;
    int bl = 0;
    double ea_val = 0.0;
    double eb_val = 0.0;
    for (int iba = 0; iba < a_b_size && wl < 0; ++iba) {
      const int ibb = rel_b - iba;
      if (ibb < 0 || ibb >= b_b_size) continue;
      const double* ea_row = ea_arr + static_cast<std::size_t>(iba) *
                                          static_cast<std::size_t>(a_size);
      const double* eb_row = eb_arr + static_cast<std::size_t>(ibb) *
                                          static_cast<std::size_t>(b_size);
      for (int ia = 0; ia < a_size; ++ia) {
        const double ea = ea_row[ia];
        if (std::isinf(ea)) continue;
        const int ib = rel_w - ia;
        if (ib < 0 || ib >= b_size) continue;
        const double eb = eb_row[ib];
        if (ea + eb == value) {
          wl = ws.lo_[ai] + ia;
          bl = ws.b_lo_[ai] + iba;
          ea_val = ea;
          eb_val = eb;
          break;
        }
      }
    }
    QOSRM_CHECK_MSG(wl >= 0, "backtracking through an infeasible entry");
    self(self, ai, wl, bl, ea_val);
    self(self, bi, total_w - wl, total_b - bl, eb_val);
  };
  backtrack(backtrack, root, total_ways, total_shares, e);
}

GlobalOptResult GlobalOptimizer::optimize(std::span<const EnergyCurve> curves,
                                          int total_ways, int total_shares,
                                          std::uint64_t* ops) {
  std::vector<EnergyCurveView> views;
  views.reserve(curves.size());
  for (const EnergyCurve& c : curves) {
    views.push_back({c.min_ways, std::span<const double>(c.energy),
                     c.min_shares, c.num_shares});
  }
  GlobalOptWorkspace ws;
  GlobalOptResult out;
  optimize_into(views, total_ways, total_shares, ws, out, ops);
  return out;
}

GlobalOptResult GlobalOptimizer::optimize(std::span<const EnergyCurve> curves,
                                          int total_ways, std::uint64_t* ops) {
  int total_shares = 0;
  for (const EnergyCurve& c : curves) total_shares += c.min_shares;
  return optimize(curves, total_ways, total_shares, ops);
}

GlobalOptResult GlobalOptimizer::brute_force(std::span<const EnergyCurve> curves,
                                             int total_ways,
                                             int total_shares) {
  QOSRM_CHECK(!curves.empty());
  GlobalOptResult best;
  best.total_energy = kInf;

  std::vector<int> ways(curves.size(), 0);
  std::vector<int> shares(curves.size(), 0);
  // Depth-first enumeration of all allocations summing to the two budgets.
  const auto recurse = [&](auto&& self, std::size_t core, int remaining_w,
                           int remaining_b, double energy) -> void {
    const EnergyCurve& curve = curves[core];
    const int n_w = curve.num_ways();
    const auto cell = [&](int w, int b) {
      return curve.energy[static_cast<std::size_t>(b - curve.min_shares) *
                              static_cast<std::size_t>(n_w) +
                          static_cast<std::size_t>(w - curve.min_ways)];
    };
    if (core + 1 == curves.size()) {
      if (remaining_w < curve.min_ways || remaining_w > curve.max_ways()) return;
      if (remaining_b < curve.min_shares || remaining_b > curve.max_shares()) {
        return;
      }
      const double e = cell(remaining_w, remaining_b);
      if (std::isinf(e)) return;
      if (energy + e < best.total_energy) {
        ways[core] = remaining_w;
        shares[core] = remaining_b;
        best.feasible = true;
        best.total_energy = energy + e;
        best.ways = ways;
        best.shares = shares;
      }
      return;
    }
    for (int b = curve.min_shares; b <= curve.max_shares(); ++b) {
      if (remaining_b - b < 0) break;
      for (int w = curve.min_ways; w <= curve.max_ways(); ++w) {
        const double e = cell(w, b);
        if (std::isinf(e)) continue;
        if (remaining_w - w < 0) break;
        ways[core] = w;
        shares[core] = b;
        self(self, core + 1, remaining_w - w, remaining_b - b, energy + e);
      }
    }
  };
  recurse(recurse, 0, total_ways, total_shares, 0.0);
  return best;
}

GlobalOptResult GlobalOptimizer::brute_force(std::span<const EnergyCurve> curves,
                                             int total_ways) {
  int total_shares = 0;
  for (const EnergyCurve& c : curves) total_shares += c.min_shares;
  return brute_force(curves, total_ways, total_shares);
}

}  // namespace qosrm::rm
