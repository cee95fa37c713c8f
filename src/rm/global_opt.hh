// Global shared-resource distribution (paper Fig. 3, Section III-A,
// generalized to the CBP multi-resource domain, arXiv:2102.11528).
//
// Minimizes  Sum_j E_j(w_j, b_j)  subject to  Sum_j w_j = A  (the total LLC
// way budget),  Sum_j b_j = B  (the total memory-bandwidth share budget) and
// per-core bounds, by iteratively reducing PAIRS of energy surfaces with a
// 2-D min-plus convolution:
//
//   E_{1+2}(W, B) = min over w1+w2 = W, b1+b2 = B of E_1(w1,b1) + E_2(w2,b2)
//
// and backtracking the argmins down the reduction. The complexity is
// polynomial in the core count (the paper's first stated advantage), and the
// interface between the local and global stages is exactly one energy
// surface per core (the second advantage). The ways-only problem is the
// degenerate case where every surface has a single share row: the
// convolution collapses to the paper's 1-D recurrence and the implementation
// performs bit-identically the same operations in the same order (pinned by
// the randomized 1-D-oracle equivalence tests).
//
// The reduction runs over flat, reusable structure-of-arrays buffers
// (GlobalOptWorkspace) so the per-interval-boundary invocation path performs
// no heap allocation once the workspace has warmed up, and the O(n^2 * W)
// feasible-pair inner loop dispatches to an AVX2 kernel where available
// (common/simd.hh; the scalar fallback is pinned bit-identical by the
// randomized equivalence tests). See the README performance section.
#ifndef QOSRM_RM_GLOBAL_OPT_HH
#define QOSRM_RM_GLOBAL_OPT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.hh"

namespace qosrm::rm {

/// Energy as a function of the shared-resource allocation for one core: a
/// b-major surface with contiguous w-rows,
/// energy[(b - min_shares) * num_ways() + (w - min_ways)], where infinity
/// marks QoS-infeasible allocations. The `min_shares`/`num_shares` members
/// sit after `energy` so the ubiquitous ways-only positional initializer
/// {min_ways, energy} keeps its meaning: a single share row, i.e. the plain
/// 1-D energy curve.
struct EnergyCurve {
  int min_ways = 2;
  std::vector<double> energy;
  int min_shares = 1;
  int num_shares = 1;

  [[nodiscard]] int num_ways() const noexcept {
    return num_shares > 0 ? static_cast<int>(energy.size()) / num_shares : 0;
  }
  [[nodiscard]] int max_ways() const noexcept { return min_ways + num_ways() - 1; }
  [[nodiscard]] int max_shares() const noexcept {
    return min_shares + num_shares - 1;
  }
};

/// Non-owning view of one core's energy surface (same indexing convention as
/// EnergyCurve). The allocation-free optimize_into() path takes views so
/// callers can keep the surfaces in whatever storage they reuse.
struct EnergyCurveView {
  int min_ways = 2;
  std::span<const double> energy;
  int min_shares = 1;
  int num_shares = 1;

  [[nodiscard]] int num_ways() const noexcept {
    return num_shares > 0 ? static_cast<int>(energy.size()) / num_shares : 0;
  }
  [[nodiscard]] int max_ways() const noexcept { return min_ways + num_ways() - 1; }
  [[nodiscard]] int max_shares() const noexcept {
    return min_shares + num_shares - 1;
  }
};

struct GlobalOptResult {
  bool feasible = false;
  double total_energy = 0.0;
  std::vector<int> ways;    ///< chosen way allocation per core (empty if infeasible)
  std::vector<int> shares;  ///< chosen bandwidth shares per core (ways-sized)
};

/// Reusable scratch of the pairwise reduction in structure-of-arrays layout:
/// per-node metadata lives in parallel flat vectors (index i addresses one
/// reduction node across all of them) and the combined energy rows share one
/// dense pool, so the inner loop streams over contiguous doubles - the
/// layout the vectorized kernel consumes directly.
/// Every container keeps its capacity across calls, so a workspace that has
/// seen a problem shape once makes optimize_into() allocation-free. Not
/// thread-safe; use one workspace per thread.
class GlobalOptWorkspace {
 public:
  GlobalOptWorkspace() = default;

 private:
  friend class GlobalOptimizer;

  // --- node metadata, SoA: entry i describes one reduction node ------------
  // A node covers cores [first_core_[i], last_core_[i]], total ways
  // [lo_[i], lo_[i] + size_[i]) and total bandwidth shares
  // [b_lo_[i], b_lo_[i] + b_size_[i]); its surface is b-major with
  // contiguous w-rows of length size_[i] (flat extent size_ * b_size_).
  // Leaves view the caller's surface directly (leaf_energy_[i] != nullptr);
  // combined nodes own the pool slice energy_[energy_off_[i], +extent).
  // left_[i] < 0 marks a leaf.
  //
  // The forward pass stores VALUES only - no argmin lanes. Backtracking
  // recovers each split by re-scanning the children for the first (ascending
  // wa) feasible pair whose sum equals the node's value bit-for-bit, which
  // is exactly the argmin a strict-less forward sweep would have recorded.
  // That halves the kernel's stores and drops the int32 blend path entirely,
  // at the cost of log2(cores) O(row) scans - executed once per invocation
  // instead of once per cell.
  std::vector<int> lo_;
  std::vector<int> size_;
  std::vector<int> b_lo_;
  std::vector<int> b_size_;
  std::vector<std::size_t> energy_off_;
  std::vector<const double*> leaf_energy_;
  std::vector<int> first_core_;
  std::vector<int> last_core_;
  std::vector<int> left_;  ///< child node indices; -1 marks a leaf
  std::vector<int> right_;

  // --- dense pool the combine kernels write --------------------------------
  std::vector<double> energy_;

  std::vector<int> level_;  ///< node indices of the current reduction level
  std::vector<int> next_;   ///< node indices of the next reduction level

  /// Per-combine compaction of the right child's feasible cells (parallel
  /// contribution-offset/value arrays; a cell's stored offset is its
  /// b-row index times the OUTPUT row length plus its w index, so the
  /// output flat index of any pair is just the two contributions summed):
  /// the scalar kernel iterates these so it only touches finite energies;
  /// the vector kernel runs dense over the right child instead (an infinite
  /// entry can never win a strict-less compare), clipped to its feasible
  /// span, and only needs the total count for the uniform op accounting.
  std::vector<int> feas_idx_;
  std::vector<double> feas_val_;

  /// The vector kernel's view of a multi-row right child: its b-rows laid
  /// out at the OUTPUT row length, each padded with +inf, so one dense
  /// kernel call per feasible left cell covers every b-row (the padding
  /// lanes add +inf and leave the output untouched). A single-row child is
  /// read in place instead.
  std::vector<double> padded_b_;

  [[nodiscard]] std::size_t num_nodes() const noexcept { return lo_.size(); }
  void clear_nodes();
  /// Appends one node's metadata across the parallel arrays; returns its index.
  int push_node(int lo, int size, int b_lo, int b_size, std::size_t energy_off,
                const double* leaf_energy, int first_core, int last_core,
                int left, int right);
};

class GlobalOptimizer {
 public:
  /// Pairwise-reduction optimizer over owning surfaces. Convenience wrapper
  /// around optimize_into() with a throwaway workspace (tests, benches and
  /// one-shot callers). `ops` (optional) accumulates DP steps for the RM
  /// instruction-overhead model; one op is one FEASIBLE-pair DP step, i.e. a
  /// ((w_a, b_a), (w_b, b_b)) cell combination whose both entries are
  /// finite - infeasible entries on either side are skipped without charge.
  /// The count is independent of the SIMD dispatch level: a vectorized lane
  /// batch charges exactly the feasible pairs it covers, so the modeled RM
  /// overhead (and the golden CSVs) never depends on the vector width.
  [[nodiscard]] static GlobalOptResult optimize(std::span<const EnergyCurve> curves,
                                                int total_ways, int total_shares,
                                                std::uint64_t* ops = nullptr);

  /// Ways-only convenience: the share budget defaults to the sum of the
  /// curves' lowest shares, so single-row (degenerate) surfaces - in
  /// particular every pre-CBP curve - optimize exactly as before.
  [[nodiscard]] static GlobalOptResult optimize(std::span<const EnergyCurve> curves,
                                                int total_ways,
                                                std::uint64_t* ops = nullptr);

  /// The allocation-free core: runs the reduction inside `ws` and writes the
  /// outcome into `out`, reusing the storage of both. Bit-identical to
  /// optimize() for equal inputs (same reduction order, same tie-breaking)
  /// at every dispatch level. Uses simd::active_level().
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, int total_shares,
                            GlobalOptWorkspace& ws, GlobalOptResult& out,
                            std::uint64_t* ops = nullptr);

  /// Ways-only convenience (share budget = sum of lowest shares).
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, GlobalOptWorkspace& ws,
                            GlobalOptResult& out, std::uint64_t* ops = nullptr);

  /// Explicit-dispatch variant for the equivalence tests and A/B benches.
  /// Requesting Avx2 when the kernel is unavailable aborts.
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, int total_shares,
                            GlobalOptWorkspace& ws, GlobalOptResult& out,
                            std::uint64_t* ops, simd::Level level);

  /// Ways-only explicit-dispatch convenience.
  static void optimize_into(std::span<const EnergyCurveView> curves,
                            int total_ways, GlobalOptWorkspace& ws,
                            GlobalOptResult& out, std::uint64_t* ops,
                            simd::Level level);

  /// Exhaustive reference implementation (tests only; exponential).
  [[nodiscard]] static GlobalOptResult brute_force(std::span<const EnergyCurve> curves,
                                                   int total_ways,
                                                   int total_shares);

  /// Ways-only exhaustive reference (share budget = sum of lowest shares).
  [[nodiscard]] static GlobalOptResult brute_force(std::span<const EnergyCurve> curves,
                                                   int total_ways);
};

}  // namespace qosrm::rm

#endif  // QOSRM_RM_GLOBAL_OPT_HH
