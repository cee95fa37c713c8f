// Sharded grid execution: deterministic grid partitioning plus the
// self-describing part files that shard workers exchange with the merger.
//
// A big grid (sweep_main's {policy x model x alpha} x workload grid, or
// service_main's {pattern x load x admission x policy x alpha} grid) is
// split into N disjoint, gapless, contiguous row ranges (pure arithmetic -
// every process computes the same partition independently). Each worker
// runs its range and writes a part file; the merger validates that the
// parts belong to the SAME run (fingerprint), cover the grid exactly once,
// and pass their checksums, then reassembles rows in grid order - so the
// merged output is byte-identical to a single-process run.
//
// One part format serves both grids; a per-kind codec (SweepCodec,
// ServiceCodec) supplies the magic, version, shape axes and row payload.
// Layout (native-endian, see common/binary_io.hh):
//
//   u64 magic ("QOSRMPT\0" sweep, "QOSRMSV\0" service) | u32 version
//   u32 byte-order mark
//   u64 fingerprint (db fingerprint + grid + simulator/service options)
//   u64 per grid-shape axis (Codec::kAxes, in order)
//   u64 shard index | u64 shard count | u64 row begin | u64 row end
//   payload: one serialized row per grid row in [begin, end)
//   u64 trailing FNV-1a checksum of everything above
//
// The fingerprint covers everything that determines row values: the
// simulation database identity (suite, SystemConfig, PhaseStatsOptions),
// every grid axis and the run options. Parts from a different run are
// REJECTED, never silently merged; a truncated or bit-flipped part fails
// its checksum.
#ifndef QOSRM_RMSIM_SHARD_HH
#define QOSRM_RMSIM_SHARD_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rmsim/service.hh"
#include "rmsim/sweep.hh"

namespace qosrm {
class BinaryReader;
class BinaryWriter;
}  // namespace qosrm

namespace qosrm::rmsim {

inline constexpr std::uint32_t kSweepPartVersion = 1;

/// Conventional part-file extension (gitignored, like *.qosdb).
inline constexpr const char* kSweepPartExtension = ".qospart";

/// Half-open row range [begin, end) of the expanded grid.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// The range shard `index` of `count` owns: contiguous, and over all
/// indices disjoint, gapless and ordered. The first `total_rows % count`
/// shards take one extra row, so sizes differ by at most one. Pure
/// arithmetic: every process computes the identical partition.
[[nodiscard]] ShardRange shard_range(std::size_t total_rows, std::size_t index,
                                     std::size_t count);

/// All `count` ranges in shard order (shard_range for each index).
[[nodiscard]] std::vector<ShardRange> shard_ranges(std::size_t total_rows,
                                                   std::size_t count);

/// Identity of one sweep: hashes the simulation-database fingerprint (see
/// workload::simdb_fingerprint), the expanded mixes, the policy/model/alpha
/// axes and every SimOptions field. Two processes agree on this value iff
/// they would produce bit-identical rows for equal row indices.
[[nodiscard]] std::uint64_t sweep_fingerprint(const SweepGrid& grid,
                                              const SimOptions& sim,
                                              std::uint64_t db_fingerprint);

/// "<prefix>.<index>-of-<count>.qospart" - self-describing names so a
/// directory of parts from different shardings can't be cross-merged by
/// accident.
[[nodiscard]] std::string part_path(const std::string& prefix,
                                    std::size_t index, std::size_t count);

// ---------------------------------------------------------------------------
// Part codecs. A codec names one part kind: its magic, version and noun, the
// axes of its grid shape (written in order after the fingerprint) and its
// row payload. The two kinds have distinct magics, so they can never be
// cross-merged by accident.
// ---------------------------------------------------------------------------

/// Sweep parts: the {policy x model x alpha} x workload grid (rmsim/sweep.hh).
struct SweepCodec {
  using Row = SweepRow;
  using Shape = GridShape;
  static constexpr std::uint64_t kMagic = 0x0054504D52534F51ULL;  // "QOSRMPT\0"
  static constexpr std::uint32_t kVersion = kSweepPartVersion;
  static constexpr const char* kNoun = "sweep";     ///< "not a sweep part"
  static constexpr const char* kRunNoun = "sweep";  ///< "a different sweep"
  static constexpr std::size_t GridShape::*kAxes[] = {
      &GridShape::mixes, &GridShape::policies, &GridShape::models,
      &GridShape::alphas};
  static void write_row(BinaryWriter& w, const Row& row);
  [[nodiscard]] static Row read_row(BinaryReader& r);
};

// Version 2: admission-policy axis (grid shape dimension + per-row admission
// and qos_rejected fields). Version-1 parts are rejected, never reinterpreted.
inline constexpr std::uint32_t kServicePartVersion = 2;

/// Service parts: the colocation service's {pattern x load x admission x
/// policy x alpha} grid (rmsim/service.hh).
struct ServiceCodec {
  using Row = ServiceRow;
  using Shape = ServiceGridShape;
  static constexpr std::uint64_t kMagic = 0x0056534D52534F51ULL;  // "QOSRMSV\0"
  static constexpr std::uint32_t kVersion = kServicePartVersion;
  static constexpr const char* kNoun = "service";
  static constexpr const char* kRunNoun = "service sweep";
  static constexpr std::size_t ServiceGridShape::*kAxes[] = {
      &ServiceGridShape::patterns, &ServiceGridShape::loads,
      &ServiceGridShape::admissions, &ServiceGridShape::policies,
      &ServiceGridShape::alphas};
  static void write_row(BinaryWriter& w, const Row& row);
  [[nodiscard]] static Row read_row(BinaryReader& r);
};

/// One shard's output: header metadata plus the rows of its range.
template <typename Codec>
struct Part {
  std::uint64_t fingerprint = 0;
  typename Codec::Shape shape{};
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  ShardRange range{};
  std::vector<typename Codec::Row> rows;
};

/// Identity a merged run carries forward into its reports: the fingerprint
/// the parts agreed on plus the grid shape of their rows.
template <typename Codec>
struct PartIdentity {
  std::uint64_t fingerprint = 0;
  typename Codec::Shape shape{};
};

// The part functions below are instantiated for SweepCodec and ServiceCodec.

/// Saves a part. Writes to a uniquely named sibling and renames into place,
/// so a killed worker never leaves a plausible-looking partial part. False +
/// *error on I/O failure or inconsistent metadata.
template <typename Codec>
bool save_part(const Part<Codec>& part, const std::string& path,
               std::string* error);

/// Loads and fully validates one part: magic/version/byte order, metadata
/// consistency (range matches shard_range(shape.size(), index, count), row
/// count matches the range) and the trailing checksum. nullopt + *error on
/// any mismatch - a truncated or corrupt part is never returned.
template <typename Codec>
[[nodiscard]] std::optional<Part<Codec>> load_part(const std::string& path,
                                                   std::string* error);

/// Validates that `parts` are one complete run - same fingerprint, shape
/// and shard count everywhere, every shard index present exactly once, and
/// the ranges tiling [0, shape.size()) without gap or overlap - then
/// concatenates the rows in grid order. Parts may arrive in any order.
/// nullopt + *error (naming the offending part/shard) otherwise.
template <typename Codec>
[[nodiscard]] std::optional<std::vector<typename Codec::Row>> merge_parts(
    std::vector<Part<Codec>> parts, std::string* error);

/// Loads every path, optionally enforces that all parts carry
/// `expected_fingerprint` (pass nullptr to accept any one run), and merges.
/// `identity` (optional) receives the merged run's fingerprint and shape.
/// nullopt + *error naming the offending part on any validation failure.
template <typename Codec>
[[nodiscard]] std::optional<std::vector<typename Codec::Row>> merge_part_files(
    const std::vector<std::string>& paths,
    const std::uint64_t* expected_fingerprint, std::string* error,
    PartIdentity<Codec>* identity = nullptr);

/// Resume support: the shard indices whose part file under `prefix` is
/// missing, unreadable, corrupt, or belongs to a different run (wrong
/// fingerprint/shape/count) - i.e. the shards an orchestrator still has to
/// run. A valid matching part is skipped.
template <typename Codec>
[[nodiscard]] std::vector<std::size_t> shards_to_run(
    const std::string& prefix, std::size_t count, std::uint64_t fingerprint,
    const typename Codec::Shape& shape);

// Named per-kind entry points (plain functions, so they can be passed as
// callables).
using SweepPart = Part<SweepCodec>;
using ServicePart = Part<ServiceCodec>;
using SweepIdentity = PartIdentity<SweepCodec>;
using ServiceIdentity = PartIdentity<ServiceCodec>;

inline bool save_sweep_part(const SweepPart& part, const std::string& path,
                            std::string* error) {
  return save_part(part, path, error);
}
inline bool save_service_part(const ServicePart& part, const std::string& path,
                              std::string* error) {
  return save_part(part, path, error);
}
[[nodiscard]] inline std::optional<SweepPart> load_sweep_part(
    const std::string& path, std::string* error) {
  return load_part<SweepCodec>(path, error);
}
[[nodiscard]] inline std::optional<ServicePart> load_service_part(
    const std::string& path, std::string* error) {
  return load_part<ServiceCodec>(path, error);
}
[[nodiscard]] inline std::optional<std::vector<SweepRow>> merge_sweep_parts(
    std::vector<SweepPart> parts, std::string* error) {
  return merge_parts(std::move(parts), error);
}
[[nodiscard]] inline std::optional<std::vector<ServiceRow>> merge_service_parts(
    std::vector<ServicePart> parts, std::string* error) {
  return merge_parts(std::move(parts), error);
}

/// The sweep merge as sweep_merge and report_main need it: merge_part_files
/// plus the aggregates recomputed with the global suite's scenario weights -
/// the same SweepResult (minus idle_computations) a single-process
/// SweepRunner::run would have produced.
[[nodiscard]] std::optional<SweepResult> merge_part_files(
    const std::vector<std::string>& paths,
    const std::uint64_t* expected_fingerprint, std::string* error,
    SweepIdentity* identity = nullptr);

}  // namespace qosrm::rmsim

#endif  // QOSRM_RMSIM_SHARD_HH
