#include "rmsim/shard.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "common/binary_io.hh"
#include "common/check.hh"
#include "common/file_util.hh"
#include "common/str.hh"
#include "workload/spec_suite.hh"

namespace qosrm::rmsim {

namespace {

bool fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

/// Reads a u32 enum value; anything outside [first, last] fails the read.
/// The checksum catches random corruption, but a hand-made file must not
/// produce undefined enum values.
template <typename Enum>
[[nodiscard]] Enum read_enum(BinaryReader& r, Enum first, Enum last) {
  const std::uint32_t v = r.read_u32();
  if (v < static_cast<std::uint32_t>(first) ||
      v > static_cast<std::uint32_t>(last)) {
    r.fail();
  }
  return static_cast<Enum>(v);
}

[[nodiscard]] workload::Scenario read_scenario(BinaryReader& r) {
  return read_enum(r, workload::kAllScenarios.front(),
                   workload::kAllScenarios.back());
}

[[nodiscard]] rm::RmPolicy read_policy(BinaryReader& r) {
  return read_enum(r, rm::RmPolicy::Idle, rm::RmPolicy::ClassPart);
}

[[nodiscard]] rm::PerfModelKind read_model(BinaryReader& r) {
  return read_enum(r, rm::PerfModelKind::Perfect, rm::PerfModelKind::Model3);
}

void write_core(BinaryWriter& w, const CoreResult& core) {
  w.write_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(core.app)));
  w.write_f64(core.counted_energy_j);
  w.write_f64(core.executed_instructions);
  w.write_f64(core.finish_time_s);
  w.write_u64(core.intervals);
  w.write_u64(core.qos_violations);
  w.write_f64(core.violation_sum);
  w.write_f64(core.violation_max);
}

[[nodiscard]] CoreResult read_core(BinaryReader& r) {
  CoreResult core;
  core.app = static_cast<int>(static_cast<std::int64_t>(r.read_u64()));
  core.counted_energy_j = r.read_f64();
  core.executed_instructions = r.read_f64();
  core.finish_time_s = r.read_f64();
  core.intervals = r.read_u64();
  core.qos_violations = r.read_u64();
  core.violation_sum = r.read_f64();
  core.violation_max = r.read_f64();
  return core;
}

}  // namespace

void SweepCodec::write_row(BinaryWriter& w, const SweepRow& row) {
  w.write_string(row.workload);
  w.write_u32(static_cast<std::uint32_t>(row.scenario));
  w.write_u32(static_cast<std::uint32_t>(row.policy));
  w.write_u32(static_cast<std::uint32_t>(row.model));
  w.write_f64(row.qos_alpha);
  w.write_f64(row.result.savings);

  const RunResult& run = row.result.run;
  w.write_string(run.workload);
  w.write_u32(static_cast<std::uint32_t>(run.scenario));
  w.write_u32(static_cast<std::uint32_t>(run.policy));
  w.write_u32(static_cast<std::uint32_t>(run.model));
  w.write_u64(run.cores.size());
  for (const CoreResult& core : run.cores) write_core(w, core);
  w.write_f64(run.uncore_energy_j);
  w.write_f64(run.wall_time_s);
  w.write_u64(run.rm_invocations);
  w.write_u64(run.rm_ops);
}

SweepRow SweepCodec::read_row(BinaryReader& r) {
  SweepRow row;
  row.workload = r.read_string();
  row.scenario = read_scenario(r);
  row.policy = read_policy(r);
  row.model = read_model(r);
  row.qos_alpha = r.read_f64();
  row.result.savings = r.read_f64();

  RunResult& run = row.result.run;
  run.workload = r.read_string();
  run.scenario = read_scenario(r);
  run.policy = read_policy(r);
  run.model = read_model(r);
  const std::uint64_t n_cores = r.read_u64();
  if (!r.ok() || n_cores > 1024) {  // corrupt count must not allocate wild
    r.fail();
    return row;
  }
  run.cores.reserve(static_cast<std::size_t>(n_cores));
  for (std::uint64_t k = 0; k < n_cores; ++k) run.cores.push_back(read_core(r));
  run.uncore_energy_j = r.read_f64();
  run.wall_time_s = r.read_f64();
  run.rm_invocations = r.read_u64();
  run.rm_ops = r.read_u64();
  return row;
}

void ServiceCodec::write_row(BinaryWriter& w, const ServiceRow& row) {
  w.write_u32(static_cast<std::uint32_t>(row.pattern));
  w.write_f64(row.load);
  w.write_u32(static_cast<std::uint32_t>(row.admission));
  w.write_u32(static_cast<std::uint32_t>(row.policy));
  w.write_u32(static_cast<std::uint32_t>(row.model));
  w.write_f64(row.qos_alpha);

  const ServiceMetrics& m = row.metrics;
  w.write_u64(m.arrivals);
  w.write_u64(m.served);
  w.write_u64(m.rejected);
  w.write_u64(m.qos_rejected);
  w.write_u64(m.intervals);
  w.write_u64(m.violations);
  w.write_f64(m.violation_rate);
  w.write_f64(m.p50_violation);
  w.write_f64(m.p95_violation);
  w.write_f64(m.p99_violation);
  w.write_f64(m.max_violation);
  w.write_f64(m.mean_violation);
  w.write_f64(m.energy_total_j);
  w.write_f64(m.uncore_energy_j);
  w.write_f64(m.energy_per_app_j);
  w.write_u64(m.rm_invocations);
  w.write_u64(m.rm_ops);
  w.write_f64(m.decisions_per_sec);
  w.write_f64(m.occupancy);
  w.write_f64(m.mean_wait_s);
  w.write_f64(m.wall_time_s);
}

ServiceRow ServiceCodec::read_row(BinaryReader& r) {
  ServiceRow row;
  row.pattern = read_enum(
      r, workload::ArrivalPattern{0},
      static_cast<workload::ArrivalPattern>(workload::kNumArrivalPatterns - 1));
  row.load = r.read_f64();
  row.admission =
      read_enum(r, AdmissionPolicy{0},
                static_cast<AdmissionPolicy>(kNumAdmissionPolicies - 1));
  row.policy = read_policy(r);
  row.model = read_model(r);
  row.qos_alpha = r.read_f64();

  ServiceMetrics& m = row.metrics;
  m.arrivals = r.read_u64();
  m.served = r.read_u64();
  m.rejected = r.read_u64();
  m.qos_rejected = r.read_u64();
  m.intervals = r.read_u64();
  m.violations = r.read_u64();
  m.violation_rate = r.read_f64();
  m.p50_violation = r.read_f64();
  m.p95_violation = r.read_f64();
  m.p99_violation = r.read_f64();
  m.max_violation = r.read_f64();
  m.mean_violation = r.read_f64();
  m.energy_total_j = r.read_f64();
  m.uncore_energy_j = r.read_f64();
  m.energy_per_app_j = r.read_f64();
  m.rm_invocations = r.read_u64();
  m.rm_ops = r.read_u64();
  m.decisions_per_sec = r.read_f64();
  m.occupancy = r.read_f64();
  m.mean_wait_s = r.read_f64();
  m.wall_time_s = r.read_f64();
  return row;
}

ShardRange shard_range(std::size_t total_rows, std::size_t index,
                       std::size_t count) {
  QOSRM_CHECK_MSG(count >= 1, "shard count must be >= 1");
  QOSRM_CHECK_MSG(index < count, "shard index out of range");
  const std::size_t base = total_rows / count;
  const std::size_t extra = total_rows % count;
  // Shards [0, extra) own base+1 rows, the rest own base.
  const std::size_t begin =
      index * base + std::min(index, extra);
  const std::size_t size = base + (index < extra ? 1 : 0);
  return {begin, begin + size};
}

std::vector<ShardRange> shard_ranges(std::size_t total_rows, std::size_t count) {
  std::vector<ShardRange> ranges;
  ranges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ranges.push_back(shard_range(total_rows, i, count));
  }
  return ranges;
}

std::uint64_t sweep_fingerprint(const SweepGrid& grid, const SimOptions& sim,
                                std::uint64_t db_fingerprint) {
  Fnv1a64 h;
  h.add_u32(kSweepPartVersion);
  h.add_u64(db_fingerprint);

  h.add_u64(grid.mixes.size());
  for (const workload::WorkloadMix& mix : grid.mixes) {
    h.add_string(mix.name);
    h.add_u32(static_cast<std::uint32_t>(mix.scenario));
    h.add_u64(mix.app_ids.size());
    for (const int app : mix.app_ids) h.add_i64(app);
  }
  h.add_u64(grid.policies.size());
  for (const rm::RmPolicy p : grid.policies) {
    h.add_u32(static_cast<std::uint32_t>(p));
  }
  h.add_u64(grid.models.size());
  for (const rm::PerfModelKind m : grid.models) {
    h.add_u32(static_cast<std::uint32_t>(m));
  }
  h.add_u64(grid.qos_alphas.size());
  for (const double a : grid.qos_alphas) h.add_f64(a);

  h.add_u32(sim.model_overheads ? 1u : 0u);
  h.add_f64(sim.overheads.instr_base);
  h.add_f64(sim.overheads.instr_per_op);
  h.add_f64(sim.overheads.dvfs.time_s);
  h.add_f64(sim.overheads.dvfs.energy_j);
  h.add_f64(sim.qos_epsilon);
  h.add_f64(sim.qos_alpha_override);
  return h.digest();
}

std::string part_path(const std::string& prefix, std::size_t index,
                      std::size_t count) {
  return format("%s.%zu-of-%zu%s", prefix.c_str(), index, count,
                kSweepPartExtension);
}

template <typename Codec>
bool save_part(const Part<Codec>& part, const std::string& path,
               std::string* error) {
  if (part.shard_count < 1 || part.shard_index >= part.shard_count ||
      part.range.begin > part.range.end ||
      part.range.end > part.shape.size() ||
      part.range != shard_range(part.shape.size(), part.shard_index,
                                part.shard_count) ||
      part.rows.size() != part.range.size()) {
    return fail(error, format("inconsistent %s part metadata", Codec::kNoun));
  }

  // Write to a uniquely named sibling and rename into place: a killed
  // worker leaves at worst a *.tmp.* orphan, never a partial part file that
  // a resume pass would have to distrust.
  const std::string tmp_path = atomic_tmp_path(path);
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out.good()) {
    return fail(error, format("cannot open %s for writing", path.c_str()));
  }

  BinaryWriter w(out);
  w.write_u64(Codec::kMagic);
  w.write_u32(Codec::kVersion);
  w.write_u32(kByteOrderMark);
  w.write_u64(part.fingerprint);
  for (const auto axis : Codec::kAxes) w.write_u64(part.shape.*axis);
  w.write_u64(part.shard_index);
  w.write_u64(part.shard_count);
  w.write_u64(part.range.begin);
  w.write_u64(part.range.end);
  for (const auto& row : part.rows) Codec::write_row(w, row);
  w.write_trailing_checksum();
  out.flush();
  if (!out.good()) {
    out.close();
    std::remove(tmp_path.c_str());
    return fail(error, format("write to %s failed", path.c_str()));
  }
  out.close();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return fail(error, format("cannot move part into place at %s", path.c_str()));
  }
  return true;
}

template <typename Codec>
std::optional<Part<Codec>> load_part(const std::string& path,
                                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    fail(error, format("cannot open %s for reading", path.c_str()));
    return std::nullopt;
  }

  BinaryReader r(in);
  const std::uint64_t magic = r.read_u64();
  if (!r.ok() || magic != Codec::kMagic) {
    fail(error, format("%s is not a %s part (bad magic)", path.c_str(),
                       Codec::kNoun));
    return std::nullopt;
  }
  const std::uint32_t version = r.read_u32();
  if (!r.ok() || version != Codec::kVersion) {
    fail(error, format("%s has part version %u, expected %u", path.c_str(),
                       version, Codec::kVersion));
    return std::nullopt;
  }
  const std::uint32_t bom = r.read_u32();
  if (!r.ok() || bom != kByteOrderMark) {
    fail(error,
         format("%s was written on a machine with different byte order",
                path.c_str()));
    return std::nullopt;
  }

  Part<Codec> part;
  part.fingerprint = r.read_u64();
  for (const auto axis : Codec::kAxes) {
    part.shape.*axis = static_cast<std::size_t>(r.read_u64());
  }
  part.shard_index = static_cast<std::size_t>(r.read_u64());
  part.shard_count = static_cast<std::size_t>(r.read_u64());
  part.range.begin = static_cast<std::size_t>(r.read_u64());
  part.range.end = static_cast<std::size_t>(r.read_u64());

  // Metadata sanity before trusting the row count: a corrupt header must
  // not drive a huge allocation, and the axis product must be computed
  // overflow-free before it bounds the range (four 2^20 axes would wrap
  // std::size_t and slip past a naive shape.size() check).
  constexpr std::size_t kMaxAxis = std::size_t{1} << 20;
  constexpr unsigned __int128 kMaxRows = std::size_t{1} << 32;
  bool sane = r.ok();
  unsigned __int128 total_rows = 1;
  for (const auto axis : Codec::kAxes) {
    const std::size_t extent = part.shape.*axis;
    sane = sane && extent != 0 && extent <= kMaxAxis;
    total_rows *= extent;
  }
  if (!sane || total_rows > kMaxRows || part.shard_count < 1 ||
      part.shard_index >= part.shard_count ||
      part.range !=
          shard_range(part.shape.size(), part.shard_index, part.shard_count)) {
    fail(error, format("%s is corrupt (inconsistent part header)", path.c_str()));
    return std::nullopt;
  }

  // Grow incrementally rather than reserving the claimed row count up
  // front: a lying header then fails on the first short read instead of
  // provoking a giant allocation.
  part.rows.reserve(std::min<std::size_t>(part.range.size(), 4096));
  for (std::size_t i = 0; i < part.range.size(); ++i) {
    part.rows.push_back(Codec::read_row(r));
    if (!r.ok()) {
      fail(error, format("%s is corrupt (truncated row data)", path.c_str()));
      return std::nullopt;
    }
  }
  if (!r.verify_trailing_checksum()) {
    fail(error,
         format("%s is corrupt (truncated or checksum mismatch)", path.c_str()));
    return std::nullopt;
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    fail(error, format("%s is corrupt (trailing bytes after checksum)",
                       path.c_str()));
    return std::nullopt;
  }
  return part;
}

template <typename Codec>
std::optional<std::vector<typename Codec::Row>> merge_parts(
    std::vector<Part<Codec>> parts, std::string* error) {
  if (parts.empty()) {
    fail(error, format("no %s parts to merge", Codec::kNoun));
    return std::nullopt;
  }

  const Part<Codec>& first = parts.front();
  for (const Part<Codec>& part : parts) {
    if (part.fingerprint != first.fingerprint) {
      fail(error,
           format("shard %zu/%zu belongs to a different %s (fingerprint "
                  "%016llx, expected %016llx)",
                  part.shard_index, part.shard_count, Codec::kRunNoun,
                  static_cast<unsigned long long>(part.fingerprint),
                  static_cast<unsigned long long>(first.fingerprint)));
      return std::nullopt;
    }
    if (!(part.shape == first.shape) || part.shard_count != first.shard_count) {
      fail(error, format("shard %zu has a mismatched grid shape or shard count",
                         part.shard_index));
      return std::nullopt;
    }
  }
  if (parts.size() != first.shard_count) {
    fail(error, format("have %zu parts but the sweep was sharded %zu ways",
                       parts.size(), first.shard_count));
    return std::nullopt;
  }

  std::sort(parts.begin(), parts.end(),
            [](const Part<Codec>& a, const Part<Codec>& b) {
              return a.shard_index < b.shard_index;
            });
  const std::size_t total = first.shape.size();
  std::size_t next_row = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const Part<Codec>& part = parts[i];
    if (part.shard_index != i) {
      fail(error, format("shard %zu is missing or duplicated", i));
      return std::nullopt;
    }
    if (part.range.begin != next_row) {
      fail(error, format("shard %zu rows [%zu, %zu) leave a gap or overlap at "
                         "row %zu",
                         i, part.range.begin, part.range.end, next_row));
      return std::nullopt;
    }
    next_row = part.range.end;
  }
  if (next_row != total) {
    fail(error, format("parts cover %zu of %zu grid rows", next_row, total));
    return std::nullopt;
  }

  std::vector<typename Codec::Row> rows;
  rows.reserve(total);
  for (Part<Codec>& part : parts) {
    for (auto& row : part.rows) rows.push_back(std::move(row));
  }
  return rows;
}

template <typename Codec>
std::optional<std::vector<typename Codec::Row>> merge_part_files(
    const std::vector<std::string>& paths,
    const std::uint64_t* expected_fingerprint, std::string* error,
    PartIdentity<Codec>* identity) {
  std::vector<Part<Codec>> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    std::optional<Part<Codec>> part = load_part<Codec>(path, error);
    if (!part.has_value()) return std::nullopt;
    if (expected_fingerprint != nullptr &&
        part->fingerprint != *expected_fingerprint) {
      fail(error, format("%s belongs to a different %s than this command line",
                         path.c_str(), Codec::kRunNoun));
      return std::nullopt;
    }
    parts.push_back(std::move(*part));
  }
  if (parts.empty()) {
    fail(error, format("no %s parts to merge", Codec::kNoun));
    return std::nullopt;
  }

  if (identity != nullptr) {
    identity->fingerprint = parts.front().fingerprint;
    identity->shape = parts.front().shape;
  }
  return merge_parts(std::move(parts), error);
}

template <typename Codec>
std::vector<std::size_t> shards_to_run(const std::string& prefix,
                                       std::size_t count,
                                       std::uint64_t fingerprint,
                                       const typename Codec::Shape& shape) {
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < count; ++i) {
    std::string error;
    const std::optional<Part<Codec>> part =
        load_part<Codec>(part_path(prefix, i, count), &error);
    const bool complete = part.has_value() && part->fingerprint == fingerprint &&
                          part->shape == shape && part->shard_index == i &&
                          part->shard_count == count;
    if (!complete) pending.push_back(i);
  }
  return pending;
}

#define QOSRM_INSTANTIATE_PART_FUNCTIONS(Codec)                               \
  template bool save_part<Codec>(const Part<Codec>&, const std::string&,       \
                                 std::string*);                               \
  template std::optional<Part<Codec>> load_part<Codec>(const std::string&,     \
                                                       std::string*);          \
  template std::optional<std::vector<Codec::Row>> merge_parts<Codec>(          \
      std::vector<Part<Codec>>, std::string*);                                 \
  template std::optional<std::vector<Codec::Row>> merge_part_files<Codec>(     \
      const std::vector<std::string>&, const std::uint64_t*, std::string*,     \
      PartIdentity<Codec>*);                                                   \
  template std::vector<std::size_t> shards_to_run<Codec>(                      \
      const std::string&, std::size_t, std::uint64_t, const Codec::Shape&);
QOSRM_INSTANTIATE_PART_FUNCTIONS(SweepCodec)
QOSRM_INSTANTIATE_PART_FUNCTIONS(ServiceCodec)
#undef QOSRM_INSTANTIATE_PART_FUNCTIONS

std::optional<SweepResult> merge_part_files(
    const std::vector<std::string>& paths,
    const std::uint64_t* expected_fingerprint, std::string* error,
    SweepIdentity* identity) {
  SweepIdentity merged_identity;
  std::optional<std::vector<SweepRow>> rows = merge_part_files<SweepCodec>(
      paths, expected_fingerprint, error, &merged_identity);
  if (!rows.has_value()) return std::nullopt;
  if (identity != nullptr) *identity = merged_identity;

  SweepResult result;
  result.rows = std::move(*rows);
  result.aggregates =
      compute_aggregates(result.rows, merged_identity.shape,
                         scenario_weights(workload::spec_suite()));
  return result;
}

}  // namespace qosrm::rmsim
