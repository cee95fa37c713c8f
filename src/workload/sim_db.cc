#include "workload/sim_db.hh"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/check.hh"
#include "common/thread_pool.hh"

namespace qosrm::workload {

std::uint64_t phase_trace_seed(const AppProfile& app, int phase) noexcept {
  return app.trace_seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(phase + 1);
}

std::uint64_t SimDb::InstanceId::next() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const SimDbOptions& options)
    : suite_(&suite), system_(system), power_(power), phase_opts_(options.phase) {
  stats_.resize(static_cast<std::size_t>(suite.size()));

  // Flatten (app, phase) pairs, longest trace (lpki) first, and hand them
  // out one at a time: the costliest phases start at once and the cheap
  // ones fill the tail. Each job writes only its own slot, so the schedule
  // cannot change the result.
  std::vector<std::pair<int, int>> jobs;
  for (int a = 0; a < suite.size(); ++a) {
    const auto n = static_cast<std::size_t>(suite.app(a).num_phases());
    stats_[static_cast<std::size_t>(a)].resize(n);
    for (std::size_t ph = 0; ph < n; ++ph) {
      jobs.emplace_back(a, static_cast<int>(ph));
    }
  }
  auto lpki = [&](const std::pair<int, int>& job) {
    return suite.app(job.first).phases[static_cast<std::size_t>(job.second)].lpki;
  };
  std::stable_sort(jobs.begin(), jobs.end(),
                   [&](const auto& x, const auto& y) { return lpki(x) > lpki(y); });

  const PhaseStatsOptions phase_opts = options.phase;
  auto run_job = [&](std::size_t j) {
    const auto [a, ph] = jobs[j];
    const AppProfile& app = suite.app(a);
    stats_[static_cast<std::size_t>(a)][static_cast<std::size_t>(ph)] =
        characterize_phase(app.phases[static_cast<std::size_t>(ph)], system_,
                           phase_opts, phase_trace_seed(app, ph));
  };

  const std::size_t threads = resolve_thread_count(options.threads);
  if (threads <= 1) {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
  } else {
    ThreadPool pool(threads - 1);  // pool workers + the calling thread
    parallel_for_each_dynamic(pool, 0, jobs.size(), run_job);
  }

  table_ = EvalTable(suite, system_, power_, stats_);
}

SimDb::SimDb(const SpecSuite& suite, const arch::SystemConfig& system,
             const power::PowerModel& power, const PhaseStatsOptions& phase_options,
             std::vector<std::vector<PhaseStats>> stats)
    : suite_(&suite),
      system_(system),
      power_(power),
      phase_opts_(phase_options),
      stats_(std::move(stats)) {
  QOSRM_CHECK(static_cast<int>(stats_.size()) == suite.size());
  for (int a = 0; a < suite.size(); ++a) {
    QOSRM_CHECK(static_cast<int>(stats_[static_cast<std::size_t>(a)].size()) ==
                suite.app(a).num_phases());
  }
  table_ = EvalTable(suite, system_, power_, stats_);
}

const PhaseStats& SimDb::stats(int app, int phase) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  const auto& per_app = stats_[static_cast<std::size_t>(app)];
  QOSRM_CHECK(phase >= 0 && phase < static_cast<int>(per_app.size()));
  return per_app[static_cast<std::size_t>(phase)];
}

power::IntervalEnergy SimDb::energy(int app, int phase, const Setting& s) const {
  const arch::IntervalTiming t = timing(app, phase, s);  // checks s's bounds
  const PhaseStats& st = stats(app, phase);
  return power_.interval_energy(s.c, arch::VfTable::point(s.f_idx), t,
                                st.interval_instructions, st.dram_accesses(s.w));
}

int SimDb::num_phases(int app) const {
  QOSRM_CHECK(app >= 0 && app < suite_->size());
  return static_cast<int>(stats_[static_cast<std::size_t>(app)].size());
}

}  // namespace qosrm::workload
