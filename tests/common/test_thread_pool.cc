#include "common/thread_pool.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/once_cache.hh"

namespace qosrm {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIdleCoversNestedSubmits) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &done] {
      done.fetch_add(1);
      pool.submit([&pool, &done] {
        done.fetch_add(1);
        pool.submit([&done] { done.fetch_add(1); });
      });
    });
  }
  // wait_idle must not return while nested tasks are still queued or running.
  pool.wait_idle();
  EXPECT_EQ(done.load(), 48);
}

TEST(ThreadPool, ZeroThreadsFallsBackToHardwareConcurrency) {
  ThreadPool pool(0);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(hw));

  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(OnceCache, ComputesEachKeyExactlyOnceUnderContention) {
  OnceCache<int, int> cache;
  std::atomic<int> computes{0};
  ThreadPool pool(8);
  // 1000 lookups race over 10 keys; the sleep widens the window in which
  // several threads hold the same not-yet-computed entry.
  parallel_for(pool, 0, 1000, [&](std::size_t i) {
    const int key = static_cast<int>(i % 10);
    const int& value = cache.get_or_compute(key, [&] {
      computes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return key * 7;
    });
    EXPECT_EQ(value, key * 7);
  });
  EXPECT_EQ(computes.load(), 10);
  EXPECT_EQ(cache.computations(), 10u);
  EXPECT_EQ(cache.size(), 10u);
}

TEST(OnceCache, KeepsFirstValueAndStableReference) {
  OnceCache<std::string, std::vector<int>> cache;
  const std::vector<int>& first =
      cache.get_or_compute("k", [] { return std::vector<int>{1, 2, 3}; });
  // Grow the cache, then ask again with a different compute fn: the original
  // value and address must survive (callers hold references across inserts).
  for (int i = 0; i < 100; ++i) {
    cache.get_or_compute(std::to_string(i), [&] { return std::vector<int>{i}; });
  }
  const std::vector<int>& again =
      cache.get_or_compute("k", [] { return std::vector<int>{9}; });
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, NonZeroBeginRespected) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+11+...+19
}

TEST(ParallelFor, ConvenienceOverloadWorks) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ReusablePoolAcrossLoops) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 0, 50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 250);
}

TEST(ParallelForEachDynamic, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1010);
  parallel_for_each_dynamic(pool, 10, hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), i < 10 ? 0 : 1);

  std::atomic<int> calls{0};
  parallel_for_each_dynamic(pool, 5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForEachDynamic, LongFirstJobDoesNotHoldBackTheRest) {
  // Index 0 waits for every other index. Contiguous chunks would put
  // indices 1..49 behind it on the same worker; handing out one index at a
  // time lets the other worker run them all.
  ThreadPool pool(1);
  constexpr std::size_t kJobs = 100;
  std::atomic<std::size_t> others{0};
  bool first_saw_all = false;
  parallel_for_each_dynamic(pool, 0, kJobs, [&](std::size_t i) {
    if (i != 0) {
      others.fetch_add(1);
      return;
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others.load() < kJobs - 1 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    first_saw_all = others.load() == kJobs - 1;
  });
  EXPECT_TRUE(first_saw_all);
}

TEST(ResolveThreadCount, ZeroOrLessMeansHardwareConcurrency) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(resolve_thread_count(0), hw);
  EXPECT_EQ(resolve_thread_count(-3), hw);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(4), 4u);
}

}  // namespace
}  // namespace qosrm
