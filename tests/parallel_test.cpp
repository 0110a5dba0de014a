// Tests for util/parallel: the fork-join sweep helper.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "util/parallel.hpp"

namespace dtm {
namespace {

TEST(Parallel, VisitsEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(100, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroAndOneCounts) {
  int calls = 0;
  parallel_for(0, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::int64_t i) {
    order.push_back(static_cast<int>(i));
  }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, MapPreservesOrder) {
  const auto out = parallel_map<std::int64_t>(
      64, [](std::int64_t i) { return i * i; }, 4);
  for (std::int64_t i = 0; i < 64; ++i)
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Parallel, ExceptionsPropagate) {
  EXPECT_THROW(
      parallel_for(16, [](std::int64_t i) {
        if (i == 7) throw std::runtime_error("boom");
      }, 4),
      std::runtime_error);
}

TEST(Parallel, NegativeCountRejected) {
  EXPECT_THROW((void)parallel_for(-1, [](std::int64_t) {}), CheckError);
}

TEST(Parallel, DeterministicResultsAcrossThreadCounts) {
  auto square = [](std::int64_t i) { return (i * 2654435761LL) % 1000; };
  const auto a = parallel_map<std::int64_t>(200, square, 1);
  const auto b = parallel_map<std::int64_t>(200, square, 8);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// ThreadPool: the persistent pool behind parallel_for / parallel_map.

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.run(1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.run(64, [&](std::int64_t i) { sum.fetch_add(i); }, 3);
    EXPECT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.run(256, [](std::int64_t i) {
          if (i == 100) throw std::runtime_error("boom");
        }, 4),
        std::runtime_error);
    // The pool must come back healthy after a failed job.
    std::atomic<int> ok{0};
    pool.run(32, [&](std::int64_t) { ok.fetch_add(1); }, 4);
    EXPECT_EQ(ok.load(), 32);
  }
}

TEST(ThreadPool, ExplicitChunkCoversTail) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(37);  // not a multiple of the chunk
  pool.run(37, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  }, 3, /*chunk=*/5);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedRunFallsBackToSerial) {
  // A worker re-entering run() must not deadlock on the pool; the nested
  // sweep executes inline on the calling thread.
  std::atomic<std::int64_t> total{0};
  ThreadPool::shared().run(8, [&](std::int64_t) {
    ThreadPool::shared().run(16, [&](std::int64_t j) { total.fetch_add(j); },
                             4);
  }, 4);
  EXPECT_EQ(total.load(), 8 * (16 * 15 / 2));
}

TEST(ThreadPool, ResolveThreadsSemantics) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
  EXPECT_EQ(resolve_threads(0), ThreadPool::hardware_threads());
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  EXPECT_THROW((void)resolve_threads(-2), CheckError);
}

TEST(ThreadPool, BackToBackTwoParticipantJobsOnALargerPool) {
  // More parked workers than each job takes: a job wakes one helper, late
  // wakers find it closed or full, and the join waits only for the helper
  // that joined. Every index still runs exactly once, and no job ever has
  // more than its two participants running at once.
  using Clock = std::chrono::steady_clock;
  ThreadPool pool(5);
  std::vector<std::atomic<int>> hits(8);
  std::atomic<int> running{0};
  std::atomic<int> most{0};
  for (int job = 0; job < 2000; ++job) {
    // A wide job of empty indices wakes all five workers, and the caller
    // usually closes it before they arrive: they wake during the next job.
    pool.run(6, [](std::int64_t) {}, 6, /*chunk=*/1);
    const std::int64_t count = 2 + job % 7;
    for (std::int64_t i = 0; i < count; ++i)
      hits[static_cast<std::size_t>(i)].store(0);
    most.store(0);
    pool.run(count, [&](std::int64_t i) {
      const int now = running.fetch_add(1) + 1;
      int seen = most.load();
      while (now > seen && !most.compare_exchange_weak(seen, now)) {
      }
      hits[static_cast<std::size_t>(i)].fetch_add(1);
      // A few microseconds per index, so the woken helper usually joins
      // before the caller has claimed every index.
      const auto until = Clock::now() + std::chrono::microseconds(5);
      while (Clock::now() < until) {
      }
      running.fetch_sub(1);
    }, 2, /*chunk=*/1);
    for (std::int64_t i = 0; i < count; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "job " << job << " index " << i;
    ASSERT_LE(most.load(), 2) << "job " << job;
  }
  EXPECT_EQ(pool.workers(), 5u);
}

TEST(ThreadPool, OversubscriptionBeyondHardware) {
  // Thread counts above the core count must still complete and cover every
  // index (the 1-core CI box exercises real interleavings this way).
  ThreadPool pool(0);  // no pre-spawned workers: grows on demand
  std::vector<std::atomic<int>> hits(500);
  pool.run(500, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  }, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace dtm
