// ThreadPool — persistent fork-join worker pool with chunked index
// scheduling (docs/ARCHITECTURE.md §8).
//
// The original parallel_for spawned fresh std::threads on every call,
// which is fine for a handful of bench sweeps but hopeless inside the
// simulation kernel, where a run() fires on every engine step. The pool
// keeps its workers parked on a condition variable between jobs; a job
// wakes only the workers it asks for, hands out [begin, end) index chunks
// from a shared atomic cursor, and the caller participates as the extra
// worker. A worker joins a job only while the job is open and has a free
// slot; once the caller has run out of indices the job closes, and the
// join waits only for the workers that joined.
//
// Determinism contract: the pool schedules *which thread* runs an index,
// never *what the index computes* — callers own canonical-order merges of
// any per-worker results. Nested run() calls (a pool task invoking the
// pool again) degrade to inline serial execution instead of deadlocking,
// so outer trial-level parallelism composes with the parallel engine.
//
// parallel_for / parallel_map keep their original signatures as thin
// wrappers over the shared pool; exceptions in workers are rethrown on the
// caller thread (first one wins) and the pool stays usable afterwards.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace dtm {

class ThreadPool {
 public:
  /// A pool with `background` parked worker threads (the caller of run()
  /// always participates, so `background + 1` indices can be in flight).
  explicit ThreadPool(unsigned background);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Background workers currently spawned (grows on demand up to the
  /// participant count requested by run()).
  [[nodiscard]] unsigned workers() const;

  /// Applies `fn(i)` to every index in [0, count). Up to `max_threads`
  /// threads participate (0 = all hardware threads); `chunk` indices are
  /// claimed per cursor bump (0 = auto). `fn` must be thread-safe across
  /// distinct indices. Runs inline (serial) when only one participant is
  /// warranted or when called from inside a pool task.
  template <typename Fn>
  void run(std::int64_t count, Fn&& fn, unsigned max_threads = 0,
           std::int64_t chunk = 0) {
    DTM_REQUIRE(count >= 0, "ThreadPool::run count " << count);
    if (count == 0) return;
    unsigned want = max_threads != 0 ? max_threads : hardware_threads();
    want = static_cast<unsigned>(
        std::min<std::int64_t>({want, count, kMaxParticipants}));
    if (want <= 1 || inside_pool()) {
      for (std::int64_t i = 0; i < count; ++i) fn(i);
      return;
    }
    auto body = [&fn](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) fn(i);
    };
    run_impl(
        count, want, chunk,
        [](void* ctx, std::int64_t b, std::int64_t e) {
          (*static_cast<decltype(body)*>(ctx))(b, e);
        },
        &body);
  }

  /// The process-wide pool every parallel_for / engine phase shares.
  static ThreadPool& shared();

  /// hardware_concurrency with the 0-means-unknown case mapped to 1.
  [[nodiscard]] static unsigned hardware_threads();

  /// True on a thread currently executing a pool task (or a caller inside
  /// run()); nested run() calls detect this and execute inline.
  [[nodiscard]] static bool inside_pool();

 private:
  /// Oversubscription guard: more participants than this never helps, and
  /// a runaway threads= knob should not fork-bomb the host.
  static constexpr std::int64_t kMaxParticipants = 64;

  using Thunk = void (*)(void*, std::int64_t, std::int64_t);

  /// One fork-join job: a chunked cursor over [0, count).
  struct Job {
    std::int64_t count = 0;
    std::int64_t chunk = 1;
    std::atomic<std::int64_t> next{0};
    std::atomic<bool> failed{false};
    Thunk thunk = nullptr;
    void* ctx = nullptr;
    std::exception_ptr error;  ///< guarded by mu_
  };

  void run_impl(std::int64_t count, unsigned participants, std::int64_t chunk,
                Thunk thunk, void* ctx);
  void work(Job& job);
  void worker_main(std::uint64_t start_epoch);
  /// Spawns workers until at least `n` exist (caller holds mu_).
  void ensure_workers_locked(unsigned n);

  mutable std::mutex mu_;
  std::condition_variable cv_;       ///< wakes workers for an open job
  std::condition_variable done_cv_;  ///< wakes the caller at join
  std::vector<std::thread> threads_;
  Job* job_ = nullptr;       ///< the open job; null once the caller closes it
  std::uint64_t epoch_ = 0;  ///< job counter: a worker joins each job once
  unsigned free_slots_ = 0;  ///< background participants job_ still takes
  unsigned active_ = 0;      ///< workers that joined and are still running
  bool stop_ = false;

  std::mutex run_mu_;  ///< serializes whole jobs (one fork-join at a time)
};

/// Resolves a user-facing thread-count knob: 0 = all hardware threads,
/// N >= 1 = exactly N participants. Negative counts are hard errors.
[[nodiscard]] inline unsigned resolve_threads(std::int32_t threads) {
  DTM_REQUIRE(threads >= 0, "threads must be >= 0, got " << threads);
  return threads == 0 ? ThreadPool::hardware_threads()
                      : static_cast<unsigned>(threads);
}

/// Applies `fn` to indices [0, count) using up to `threads` workers
/// (0 = hardware concurrency) from the shared pool. `fn` must be
/// thread-safe across distinct indices. Exceptions in workers are rethrown
/// on the caller thread (first one wins).
template <typename Fn>
void parallel_for(std::int64_t count, Fn&& fn, unsigned threads = 0) {
  ThreadPool::shared().run(count, std::forward<Fn>(fn), threads);
}

/// Maps `fn` over [0, count), collecting results in input order.
template <typename R, typename Fn>
std::vector<R> parallel_map(std::int64_t count, Fn&& fn,
                            unsigned threads = 0) {
  std::vector<R> out(static_cast<std::size_t>(count));
  parallel_for(
      count,
      [&](std::int64_t i) { out[static_cast<std::size_t>(i)] = fn(i); },
      threads);
  return out;
}

}  // namespace dtm
