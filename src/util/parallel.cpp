#include "util/parallel.hpp"

namespace dtm {

namespace {

// Set for the lifetime of a worker thread, and transiently on a caller
// while it participates in its own job. Nested run() calls check it and
// degrade to inline execution: the pool's run_mu_ is not recursive, and a
// worker blocking on a sub-job would deadlock the job it is part of.
thread_local bool tls_inside_pool = false;

}  // namespace

ThreadPool::ThreadPool(unsigned background) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_workers_locked(std::min<unsigned>(
      background, static_cast<unsigned>(kMaxParticipants) - 1));
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ThreadPool::workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<unsigned>(threads_.size());
}

bool ThreadPool::inside_pool() { return tls_inside_pool; }

unsigned ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::shared() {
  // Sized so the caller plus the background workers cover the hardware;
  // run() grows it on demand when a caller asks for more participants
  // (oversubscription — how the determinism suite exercises real
  // interleavings even on small machines).
  static ThreadPool pool(hardware_threads() - 1);
  return pool;
}

void ThreadPool::ensure_workers_locked(unsigned n) {
  while (threads_.size() < n && !stop_)
    threads_.emplace_back([this, e = epoch_] { worker_main(e); });
}

void ThreadPool::worker_main(std::uint64_t start_epoch) {
  tls_inside_pool = true;
  std::uint64_t seen = start_epoch;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Join only an open job with a free slot, and each job at most once: a
    // worker woken after the caller closed the job, or after the slots
    // filled, goes back to sleep without holding anyone up.
    cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && free_slots_ > 0 && epoch_ != seen);
    });
    if (stop_) return;
    seen = epoch_;
    --free_slots_;
    ++active_;
    Job* job = job_;
    lock.unlock();
    work(*job);
    lock.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::work(Job& job) {
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::int64_t b =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (b >= job.count) return;
    const std::int64_t e = std::min(job.count, b + job.chunk);
    try {
      job.thunk(job.ctx, b, e);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
      job.failed.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::run_impl(std::int64_t count, unsigned participants,
                          std::int64_t chunk, Thunk thunk, void* ctx) {
  // One fork-join at a time: concurrent top-level callers queue here. The
  // open-job state below (job_, free_slots_, active_) describes one job.
  const std::lock_guard<std::mutex> run_lock(run_mu_);
  if (chunk <= 0) {
    // ~4 chunks per participant balances steal granularity against cursor
    // contention; capped so huge counts still prefetch-friendly ranges.
    chunk = count / (static_cast<std::int64_t>(participants) * 4);
    chunk = std::clamp<std::int64_t>(chunk, 1, 4096);
  }
  Job job;
  job.count = count;
  job.chunk = chunk;
  job.thunk = thunk;
  job.ctx = ctx;
  const unsigned helpers = participants - 1;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ensure_workers_locked(helpers);
    job_ = &job;
    free_slots_ = helpers;
    ++epoch_;
  }
  // Wake only as many workers as the job has slots for; the rest stay
  // parked.
  for (unsigned i = 0; i < helpers; ++i) cv_.notify_one();

  tls_inside_pool = true;  // nested run() from fn executes inline
  work(job);
  tls_inside_pool = false;

  {
    // The caller ran out of indices: close the job to late wakers and wait
    // only for the workers that joined it.
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    free_slots_ = 0;
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace dtm
