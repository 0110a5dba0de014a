// Layer tracing for the end-to-end benchmark, recorded from outside the
// library: decorators over the public seams (OnlineScheduler,
// BatchScheduler, DistanceOracle, SystemView, TxnSource) and the
// bench-side copy of the batch step loop open spans around each call into
// a layer. Nothing here runs in an untraced rep, so the end-to-end numbers
// never pay for it.
//
// A span is (name, start, end, parent, step). Spans are aggregated online
// into a count, a sum and a log-bucketed histogram; raw records are kept for
// the first kRawSteps steps only and can be written out as JSONL. A layer's
// self time is its span time minus the wall time its child spans cover; the
// only nesting is batch.schedule inside core.on_step, and batch.schedule can
// run on ThreadPool workers, so its coverage is the union of the intervals
// across threads while its busy time is the plain sum (which may exceed
// wall time).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "core/scheduler.hpp"
#include "serve/latency.hpp"
#include "serve/source.hpp"

namespace e2e {

using dtm::Time;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Span : std::uint8_t {
  kArrivals,       // Workload::arrivals_at (batch loop)
  kBeginStep,      // SyncEngine::begin_step
  kOnStep,         // OnlineScheduler::on_step
  kApply,          // SyncEngine::apply
  kFinishStep,     // SyncEngine::finish_step
  kOnCommit,       // Workload::on_commit + commit hashing (batch loop)
  kNextEvent,      // EventClock::next_event + SyncEngine::advance_to
  kBatchSchedule,  // BatchScheduler::schedule (any thread)
  kSource,         // TxnSource::offers_at (serve)
  kValidate,       // validate_schedule (batch loop, after the last step)
  kLowerBound,     // makespan_lower_bound (batch loop, after the last step)
  kCount,
};

[[nodiscard]] const char* span_name(Span s);

/// Calls counted (not timed: each is a few nanoseconds of work).
enum class Count : std::uint8_t { kOracleDist, kViewCalls, kCount };

struct SpanStats {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  dtm::LatencyRecorder hist;  ///< per-span duration, ns
};

class Tracer {
 public:
  /// Raw span records are kept for this many steps (on_step entries).
  static constexpr std::int64_t kRawSteps = 4096;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans opened and closed on the driving thread.
  class Scope {
   public:
    Scope(Tracer& t, Span s) : t_(t), s_(s), start_(now_ns()) {}
    ~Scope() { t_.close_main(s_, start_, now_ns()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Span s_;
    std::int64_t start_;
  };

  /// The batch loop names the step it is on; serve and stream leave it
  /// unset and the scheduler decorator reads the step from its view.
  void set_loop_step(Time t) {
    loop_step_ = t;
    step_ = t;
  }
  [[nodiscard]] Time loop_step() const { return loop_step_; }
  /// The step raw records are stamped with until the next on_step.
  void set_step(Time t) { step_ = t; }

  /// core.on_step, with the step-interval histogram and the coverage
  /// baseline its self time is computed against.
  [[nodiscard]] std::int64_t open_on_step(Time step);
  void close_on_step(std::int64_t start, std::size_t assignments);

  /// batch.schedule from any thread.
  [[nodiscard]] std::int64_t open_batch();
  void close_batch(std::int64_t start, std::size_t txns);

  /// Per-thread counter bump: no shared cache line, no locked instruction.
  void count(Count c);

  // ---- results (read after the run, when all workers are parked) ----
  [[nodiscard]] const SpanStats& span(Span s) const {
    return spans_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::int64_t total(Count c) const;
  [[nodiscard]] std::int64_t on_step_self_ns() const { return on_step_self_ns_; }
  [[nodiscard]] const dtm::LatencyRecorder& step_interval() const {
    return step_interval_;
  }
  [[nodiscard]] std::int64_t assignments() const { return assignments_; }
  [[nodiscard]] std::int64_t batch_txns() const { return batch_txns_; }

  /// Raw spans as JSONL: {"name","start_ns","end_ns","parent","step"}, times
  /// relative to the tracer's construction, parent = line index or -1.
  void write_jsonl(std::ostream& os) const;

 private:
  struct Record {
    Span name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
    Time step = 0;
  };
  struct ThreadCounts {
    std::array<std::atomic<std::int64_t>, static_cast<std::size_t>(Count::kCount)>
        c{};
  };

  void close_main(Span s, std::int64_t start, std::int64_t end);
  void add(Span s, std::int64_t start, std::int64_t end);
  [[nodiscard]] bool recording() const { return steps_ <= kRawSteps; }
  ThreadCounts& local_counts();

  const std::int64_t origin_ns_;
  std::array<SpanStats, static_cast<std::size_t>(Span::kCount)> spans_;
  Time loop_step_ = dtm::kNoTime;
  Time step_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t last_on_step_entry_ = 0;
  dtm::LatencyRecorder step_interval_;
  std::int64_t assignments_ = 0;
  std::int64_t on_step_self_ns_ = 0;
  std::int64_t cover_at_open_ = 0;
  /// Index of the open on_step record, the parent of batch spans.
  std::atomic<std::int64_t> on_step_record_{-1};

  // Guarded by mu_: batch spans (any thread), their coverage union, and the
  // raw records (batch spans append from workers).
  mutable std::mutex mu_;
  int batch_active_ = 0;
  std::int64_t batch_since_ = 0;
  std::int64_t batch_cover_ns_ = 0;
  std::int64_t batch_txns_ = 0;
  std::vector<Record> records_;
  std::vector<std::unique_ptr<ThreadCounts>> thread_counts_;
  /// Distinguishes this tracer's per-thread blocks from an earlier one's.
  const std::uint64_t id_;
};

// ---- Decorators over the library's seams ----

class TracedScheduler final : public dtm::OnlineScheduler {
 public:
  TracedScheduler(std::unique_ptr<dtm::OnlineScheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::vector<dtm::Assignment> on_step(
      const dtm::SystemView& view,
      std::span<const dtm::Transaction> arrivals) override;
  [[nodiscard]] Time next_event_hint(Time now) const override {
    return inner_->next_event_hint(now);
  }
  [[nodiscard]] std::vector<const dtm::EventSource*> event_sources()
      const override {
    return inner_->event_sources();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const dtm::OnlineScheduler& inner() const { return *inner_; }

 private:
  std::unique_ptr<dtm::OnlineScheduler> inner_;
  Tracer& tracer_;
};

class TracedBatch final : public dtm::BatchScheduler {
 public:
  TracedBatch(std::shared_ptr<const dtm::BatchScheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] dtm::BatchResult schedule(const dtm::BatchProblem& p,
                                          dtm::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }

 private:
  std::shared_ptr<const dtm::BatchScheduler> inner_;
  Tracer& tracer_;
};

class CountingOracle final : public dtm::DistanceOracle {
 public:
  CountingOracle(std::shared_ptr<const dtm::DistanceOracle> inner,
                 Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] dtm::Weight dist(dtm::NodeId u, dtm::NodeId v) const override {
    tracer_.count(Count::kOracleDist);
    return inner_->dist(u, v);
  }
  [[nodiscard]] dtm::Weight diameter() const override {
    return inner_->diameter();
  }
  [[nodiscard]] dtm::NodeId num_nodes() const override {
    return inner_->num_nodes();
  }

 private:
  std::shared_ptr<const dtm::DistanceOracle> inner_;
  Tracer& tracer_;
};

/// Counts every call a scheduler makes into the engine's state.
class CountingView final : public dtm::SystemView {
 public:
  CountingView(const dtm::SystemView& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] Time now() const override {
    tracer_.count(Count::kViewCalls);
    return inner_.now();
  }
  [[nodiscard]] const dtm::DistanceOracle& oracle() const override {
    tracer_.count(Count::kViewCalls);
    return inner_.oracle();
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    tracer_.count(Count::kViewCalls);
    return inner_.latency_factor();
  }
  [[nodiscard]] const dtm::ObjectState& object(dtm::ObjId o) const override {
    tracer_.count(Count::kViewCalls);
    return inner_.object(o);
  }
  [[nodiscard]] const dtm::Transaction& txn(dtm::TxnId t) const override {
    tracer_.count(Count::kViewCalls);
    return inner_.txn(t);
  }
  [[nodiscard]] Time assigned_exec(dtm::TxnId t) const override {
    tracer_.count(Count::kViewCalls);
    return inner_.assigned_exec(t);
  }
  [[nodiscard]] std::span<const dtm::TxnId> live_users_of(
      dtm::ObjId o) const override {
    tracer_.count(Count::kViewCalls);
    return inner_.live_users_of(o);
  }
  [[nodiscard]] std::span<const dtm::TxnId> live_txns() const override {
    tracer_.count(Count::kViewCalls);
    return inner_.live_txns();
  }

 private:
  const dtm::SystemView& inner_;
  Tracer& tracer_;
};

class TracedSource final : public dtm::TxnSource {
 public:
  TracedSource(std::unique_ptr<dtm::TxnSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::vector<dtm::ObjectOrigin> objects() override {
    return inner_->objects();
  }
  [[nodiscard]] std::vector<dtm::Transaction> offers_at(Time now) override {
    tracer_.set_step(now);
    const Tracer::Scope s(tracer_, Span::kSource);
    return inner_->offers_at(now);
  }
  [[nodiscard]] Time next_offer_time() const override {
    return inner_->next_offer_time();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<dtm::TxnSource> inner_;
  Tracer& tracer_;
};

}  // namespace e2e
