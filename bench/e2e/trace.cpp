#include "trace.hpp"

namespace e2e {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{1};

/// This thread's counter block and the tracer it belongs to.
struct LocalCounts {
  std::uint64_t tracer_id = 0;
  void* block = nullptr;
};
thread_local LocalCounts t_counts;

}  // namespace

const char* span_name(Span s) {
  switch (s) {
    case Span::kArrivals: return "sim.arrivals";
    case Span::kBeginStep: return "sim.begin_step";
    case Span::kOnStep: return "core.on_step";
    case Span::kApply: return "sim.apply";
    case Span::kFinishStep: return "sim.finish_step";
    case Span::kOnCommit: return "sim.on_commit";
    case Span::kNextEvent: return "sim.next_event";
    case Span::kBatchSchedule: return "batch.schedule";
    case Span::kSource: return "serve.source";
    case Span::kValidate: return "sim.validate";
    case Span::kLowerBound: return "core.lower_bound";
    case Span::kCount: break;
  }
  return "?";
}

Tracer::Tracer()
    : origin_ns_(now_ns()), id_(g_next_tracer_id.fetch_add(1)) {}

void Tracer::add(Span s, std::int64_t start, std::int64_t end) {
  SpanStats& st = spans_[static_cast<std::size_t>(s)];
  ++st.count;
  st.total_ns += end - start;
  st.hist.record(end - start);
}

void Tracer::close_main(Span s, std::int64_t start, std::int64_t end) {
  add(s, start, end);
  if (recording()) {
    const std::lock_guard<std::mutex> lock(mu_);
    records_.push_back({s, start - origin_ns_, end - origin_ns_, -1, step_});
  }
}

std::int64_t Tracer::open_on_step(Time step) {
  const std::int64_t start = now_ns();
  step_ = step;
  ++steps_;
  if (last_on_step_entry_ != 0)
    step_interval_.record(start - last_on_step_entry_);
  last_on_step_entry_ = start;
  const std::lock_guard<std::mutex> lock(mu_);
  cover_at_open_ = batch_cover_ns_;
  if (recording()) {
    on_step_record_.store(static_cast<std::int64_t>(records_.size()));
    records_.push_back({Span::kOnStep, start - origin_ns_, 0, -1, step_});
  }
  return start;
}

void Tracer::close_on_step(std::int64_t start, std::size_t assignments) {
  const std::int64_t end = now_ns();
  add(Span::kOnStep, start, end);
  assignments_ += static_cast<std::int64_t>(assignments);
  const std::lock_guard<std::mutex> lock(mu_);
  on_step_self_ns_ += (end - start) - (batch_cover_ns_ - cover_at_open_);
  const std::int64_t rec = on_step_record_.exchange(-1);
  if (rec >= 0) records_[static_cast<std::size_t>(rec)].end = end - origin_ns_;
}

std::int64_t Tracer::open_batch() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t start = now_ns();
  if (batch_active_++ == 0) batch_since_ = start;
  return start;
}

void Tracer::close_batch(std::int64_t start, std::size_t txns) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t end = now_ns();
  if (--batch_active_ == 0) batch_cover_ns_ += end - batch_since_;
  add(Span::kBatchSchedule, start, end);
  batch_txns_ += static_cast<std::int64_t>(txns);
  const std::int64_t parent = on_step_record_.load();
  if (parent >= 0)
    records_.push_back({Span::kBatchSchedule, start - origin_ns_,
                        end - origin_ns_, parent, step_});
}

Tracer::ThreadCounts& Tracer::local_counts() {
  if (t_counts.tracer_id != id_) {
    const std::lock_guard<std::mutex> lock(mu_);
    thread_counts_.push_back(std::make_unique<ThreadCounts>());
    t_counts = {id_, thread_counts_.back().get()};
  }
  return *static_cast<ThreadCounts*>(t_counts.block);
}

void Tracer::count(Count c) {
  // Single writer per block: a relaxed load + store is a plain increment.
  auto& slot = local_counts().c[static_cast<std::size_t>(c)];
  slot.store(slot.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
}

std::int64_t Tracer::total(Count c) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t sum = 0;
  for (const auto& b : thread_counts_)
    sum += b->c[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  return sum;
}

void Tracer::write_jsonl(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Record& r : records_)
    os << "{\"name\":\"" << span_name(r.name) << "\",\"start_ns\":" << r.start
       << ",\"end_ns\":" << r.end << ",\"parent\":" << r.parent
       << ",\"step\":" << r.step << "}\n";
}

std::vector<dtm::Assignment> TracedScheduler::on_step(
    const dtm::SystemView& view, std::span<const dtm::Transaction> arrivals) {
  const Time step =
      tracer_.loop_step() != dtm::kNoTime ? tracer_.loop_step() : view.now();
  const std::int64_t start = tracer_.open_on_step(step);
  auto out = inner_->on_step(view, arrivals);
  tracer_.close_on_step(start, out.size());
  return out;
}

dtm::BatchResult TracedBatch::schedule(const dtm::BatchProblem& p,
                                       dtm::Rng& rng) const {
  const std::int64_t start = tracer_.open_batch();
  auto out = inner_->schedule(p, rng);
  tracer_.close_batch(start, p.txns.size());
  return out;
}

}  // namespace e2e
