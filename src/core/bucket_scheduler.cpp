#include "core/bucket_scheduler.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace dtm {

BucketScheduler::BucketScheduler(std::shared_ptr<const BatchScheduler> algo,
                                 Options opts)
    : algo_(std::move(algo)),
      opts_(opts),
      core_(algo_, opts.seed, opts.threads) {
  DTM_REQUIRE(algo_ != nullptr, "bucket scheduler needs a batch algorithm");
  if (opts_.enforce_suffix_property)
    wrapped_ = std::make_unique<SuffixWrapper>(algo_);
}

void BucketScheduler::ensure_levels(const SystemView& view) {
  if (!buckets_.empty()) return;
  std::int32_t levels = opts_.max_level;
  if (levels <= 0) {
    const std::int64_t horizon = static_cast<std::int64_t>(
                                     view.oracle().num_nodes()) *
                                 std::max<Weight>(view.oracle().diameter(), 1) *
                                 view.latency_factor();
    levels = ceil_log2_i64(std::max<std::int64_t>(horizon, 2)) + 6;
  }
  buckets_.assign(static_cast<std::size_t>(levels) + 1, {});
}

std::int32_t BucketScheduler::choose_level(const SystemView& view,
                                           const Transaction& t,
                                           const ExtraAssignments& extra) {
  const auto top = static_cast<std::int32_t>(buckets_.size()) - 1;
  if (opts_.force_level >= 0) return std::min(opts_.force_level, top);
  // F_A estimates use the raw algorithm: the paper's F_A is "the time to
  // execute X using A", and the suffix wrapper only refines final schedules.
  return core_.choose_level(
      view, t, top,
      [&](std::int32_t i) {
        return BucketInsertionCore::LevelView{
            static_cast<BucketInsertionCore::BucketId>(i),
            buckets_[static_cast<std::size_t>(i)]};
      },
      extra);
}

std::vector<Assignment> BucketScheduler::on_step(
    const SystemView& view, std::span<const Transaction> arrivals) {
  ensure_levels(view);
  const Time now = view.now();
  std::vector<Assignment> out;
  ExtraAssignments extra;  // assignments made during this step

  // Insertion (Algorithm 2 line 4).
  for (const Transaction& t : arrivals) {
    const std::int32_t level = choose_level(view, t, extra);
    buckets_[static_cast<std::size_t>(level)].push_back(t.id);
    core_.on_inserted(
        view, static_cast<BucketInsertionCore::BucketId>(level), t, extra);
    max_level_used_ = std::max(max_level_used_, level);
    trace_index_.insert_or_assign(t.id, traces_.size());
    traces_.push_back({t.id, now, level, kNoTime, kNoTime});
  }

  // Activations, lowest level first (Algorithm 2 lines 5-8): level i fires
  // every 2^i steps.
  if (now > 0) {
    const BatchScheduler& runner =
        wrapped_ ? static_cast<const BatchScheduler&>(*wrapped_) : *algo_;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (i < 63 && (now % (Time{1} << i)) != 0) continue;
      auto& bucket = buckets_[i];
      if (bucket.empty()) continue;
      const auto id = static_cast<BucketInsertionCore::BucketId>(i);
      const BatchProblem& p =
          core_.activation_problem(view, id, bucket, extra);
      const BatchResult r =
          core_.run_activation(p, runner, opts_.randomized_retries);
      for (const auto& a : r.assignments) {
        out.push_back(a);
        extra.set(a.txn, a.exec);
        const std::size_t* row = trace_index_.find(a.txn);
        DTM_REQUIRE(row != nullptr, "no trace for txn " << a.txn);
        auto& tr = traces_[*row];
        tr.scheduled = now;
        tr.exec = a.exec;
      }
      bucket.clear();
      core_.on_drained(id);
      core_.note_world_change();
    }
  }
  return out;
}

Time BucketScheduler::next_event_hint(Time now) const {
  Time next = kNoTime;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i].empty()) continue;
    const Time period = i < 63 ? (Time{1} << i) : (Time{1} << 62);
    // Next activation multiple >= now (activations require now > 0; a
    // bucket still nonempty after this step's on_step cannot fire at now).
    const Time base = std::max<Time>(now, 1);
    const Time fire = ((base + period - 1) / period) * period;
    next = next == kNoTime ? fire : std::min(next, fire);
  }
  return next;
}

}  // namespace dtm
