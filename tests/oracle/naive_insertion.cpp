#include "oracle/naive_insertion.hpp"

#include <algorithm>

#include "sim/clock.hpp"
#include "util/bits.hpp"

namespace dtm::oracle {

NaiveInsertion::NaiveInsertion(std::shared_ptr<const BatchScheduler> algo,
                               std::uint64_t seed)
    : algo_(std::move(algo)), seed_(seed) {}

std::int32_t NaiveInsertion::choose_level(
    const SystemView& view, const Transaction& t, std::int32_t top,
    const BucketInsertionCore::LevelFn& levels,
    const ExtraAssignments& extra) {
  ++stats_.inserts;
  for (std::int32_t i = 0; i <= top; ++i) {
    builder_.build(view, levels(i).members, t.id, extra, scratch_);
    ++stats_.rebuilds;
    ++stats_.probes;
    ++stats_.estimates;
    const Time f = estimate_fa_seeded(
        *algo_, scratch_, probe_seed(seed_, problem_fingerprint(scratch_)));
    if (f <= (Time{1} << i)) return i;
  }
  return top;
}

const BatchProblem& NaiveInsertion::activation_problem(
    const SystemView& view, std::span<const TxnId> members,
    const ExtraAssignments& extra) {
  ++stats_.activations;
  ++stats_.rebuilds;
  builder_.build(view, members, kNoTxn, extra, scratch_);
  return scratch_;
}

DifferentialBucketScheduler::DifferentialBucketScheduler(
    std::shared_ptr<const BatchScheduler> algo, DifferentialOptions opts)
    : algo_(std::move(algo)),
      wrapped_(algo_),
      opts_(opts),
      core_(algo_, opts.seed),
      naive_(algo_, opts.seed) {
  DTM_REQUIRE(opts_.homes >= 1, "homes " << opts_.homes);
}

void DifferentialBucketScheduler::insert(const SystemView& view,
                                         const Pending& p,
                                         const ExtraAssignments& extra) {
  const Transaction& t = view.txn(p.txn);
  const auto levels = [&](std::int32_t i) {
    return BucketInsertionCore::LevelView{bucket_id(p.home, i),
                                          bucket(p.home, i)};
  };
  std::int32_t level = naive_.choose_level(view, t, top_, levels, extra);
  if (!opts_.drive_naive) {
    const std::int32_t fast = core_.choose_level(view, t, top_, levels, extra);
    DTM_CHECK(fast == level, "insertion core chose level "
                                 << fast << ", the naive scan " << level
                                 << " for txn " << t.id << " at step "
                                 << view.now());
    ++levels_checked_;
    core_.on_inserted(view, bucket_id(p.home, level), t, extra);
  }
  bucket(p.home, level).push_back(t.id);
}

void DifferentialBucketScheduler::activate(const SystemView& view,
                                           std::int32_t home,
                                           std::int32_t level,
                                           ExtraAssignments& extra,
                                           std::vector<Assignment>& out) {
  std::vector<TxnId>& members = bucket(home, level);
  const BucketInsertionCore::BucketId id = bucket_id(home, level);
  const BatchProblem& fresh = naive_.activation_problem(view, members, extra);
  if (opts_.drive_naive) {
    activation_scratch_ = fresh;
  } else {
    activation_scratch_ = core_.activation_problem(view, id, members, extra);
    DTM_CHECK(problem_fingerprint(activation_scratch_) ==
                  problem_fingerprint(fresh),
              "activation problem of bucket (home " << home << ", level "
                                                    << level
                                                    << ") diverges from a "
                                                       "fresh build at step "
                                                    << view.now());
    ++activations_checked_;
  }
  BatchProblem& p = activation_scratch_;
  if (opts_.gather > 0)
    for (BatchObject& o : p.objects)
      o.ready = std::max(o.ready, view.now() + opts_.gather);
  const BatchResult r = core_.run_activation(p, wrapped_, opts_.retries);
  for (const Assignment& a : r.assignments) {
    out.push_back(a);
    extra.set(a.txn, a.exec);
  }
  members.clear();
  if (!opts_.drive_naive) {
    core_.on_drained(id);
    core_.note_world_change();
  }
}

std::vector<Assignment> DifferentialBucketScheduler::on_step(
    const SystemView& view, std::span<const Transaction> arrivals) {
  const Time now = view.now();
  if (top_ < 0) {
    // BucketScheduler's automatic level count.
    const std::int64_t horizon =
        static_cast<std::int64_t>(view.oracle().num_nodes()) *
        std::max<Weight>(view.oracle().diameter(), 1) * view.latency_factor();
    top_ = ceil_log2_i64(std::max<std::int64_t>(horizon, 2)) + 6;
    buckets_.assign(static_cast<std::size_t>(opts_.homes) *
                        static_cast<std::size_t>(top_ + 1),
                    {});
  }
  for (const Transaction& t : arrivals) {
    Time delay = 0;
    if (opts_.report_delay > 0) {
      Rng rng(derive_seed(opts_.seed, 0x4E9047ULL,
                          static_cast<std::uint64_t>(t.id)));
      delay = rng.uniform_int(0, opts_.report_delay);
    }
    pending_.push_back({now + delay, t.id, t.node % opts_.homes});
  }

  std::vector<Assignment> out;
  ExtraAssignments extra;
  // Activations run first when arrivals are reported late, so insertions
  // then see this step's commitments in `extra` (dist-bucket's report
  // handling); on-time arrivals insert before any activation, as in
  // BucketScheduler.
  const auto insert_due = [&] {
    std::size_t kept = 0;
    for (const Pending& p : pending_) {
      if (p.due <= now)
        insert(view, p, extra);
      else
        pending_[kept++] = p;
    }
    pending_.resize(kept);
  };
  if (opts_.report_delay == 0) insert_due();
  if (now > 0) {
    for (std::int32_t i = 0; i <= top_; ++i) {
      if (i < 63 && now % (Time{1} << i) != 0) continue;
      for (std::int32_t h = 0; h < opts_.homes; ++h)
        if (!bucket(h, i).empty()) activate(view, h, i, extra, out);
    }
  }
  if (opts_.report_delay > 0) insert_due();
  return out;
}

Time DifferentialBucketScheduler::next_event_hint(Time now) const {
  Time next = kNoTime;
  for (const Pending& p : pending_)
    next = EventClock::merge(next, std::max(p.due, now));
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b].empty()) continue;
    const auto i = static_cast<std::int32_t>(
        b % static_cast<std::size_t>(top_ + 1));
    const Time period = i < 63 ? (Time{1} << i) : (Time{1} << 62);
    const Time base = std::max<Time>(now, 1);
    next = EventClock::merge(next, ((base + period - 1) / period) * period);
  }
  return next;
}

}  // namespace dtm::oracle
