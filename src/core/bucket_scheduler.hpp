// Online bucket schedule (paper Algorithm 2, §IV): converts an offline
// batch scheduling algorithm A into an online scheduler.
//
// Bucket B_i holds unscheduled transactions whose combined batch problem
// (together with the already-scheduled set, folded into availability) takes
// at most 2^i steps under A. A new transaction goes into the lowest such
// bucket; bucket B_i activates every 2^i steps, at which point A schedules
// its contents irrevocably. Lemma 3 bounds the number of levels by
// log2(n*D) + O(1); Theorem 4 bounds the competitive ratio by
// O(b_A log^3(nD)).
//
// Insertion runs through the shared incremental core
// (batch/bucket_insertion.hpp): cached per-bucket problems and a
// lower-bound start level — byte-identical to the naive scan, which lives
// on as the test-side reference.
#pragma once

#include <memory>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "batch/bucket_insertion.hpp"
#include "batch/suffix_wrapper.hpp"
#include "core/scheduler.hpp"
#include "util/flat_map.hpp"

namespace dtm {

struct BucketOptions {
    /// Highest bucket level. 0 = auto: ceil(log2(n * D * latency)) + 6; the
    /// slack over Lemma 3's log(nD)+1 absorbs availability pushed into the
    /// future by earlier activations.
    std::int32_t max_level = 0;
    std::uint64_t seed = 0xB0CCE7;
    /// Retries for randomized A at activation, keeping the best schedule
    /// (the paper's remedy for the randomized cluster/star algorithms).
    std::int32_t randomized_retries = 3;
    /// Apply the §IV-A suffix-property wrapper to activation schedules.
    bool enforce_suffix_property = true;
    /// Ablation: force every transaction into this level instead of the
    /// F_A insertion rule (-1 = normal operation). Disables the level
    /// separation that Lemma 4 relies on — the ablation bench quantifies
    /// what the bucket hierarchy actually buys.
    std::int32_t force_level = -1;
    /// Worker threads for the insertion core's activation retries, fanned
    /// out where measured faster (1 = serial, 0 = all hardware threads).
    /// Decisions are thread-count-invariant (ARCHITECTURE.md §8).
    std::int32_t threads = 1;
  };

class BucketScheduler final : public OnlineScheduler {
 public:
  using Options = BucketOptions;

  BucketScheduler(std::shared_ptr<const BatchScheduler> algo,
                  Options opts = {});

  [[nodiscard]] std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override;

  [[nodiscard]] Time next_event_hint(Time now) const override;

  [[nodiscard]] std::string name() const override {
    return "bucket[" + algo_->name() + "]";
  }

  /// Per-transaction trace for the Lemma 3 / Lemma 4 experiments.
  struct TxnTrace {
    TxnId txn = kNoTxn;
    Time inserted = kNoTime;   ///< arrival / insertion step
    std::int32_t level = -1;   ///< bucket level chosen
    Time scheduled = kNoTime;  ///< activation step that fixed the time
    Time exec = kNoTime;       ///< assigned execution time
  };
  [[nodiscard]] const std::vector<TxnTrace>& traces() const { return traces_; }
  [[nodiscard]] std::int32_t max_level_used() const { return max_level_used_; }
  [[nodiscard]] std::int32_t num_levels() const {
    return static_cast<std::int32_t>(buckets_.size());
  }
  /// The insertion core's counters / last-scan trace (bench + tests).
  [[nodiscard]] const FastPathStats& fastpath_stats() const {
    return core_.stats();
  }
  [[nodiscard]] const BucketInsertionCore& insertion_core() const {
    return core_;
  }

 private:
  void ensure_levels(const SystemView& view);
  std::int32_t choose_level(const SystemView& view, const Transaction& t,
                            const ExtraAssignments& extra);

  std::shared_ptr<const BatchScheduler> algo_;
  std::unique_ptr<SuffixWrapper> wrapped_;
  Options opts_;
  BucketInsertionCore core_;

  std::vector<std::vector<TxnId>> buckets_;
  FlatMap<TxnId, std::size_t> trace_index_;
  std::vector<TxnTrace> traces_;
  std::int32_t max_level_used_ = -1;
};

}  // namespace dtm
