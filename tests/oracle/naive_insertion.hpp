// Reference bucket insertion: Algorithm 2's rule transcribed from the paper,
// kept as the test oracle for the incremental core
// (batch/bucket_insertion.*).
//
// NaiveInsertion probes B_0, B_1, ... until F_A(B_i ∪ {T}) <= 2^i, building
// every probed problem from scratch with ProblemBuilder and estimating it
// with estimate_fa_seeded under probe_seed(seed, problem_fingerprint) — the
// stream the core derives for the same content, so the two must agree on
// every level, the lower-bound start notwithstanding. Activation
// problems are fresh builds too.
//
// DifferentialBucketScheduler runs Algorithm 2 through a production
// BucketInsertionCore with NaiveInsertion beside it and DTM_CHECKs every
// level choice and every activation problem fingerprint. Its defaults make
// exactly BucketScheduler's calls (so its commit stream matches
// BucketScheduler's pins); its options reproduce the call shapes
// dist-bucket makes — partial buckets per home cluster, arrivals that reach
// the bucket structure late (probe/report rounds, fault retries), and the
// leader's gather shift on activation copies. With `drive_naive` the
// schedule follows the naive oracle alone: the paper-verbatim scheduler.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "batch/bucket_insertion.hpp"
#include "batch/suffix_wrapper.hpp"
#include "core/scheduler.hpp"

namespace dtm::oracle {

class NaiveInsertion {
 public:
  NaiveInsertion(std::shared_ptr<const BatchScheduler> algo,
                 std::uint64_t seed);

  /// Lowest level i in [0, top] with F_A(B_i ∪ {t}) <= 2^i, or top when
  /// none fits; `levels(i)` names the bucket at level i, as for the core.
  [[nodiscard]] std::int32_t choose_level(
      const SystemView& view, const Transaction& t, std::int32_t top,
      const BucketInsertionCore::LevelFn& levels,
      const ExtraAssignments& extra);

  /// The activation problem for `members`, built from scratch. Valid until
  /// the next call.
  [[nodiscard]] const BatchProblem& activation_problem(
      const SystemView& view, std::span<const TxnId> members,
      const ExtraAssignments& extra);

  /// inserts / probes / estimates / rebuilds / activations so far.
  [[nodiscard]] const FastPathStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const BatchScheduler> algo_;
  std::uint64_t seed_;
  ProblemBuilder builder_;
  BatchProblem scratch_;
  FastPathStats stats_;
};

struct DifferentialOptions {
  /// Partial buckets per level; a transaction's home is node % homes.
  std::int32_t homes = 1;
  /// Each arrival reaches the bucket structure 0..report_delay steps after
  /// it is generated (drawn per transaction from `seed`).
  Time report_delay = 0;
  /// Activation problems get every object's ready time floored at
  /// now + gather, on a copy — the cached problem stays untouched.
  Time gather = 0;
  /// Schedule from the naive oracle's choices and fresh activation builds;
  /// the core only runs the activation retries (as the naive path always
  /// did).
  bool drive_naive = false;
  /// BucketOptions' defaults.
  std::uint64_t seed = 0xB0CCE7;
  std::int32_t retries = 3;
};

class DifferentialBucketScheduler final : public OnlineScheduler {
 public:
  DifferentialBucketScheduler(std::shared_ptr<const BatchScheduler> algo,
                              DifferentialOptions opts = {});

  [[nodiscard]] std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override;
  [[nodiscard]] Time next_event_hint(Time now) const override;
  [[nodiscard]] std::string name() const override {
    return "differential-bucket[" + algo_->name() + "]";
  }

  /// Level choices and activation problems compared so far (0 when
  /// drive_naive).
  [[nodiscard]] std::int64_t levels_checked() const { return levels_checked_; }
  [[nodiscard]] std::int64_t activations_checked() const {
    return activations_checked_;
  }

 private:
  struct Pending {
    Time due;
    TxnId txn;
    std::int32_t home;
  };

  [[nodiscard]] BucketInsertionCore::BucketId bucket_id(
      std::int32_t home, std::int32_t level) const {
    return static_cast<BucketInsertionCore::BucketId>(home) *
               static_cast<BucketInsertionCore::BucketId>(top_ + 1) +
           static_cast<BucketInsertionCore::BucketId>(level);
  }
  std::vector<TxnId>& bucket(std::int32_t home, std::int32_t level) {
    return buckets_[static_cast<std::size_t>(bucket_id(home, level))];
  }
  void insert(const SystemView& view, const Pending& p,
              const ExtraAssignments& extra);
  void activate(const SystemView& view, std::int32_t home,
                std::int32_t level, ExtraAssignments& extra,
                std::vector<Assignment>& out);

  std::shared_ptr<const BatchScheduler> algo_;
  SuffixWrapper wrapped_;
  DifferentialOptions opts_;
  BucketInsertionCore core_;
  NaiveInsertion naive_;
  std::int32_t top_ = -1;
  std::vector<std::vector<TxnId>> buckets_;  ///< by bucket_id
  std::vector<Pending> pending_;             ///< reports not yet inserted
  BatchProblem activation_scratch_;
  std::int64_t levels_checked_ = 0;
  std::int64_t activations_checked_ = 0;
};

}  // namespace dtm::oracle
