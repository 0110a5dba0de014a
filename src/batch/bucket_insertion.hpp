// Incremental bucket-insertion core shared by core/bucket_scheduler and
// dist/dist_bucket (the paper's Algorithm 2 insertion rule and its
// Algorithm 3 twin).
//
// The naive transcription rebuilds the full BatchProblem and re-runs the
// offline estimator A once per level from 0 upward for EVERY arrival —
// O(arrivals x levels x |B_i| * cost(A)). This core removes each factor
// without changing a single scheduling decision:
//
//   cached problems   every bucket keeps its BatchProblem alive across
//                     probes and arrivals; inserting a member appends one
//                     transaction row (+ merges its objects) instead of
//                     rebuilding all rows, and the cache dies only on
//                     bucket activation/drain. Availability is refreshed
//                     lazily, once per (step, world-change).
//
//   level lower bound the scan starts at ceil(log2(LB)) where LB is the
//                     candidate's single-transaction makespan lower bound
//                     (core/lower_bound): any feasible schedule of
//                     B_i ∪ {t} executes t no earlier than its farthest
//                     object can arrive, so every level with 2^i < LB
//                     fails the F_A test without being probed.
//
// Byte-identity is the design invariant, not an afterthought: randomized
// estimates and activation retries draw from RNG streams derived purely
// from (scheduler seed, salt, problem fingerprint, trial index), so the
// naive transcription and this core produce bit-equal schedules. The
// naive transcription is the test-side reference
// (tests/oracle/naive_insertion.hpp); its differential test checks every
// level choice and every activation problem against this core.
//
// Activation retries are the core's one parallel surface (ARCHITECTURE.md
// §8). Trial r's stream depends only on (seed, fingerprint, r), so with
// threads > 1 the retries may run concurrently and merge as
// min-by-(makespan, trial index), exactly the serial strict-< scan.
// Whether they do is measured, not modelled: ActivationGate runs each size
// class in whichever mode has cost less wall time per trial. The level
// scan is serial. The gate only chooses where trials run, so decisions,
// schedules and every FastPathStats counter except `fanouts` are equal at
// every thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "batch/problem_builder.hpp"
#include "core/lower_bound.hpp"

namespace dtm {

struct FastPathStats {
  std::int64_t inserts = 0;         ///< choose_level calls
  std::int64_t probes = 0;          ///< F_A estimates requested
  /// `memo_hits` is always 0 and `estimates` always equals `probes`: every
  /// probe runs A. Both stay because the bench/e2e drivers read them.
  std::int64_t memo_hits = 0;
  std::int64_t estimates = 0;
  std::int64_t levels_skipped = 0;  ///< levels below the lower-bound start
  /// Full problem rebuilds. The core appends rows instead, so this stays 0;
  /// the naive reference counts its per-probe builds here.
  std::int64_t rebuilds = 0;
  std::int64_t refreshes = 0;       ///< cached availability refreshes
  std::int64_t appends = 0;         ///< incremental member appends
  std::int64_t activations = 0;     ///< activation problems produced
  /// Activations whose trials ran concurrently. Introspection only: the
  /// one counter that depends on the thread count and on host timing.
  std::int64_t fanouts = 0;
};

/// Serial-or-fan-out choice for the trials of one activation, from measured
/// wall time (the gate only chooses where trials run, never what they
/// compute). Activations group into size classes ⌊log2 rows⌋; each class
/// keeps a running wall time per trial for serial and for fanned-out
/// activations. A class fans out first and runs serially once, so both
/// are measured, then runs whichever mode measured cheaper. While it fans
/// out, every kSerialEvery-th activation runs serially, and its sample
/// replaces the serial cost (every other serial sample folds into it), so
/// one inflated cold serial sample is gone within kSerialEvery
/// activations. Once fan-out has lost, it is tried again only after the
/// class's running serial cost has doubled. Fanning out first matters when a
/// class's first activation is its costliest: serial-first would forfeit
/// exactly that one.
class ActivationGate {
 public:
  /// While a class fans out, one activation in this many runs serially.
  static constexpr std::int32_t kSerialEvery = 8;

  /// Whether the next activation of a `rows`-row problem should fan out.
  [[nodiscard]] bool fan_out(std::size_t rows) const;
  /// Folds in one activation's measured wall time per trial.
  void record(std::size_t rows, bool fanned, double seconds_per_trial);

 private:
  struct SizeClass {
    double serial = 0.0;   ///< running s/trial run serially; 0 = unmeasured
    double fanned = 0.0;   ///< running s/trial fanned out; 0 = unmeasured
    double lost_at = 0.0;  ///< `serial` when fan-out lost; 0 = it has not
    std::int32_t fanned_run = 0;  ///< fanned activations since a serial one
  };
  std::vector<SizeClass> classes_;
};

/// Canonical 64-bit content fingerprint of a batch problem: transaction
/// rows in order, objects in (sorted) order with availability RELATIVE to
/// p.now, plus the latency factor. The F_A probes and the activation
/// trials draw from streams derived from it, so a problem rebuilt from
/// scratch (the naive reference) draws what the incremental core draws.
[[nodiscard]] std::uint64_t problem_fingerprint(const BatchProblem& p);

/// F_A with a dedicated RNG stream: estimate_fa over a fresh Rng(seed).
/// Derive `seed` from the problem fingerprint so equal problems draw equal
/// streams: the naive reference rebuilds each probed problem and must
/// reproduce the core's estimate.
[[nodiscard]] Time estimate_fa_seeded(const BatchScheduler& a,
                                      const BatchProblem& p,
                                      std::uint64_t seed);

/// The seed of the level probe of a problem with fingerprint `fp` under a
/// scheduler seed: every F_A estimate of the insertion scan runs
/// estimate_fa_seeded with it.
[[nodiscard]] std::uint64_t probe_seed(std::uint64_t seed, std::uint64_t fp);

class BucketInsertionCore {
 public:
  /// Stable caller-chosen bucket identity (core scheduler: the level;
  /// dist: a dense id per BucketKey).
  using BucketId = std::uint64_t;

  /// Callback mapping a level to the bucket it would probe: identity +
  /// current membership.
  struct LevelView {
    BucketId id = 0;
    std::span<const TxnId> members;
  };
  using LevelFn = std::function<LevelView(std::int32_t)>;

  /// `threads`: 1 = serial (default), 0 = all hardware threads, N = up to
  /// N participants for the activation retries ActivationGate fans out.
  BucketInsertionCore(std::shared_ptr<const BatchScheduler> algo,
                      std::uint64_t seed, std::int32_t threads = 1);

  [[nodiscard]] const FastPathStats& stats() const { return stats_; }

  /// One probe of the most recent choose_level scan (testing hook for the
  /// level-scan invariants).
  struct ProbeRecord {
    std::int32_t level = -1;
    Time estimate = 0;
  };
  [[nodiscard]] const std::vector<ProbeRecord>& last_scan() const {
    return last_scan_;
  }
  /// Lower bound used by the most recent scan (relative to its step).
  [[nodiscard]] Time last_lower_bound() const { return last_lb_; }

  /// Algorithm 2 line 4: lowest level i in [0, top] with
  /// F_A(B_i ∪ {t}) <= 2^i, or top when none fits. `levels(i)` names the
  /// bucket probed at level i. The scan starts at ceil(log2(LB)): every
  /// level below fails the test, so the naive scan from 0 picks the same
  /// level.
  [[nodiscard]] std::int32_t choose_level(const SystemView& view,
                                          const Transaction& t,
                                          std::int32_t top,
                                          const LevelFn& levels,
                                          const ExtraAssignments& extra);

  /// Records that `t` (the transaction most recently passed to
  /// choose_level, or any other unscheduled txn) joined bucket `id`; keeps
  /// the cached problem in sync by appending one row.
  void on_inserted(const SystemView& view, BucketId id, const Transaction& t,
                   const ExtraAssignments& extra);

  /// The activation problem for bucket `id` with the given members: the
  /// refreshed cache, fingerprint-equal to a fresh build. The reference
  /// stays valid until the next core call.
  [[nodiscard]] const BatchProblem& activation_problem(
      const SystemView& view, BucketId id, std::span<const TxnId> members,
      const ExtraAssignments& extra);

  /// Best-of-`retries` schedule of `p` under `runner` (the suffix-wrapped
  /// algorithm when the scheduler enforces the suffix property). Each trial
  /// draws from an independent stream derived from the problem fingerprint
  /// and the trial index; deterministic runners run once. With threads > 1
  /// the gate decides whether the trials run concurrently.
  [[nodiscard]] BatchResult run_activation(const BatchProblem& p,
                                           const BatchScheduler& runner,
                                           std::int32_t retries);

  /// Bucket `id` drained (activation consumed its members): drop its cache.
  void on_drained(BucketId id);

  /// The world changed under the caches (assignments were made): cached
  /// availability must be refreshed before next use.
  void note_world_change() { ++world_; }

 private:
  static constexpr std::uint64_t kFpBasis = 1469598103934665603ULL;

  /// Cached per-bucket problem, maintained incrementally.
  struct CachedBucket {
    BatchProblem p;
    std::uint64_t txn_fp = kFpBasis;  ///< chained row hashes
    Time at_now = kNoTime;            ///< step of last availability refresh
    std::uint64_t at_world = 0;       ///< world version of last refresh
  };

  /// Candidate context, computed once per choose_level: the appended row,
  /// its availability points, its hash, and its lower bound.
  struct Candidate {
    TxnId id = kNoTxn;
    BatchTxn row;
    std::uint64_t row_hash = 0;
    std::vector<BatchObject> avail;  ///< sorted by object id, absolute times
    Time lb = 0;                     ///< single-txn LB relative to now
  };

  void make_candidate(const SystemView& view, const Transaction& t,
                      const ExtraAssignments& extra, Candidate& out);
  /// Refreshes `cb`'s availability (and fingerprint) for the current
  /// (step, world) if stale.
  void ensure_fresh(const SystemView& view, CachedBucket& cb,
                    const ExtraAssignments& extra);
  /// F_A(B ∪ {t}) via the cached problem: append candidate in place,
  /// estimate, roll back.
  Time probe_cached(const SystemView& view, CachedBucket& cb,
                    const Candidate& cand, const ExtraAssignments& extra);
  /// F_A of `p` on the probe stream of its fingerprint `fp`.
  Time estimate(const BatchProblem& p, std::uint64_t fp);

  std::shared_ptr<const BatchScheduler> algo_;
  std::uint64_t seed_;
  unsigned par_ = 1;  ///< resolved thread count for activation retries
  std::uint64_t world_ = 1;

  Candidate cand_;
  std::unordered_map<BucketId, CachedBucket> cache_;
  std::vector<ProbeRecord> last_scan_;
  Time last_lb_ = 0;
  std::vector<std::size_t> probe_inserted_;  ///< rollback scratch
  std::vector<AvailPoint> lb_pts_;           ///< lower-bound scratch
  ActivationGate gate_;
  FastPathStats stats_;
};

}  // namespace dtm
