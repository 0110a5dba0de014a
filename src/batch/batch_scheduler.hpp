// Offline batch scheduler interface and the ordered-chain engine that all
// per-topology schedulers share.
//
// Busch et al. [SPAA'17] — the paper's black-box A — give per-topology
// offline algorithms whose common skeleton is: pick a good *global visiting
// order* of the transactions, then let every object walk its users in that
// order. OrderedChainBatch implements the skeleton once; topologies supply
// the order (line sweep, star ray-by-ray, cluster clique-by-clique, …). The
// bucket conversion (paper §IV) only relies on A's approximation ratio b_A,
// which the experiment suite measures against certified lower bounds.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_problem.hpp"
#include "util/rng.hpp"

namespace dtm {

class BatchScheduler {
 public:
  virtual ~BatchScheduler() = default;

  /// Computes a feasible schedule for `p`. `rng` feeds randomized
  /// algorithms (cluster/star); deterministic ones ignore it.
  [[nodiscard]] virtual BatchResult schedule(const BatchProblem& p,
                                             Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// True if schedule() depends on rng — the bucket scheduler then retries
  /// a few times and keeps the best (paper §IV-D's "repeat the offline
  /// algorithm" remedy for the bad event).
  [[nodiscard]] virtual bool randomized() const { return false; }

  /// The makespan of the schedule schedule(p, rng) returns, without
  /// building that schedule: what F_A probes and suffix candidates need.
  /// Exact when it is below `cutoff`; otherwise any value >= `cutoff`, so a
  /// caller that only asks "strictly shorter than cutoff?" lets the work
  /// stop there. `rng` always ends where schedule(p, rng) leaves it, so a
  /// cutoff <= 0 asks for the draws alone. estimate_fa passes kNoCutoff.
  /// The default returns at once for a deterministic A with cutoff <= 0
  /// and otherwise runs schedule(); OrderedChainBatch overrides it with a
  /// chain walk that stops at the cutoff.
  [[nodiscard]] virtual Time makespan(const BatchProblem& p, Rng& rng,
                                      Time cutoff) const;

  /// True if re-running this algorithm on any suffix of its own schedule
  /// (in execution order, from the availability its prefix leaves)
  /// reproduces that suffix exactly, so the §IV-A suffix pass can never
  /// adopt a candidate and SuffixWrapper skips it. Declared only by
  /// OrderedChainBatch::key_ordered algorithms.
  [[nodiscard]] virtual bool suffix_tight() const { return false; }
};

/// The paper's F_A(X): time to execute all transactions of `p` using
/// algorithm `a`, relative to p.now. Reads only a.makespan().
[[nodiscard]] Time estimate_fa(const BatchScheduler& a, const BatchProblem& p,
                               Rng& rng);

/// Evaluates the earliest feasible execution times for `p.txns` visited in
/// the given order (object chains from availability) and validates them
/// with check_batch_result. The workhorse shared by every ordering-based
/// scheduler; exposed for tests. The walk finds each object in the
/// thread's CursorTable, O(1) per use (a repeated id keeps its last row).
[[nodiscard]] BatchResult chain_evaluate(const BatchProblem& p,
                                         const std::vector<std::size_t>& order);

/// chain_evaluate(p, order).makespan without building or validating the
/// assignments: the same chain walk, emitting nothing. Checks that `order`
/// is a permutation of p's transactions, then returns as soon as the
/// running makespan reaches `cutoff`, so the result is exact below
/// `cutoff` and >= `cutoff` otherwise.
[[nodiscard]] Time chain_makespan(const BatchProblem& p,
                                  const std::vector<std::size_t>& order,
                                  Time cutoff = kNoCutoff);

/// A batch scheduler defined by an ordering policy over the problem's
/// transactions. The policy fills a permutation of indices into p.txns
/// into a caller-owned buffer, which schedule() and makespan() keep per
/// thread, so an order costs no allocation once the buffer has grown.
class OrderedChainBatch : public BatchScheduler {
 public:
  using OrderPolicy = std::function<void(const BatchProblem&, Rng&,
                                         std::vector<std::size_t>&)>;
  /// A fixed per-transaction sort key: a function of the row alone.
  using TxnKey = std::function<std::int64_t(const BatchTxn&)>;

  OrderedChainBatch(std::string policy_name, OrderPolicy policy,
                    bool is_randomized = false)
      : name_("chain-" + policy_name),
        policy_(std::move(policy)),
        randomized_(is_randomized) {}

  /// Deterministic chain order by ascending `key`, ties by txn id — the
  /// only kind of chain algorithm that is suffix_tight(). Each object's
  /// users then execute in key order, so an execution-order prefix leaves
  /// every object where the full walk had it before the suffix's first
  /// user, and the walk over the suffix alone repeats the full one.
  [[nodiscard]] static std::unique_ptr<OrderedChainBatch> key_ordered(
      std::string policy_name, TxnKey key);

  /// Randomized chain order over groups of `beta` consecutive nodes from
  /// node `first` on (cluster cliques: first 0; star rays: first 1): node
  /// u >= first is member (u - first) % beta of group (u - first) / beta.
  /// The distinct groups of the problem's transactions, ascending, are
  /// shuffled with `rng`; transactions go in (group rank, member) order,
  /// ties by txn id, and nodes below `first` (the star's center) go ahead
  /// of every group, in (node, id) order. The order is a counting sort by
  /// rank, then a sort of each group's (member, id, index) rows, all on
  /// per-thread scratch: no allocation once warmed. The draws depend only
  /// on the number of distinct groups, so makespan() with a cutoff <= 0
  /// counts them and shuffles: no sort and no walk.
  [[nodiscard]] static std::unique_ptr<OrderedChainBatch> group_shuffled(
      std::string policy_name, NodeId first, NodeId beta);

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override;
  /// chain_makespan of the policy's order, stopping at `cutoff`. With a
  /// cutoff <= 0 only the draws are taken: group_shuffled's count-and-
  /// shuffle, another randomized policy's whole order, nothing otherwise.
  [[nodiscard]] Time makespan(const BatchProblem& p, Rng& rng,
                              Time cutoff) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool randomized() const override { return randomized_; }
  [[nodiscard]] bool suffix_tight() const override { return suffix_tight_; }

 private:
  std::string name_;
  OrderPolicy policy_;
  /// policy_'s draws without its order (set by group_shuffled).
  std::function<void(const BatchProblem&, Rng&)> draws_;
  bool randomized_;
  bool suffix_tight_ = false;
};

// ---- Per-topology schedulers (factories return ready-to-use instances) ----

/// Generic graphs: greedy weighted coloring of the batch conflict graph
/// (Lemma 1 applied offline). Near-optimal on low-diameter graphs; the
/// default A for clique/hypercube-style topologies.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_coloring_batch();

/// Line (§IV-D): left-to-right sweep order — reconstruction of the O(1)-
/// approximate line scheduler of [SPAA'17].
[[nodiscard]] std::unique_ptr<BatchScheduler> make_line_batch();

/// Clique: order by object-load-weighted degree (heaviest conflicts first).
[[nodiscard]] std::unique_ptr<BatchScheduler> make_clique_batch();

/// Cluster (§IV-D): randomized clique order, bridge nodes first within each
/// clique. Randomized, per the paper.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_cluster_batch(NodeId beta);

/// Star (§IV-D): randomized ray order, center first, center-outward within
/// each ray. Randomized, per the paper.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta);

/// Grid: boustrophedon (snake) sweep over coordinates.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_grid_snake_batch(
    std::vector<NodeId> extents);

/// Hypercube: Gray-code order (consecutive transactions one hop apart).
[[nodiscard]] std::unique_ptr<BatchScheduler> make_hypercube_gray_batch();

/// Baseline of Zhang et al. [SIROCCO'14]: nearest-neighbor TSP-style tour
/// over the transaction nodes. The paper's related work notes this can be
/// far from optimal on general graphs; experiment F5 measures it.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_tsp_batch();

/// Trivial fully-serial baseline (one transaction at a time, objects
/// ping-ponging): the nD worst case of Lemma 3.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_sequential_batch();

/// Topology-agnostic local search on the chain order (seeded by the
/// coloring schedule, improved with swap moves). Randomized; the tightest
/// generic A at small batch sizes and a calibration point for lower-bound
/// looseness.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_local_search_batch(
    std::int32_t max_rounds = 8);

/// Arbitrary-graph scheduler via the §V sparse-cover hierarchy: visits
/// transactions cluster by cluster, coarse layers outermost. Locality-aware
/// with no per-topology tuning (the companion-paper approach for general
/// networks). Requires the Network (the cover needs the explicit graph).
struct Network;  // fwd (net/topology.hpp)
[[nodiscard]] std::unique_ptr<BatchScheduler> make_hierarchical_batch(
    const Network& net);

/// Exact over the chain-schedule class by trying every visiting order.
/// O(n!) — refuses problems larger than `limit` (<= 10). Calibration only.
[[nodiscard]] std::unique_ptr<BatchScheduler> make_exhaustive_batch(
    std::size_t limit = 8);

}  // namespace dtm
