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
};

/// The paper's F_A(X): time to execute all transactions of `p` using
/// algorithm `a`, relative to p.now.
[[nodiscard]] Time estimate_fa(const BatchScheduler& a, const BatchProblem& p,
                               Rng& rng);

/// Evaluates the earliest feasible execution times for `p.txns` visited in
/// the given order (object chains from availability). The workhorse shared
/// by every ordering-based scheduler; exposed for tests. `validate` runs
/// check_batch_result on the output — search loops that evaluate many
/// candidate orders and validate only the winner pass false.
///
/// Dispatches on p.math: kScalar runs the sorted-cursor path below; kSoA
/// evaluates through the structure-of-arrays view (p.soa when the owner
/// prebuilt one, a thread-local build otherwise). Both are byte-equal.
[[nodiscard]] BatchResult chain_evaluate(const BatchProblem& p,
                                         const std::vector<std::size_t>& order,
                                         bool validate = true);

/// The scalar path of chain_evaluate, independent of p.math. Exposed for
/// soa_test and bench_simd.
[[nodiscard]] BatchResult chain_evaluate_scalar(
    const BatchProblem& p, const std::vector<std::size_t>& order,
    bool validate = true);

/// A batch scheduler defined by an ordering policy over the problem's
/// transactions. The policy returns a permutation of indices into p.txns.
class OrderedChainBatch : public BatchScheduler {
 public:
  using OrderPolicy = std::function<std::vector<std::size_t>(
      const BatchProblem&, Rng&)>;

  OrderedChainBatch(std::string policy_name, OrderPolicy policy,
                    bool is_randomized = false)
      : name_("chain-" + policy_name),
        policy_(std::move(policy)),
        randomized_(is_randomized) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] bool randomized() const override { return randomized_; }

 private:
  std::string name_;
  OrderPolicy policy_;
  bool randomized_;
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
