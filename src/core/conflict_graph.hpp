// The transaction dependency graphs of §III-B: H_t (conflicts among live
// transactions) and the extended H'_t (plus the current holders Z_t(o),
// including virtual in-transit positions).
//
// The greedy scheduler builds its constraint sets directly for speed; this
// module materializes the graphs explicitly for analysis, tests, and
// experiment reporting (degrees Δ, weighted degrees Γ — the quantities
// Theorems 1 and 2 are stated in).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "core/types.hpp"

namespace dtm {

/// A node of H'_t: either a live transaction or the current holder Z_t(o)
/// of an object (the object's resting place or in-transit virtual node).
struct DependencyNode {
  enum class Kind { kLiveTxn, kHolder } kind = Kind::kLiveTxn;
  TxnId txn = kNoTxn;    ///< kLiveTxn: the transaction id
  ObjId holder_of = kNoObj;  ///< kHolder: the object whose position this is
  /// Color of an already-scheduled transaction (exec - now), 0 for holders
  /// and executing transactions, kNoTime for unscheduled live transactions.
  Time color = kNoTime;
};

struct DependencyEdge {
  std::int32_t a = -1;  ///< indices into nodes()
  std::int32_t b = -1;
  Weight weight = 0;    ///< travel time (>= 1 between distinct txns)
};

/// Snapshot of H'_t at one time step (H_t is the restriction to kLiveTxn
/// nodes; helpers below expose both views).
class DependencyGraph {
 public:
  /// Builds H'_t from the live system state: one node per live transaction
  /// plus one holder node per object used by any live transaction.
  static DependencyGraph build(const SystemView& view);

  [[nodiscard]] const std::vector<DependencyNode>& nodes() const {
    return nodes_;
  }
  [[nodiscard]] const std::vector<DependencyEdge>& edges() const {
    return edges_;
  }

  /// Degree Δ'(v) and weighted degree Γ'(v) in H'_t.
  [[nodiscard]] std::int32_t degree(std::int32_t node) const;
  [[nodiscard]] Weight weighted_degree(std::int32_t node) const;

  /// Degree/weighted degree restricted to transaction-transaction edges
  /// (the H_t view).
  [[nodiscard]] std::int32_t txn_degree(std::int32_t node) const;
  [[nodiscard]] Weight txn_weighted_degree(std::int32_t node) const;

  /// Index of the node for transaction `t`, -1 if absent.
  [[nodiscard]] std::int32_t index_of(TxnId t) const;

  /// True iff the stored colors form a valid partial coloring of H'_t
  /// (Equation 1 over every edge whose endpoints both have colors).
  [[nodiscard]] bool valid_partial_coloring() const;

  /// Summary statistics for experiment reporting.
  struct Stats {
    std::int64_t live_txns = 0;
    std::int64_t holders = 0;
    std::int64_t edges = 0;
    std::int32_t max_degree = 0;
    Weight max_weighted_degree = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  /// Rebuilds the flat CSR incidence index from edges_ (two passes: count,
  /// then fill in edge order — the same per-node edge ordering the former
  /// vector-of-vectors push_back produced).
  void build_incidence();
  [[nodiscard]] std::span<const std::int32_t> incident(
      std::int32_t node) const {
    const auto n = static_cast<std::size_t>(node);
    return {inc_edge_.data() + inc_off_[n],
            static_cast<std::size_t>(inc_off_[n + 1] - inc_off_[n])};
  }

  std::vector<DependencyNode> nodes_;
  std::vector<DependencyEdge> edges_;
  /// Flat CSR node → incident edge indices (offsets + edge ids): one
  /// allocation instead of a vector per node.
  std::vector<std::int32_t> inc_off_;
  std::vector<std::int32_t> inc_edge_;
  /// (txn, node index), sorted by txn id — binary-searched by index_of.
  std::vector<std::pair<TxnId, std::int32_t>> txn_index_;
};

}  // namespace dtm
