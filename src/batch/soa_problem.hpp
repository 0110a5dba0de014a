// Structure-of-arrays view of a BatchProblem (ARCHITECTURE.md §9): dense
// txn/object index maps, flat CSR adjacency both ways, and per-transaction
// conflict rows as 64-bit bitset words — the batch/query/score layout the
// word-parallel kernels in util/bitset.hpp operate on.
//
// The view is built once per problem and read by every evaluation against
// it: chain evaluation walks the txn→object CSR with dense cursor arrays,
// the coloring scheduler gathers constraints from conflict-row ∧
// colored-mask intersections, and local search prunes adjacent swaps with
// conflict_any. Build cost is O(content + n²/64 + Σ_o d_o · n/64); each
// consumer's inner loop drops its per-access map/lookup cost to O(1) array
// reads or an O(n/64) word sweep.
//
// Everything here is immutable after build() and holds no pointer into the
// source problem except the object/txn ids it copied, so one view can be
// shared read-only across the insertion core's parallel activation retries
// (conflict rows are built eagerly for exactly this reason — a lazy build
// would race). This flat layout is the declared seam for an optional CUDA
// backend: the arrays upload as-is, and the kernels in util/bitset.hpp have
// device-shaped signatures (word pointer + count).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "batch/batch_problem.hpp"
#include "util/bitset.hpp"

namespace dtm {

class BatchProblemSoA {
 public:
  /// (Re)builds the view from `p`. Reuses capacity across calls.
  void build(const BatchProblem& p);

  [[nodiscard]] std::size_t num_txns() const { return n_; }
  [[nodiscard]] std::size_t num_objects() const { return m_; }

  // ---- Object arrays (dense index = rank among sorted object ids; a
  // repeated id keeps its last row, as in sorted_objects) ----
  [[nodiscard]] std::span<const ObjId> obj_ids() const { return obj_id_; }
  [[nodiscard]] std::span<const NodeId> obj_node() const { return obj_node_; }
  [[nodiscard]] std::span<const Time> obj_ready() const { return obj_ready_; }
  /// 1 when the availability point is a transaction commit.
  [[nodiscard]] std::span<const std::uint8_t> obj_from_txn() const {
    return obj_from_;
  }
  /// Dense index of `id` (binary search); hard error when absent.
  [[nodiscard]] std::size_t obj_index(ObjId id) const;

  // ---- Transaction arrays ----
  [[nodiscard]] std::span<const TxnId> txn_ids() const { return txn_id_; }
  [[nodiscard]] std::span<const NodeId> txn_node() const { return txn_node_; }

  // ---- CSR txn → object (dense object indices, per-row order preserved
  // from BatchTxn::objects so evaluation visits accesses identically) ----
  [[nodiscard]] std::span<const std::size_t> txn_objects(std::size_t i) const {
    return {txn_obj_.data() + txn_off_[i], txn_off_[i + 1] - txn_off_[i]};
  }

  // ---- CSR object → txn (ascending txn indices) ----
  [[nodiscard]] std::span<const std::size_t> object_users(
      std::size_t j) const {
    return {obj_txn_.data() + obj_off_[j], obj_off_[j + 1] - obj_off_[j]};
  }

  // ---- Conflict rows: flat row-major bit matrix, row i bit j set iff
  // txns i ≠ j share at least one object ----
  [[nodiscard]] std::size_t row_words() const { return row_words_; }
  [[nodiscard]] const BitWord* conflict_row(std::size_t i) const {
    return conflict_.data() + i * row_words_;
  }
  [[nodiscard]] bool conflicts(std::size_t i, std::size_t j) const {
    return (conflict_row(i)[j / kBitWordBits] >>
            (j % kBitWordBits)) & 1u;
  }
  /// Number of conflict partners of txn i (popcount of its row).
  [[nodiscard]] std::size_t conflict_degree(std::size_t i) const {
    return popcount_words(conflict_row(i), row_words_);
  }

  /// Cheap sanity check that this view plausibly describes `p` (sizes +
  /// endpoint ids). The freshness contract itself is the owner's (SoaRef).
  [[nodiscard]] bool matches(const BatchProblem& p) const;

 private:
  std::size_t n_ = 0, m_ = 0;
  std::size_t rows_ = 0;  ///< p.objects.size(): repeated ids are one object

  std::vector<ObjId> obj_id_;
  std::vector<NodeId> obj_node_;
  std::vector<Time> obj_ready_;
  std::vector<std::uint8_t> obj_from_;

  std::vector<TxnId> txn_id_;
  std::vector<NodeId> txn_node_;

  std::vector<std::size_t> txn_off_;  ///< n+1 offsets
  std::vector<std::size_t> txn_obj_;  ///< flat dense object indices
  std::vector<std::size_t> obj_off_;  ///< m+1 offsets
  std::vector<std::size_t> obj_txn_;  ///< flat txn indices, ascending per row

  std::size_t row_words_ = 0;
  std::vector<BitWord> conflict_;      ///< n rows × row_words_ words
  std::vector<BitWord> user_scratch_;  ///< per-object user mask (build only)
};

/// The chain walk of chain_evaluate over the SoA view, unvalidated:
/// identical arithmetic to the scalar walk (same read-then-write access
/// pattern per transaction), with dense cursor arrays instead of the sorted
/// cursor table. Exposed for consumers that amortize one build over many
/// orders (local search, exhaustive).
[[nodiscard]] BatchResult chain_evaluate_soa(
    const BatchProblem& p, const BatchProblemSoA& s,
    const std::vector<std::size_t>& order);

/// chain_evaluate_soa(p, s, order).makespan from the same walk, building
/// no assignments; checks that `order` is a permutation, then stops once
/// the running makespan reaches `cutoff` (chain_makespan's contract).
[[nodiscard]] Time chain_makespan_soa(const BatchProblem& p,
                                      const BatchProblemSoA& s,
                                      const std::vector<std::size_t>& order,
                                      Time cutoff = kNoCutoff);

}  // namespace dtm
