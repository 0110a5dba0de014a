// Offline batch scheduling problems (paper §IV): the input format consumed
// by the offline algorithms A that the bucket scheduler converts to online.
//
// A batch problem is a set of transactions to schedule from scratch, given
// per-object availability (where each object is, and from when it is free of
// commitments to already-scheduled transactions). This encodes the paper's
// first "basic modification" of A: pinned transactions are folded into
// object availability, so A appends the new schedule after them.
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "net/graph.hpp"

namespace dtm {

/// Availability of one object: free at `node` from time `ready` on. `ready`
/// already accounts for any pinned (already-scheduled) user of the object.
struct BatchObject {
  ObjId id = kNoObj;
  NodeId node = kNoNode;
  Time ready = 0;
  /// True if the availability point is a transaction commit (then the next
  /// user must execute at least one step later even at distance zero).
  bool from_txn = false;
};

/// A transaction to be scheduled by the batch algorithm.
struct BatchTxn {
  TxnId id = kNoTxn;
  NodeId node = kNoNode;
  std::vector<ObjId> objects;
};

struct BatchProblem {
  const DistanceOracle* oracle = nullptr;
  std::int64_t latency_factor = 1;
  Time now = 0;  ///< schedule times must be >= now
  std::vector<BatchObject> objects;
  std::vector<BatchTxn> txns;

  [[nodiscard]] Time travel(NodeId u, NodeId v) const {
    return latency_factor * oracle->dist(u, v);
  }
  /// The availability row of `id` (the last one if the id repeats, as in
  /// sorted_objects). Linear scan.
  [[nodiscard]] const BatchObject& object(ObjId id) const;
};

struct BatchResult {
  std::vector<Assignment> assignments;  ///< one per problem transaction
  Time makespan = 0;                    ///< max exec - problem.now

  [[nodiscard]] Time exec_of(TxnId id) const;
};

/// The cutoff of a makespan query that needs the exact makespan
/// (BatchScheduler::makespan, chain_makespan).
inline constexpr Time kNoCutoff = std::numeric_limits<Time>::max();

/// `objects` sorted by id, a repeated id keeping its LAST row: the one rule
/// for a repeated object row, shared by the chain walk, check_batch_result
/// and the suffix wrapper. Strictly sorted input (every problem the bucket
/// core builds) is copied in one O(m) pass, no sort.
void sorted_objects(std::span<const BatchObject> objects,
                    std::vector<BatchObject>& out);

/// Throws CheckError unless `order` is a permutation of [0, n): a chain
/// order that visits each of n transactions exactly once. O(n).
void check_permutation(std::span<const std::size_t> order, std::size_t n);

/// Verifies that `r` is feasible for `p` (object chains from availability,
/// all txns assigned, exec >= now) and that makespan matches. Throws
/// CheckError on violation — batch algorithms call this before returning.
/// Map-free: sorted flat scratch tables, reused across calls per thread.
void check_batch_result(const BatchProblem& p, const BatchResult& r);

/// `r`'s execution time of every p.txns[i], index-aligned into `out` (the
/// last assignment wins for a repeated id). Throws CheckError if a
/// transaction is unassigned.
void exec_in_problem_order(const BatchProblem& p, const BatchResult& r,
                           std::vector<Time>& out);

/// Indices into p.txns ordered by (exec[i], txn id): the execution order of
/// a schedule given index-aligned execution times.
void order_by_exec(const BatchProblem& p, std::span<const Time> exec,
                   std::vector<std::size_t>& out);

}  // namespace dtm
