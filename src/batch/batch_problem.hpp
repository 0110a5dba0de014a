// Offline batch scheduling problems (paper §IV): the input format consumed
// by the offline algorithms A that the bucket scheduler converts to online.
//
// A batch problem is a set of transactions to schedule from scratch, given
// per-object availability (where each object is, and from when it is free of
// commitments to already-scheduled transactions). This encodes the paper's
// first "basic modification" of A: pinned transactions are folded into
// object availability, so A appends the new schedule after them.
#pragma once

#include <algorithm>
#include <cstdint>
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
  /// The earliest step a transaction at `node` can use the object whose
  /// chain cursor is `c`: the object's trip from c.node, and one step more
  /// than a commit there even at distance zero. The one chain rule of the
  /// walks, the validator and the availability floors.
  [[nodiscard]] Time arrival(const BatchObject& c, NodeId node) const {
    const Time t = c.ready + travel(c.node, node);
    return c.from_txn ? std::max(t, c.ready + 1) : t;
  }
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
/// for a repeated object row, shared by CursorTable (its sparse side) and
/// the suffix wrapper. Strictly sorted input (every problem the bucket core
/// builds) is copied in one O(m) pass, no sort.
void sorted_objects(std::span<const BatchObject> objects,
                    std::vector<BatchObject>& out);

/// The chain cursor of each object of a problem, found by id: where the
/// object is free and from when, which a chain walk reads and advances per
/// use. load() costs O(m) and find() O(1). A repeated id keeps its last row
/// (sorted_objects' rule); finding an id the objects lack throws CheckError.
///
/// Ids spanning at most kDenseSpan (those of every generated workload of
/// up to 2^16 objects) index a grow-only slot table over [min id, max id].
/// Each slot is stamped with the load that wrote it, so a load never
/// clears the table. Wider spans (a trace file's sparse ids) keep
/// sorted_objects' copy and binary-search it; find() hides which side a
/// load took.
///
/// local() is the calling thread's table, shared by the chain walk,
/// check_batch_result and the schedulers that walk chains: a load
/// invalidates every cursor the previous one handed out.
class CursorTable {
 public:
  /// The widest id span the slot table covers: 64 Ki slots, 2 MiB.
  static constexpr std::uint64_t kDenseSpan = std::uint64_t{1} << 16;

  /// Makes `objects` the table's cursors, forgetting the previous load's.
  void load(std::span<const BatchObject> objects);

  /// The cursor of `id`, which the caller may advance.
  [[nodiscard]] BatchObject& find(ObjId id) {
    if (dense_) {
      const auto off = static_cast<std::uint64_t>(std::int64_t{id} - base_);
      if (off < slots_.size() && slots_[off].stamp == stamp_)
        return slots_[off].cursor;
      missing(id);
    }
    return find_sorted(id);
  }

  /// False when the last load's ids were too sparse for the slot table.
  [[nodiscard]] bool dense() const { return dense_; }

  /// The calling thread's table.
  [[nodiscard]] static CursorTable& local();

 private:
  struct Slot {
    BatchObject cursor;
    std::uint32_t stamp = 0;  ///< the load that wrote cursor; 0 = none
  };

  [[nodiscard]] BatchObject& find_sorted(ObjId id);
  [[noreturn]] static void missing(ObjId id);

  std::vector<Slot> slots_;  ///< dense side: slot of id at id - base_
  std::int64_t base_ = 0;
  std::uint32_t stamp_ = 0;
  bool dense_ = true;
  std::vector<BatchObject> sorted_;  ///< sparse side
};

/// Throws CheckError unless `order` is a permutation of [0, n): a chain
/// order that visits each of n transactions exactly once. O(n).
void check_permutation(std::span<const std::size_t> order, std::size_t n);

/// Verifies that `r` is feasible for `p` (object chains from availability,
/// all txns assigned, exec >= now) and that makespan matches. Throws
/// CheckError on violation — batch algorithms call this before returning.
/// A chain walk: the transactions sorted by (exec, id) visit the cursor
/// table, so each object's users are checked in that order. O(n log n)
/// for n transactions, plus O(1) per object use.
void check_batch_result(const BatchProblem& p, const BatchResult& r);

/// The chain bound of object `o`: the least step at which any schedule that
/// passes check_batch_result can have run every transaction using `o`,
/// minus p.now. A transaction listing `o` twice is one user; two users at
/// one node run one step apart. Exact over every order of up to four
/// users (the least chain finish by `arrival` over 4! = 24 orders); above
/// that, the earliest arrival plus (users − 1). 0 when no transaction uses
/// `o`. Valid because every user runs no earlier than the chain arrival
/// along the schedule's order of `o`'s users, and `arrival` never decreases
/// as `ready` grows. O(m + n·k) for m object rows and n transactions of up
/// to k objects.
[[nodiscard]] Time object_chain_bound(const BatchProblem& p, ObjId o);

/// A certified lower bound on the makespan of every schedule of `p` that
/// passes check_batch_result: the maximum of object_chain_bound over the
/// objects p's transactions use (0 without transactions). One sort of the
/// (object, transaction) uses, O(U log U) for U uses.
[[nodiscard]] Time chain_lower_bound(const BatchProblem& p);

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
