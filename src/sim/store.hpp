// TxnStore — canonical simulation state (engine layering, layer 1).
//
// Owns the data every other layer reads: object records (position state,
// the object -> live-users inverted index the schedulers consume, and the
// per-object scheduled-user heap the transport's reroute consults), the
// live-transaction map with assigned execution times, and the committed
// log. Pure state + narrow accessors: stepping policy lives in SyncEngine,
// routing policy in ObjectTransport, time in EventClock.
#pragma once

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "core/object_state.hpp"
#include "core/schedule.hpp"
#include "net/graph.hpp"
#include "sim/clock.hpp"

namespace dtm {

class TxnStore {
 public:
  struct LiveTxn {
    Transaction txn;
    Time exec = kNoTime;
  };

  /// An object's whole record: state, its live users in generation order,
  /// and a lazily pruned min-heap of its *scheduled* users keyed by
  /// (exec, txn) — the transport's reroute target oracle.
  ///
  /// best_* is a memoized reroute target (PERF.md §8): when best_user is
  /// set, (best_exec, best_user) IS the minimum (exec, id) over this
  /// object's live scheduled users and best_node is that transaction's
  /// home. Invariant maintenance: the engine improves it on every new
  /// assignment (a fresh entry can only lower the min), commit() clears it
  /// when the cached transaction commits (the only event that can remove
  /// the min — any other commit removes a non-minimal user), and the
  /// transport refreshes it from the heap when it is unset. An empty heap
  /// implies an unset cache, so the O(1) hit path needs no staleness check;
  /// kVerify cross-checks every lookup against the linear scan.
  struct ObjEntry {
    ObjId id = kNoObj;
    ObjectState state;
    std::vector<TxnId> users;
    EventClock::MinHeap<TxnId> sched;
    TxnId best_user = kNoTxn;
    Time best_exec = kNoTime;
    NodeId best_node = kNoNode;
    /// Last step a transaction committed on this object (the engine's
    /// one-commit-per-object-per-step check).
    Time committed_at = kNoTime;
  };

  TxnStore(std::vector<ObjectOrigin> origins, const DistanceOracle& oracle);

  // ---- Objects ----
  [[nodiscard]] const ObjEntry* find_obj(ObjId o) const;
  [[nodiscard]] ObjEntry* find_obj(ObjId o);
  /// Like find_obj but requires the object to exist.
  [[nodiscard]] ObjEntry& obj_entry(ObjId o);
  [[nodiscard]] std::vector<ObjEntry>& objects() { return objects_; }
  [[nodiscard]] const std::vector<ObjEntry>& objects() const {
    return objects_;
  }
  /// Stable dense index of an entry (settle-queue key).
  [[nodiscard]] std::int32_t obj_index(const ObjEntry& e) const {
    return static_cast<std::int32_t>(&e - objects_.data());
  }
  [[nodiscard]] ObjEntry& obj_at(std::int32_t index) {
    return objects_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] const std::vector<ObjectOrigin>& origins() const {
    return origins_;
  }

  // ---- Live transactions ----
  [[nodiscard]] std::map<TxnId, LiveTxn>& live() { return live_; }
  [[nodiscard]] const std::map<TxnId, LiveTxn>& live() const { return live_; }

  /// Registers a validated arrival and indexes it under its objects.
  void add_live(const Transaction& t);

  /// Removes a committed transaction from the live set and the user index
  /// of its objects, and appends it to the committed log.
  void commit(std::map<TxnId, LiveTxn>::iterator it, Time exec);

  /// Live transaction ids in id order (lazily rebuilt snapshot).
  [[nodiscard]] std::span<const TxnId> live_ids() const;

  // ---- Committed log ----
  [[nodiscard]] const std::vector<ScheduledTxn>& committed() const {
    return committed_;
  }
  /// Drains the committed log, leaving it empty (std::exchange, not a bare
  /// move, so repeated drains are well-defined). End-of-run result assembly
  /// takes it once; the serve loop calls this periodically so memory stays
  /// bounded over unbounded runs — the store keeps no other per-committed
  /// state, so draining never affects future steps.
  [[nodiscard]] std::vector<ScheduledTxn> take_committed() {
    return std::exchange(committed_, {});
  }

 private:
  std::vector<ObjEntry> objects_;  ///< sorted by id; immutable id set
  std::vector<ObjectOrigin> origins_;
  std::map<TxnId, LiveTxn> live_;
  std::vector<ScheduledTxn> committed_;

  mutable std::vector<TxnId> live_ids_;
  mutable bool live_ids_dirty_ = false;
};

}  // namespace dtm
