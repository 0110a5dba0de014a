// TxnStore — canonical simulation state (engine layering, layer 1).
//
// Owns the data every other layer reads: object records (position state,
// the object -> live-users inverted index the schedulers consume, and the
// per-object scheduled-user heap the transport's reroute consults), the
// live transactions with their assigned execution times, and the committed
// log. Pure state + narrow accessors: stepping policy lives in SyncEngine,
// routing policy in SyncObjectTransport, time in EventClock.
//
// Every id lookup the engine makes per step is O(1) and node-free
// (ARCHITECTURE.md §2): objects resolve through a dense slot table built at
// construction, live transactions through a flat id-sorted index into a
// slot pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/object_state.hpp"
#include "core/schedule.hpp"
#include "net/graph.hpp"
#include "sim/clock.hpp"
#include "util/id_table.hpp"

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
  /// implies an unset cache, so the O(1) hit path needs no staleness check.
  /// The test-side scan engine re-derives every target linearly and the
  /// lockstep harness compares the resulting object states.
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
  // The records are built once and never move: dist-bucket's trail
  // directory holds ObjectState references into them (ARCHITECTURE.md §12).

  /// The object's record, nullptr for an unknown id. O(1) through the slot
  /// table; a sparse id set (only a dtm-instance trace produces one) takes
  /// a sorted search instead (util/id_table.hpp).
  [[nodiscard]] const ObjEntry* find_obj(ObjId o) const {
    const std::int32_t s = obj_slots_.find(o);
    return s < 0 ? nullptr : &objects_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] ObjEntry* find_obj(ObjId o) {
    return const_cast<ObjEntry*>(std::as_const(*this).find_obj(o));
  }
  /// Like find_obj but requires the object to exist.
  [[nodiscard]] ObjEntry& obj_entry(ObjId o) {
    ObjEntry* e = find_obj(o);
    DTM_REQUIRE(e != nullptr, "unknown object " << o);
    return *e;
  }
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
  /// False when the id set was too sparse for the slot table.
  [[nodiscard]] bool dense_objects() const { return obj_slots_.dense(); }

  // ---- Live transactions ----
  // A LiveTxn reference stays valid until the next add_live (the pool may
  // grow) or the transaction's own commit — in particular for a whole
  // scheduler call, during which the store does not change.

  /// The live transaction `id`, nullptr if it is not live.
  [[nodiscard]] const LiveTxn* find_live(TxnId id) const {
    const std::size_t p = index_pos(id);
    if (p == kNoPos || index_[p].slot < 0) return nullptr;
    return &pool_[static_cast<std::size_t>(index_[p].slot)];
  }
  [[nodiscard]] LiveTxn* find_live(TxnId id) {
    return const_cast<LiveTxn*>(std::as_const(*this).find_live(id));
  }
  /// Like find_live but requires the transaction to be live.
  [[nodiscard]] const LiveTxn& live_txn(TxnId id) const {
    const LiveTxn* lt = find_live(id);
    DTM_REQUIRE(lt != nullptr, "txn " << id << " is not live");
    return *lt;
  }
  [[nodiscard]] std::int64_t num_live() const { return num_live_; }

  /// Registers a validated arrival and indexes it under its objects.
  /// Unknown objects and an id that is already live are hard errors.
  void add_live(const Transaction& t);

  /// Removes the live transaction `id` from the live set and the user index
  /// of its objects, and appends it to the committed log.
  void commit(TxnId id, Time exec);

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
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  /// One live-index row: a transaction id and its pool slot, or -1 once the
  /// transaction committed (a tombstone, trimmed from the front).
  struct IndexRow {
    TxnId id;
    std::int32_t slot;
  };

  /// Position of `id` in index_ (live or tombstone), kNoPos if absent.
  [[nodiscard]] std::size_t index_pos(TxnId id) const {
    // Ids older than the head row are committed and trimmed: the common
    // miss (stale entries of the per-object scheduled-user heaps).
    if (head_ == index_.size() || id < index_[head_].id ||
        id > index_.back().id)
      return kNoPos;
    // The batch, serve and stream loops number their accepted arrivals
    // 0, 1, 2, ..., so a row usually sits at its id's offset from the head.
    const std::uint64_t off = static_cast<std::uint64_t>(id) -
                              static_cast<std::uint64_t>(index_[head_].id);
    if (off < index_.size() - head_ && index_[head_ + off].id == id)
      return head_ + off;
    return index_search(id);
  }
  /// First active row with an id >= `id`.
  [[nodiscard]] std::size_t index_lower_bound(TxnId id) const;
  /// Binary search over the active rows (gapped or out-of-order ids).
  [[nodiscard]] std::size_t index_search(TxnId id) const;
  /// Drops tombstones from the front, and from the middle once they
  /// outnumber the live rows, so the index stays O(live).
  void trim_index();

  std::vector<ObjEntry> objects_;  ///< sorted by id; built once, never moves
  IdTable obj_slots_;              ///< object id -> objects_ position
  std::vector<ObjectOrigin> origins_;

  std::vector<LiveTxn> pool_;  ///< live records; freed slots are reused
  std::vector<std::int32_t> free_slots_;
  std::vector<IndexRow> index_;  ///< ascending ids; rows [head_, end) active
  std::size_t head_ = 0;
  std::int64_t num_live_ = 0;
  std::vector<ScheduledTxn> committed_;

  mutable std::vector<TxnId> live_ids_;
  mutable bool live_ids_dirty_ = false;
};

}  // namespace dtm
