#include "sim/store.hpp"

#include <algorithm>

namespace dtm {

TxnStore::TxnStore(std::vector<ObjectOrigin> origins,
                   const DistanceOracle& oracle)
    : origins_(std::move(origins)) {
  // Sort compact (id, origin row) pairs, then build the records in id
  // order: the 152-byte records are written once and never moved.
  std::vector<std::pair<ObjId, std::size_t>> order;
  order.reserve(origins_.size());
  for (std::size_t r = 0; r < origins_.size(); ++r) {
    const ObjectOrigin& o = origins_[r];
    DTM_REQUIRE(o.node >= 0 && o.node < oracle.num_nodes(),
                "object " << o.id << " origin node " << o.node);
    DTM_REQUIRE(o.created <= 0, "objects must exist from the start of the "
                                "simulation (object " << o.id << ")");
    order.emplace_back(o.id, r);
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 1; i < order.size(); ++i)
    DTM_CHECK(order[i - 1].first != order[i].first,
              "duplicate object id " << order[i].first);
  objects_.reserve(order.size());
  for (const auto& [id, r] : order) {
    ObjEntry e;
    e.id = id;
    e.state = ObjectState(id, origins_[r].node, origins_[r].created);
    objects_.push_back(std::move(e));
  }
  obj_slots_ = IdTable(order, [](const auto& p) { return p.first; });
}

std::size_t TxnStore::index_lower_bound(TxnId id) const {
  const auto it = std::lower_bound(
      index_.begin() + static_cast<std::ptrdiff_t>(head_), index_.end(), id,
      [](const IndexRow& r, TxnId t) { return r.id < t; });
  return static_cast<std::size_t>(it - index_.begin());
}

std::size_t TxnStore::index_search(TxnId id) const {
  const std::size_t p = index_lower_bound(id);
  return p < index_.size() && index_[p].id == id ? p : kNoPos;
}

void TxnStore::add_live(const Transaction& t) {
  for (const auto& a : t.accesses) (void)obj_entry(a.obj);
  const TxnId id = t.id;
  std::size_t pos = index_.size();
  if (head_ < index_.size() && id <= index_.back().id) {
    // Out-of-order arrival (only a trace sends one): reuse the id's
    // tombstone or insert a row in id order.
    pos = index_lower_bound(id);
    if (index_[pos].id == id)
      DTM_CHECK(index_[pos].slot < 0, "duplicate txn id " << id);
    else
      index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(pos),
                    IndexRow{id, -1});
  } else {
    index_.push_back({id, -1});
  }
  auto slot = static_cast<std::int32_t>(pool_.size());
  if (free_slots_.empty()) {
    pool_.push_back({t, kNoTime});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    // Copy-assignment keeps the pooled record's access capacity.
    LiveTxn& lt = pool_[static_cast<std::size_t>(slot)];
    lt.txn = t;
    lt.exec = kNoTime;
  }
  index_[pos].slot = slot;
  ++num_live_;
  live_ids_dirty_ = true;
  for (const auto& a : t.accesses) obj_entry(a.obj).users.push_back(id);
}

void TxnStore::commit(TxnId id, Time exec) {
  const std::size_t pos = index_pos(id);
  DTM_REQUIRE(pos != kNoPos && index_[pos].slot >= 0,
              "commit of txn " << id << ", which is not live");
  const std::int32_t slot = index_[pos].slot;
  LiveTxn& lt = pool_[static_cast<std::size_t>(slot)];
  for (const auto& acc : lt.txn.accesses) {
    auto& e = obj_entry(acc.obj);
    e.users.erase(std::remove(e.users.begin(), e.users.end(), id),
                  e.users.end());
    if (e.best_user == id) {
      // The cached reroute target was the committing transaction: the next
      // lookup re-derives the min from the heap.
      e.best_user = kNoTxn;
      e.best_exec = kNoTime;
      e.best_node = kNoNode;
    }
  }
  committed_.push_back({std::move(lt.txn), exec});
  index_[pos].slot = -1;
  free_slots_.push_back(slot);
  --num_live_;
  live_ids_dirty_ = true;
  trim_index();
}

void TxnStore::trim_index() {
  while (head_ < index_.size() && index_[head_].slot < 0) ++head_;
  if (head_ == index_.size()) {
    index_.clear();
    head_ = 0;
    return;
  }
  const std::size_t active = index_.size() - head_;
  const auto live = static_cast<std::size_t>(num_live_);
  if (active > 4 * live + 256) {
    // A long-lived transaction holds the head while tombstones pile up
    // behind it: drop them all (later lookups past the gaps this leaves
    // binary-search until the rows are trimmed).
    const auto kept = std::remove_if(
        index_.begin() + static_cast<std::ptrdiff_t>(head_), index_.end(),
        [](const IndexRow& r) { return r.slot < 0; });
    index_.erase(kept, index_.end());
  }
  if (head_ >= 64 && 2 * head_ >= index_.size()) {
    index_.erase(index_.begin(),
                 index_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::span<const TxnId> TxnStore::live_ids() const {
  if (live_ids_dirty_) {
    live_ids_.clear();
    live_ids_.reserve(static_cast<std::size_t>(num_live_));
    for (std::size_t p = head_; p < index_.size(); ++p)
      if (index_[p].slot >= 0) live_ids_.push_back(index_[p].id);
    live_ids_dirty_ = false;
  }
  return live_ids_;
}

}  // namespace dtm
