#include "sim/engine.hpp"

#include <algorithm>

namespace dtm {

SyncEngine::SyncEngine(std::shared_ptr<const DistanceOracle> oracle,
                       std::vector<ObjectOrigin> origins, Options opts)
    : oracle_([&] {
        DTM_REQUIRE(oracle != nullptr, "engine needs a distance oracle");
        return std::move(oracle);
      }()),
      opts_(opts),
      store_(std::move(origins), *oracle_),
      transport_(
          std::make_unique<SyncObjectTransport>(store_, *oracle_, opts_)) {
  DTM_REQUIRE(opts_.latency_factor >= 1,
              "latency factor " << opts_.latency_factor);
  DTM_REQUIRE(opts_.threads >= 0, "engine threads " << opts_.threads);
  if (opts_.mode == Mode::kVerifyParallel) {
    // Same oracle, same origins, same fault plan — only the bookkeeping
    // differs: the twin runs the plain serial calendar path, so every
    // lockstep divergence indicts the parallel sharding.
    Options twin = opts_;
    twin.mode = Mode::kCalendar;
    twin.threads = 1;
    shadow_ = std::make_unique<SyncEngine>(oracle_, store_.origins(), twin);
  }
}

const ObjectState& SyncEngine::object(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  DTM_REQUIRE(e != nullptr, "unknown object " << o);
  return e->state;
}

const Transaction& SyncEngine::txn(TxnId t) const {
  return store_.live_txn(t).txn;
}

Time SyncEngine::assigned_exec(TxnId t) const {
  return store_.live_txn(t).exec;
}

std::span<const TxnId> SyncEngine::live_users_of(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  if (e == nullptr) return {};
  return e->users;
}

void SyncEngine::begin_step(std::span<const Transaction> arrivals) {
  const Time now = clock_.now();
  for (const Transaction& t : arrivals) {
    DTM_REQUIRE(t.gen_time == now, "arrival " << t.id << " gen "
                                              << t.gen_time << " at step "
                                              << now);
    DTM_REQUIRE(t.node >= 0 && t.node < oracle_->num_nodes(),
                "txn " << t.id << " node " << t.node);
    DTM_REQUIRE(!t.accesses.empty(), "txn " << t.id << " requests nothing");
    for (const auto& a : t.accesses)
      DTM_REQUIRE(store_.find_obj(a.obj) != nullptr,
                  "txn " << t.id << " requests unknown object " << a.obj);
    store_.add_live(t);
  }
  if (shadow_) shadow_->begin_step(arrivals);
}

void SyncEngine::apply(std::span<const Assignment> assignments) {
  const Time now = clock_.now();
  for (const Assignment& a : assignments) {
    TxnStore::LiveTxn* lt = store_.find_live(a.txn);
    DTM_REQUIRE(lt != nullptr, "assignment for non-live txn " << a.txn);
    DTM_REQUIRE(lt->exec == kNoTime,
                "txn " << a.txn << " already scheduled (schedules are "
                       "irrevocable)");
    DTM_REQUIRE(a.exec >= now, "txn " << a.txn << " scheduled in the past ("
                                      << a.exec << " < " << now << ")");
    lt->exec = a.exec;
    if (opts_.mode != Mode::kScan) {
      clock_.schedule(a.exec, a.txn);
      for (const auto& acc : lt->txn.accesses) {
        auto& e = store_.obj_entry(acc.obj);
        // A fresh entry can only lower the cached min; an empty heap means
        // no live scheduled user existed, so the entry IS the min (see the
        // ObjEntry invariant).
        const bool was_empty = e.sched.empty();
        e.sched.emplace(a.exec, a.txn);
        if (was_empty ||
            (e.best_user != kNoTxn &&
             (a.exec < e.best_exec ||
              (a.exec == e.best_exec && a.txn < e.best_user)))) {
          e.best_user = a.txn;
          e.best_exec = a.exec;
          e.best_node = lt->txn.node;
        }
      }
    }
  }
  // Re-route after all assignments land so each object sees the final
  // earliest-deadline user of this step. The request list goes through
  // reroute_many so the transport can shard it by object ownership.
  reroute_scratch_.clear();
  for (const Assignment& a : assignments)
    for (const auto& acc : store_.live_txn(a.txn).txn.accesses)
      reroute_scratch_.push_back(acc.obj);
  transport_->reroute_many(reroute_scratch_, now);
  if (shadow_) shadow_->apply(assignments);
}

std::vector<SyncEngine::Commit> SyncEngine::finish_step() {
  const Mode mode = opts_.mode;
  const Time now = clock_.now();
  due_scratch_.clear();
  transport_->settle_arrivals(now);
  // The scan derives the due set from the live transactions in id order.
  const auto scan_due = [&](std::vector<TxnId>& out) {
    for (const TxnId id : store_.live_ids()) {
      const Time exec = store_.live_txn(id).exec;
      DTM_CHECK(exec == kNoTime || exec >= now,
                "txn " << id << " missed its execution step " << exec
                       << " (now " << now << ")");
      if (exec == now) out.push_back(id);
    }
  };
  if (mode == Mode::kScan) {
    scan_due(due_scratch_);
  } else {
    // Equal-time entries pop in ascending id order — the same order the
    // scan derives from the live index.
    clock_.pop_due(due_scratch_);
    if (mode == Mode::kVerify) {
      transport_->verify_settled(now);
      std::vector<TxnId> scan;
      scan_due(scan);
      DTM_CHECK(scan == due_scratch_,
                "calendar due set diverges from scan at step " << now);
    }
  }

  // Fire everyone due now. Two due transactions sharing an object would be
  // an invalid schedule — the presence check below can only pass for one of
  // them, and the engine flags the other.
  std::vector<Commit> commits;
  commits.reserve(due_scratch_.size());
  released_scratch_.clear();
  for (const TxnId id : due_scratch_) {
    const TxnStore::LiveTxn& lt = store_.live_txn(id);
    for (const auto& acc : lt.txn.accesses) {
      TxnStore::ObjEntry& e = store_.obj_entry(acc.obj);
      // One commit per object per step: even two transactions on the same
      // node must serialize on a shared object (the model's conflict
      // semantics; matches validate_schedule's tie rule).
      DTM_CHECK(e.committed_at != now,
                "object " << acc.obj << " used by two transactions at step "
                          << now << " (txn " << id << ")");
      e.committed_at = now;
      e.state.settle(now);
      DTM_CHECK(!e.state.in_transit() && e.state.at() == lt.txn.node,
                "txn " << id << " executing at step " << now << " on node "
                       << lt.txn.node << " lacks object " << acc.obj
                       << (e.state.in_transit()
                               ? " (in transit)"
                               : " (resting at node " +
                                     std::to_string(e.state.at()) + ")"));
      e.state.set_last_txn(id);
      released_scratch_.push_back(acc.obj);
    }
    commits.push_back({id, lt.txn.node, lt.txn.gen_time, lt.exec});
    store_.commit(id, lt.exec);
  }
  // Forward released objects to their next scheduled user.
  transport_->reroute_many(released_scratch_, now);
  clock_.tick();
  if (shadow_) {
    const std::vector<Commit> twin = shadow_->finish_step();
    DTM_CHECK(twin.size() == commits.size(),
              "parallel engine committed " << commits.size()
                                           << " txns at step " << now
                                           << ", serial twin " << twin.size());
    for (std::size_t i = 0; i < commits.size(); ++i)
      DTM_CHECK(commits[i].txn == twin[i].txn &&
                    commits[i].node == twin[i].node &&
                    commits[i].gen == twin[i].gen &&
                    commits[i].exec == twin[i].exec,
                "parallel engine diverges from serial twin at step "
                    << now << ": commit " << i << " is txn " << commits[i].txn
                    << "@" << commits[i].exec << " vs " << twin[i].txn << "@"
                    << twin[i].exec);
  }
  return commits;
}

void SyncEngine::advance_to(Time t) {
  DTM_REQUIRE(t >= clock_.now(),
              "advance_to(" << t << ") before now " << clock_.now());
  const Time due = next_exec_due();
  DTM_CHECK(due == kNoTime || due >= t,
            "advance_to(" << t << ") would skip execution at " << due);
  clock_.advance_to(t);
  if (shadow_) shadow_->advance_to(t);
}

Time SyncEngine::next_exec_due() const {
  if (opts_.mode == Mode::kVerifyParallel) {
    const Time cal = clock_.next_scheduled();
    DTM_CHECK(cal == shadow_->next_exec_due(),
              "parallel engine next_exec_due " << cal
                                               << " diverges from serial twin "
                                               << shadow_->next_exec_due());
    return cal;
  }
  if (opts_.mode == Mode::kCalendar) return clock_.next_scheduled();
  Time due = kNoTime;
  for (const TxnId id : store_.live_ids()) {
    const Time exec = store_.live_txn(id).exec;
    if (exec == kNoTime) continue;
    due = due == kNoTime ? exec : std::min(due, exec);
  }
  if (opts_.mode == Mode::kVerify) {
    const Time cal = clock_.next_scheduled();
    DTM_CHECK(cal == due, "next_exec_due diverges: calendar "
                              << cal << " vs scan " << due << " (now "
                              << clock_.now() << ")");
  }
  return due;
}

}  // namespace dtm
