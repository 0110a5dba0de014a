#include "oracle/scan_engine.hpp"

#include <algorithm>
#include <string>

namespace dtm::oracle {

ScanEngine::ScanEngine(std::shared_ptr<const DistanceOracle> oracle,
                       std::vector<ObjectOrigin> origins, EngineOptions opts)
    : oracle_(std::move(oracle)),
      opts_(std::move(opts)),
      store_(std::move(origins), *oracle_),
      stall_rng_(opts_.fault.transport_rng()) {
  DTM_REQUIRE(opts_.latency_factor >= 1,
              "latency factor " << opts_.latency_factor);
}

const ObjectState& ScanEngine::object(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  DTM_REQUIRE(e != nullptr, "unknown object " << o);
  return e->state;
}

std::span<const TxnId> ScanEngine::live_users_of(ObjId o) const {
  const TxnStore::ObjEntry* e = store_.find_obj(o);
  if (e == nullptr) return {};
  return e->users;
}

void ScanEngine::begin_step(std::span<const Transaction> arrivals) {
  for (const Transaction& t : arrivals) {
    DTM_REQUIRE(t.gen_time == now(), "arrival " << t.id << " gen "
                                                << t.gen_time << " at step "
                                                << now());
    store_.add_live(t);
  }
}

void ScanEngine::apply(std::span<const Assignment> assignments) {
  for (const Assignment& a : assignments) {
    TxnStore::LiveTxn* lt = store_.find_live(a.txn);
    DTM_REQUIRE(lt != nullptr, "assignment for non-live txn " << a.txn);
    DTM_REQUIRE(lt->exec == kNoTime, "txn " << a.txn << " already scheduled");
    DTM_REQUIRE(a.exec >= now(), "txn " << a.txn << " scheduled in the past");
    lt->exec = a.exec;
  }
  // Every assignment lands before any object moves, so each object heads
  // for the final earliest user of the step.
  for (const Assignment& a : assignments)
    for (const auto& acc : store_.live_txn(a.txn).txn.accesses)
      reroute(acc.obj, now());
}

void ScanEngine::reroute(ObjId o, Time now) {
  TxnStore::ObjEntry& e = store_.obj_entry(o);
  TxnId best = kNoTxn;
  Time best_exec = kNoTime;
  for (const TxnId uid : e.users) {
    const Time ex = store_.live_txn(uid).exec;
    if (ex == kNoTime) continue;
    if (best == kNoTxn || ex < best_exec || (ex == best_exec && uid < best)) {
      best = uid;
      best_exec = ex;
    }
  }
  if (best == kNoTxn) return;
  const bool was_transit = e.state.in_transit();
  const NodeId old_to = was_transit ? e.state.dest() : kNoNode;
  const Time old_depart = was_transit ? e.state.depart_time() : kNoTime;
  const Time old_arrive = was_transit ? e.state.arrive_time() : kNoTime;
  e.state.route_to(store_.live_txn(best).txn.node, now, *oracle_,
                   opts_.latency_factor);
  // Transfer stalls: one draw per freshly laid or redirected leg, bounded
  // by the slack before the target executes.
  const bool fresh_leg = e.state.in_transit() &&
                         (!was_transit || e.state.dest() != old_to ||
                          e.state.depart_time() != old_depart ||
                          e.state.arrive_time() != old_arrive);
  if (opts_.fault.stall <= 0.0 || !fresh_leg ||
      !stall_rng_.bernoulli(opts_.fault.stall))
    return;
  const Time slack = best_exec - e.state.arrive_time();
  if (slack <= 0) return;
  e.state.delay_arrival(std::min<Time>(
      slack, stall_rng_.uniform_int(1, opts_.fault.stall_max)));
}

std::vector<SyncEngine::Commit> ScanEngine::finish_step() {
  const Time t = now();
  for (TxnStore::ObjEntry& e : store_.objects()) e.state.settle(t);
  std::vector<TxnId> due;
  for (const TxnId id : store_.live_ids()) {
    const Time exec = store_.live_txn(id).exec;
    DTM_CHECK(exec == kNoTime || exec >= t,
              "txn " << id << " missed its execution step " << exec
                     << " (now " << t << ")");
    if (exec == t) due.push_back(id);
  }
  std::vector<SyncEngine::Commit> commits;
  std::vector<ObjId> released;
  for (const TxnId id : due) {
    const TxnStore::LiveTxn& lt = store_.live_txn(id);
    for (const auto& acc : lt.txn.accesses) {
      TxnStore::ObjEntry& e = store_.obj_entry(acc.obj);
      DTM_CHECK(e.committed_at != t, "object " << acc.obj
                                               << " used twice at step " << t);
      e.committed_at = t;
      DTM_CHECK(!e.state.in_transit() && e.state.at() == lt.txn.node,
                "txn " << id << " executing at step " << t << " on node "
                       << lt.txn.node << " lacks object " << acc.obj);
      e.state.set_last_txn(id);
      released.push_back(acc.obj);
    }
    commits.push_back({id, lt.txn.node, lt.txn.gen_time, lt.exec});
    store_.commit(id, lt.exec);
  }
  for (const ObjId o : released) reroute(o, t);
  clock_.tick();
  return commits;
}

void ScanEngine::advance_to(Time t) {
  const Time due = next_exec_due();
  DTM_CHECK(due == kNoTime || due >= t,
            "advance_to(" << t << ") would skip execution at " << due);
  clock_.advance_to(t);
}

Time ScanEngine::next_exec_due() const {
  Time due = kNoTime;
  for (const TxnId id : store_.live_ids()) {
    const Time exec = store_.live_txn(id).exec;
    if (exec != kNoTime) due = due == kNoTime ? exec : std::min(due, exec);
  }
  return due;
}

}  // namespace dtm::oracle
