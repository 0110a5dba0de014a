#include "sim/transport.hpp"

#include <algorithm>

namespace dtm {

TxnId SyncObjectTransport::reroute_target(TxnStore::ObjEntry& e) {
  // O(1) hit path: the cache, when set, IS the min (exec, id) over live
  // scheduled users (maintained by the engine on assignment and cleared by
  // the store when the cached transaction commits — see ObjEntry).
  if (e.best_user != kNoTxn) return e.best_user;
  // Miss: re-derive from the heap. Entries go stale only when their
  // transaction commits (assignments are irrevocable), so the first live
  // top is the earliest scheduled user — the (exec, id) heap order is the
  // model's tie-break — and it refills the cache.
  while (!e.sched.empty()) {
    const auto [exec, uid] = e.sched.top();
    if (const TxnStore::LiveTxn* lt = store_->find_live(uid)) {
      e.best_user = uid;
      e.best_exec = exec;
      e.best_node = lt->txn.node;
      return uid;
    }
    e.sched.pop();
  }
  return kNoTxn;
}

void SyncObjectTransport::reroute(TxnStore::ObjEntry& e, Time now) {
  const TxnId best = reroute_target(e);
  if (best == kNoTxn) return;
  // Leg signature before routing, to detect a genuinely new/redirected leg.
  const bool was_transit = e.state.in_transit();
  const NodeId old_to = was_transit ? e.state.dest() : kNoNode;
  const Time old_depart = was_transit ? e.state.depart_time() : kNoTime;
  const Time old_arrive = was_transit ? e.state.arrive_time() : kNoTime;
  // reroute_target always leaves the target in the cache, so its node
  // comes without a live lookup.
  e.state.route_to(e.best_node, now, *oracle_, latency_factor_);
  if (stalling_ && e.state.in_transit() &&
      (!was_transit || e.state.dest() != old_to ||
       e.state.depart_time() != old_depart ||
       e.state.arrive_time() != old_arrive))
    maybe_stall(e);
  if (e.state.in_transit())
    settle_queue_.emplace(e.state.arrive_time(), store_->obj_index(e));
}

void SyncObjectTransport::reroute_many(std::span<const ObjId> objs, Time now) {
  for (const ObjId o : objs) reroute(store_->obj_entry(o), now);
}

void SyncObjectTransport::maybe_stall(TxnStore::ObjEntry& e) {
  // One draw per fresh leg (no-op reroutes never reach here, so repeated
  // reroutes toward an unchanged target cannot compound stalls). The draw
  // sequence follows the reroute request order, which is the model's.
  if (!stall_rng_.bernoulli(fault_.stall)) return;
  // The stall may consume at most the slack before the earliest scheduled
  // user runs: schedules already committed to by ANY policy remain feasible,
  // and time_to()'s two-route bound stays valid on the stretched leg.
  const Time slack = e.best_exec - e.state.arrive_time();
  if (slack <= 0) return;
  const Time extra =
      std::min<Time>(slack, stall_rng_.uniform_int(1, fault_.stall_max));
  e.state.delay_arrival(extra);
}

void SyncObjectTransport::settle_arrivals(Time now) {
  while (!settle_queue_.empty() && settle_queue_.top().first <= now) {
    store_->obj_at(settle_queue_.top().second).state.settle(now);
    settle_queue_.pop();
  }
}

}  // namespace dtm
