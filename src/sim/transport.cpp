#include "sim/transport.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace dtm {

TxnId SyncObjectTransport::reroute_target_scan(
    const TxnStore::ObjEntry& e) const {
  TxnId best = kNoTxn;
  Time best_exec = kNoTime;
  for (const TxnId uid : e.users) {
    const Time ex = store_->live_txn(uid).exec;
    if (ex == kNoTime) continue;
    if (best == kNoTxn || ex < best_exec ||
        (ex == best_exec && uid < best)) {
      best = uid;
      best_exec = ex;
    }
  }
  return best;
}

TxnId SyncObjectTransport::reroute_target_calendar(TxnStore::ObjEntry& e) {
  // O(1) hit path: the cache, when set, IS the min (exec, id) over live
  // scheduled users (maintained by the engine on assignment and cleared by
  // the store when the cached transaction commits — see ObjEntry).
  if (e.best_user != kNoTxn) return e.best_user;
  // Miss: re-derive from the heap. Entries go stale only when their
  // transaction commits (assignments are irrevocable), so the first live
  // top is the earliest scheduled user — the (exec, id) heap order
  // reproduces the scan's tie-break exactly — and it refills the cache.
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

void SyncObjectTransport::reroute(ObjId o, Time now) {
  reroute_impl(store_->obj_entry(o), now, nullptr);
}

void SyncObjectTransport::reroute_impl(TxnStore::ObjEntry& e, Time now,
                                       SettleBuffer* out) {
  TxnId best = kNoTxn;
  switch (opts_.mode) {
    case EngineOptions::Mode::kScan:
      best = reroute_target_scan(e);
      break;
    case EngineOptions::Mode::kCalendar:
    case EngineOptions::Mode::kVerifyParallel:
      best = reroute_target_calendar(e);
      break;
    case EngineOptions::Mode::kVerify: {
      best = reroute_target_calendar(e);
      const TxnId scan = reroute_target_scan(e);
      DTM_CHECK(best == scan, "reroute(" << e.id << ") diverges: calendar "
                                         << best << " vs scan " << scan);
      break;
    }
  }
  if (best == kNoTxn) return;
  // Leg signature before routing, to detect a genuinely new/redirected leg.
  const bool was_transit = e.state.in_transit();
  const NodeId old_to = was_transit ? e.state.dest() : kNoNode;
  const Time old_depart = was_transit ? e.state.depart_time() : kNoTime;
  const Time old_arrive = was_transit ? e.state.arrive_time() : kNoTime;
  // The cache carries the target's node, sparing the live lookup on the hot
  // (calendar) path; the scan path derives best without the cache.
  const NodeId dest = e.best_user == best
                          ? e.best_node
                          : store_->live_txn(best).txn.node;
  e.state.route_to(dest, now, *oracle_, opts_.latency_factor);
  if (stalling_ && e.state.in_transit() &&
      (!was_transit || e.state.dest() != old_to ||
       e.state.depart_time() != old_depart ||
       e.state.arrive_time() != old_arrive))
    maybe_stall(e, best);
  if (opts_.mode != EngineOptions::Mode::kScan && e.state.in_transit()) {
    if (out != nullptr)
      out->emplace_back(e.state.arrive_time(), store_->obj_index(e));
    else
      settle_queue_.emplace(e.state.arrive_time(), store_->obj_index(e));
  }
}

void SyncObjectTransport::reroute_many(std::span<const ObjId> objs, Time now) {
  const unsigned shards = std::min<std::uint64_t>(
      {resolve_threads(opts_.threads), objs.size(), 64});
  // Stall injection draws one RNG value per fresh leg in request order —
  // a shared sequential stream — so an active stall plan forces the serial
  // path (chaos runs are thread-count-invariant by construction).
  if (shards <= 1 || stalling_) {
    for (const ObjId o : objs) reroute(o, now);
    return;
  }
  // Ownership sharding: object with dense index i belongs to worker
  // i % shards. Every worker scans the full request list and handles only
  // its own objects, preserving each object's request order, so the final
  // per-object state is identical to the serial loop's. Settle pushes are
  // buffered per worker and merged after the barrier — the queue is a heap
  // keyed on unique (time, index) pairs, so insertion order is invisible.
  shard_idx_.clear();
  shard_idx_.reserve(objs.size());
  for (const ObjId o : objs)
    shard_idx_.push_back(store_->obj_index(store_->obj_entry(o)));
  if (shard_settles_.size() < shards) shard_settles_.resize(shards);
  ThreadPool::shared().run(
      shards,
      [&](std::int64_t w) {
        SettleBuffer& buf = shard_settles_[static_cast<std::size_t>(w)];
        buf.clear();
        for (std::size_t r = 0; r < shard_idx_.size(); ++r) {
          if (shard_idx_[r] % static_cast<std::int32_t>(shards) != w)
            continue;
          reroute_impl(store_->obj_at(shard_idx_[r]), now, &buf);
        }
      },
      shards, 1);
  for (unsigned w = 0; w < shards; ++w)
    for (const auto& [at, idx] : shard_settles_[w])
      settle_queue_.emplace(at, idx);
}

void SyncObjectTransport::maybe_stall(TxnStore::ObjEntry& e, TxnId best) {
  // One draw per fresh leg (no-op reroutes never reach here, so repeated
  // reroutes toward an unchanged target cannot compound stalls). Reroute
  // order is mode-invariant, so the draw sequence — and hence the whole
  // simulation — stays identical across kScan/kCalendar/kVerify.
  if (!stall_rng_.bernoulli(opts_.fault.stall)) return;
  // The stall may consume at most the slack before the earliest scheduled
  // user runs: schedules already committed to by ANY policy remain feasible,
  // and time_to()'s two-route bound stays valid on the stretched leg.
  const Time slack = store_->live_txn(best).exec - e.state.arrive_time();
  if (slack <= 0) return;
  const Time extra =
      std::min<Time>(slack, stall_rng_.uniform_int(1, opts_.fault.stall_max));
  e.state.delay_arrival(extra);
  ++stalls_;
  stall_steps_ += extra;
}

void SyncObjectTransport::settle_arrivals(Time now) {
  if (opts_.mode == EngineOptions::Mode::kScan) {
    auto& objects = store_->objects();
    const unsigned par = resolve_threads(opts_.threads);
    if (par > 1 && objects.size() >= 256) {
      // Settles touch only their own entry; chunked so workers stream
      // contiguous cache lines.
      ThreadPool::shared().run(
          static_cast<std::int64_t>(objects.size()),
          [&](std::int64_t i) {
            objects[static_cast<std::size_t>(i)].state.settle(now);
          },
          par);
    } else {
      for (auto& e : objects) e.state.settle(now);
    }
    return;
  }
  while (!settle_queue_.empty() && settle_queue_.top().first <= now) {
    store_->obj_at(settle_queue_.top().second).state.settle(now);
    settle_queue_.pop();
  }
}

void SyncObjectTransport::verify_settled(Time now) const {
  for (const auto& e : store_->objects())
    DTM_CHECK(!(e.state.in_transit() && e.state.arrive_time() <= now),
              "object " << e.id << " missed settlement at step " << now);
}

}  // namespace dtm
