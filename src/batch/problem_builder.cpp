#include "batch/problem_builder.hpp"

#include <algorithm>

namespace dtm {

BatchObject object_availability(const SystemView& view, ObjId o,
                                const ExtraAssignments& extra) {
  auto exec_of = [&](TxnId id) -> Time {
    const Time e = extra.find(id);
    return e != kNoTime ? e : view.assigned_exec(id);
  };

  // Latest assigned live user pins the object.
  TxnId pin = kNoTxn;
  Time pin_exec = kNoTime;
  for (const TxnId uid : view.live_users_of(o)) {
    const Time e = exec_of(uid);
    if (e == kNoTime) continue;  // unscheduled user: not a commitment
    if (e > pin_exec) {
      pin_exec = e;
      pin = uid;
    }
  }
  if (pin != kNoTxn) return {o, view.txn(pin).node, pin_exec, true};

  const ObjectState& os = view.object(o);
  if (os.in_transit()) {
    // No pending scheduled user, but the object is mid-flight (its
    // destination user just executed is impossible — it would have the
    // object — so this is a tail case after redirects): it is committed
    // until it lands.
    return {o, os.dest(), std::max(view.now(), os.arrive_time()),
            os.last_txn() != kNoTxn};
  }
  return {o, os.at(), view.now(), os.last_txn() != kNoTxn};
}

void ProblemBuilder::build(const SystemView& view, std::span<const TxnId> txns,
                           TxnId candidate, const ExtraAssignments& extra,
                           BatchProblem& out) {
  out.oracle = &view.oracle();
  out.latency_factor = view.latency_factor();
  out.now = view.now();
  out.objects.clear();
  out.txns.clear();
  out.txns.reserve(txns.size() + (candidate != kNoTxn ? 1 : 0));

  objs_.clear();
  auto add_txn = [&](TxnId id) {
    const Transaction& t = view.txn(id);
    BatchTxn bt{t.id, t.node, t.object_ids()};
    std::sort(bt.objects.begin(), bt.objects.end());
    bt.objects.erase(std::unique(bt.objects.begin(), bt.objects.end()),
                     bt.objects.end());
    objs_.insert(objs_.end(), bt.objects.begin(), bt.objects.end());
    out.txns.push_back(std::move(bt));
  };
  for (const TxnId id : txns) add_txn(id);
  if (candidate != kNoTxn) add_txn(candidate);

  std::sort(objs_.begin(), objs_.end());
  objs_.erase(std::unique(objs_.begin(), objs_.end()), objs_.end());

  out.objects.reserve(objs_.size());
  for (const ObjId o : objs_)
    out.objects.push_back(object_availability(view, o, extra));
}

BatchProblem build_batch_problem(const SystemView& view,
                                 std::span<const TxnId> txns,
                                 const ExtraAssignments& extra_assigned) {
  BatchProblem p;
  ProblemBuilder b;
  b.build(view, txns, kNoTxn, extra_assigned, p);
  return p;
}

}  // namespace dtm
