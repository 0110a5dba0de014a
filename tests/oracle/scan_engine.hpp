// Reference engine: the paper's synchronous model (§II) read literally,
// kept as the test oracle for SyncEngine's event-driven bookkeeping.
//
// Every step settles every object, derives the due set by scanning all live
// transactions in id order, and reroutes each object toward its earliest
// scheduled user by a linear pass over the object's live users — O(objects
// + live) per step, no calendar, no settle queue, no per-object heaps or
// cached targets. It shares only the state container (TxnStore) and the
// motion model (ObjectState) with the production engine, and draws the
// transport's stall stream in the same request order, so a run under any
// fault plan must match SyncEngine commit for commit. The lockstep harness
// (oracle/lockstep.hpp) steps the two side by side.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/engine.hpp"

namespace dtm::oracle {

class ScanEngine final : public SystemView {
 public:
  ScanEngine(std::shared_ptr<const DistanceOracle> oracle,
             std::vector<ObjectOrigin> origins, EngineOptions opts = {});

  // ---- SystemView ----
  [[nodiscard]] Time now() const override { return clock_.now(); }
  [[nodiscard]] const DistanceOracle& oracle() const override {
    return *oracle_;
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    return opts_.latency_factor;
  }
  [[nodiscard]] const ObjectState& object(ObjId o) const override;
  [[nodiscard]] const Transaction& txn(TxnId t) const override {
    return store_.live_txn(t).txn;
  }
  [[nodiscard]] Time assigned_exec(TxnId t) const override {
    return store_.live_txn(t).exec;
  }
  [[nodiscard]] std::span<const TxnId> live_users_of(ObjId o) const override;
  [[nodiscard]] std::span<const TxnId> live_txns() const override {
    return store_.live_ids();
  }

  // ---- Stepping API (SyncEngine's) ----
  void begin_step(std::span<const Transaction> arrivals);
  void apply(std::span<const Assignment> assignments);
  std::vector<SyncEngine::Commit> finish_step();
  void advance_to(Time t);
  /// Earliest assigned execution time over the live set, by a full scan.
  [[nodiscard]] Time next_exec_due() const;

  [[nodiscard]] bool all_done() const { return store_.num_live() == 0; }
  [[nodiscard]] const std::vector<ScheduledTxn>& committed() const {
    return store_.committed();
  }
  /// Only the clock's step counter and next-event merging are used; its
  /// calendar stays empty.
  [[nodiscard]] const EventClock& clock() const { return clock_; }

 private:
  /// Routes `o` toward its earliest scheduled live user, found by a linear
  /// pass over the object's users (ties toward the smaller id).
  void reroute(ObjId o, Time now);

  std::shared_ptr<const DistanceOracle> oracle_;
  EngineOptions opts_;
  TxnStore store_;
  EventClock clock_;
  Rng stall_rng_;
};

}  // namespace dtm::oracle
