// Lockstep harness: steps the production SyncEngine and the reference
// engine with the same arrivals and the same scheduler assignments, and
// after every step DTM_CHECKs that they agree — the commits of the step
// (ids, nodes, generation and execution times, in order), next_exec_due(),
// and every object's full ObjectState.
//
// The reference is the paper's synchronous model read literally
// (ScanEngine): it proves the calendar, settle queue, scheduled-user heaps
// and cached reroute targets change nothing observable.
//
// The scheduler sees the production engine; the reference only receives
// its decisions. A fault plan in the engine options applies to both sides.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/topology.hpp"
#include "oracle/scan_engine.hpp"
#include "sim/runner.hpp"

namespace dtm::oracle {

class LockstepEngine final : public SystemView {
 public:
  LockstepEngine(std::shared_ptr<const DistanceOracle> oracle,
                 std::vector<ObjectOrigin> origins, EngineOptions opts);

  // ---- SystemView: the production engine's ----
  [[nodiscard]] Time now() const override { return primary_.now(); }
  [[nodiscard]] const DistanceOracle& oracle() const override {
    return primary_.oracle();
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    return primary_.latency_factor();
  }
  [[nodiscard]] const ObjectState& object(ObjId o) const override {
    return primary_.object(o);
  }
  [[nodiscard]] const Transaction& txn(TxnId t) const override {
    return primary_.txn(t);
  }
  [[nodiscard]] Time assigned_exec(TxnId t) const override {
    return primary_.assigned_exec(t);
  }
  [[nodiscard]] std::span<const TxnId> live_users_of(ObjId o) const override {
    return primary_.live_users_of(o);
  }
  [[nodiscard]] std::span<const TxnId> live_txns() const override {
    return primary_.live_txns();
  }

  // ---- Stepping: both engines, compared after every finish_step ----
  void begin_step(std::span<const Transaction> arrivals);
  void apply(std::span<const Assignment> assignments);
  std::vector<SyncEngine::Commit> finish_step();
  void advance_to(Time t);
  /// Both engines' value, checked equal.
  [[nodiscard]] Time next_exec_due() const;

  [[nodiscard]] bool all_done() const { return primary_.all_done(); }
  [[nodiscard]] const std::vector<ScheduledTxn>& committed() const {
    return primary_.committed();
  }
  [[nodiscard]] const std::vector<ObjectOrigin>& origins() const {
    return primary_.origins();
  }
  [[nodiscard]] const EventClock& clock() const { return primary_.clock(); }
  /// finish_step calls compared so far.
  [[nodiscard]] std::int64_t steps_checked() const { return steps_checked_; }

 private:
  void check_objects(Time step) const;

  SyncEngine primary_;
  ScanEngine scan_;
  std::int64_t steps_checked_ = 0;
};

/// run_experiment with the engine replaced by a LockstepEngine: the same
/// step loop, fast-forwarding, validation and headline metrics (makespan,
/// latency, active steps, the committed schedule), so a lockstep run hashes
/// exactly like a plain run. Any divergence from the reference throws
/// CheckError at the step where it appears.
[[nodiscard]] RunResult run_lockstep(const Network& net, Workload& workload,
                                     OnlineScheduler& scheduler,
                                     const RunOptions& opts = {});

}  // namespace dtm::oracle
