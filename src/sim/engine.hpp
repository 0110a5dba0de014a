// Synchronous discrete-time execution engine (paper §II) — the thin facade
// over the three kernel layers (docs/ARCHITECTURE.md):
//
//  - TxnStore   (sim/store.*):     live transactions, per-object user
//                                  index, object position state, committed
//                                  log — the canonical system state.
//  - SyncObjectTransport (sim/transport.*): routing, in-flight motion,
//                                  the settle queue.
//  - EventClock (sim/clock.*):     `now`, the execution calendar, and
//                                  next-event merging for time skips.
//
// Each step the engine (1) registers arrivals, (2) lets the plugged
// scheduler assign execution times, (3) routes objects toward their
// earliest pending scheduled user, and (4) fires transactions whose time
// has come — after *verifying* that every requested object is physically
// present, which makes the simulation an end-to-end feasibility check of
// the scheduler's decisions.
//
// The per-step bookkeeping is event-driven: the clock's execution-time
// calendar plus the transport's object-arrival queue plus per-object
// scheduled-user heaps, so an idle step costs O(1) and a busy step costs
// O(due * log live). Assignments are irrevocable, so calendar entries never
// go stale before they fire. The paper's synchronous model read literally —
// settle every object, scan every live transaction — is the test-side
// reference engine (tests/oracle/scan_engine.hpp), and the lockstep harness
// there steps it beside this engine and compares every step.
//
// With EngineOptions::threads > 1 the reroute fan-outs of apply() and
// finish_step() run sharded across the process-wide ThreadPool (object
// ownership by dense index, per-worker settle buffers merged after the
// barrier — ARCHITECTURE.md §8); commit sequences stay byte-identical at
// every thread count.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "sim/clock.hpp"
#include "sim/store.hpp"
#include "sim/transport.hpp"

namespace dtm {

class SyncEngine final : public SystemView {
 public:
  using Options = EngineOptions;

  SyncEngine(std::shared_ptr<const DistanceOracle> oracle,
             std::vector<ObjectOrigin> origins, Options opts = {});
  // The transport and schedulers hold references into the store.
  SyncEngine(const SyncEngine&) = delete;
  SyncEngine& operator=(const SyncEngine&) = delete;

  // ---- SystemView ----
  [[nodiscard]] Time now() const override { return clock_.now(); }
  [[nodiscard]] const DistanceOracle& oracle() const override {
    return *oracle_;
  }
  [[nodiscard]] std::int64_t latency_factor() const override {
    return opts_.latency_factor;
  }
  [[nodiscard]] const ObjectState& object(ObjId o) const override;
  [[nodiscard]] const Transaction& txn(TxnId t) const override;
  [[nodiscard]] Time assigned_exec(TxnId t) const override;
  [[nodiscard]] std::span<const TxnId> live_users_of(ObjId o) const override;
  [[nodiscard]] std::span<const TxnId> live_txns() const override {
    return store_.live_ids();
  }

  // ---- Stepping API (driven by the run driver, sim/driver.hpp) ----

  /// Registers the transactions generated at the current step.
  void begin_step(std::span<const Transaction> arrivals);

  /// Applies scheduler assignments (exec >= now, each txn live and not yet
  /// scheduled) and re-routes affected objects.
  void apply(std::span<const Assignment> assignments);

  /// A committed transaction, as reported back to the workload.
  struct Commit {
    TxnId txn = kNoTxn;
    NodeId node = kNoNode;
    Time gen = kNoTime;
    Time exec = kNoTime;
  };

  /// Settles arrivals, fires due transactions (verifying object presence),
  /// routes released objects onward, and advances the clock by one.
  std::vector<Commit> finish_step();

  /// Fast-forwards the clock to `t` (exclusive of any pending execution:
  /// callers must not skip past next_exec_due()).
  void advance_to(Time t);

  /// Earliest execution time among scheduled live transactions, kNoTime if
  /// none. The driver never skips past this.
  [[nodiscard]] Time next_exec_due() const { return clock_.next_scheduled(); }

  [[nodiscard]] bool all_done() const { return store_.num_live() == 0; }
  [[nodiscard]] std::int64_t num_live() const { return store_.num_live(); }

  /// Every transaction committed so far, with its execution time — the
  /// material for post-hoc schedule validation and metrics.
  [[nodiscard]] const std::vector<ScheduledTxn>& committed() const {
    return store_.committed();
  }
  /// Drains the committed log (leaving it empty). The driver takes it at
  /// the end of a run or drains it on a cadence so the log — the only
  /// per-committed state — stays bounded. Stepping continues normally
  /// afterwards; only post-hoc consumers of the full history
  /// (validate_schedule, the lower bound) need it kept.
  [[nodiscard]] std::vector<ScheduledTxn> take_committed() {
    return store_.take_committed();
  }

  /// Swaps the fault plan live (serve-mode resilience drills): the
  /// transport re-arms its stall hook from the new plan. Scheduler-side
  /// bus faults are the scheduler's own seam (dist-bucket's set_fault).
  void set_fault(const FaultPlan& plan) {
    opts_.fault = plan;
    transport_.set_fault(plan);
  }
  [[nodiscard]] const std::vector<ObjectOrigin>& origins() const {
    return store_.origins();
  }

  /// The three layers, exposed read-only for the driver's next-event
  /// merging and for diagnostics.
  [[nodiscard]] const EventClock& clock() const { return clock_; }
  [[nodiscard]] const TxnStore& store() const { return store_; }

 private:
  std::shared_ptr<const DistanceOracle> oracle_;
  Options opts_;

  TxnStore store_;
  SyncObjectTransport transport_;
  EventClock clock_;

  std::vector<TxnId> due_scratch_;
  std::vector<ObjId> reroute_scratch_;
  std::vector<ObjId> released_scratch_;
};

}  // namespace dtm
