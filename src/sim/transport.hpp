// SyncObjectTransport — object motion (engine layering, layer 2).
//
// Decides where objects travel and when they arrive: routing toward the
// earliest pending scheduled user, in-flight redirects, and the settle
// queue that materializes arrivals. The engine owns exactly one, by value;
// the full-scan reading of the model is the test-side reference engine
// (tests/oracle/scan_engine.hpp).
#pragma once

#include <span>

#include "fault/plan.hpp"
#include "sim/store.hpp"

namespace dtm {

struct EngineOptions {
  /// Steps per unit distance for object motion (2 = half-speed objects,
  /// the distributed setting of §V).
  std::int64_t latency_factor = 1;

  /// The engine has one bookkeeping path. The enum survives only so that
  /// callers written against the old multi-mode engine still compile; no
  /// spec or flag can set it, and nothing reads it.
  enum class Mode { kCalendar };
  Mode mode = Mode::kCalendar;

  /// Validated (>= 0) and otherwise unread: the engine runs serially at
  /// every value. It survives because the frozen bench/e2e drivers assign
  /// it; thread counts reach the schedulers through RunSpec::threads
  /// (ARCHITECTURE.md §8).
  std::int32_t threads = 1;

  /// Fault-injection plan for the transport's stall hook (and, through the
  /// RunSpec, the distributed protocol's FaultyBus). The default null plan
  /// takes the exact pre-fault code path — zero draws, zero delays — so
  /// golden sequences stay byte-identical without a plan.
  FaultPlan fault;
};

/// The synchronous shortest-path transport: objects move one unit of
/// distance per latency_factor steps along oracle distances, exactly the
/// paper's motion model.
class SyncObjectTransport {
 public:
  SyncObjectTransport(TxnStore& store, const DistanceOracle& oracle,
                      const EngineOptions& opts)
      : store_(&store),
        oracle_(&oracle),
        latency_factor_(opts.latency_factor),
        fault_(opts.fault),
        stall_rng_(fault_.transport_rng()),
        stalling_(fault_.stall > 0.0) {}

  /// Reroutes every object in `objs`, duplicates included, in request
  /// order: the stall stream draws in that order, and chaos golden pins
  /// depend on the exact sequence.
  void reroute_many(std::span<const ObjId> objs, Time now);

  /// Materializes every arrival due by `now` by draining the settle queue.
  void settle_arrivals(Time now);

  /// Swaps the stall knobs in place and reseeds the stall stream from the
  /// new plan (site-salted, so toggling to the same plan replays the same
  /// stall sequence from the start). In-flight transfers keep the legs they
  /// were already charged.
  void set_fault(const FaultPlan& plan) {
    fault_ = plan;
    stall_rng_ = plan.transport_rng();
    stalling_ = plan.stall > 0.0;
  }

 private:
  /// The earliest scheduled user (cache, else the pruned heap); kNoTxn when
  /// none.
  [[nodiscard]] TxnId reroute_target(TxnStore::ObjEntry& e);

  /// Sends `e` toward the pending scheduled user with the earliest
  /// execution time (no-op when already heading there / resting there).
  void reroute(TxnStore::ObjEntry& e, Time now);

  /// Fault hook: maybe stretches a freshly laid transit leg for `e`, bounded
  /// by the slack before its target's execution (e.best_exec) so
  /// commitments stay feasible.
  void maybe_stall(TxnStore::ObjEntry& e);

  TxnStore* store_;
  const DistanceOracle* oracle_;
  std::int64_t latency_factor_;

  /// Transfer-stall injection state. The RNG stream is salted per the
  /// FaultPlan; with stall == 0 the hook is a single branch and zero draws,
  /// keeping the no-fault path byte-identical.
  FaultPlan fault_;
  Rng stall_rng_;
  bool stalling_ = false;

  /// Pending object arrivals: (arrive time, index into the store's object
  /// array). Entries outlive redirects; settle() is idempotent, so early
  /// pops are no-ops.
  EventClock::MinHeap<std::int32_t> settle_queue_;
};

}  // namespace dtm
