// Online scheduler interface (paper §II "online execution schedule").
//
// A scheduler observes the system each time step through a SystemView and
// returns execution-time assignments. Assignments are immutable once made —
// the paper highlights that its schedulers never revise earlier decisions
// ("the execution times for the new transactions are not affecting the
// previously scheduled transactions"), and the simulation engine enforces
// this.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/event_source.hpp"
#include "core/object_state.hpp"
#include "core/types.hpp"
#include "net/graph.hpp"

namespace dtm {

/// Read-only facade over the simulation state, implemented by the engine.
/// Centralized schedulers may use everything here (the paper's "central
/// authority with instant knowledge"); the distributed scheduler restricts
/// itself to information that has had time to travel.
class SystemView {
 public:
  virtual ~SystemView() = default;

  [[nodiscard]] virtual Time now() const = 0;
  [[nodiscard]] virtual const DistanceOracle& oracle() const = 0;

  /// Steps per unit of distance for object motion (1 centralized, 2 in the
  /// distributed half-speed setting).
  [[nodiscard]] virtual std::int64_t latency_factor() const = 0;

  /// The object's live record. The reference stays valid, and keeps
  /// reflecting the object's current state, for the view's lifetime (the
  /// engine's object set is fixed at construction), so schedulers may hold
  /// it across steps instead of looking the object up again.
  [[nodiscard]] virtual const ObjectState& object(ObjId o) const = 0;
  /// A live transaction. The reference is valid for the whole scheduler
  /// call, and until the engine next registers arrivals (begin_step) or
  /// commits the transaction; hold its id, not the reference, across steps.
  [[nodiscard]] virtual const Transaction& txn(TxnId t) const = 0;

  /// Execution time assigned to `t`, or kNoTime if not yet scheduled.
  [[nodiscard]] virtual Time assigned_exec(TxnId t) const = 0;

  /// Live (not yet executed) transactions requesting object `o`, in
  /// generation order. Includes both scheduled and unscheduled ones — the
  /// paper's conflict set C_t(T) restricted to users of o. The returned view
  /// aliases engine-owned storage and is valid until the engine next
  /// mutates (begin_step / apply / finish_step).
  [[nodiscard]] virtual std::span<const TxnId> live_users_of(
      ObjId o) const = 0;

  /// All live transactions (the paper's T_t), in id order. Same lifetime
  /// rule as live_users_of.
  [[nodiscard]] virtual std::span<const TxnId> live_txns() const = 0;

  /// Object travel time between nodes.
  [[nodiscard]] Time travel(NodeId u, NodeId v) const {
    return latency_factor() * oracle().dist(u, v);
  }
};

/// An irrevocable scheduling decision: transaction `txn` commits at `exec`.
struct Assignment {
  TxnId txn = kNoTxn;
  Time exec = kNoTime;
};

class OnlineScheduler {
 public:
  virtual ~OnlineScheduler() = default;

  /// Called once per simulated step that can matter (arrivals, pending
  /// internal events, or the step named by next_event_hint). `arrivals` are
  /// the transactions generated at view.now().
  [[nodiscard]] virtual std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) = 0;

  /// Earliest future step at which the scheduler must run even without new
  /// arrivals (bucket activations, pending reports). kNoTime = none; the
  /// engine may then skip idle steps.
  [[nodiscard]] virtual Time next_event_hint(Time /*now*/) const {
    return kNoTime;
  }

  /// Additional timed event sources the runner's EventClock must merge
  /// (e.g. the distributed protocol's MessageBus) — so schedulers don't
  /// special-case delivery times inside next_event_hint. The list is fixed
  /// for the scheduler's lifetime, and so are the pointers: a run loop may
  /// read it once, when it starts driving the scheduler.
  [[nodiscard]] virtual std::vector<const EventSource*> event_sources()
      const {
    return {};
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace dtm
