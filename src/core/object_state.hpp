// Mobile-object position tracking (paper §II / §III-B).
//
// An object is either resting at a node or in transit toward one. In-transit
// motion is abstracted as a *leg* (from, to, depart, arrive): the physical
// point at time t is "depart + (t - depart) of the way along a shortest
// from→to path". The paper's virtual node v_t(o) for an in-transit object is
// realized by dist_to(): the distance from the current point to any node x
// is upper-bounded by min(backtrack via `from`, continue via `to`), and both
// routes are realizable in G, so schedules built against this bound stay
// feasible even when the object is redirected mid-flight.
#pragma once

#include "core/types.hpp"
#include "net/graph.hpp"

namespace dtm {

class ObjectState {
 public:
  ObjectState() = default;

  /// Object `id` created at `origin` at time `created`.
  ObjectState(ObjId id, NodeId origin, Time created)
      : id_(id), at_(origin), rest_since_(created) {}

  [[nodiscard]] ObjId id() const { return id_; }
  [[nodiscard]] bool in_transit() const { return in_transit_; }

  /// Resting node; only valid when !in_transit().
  [[nodiscard]] NodeId at() const {
    DTM_REQUIRE(!in_transit_, "object " << id_ << " is in transit");
    return at_;
  }

  /// Destination and arrival time of the current leg.
  [[nodiscard]] NodeId dest() const {
    DTM_REQUIRE(in_transit_, "object " << id_ << " is at rest");
    return to_;
  }
  [[nodiscard]] Time arrive_time() const {
    DTM_REQUIRE(in_transit_, "object " << id_ << " is at rest");
    return arrive_;
  }
  /// Origin and departure time of the current leg (the forwarding-pointer
  /// record the §V tracking protocol keeps at the node the object left).
  [[nodiscard]] NodeId leg_from() const {
    DTM_REQUIRE(in_transit_, "object " << id_ << " is at rest");
    return from_;
  }
  [[nodiscard]] Time depart_time() const {
    DTM_REQUIRE(in_transit_, "object " << id_ << " is at rest");
    return depart_;
  }

  /// The latest transaction L_t(o) that acquired (or created) the object;
  /// kNoTxn until first acquired.
  [[nodiscard]] TxnId last_txn() const { return last_txn_; }
  void set_last_txn(TxnId t) { last_txn_ = t; }

  /// Upper bound on the number of time steps needed for the object to reach
  /// node x starting from its position at `now`, given that object motion
  /// costs latency_factor steps per unit distance. Tight when resting; the
  /// two-route (backtrack vs. continue) bound when in transit.
  [[nodiscard]] Time time_to(NodeId x, Time now, const DistanceOracle& oracle,
                             std::int64_t latency_factor = 1) const;

  /// Starts (or redirects) motion toward `target` at time `now`. Travel
  /// takes latency_factor * distance steps (the distributed algorithm runs
  /// objects at half speed, paper §V). Arrival must be applied by calling
  /// step_arrivals() as simulated time passes. No-op if already heading to
  /// `target`; instant if resting at `target`.
  void route_to(NodeId target, Time now, const DistanceOracle& oracle,
                std::int64_t latency_factor = 1);

  /// Settles the object at its destination if `now` >= arrival time.
  void settle(Time now);

  /// Pushes the current leg's arrival `extra` steps later (fault-injection
  /// transfer stalls). The stretched leg only slows the object down, so
  /// time_to()'s two-route bound stays a valid upper bound: in the elapsed
  /// steps the object has covered *at most* the unstalled distance, hence
  /// both the backtrack and the continue route remain realizable.
  void delay_arrival(Time extra);

  /// Field-wise equality, the last leg's fields included (they stay
  /// behind after the object settles).
  friend bool operator==(const ObjectState&, const ObjectState&) = default;

 private:
  ObjId id_ = kNoObj;
  // Resting state.
  NodeId at_ = kNoNode;
  Time rest_since_ = 0;
  // Transit leg.
  bool in_transit_ = false;
  NodeId from_ = kNoNode;
  NodeId to_ = kNoNode;
  Time depart_ = kNoTime;  ///< time the object passes `from_`
  Time arrive_ = kNoTime;  ///< time it reaches `to_`

  TxnId last_txn_ = kNoTxn;
};

}  // namespace dtm
