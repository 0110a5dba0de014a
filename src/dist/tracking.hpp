// Object tracking via forwarding-pointer trails (paper §V: "We can track
// objects in transit by reaching the node that the object departs from").
//
// Every time an object leaves a node, that node keeps a forwarding pointer
// (where it went, when it left). A probe that knows the object's birth node
// chases the trail pointer by pointer; because objects travel at half the
// message speed, the chase terminates (the probe gains distance on every
// hop). The directory is a *distributed* data structure in the model; the
// simulation stores it centrally but every lookup is made by a probe that
// physically visits the node, so information only flows at network speed.
//
// Storage is flat: trails live in one dense vector (a sorted id index finds
// them for the per-message queries), and each trail's pointers are a small
// node-sorted vector. Objects registered through track() also hold a
// reference to the engine's live ObjectState, and the per-step mirror pass
// (observe_announced) reads an object only when the engine can have moved
// it since the last pass. A trail records the leg laid at a departure, the
// terminus and the leg's signature; only a reroute changes them. Settling
// leaves the terminus where the leg ends and a stall moves only the
// arrival, which no trail reads. The caller, which makes every assignment,
// announces each step after which the engine may reroute an object (the
// assignment's apply and its commit), and the first pass after it reads
// the object — so every trail is exactly what a pass over all objects at
// every step would leave, at a cost proportional to the objects moved.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "core/object_state.hpp"
#include "core/types.hpp"

namespace dtm {

class ObjectTrailDirectory {
 public:
  /// Registers the object's birth node (time 0). Requesters are assumed to
  /// know birth nodes (static global knowledge, as in the paper).
  void register_object(ObjId id, NodeId birth);

  /// Starts tracking the engine's live record `obj`: registers it with its
  /// current resting place (or inbound node) as the birth node, observes it
  /// once, and keeps the reference for observe_announced(). The record must
  /// outlive the directory (SystemView::object references do for the run).
  /// Returns false, and does nothing, if the object is already registered.
  bool track(const ObjectState& obj);

  /// Announces that the engine may reroute tracked object `id` before the
  /// pass of step `step`: the first observe_announced() at `step` or later
  /// reads it once. A reroute at step s (an assignment's apply, a commit)
  /// comes after that step's pass, so it is announced for s + 1.
  void announce(ObjId id, Time step);

  [[nodiscard]] bool contains(ObjId id) const { return find(id) >= 0; }

  [[nodiscard]] NodeId birth_node(ObjId id) const;

  /// Mirrors the engine's object state into the trail: call once per
  /// observed step per object; departures are recorded at the node the
  /// object left with the exact departure time read off the leg.
  void observe(const ObjectState& obj, Time now);

  /// observe() at step `now`, through its held reference, of every object
  /// announced for step `now` or earlier and not yet read — once per
  /// announcement — and of nothing else.
  void observe_announced(Time now);

  /// Reads through held references so far: one per track() and one per
  /// announcement a pass consumed.
  [[nodiscard]] std::int64_t num_reads() const { return reads_; }

  /// What a probe physically standing at `node` at time `now` learns about
  /// the object: either "departed toward X at time T" (follow the trail,
  /// only visible if T <= now) or "resting here / inbound here".
  /// `min_depart` filters to pointers laid at or after the previous hop's
  /// departure: trails are walked forward in time (an older pointer at a
  /// revisited node means the object has since come back — it is here).
  struct TrailHop {
    bool departed = false;
    NodeId next = kNoNode;   ///< where it went (valid if departed)
    Time depart_time = kNoTime;
  };
  [[nodiscard]] TrailHop lookup(ObjId id, NodeId node, Time now,
                                Time min_depart = kNoTime) const;

  /// The node at the end of the currently-known trail (where the object
  /// rests or will next arrive). Used by the holder to answer probes.
  [[nodiscard]] NodeId current_terminus(ObjId id) const;

 private:
  /// A forwarding pointer: the object left `node` toward `next` at `time`.
  struct Pointer {
    NodeId node = kNoNode;
    NodeId next = kNoNode;
    Time time = kNoTime;
  };

  struct Trail {
    NodeId birth = kNoNode;
    /// Per node, the most recent departure, sorted by node. A node can be
    /// revisited; the latest pointer wins, and a probe arriving before the
    /// recorded departure treats the object as still here — exactly the
    /// physical semantics.
    std::vector<Pointer> pointers;
    NodeId terminus = kNoNode;
    // Last observed leg, to detect changes. The departure time is part of
    // the signature: with event-driven observation an object can settle and
    // re-depart along the same (from, to) leg between two observations, and
    // only the timestamp distinguishes the new leg from the old one.
    bool was_in_transit = false;
    NodeId leg_from = kNoNode;
    NodeId leg_to = kNoNode;
    Time leg_depart = kNoTime;
    /// The engine record, when registered through track().
    const ObjectState* state = nullptr;

    void observe(const ObjectState& obj);
  };

  /// Dense slot of `id`, or -1.
  [[nodiscard]] std::int32_t find(ObjId id) const;
  /// The trail of `id`; hard error if the object is unknown.
  [[nodiscard]] const Trail& trail(ObjId id) const;
  Trail& add(ObjId id, NodeId birth);

  std::vector<Trail> trails_;
  /// (object id, slot) sorted by id.
  std::vector<std::pair<ObjId, std::int32_t>> index_;
  /// Announced (step, slot) reads, earliest step on top.
  std::priority_queue<std::pair<Time, std::int32_t>,
                      std::vector<std::pair<Time, std::int32_t>>,
                      std::greater<>>
      announced_;
  std::int64_t reads_ = 0;
};

}  // namespace dtm
