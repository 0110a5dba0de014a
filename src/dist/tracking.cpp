#include "dist/tracking.hpp"

#include <algorithm>

namespace dtm {

std::int32_t ObjectTrailDirectory::find(ObjId id) const {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const std::pair<ObjId, std::int32_t>& a, ObjId b) {
        return a.first < b;
      });
  return it != index_.end() && it->first == id ? it->second : -1;
}

const ObjectTrailDirectory::Trail& ObjectTrailDirectory::trail(
    ObjId id) const {
  const std::int32_t slot = find(id);
  DTM_REQUIRE(slot >= 0, "unknown object " << id);
  return trails_[static_cast<std::size_t>(slot)];
}

ObjectTrailDirectory::Trail& ObjectTrailDirectory::add(ObjId id,
                                                       NodeId birth) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const std::pair<ObjId, std::int32_t>& a, ObjId b) {
        return a.first < b;
      });
  DTM_CHECK(it == index_.end() || it->first != id,
            "object " << id << " registered twice");
  index_.insert(it, {id, static_cast<std::int32_t>(trails_.size())});
  Trail& t = trails_.emplace_back();
  t.birth = birth;
  t.terminus = birth;
  return t;
}

void ObjectTrailDirectory::register_object(ObjId id, NodeId birth) {
  (void)add(id, birth);
}

bool ObjectTrailDirectory::track(const ObjectState& obj) {
  if (contains(obj.id())) return false;
  Trail& t = add(obj.id(), obj.in_transit() ? obj.dest() : obj.at());
  t.state = &obj;
  t.observe(obj);
  ++reads_;
  return true;
}

void ObjectTrailDirectory::announce(ObjId id, Time step) {
  const std::int32_t slot = find(id);
  DTM_REQUIRE(slot >= 0 && trails_[static_cast<std::size_t>(slot)].state,
              "announce of untracked object " << id);
  announced_.emplace(step, slot);
}

NodeId ObjectTrailDirectory::birth_node(ObjId id) const {
  return trail(id).birth;
}

void ObjectTrailDirectory::observe(const ObjectState& obj, Time /*now*/) {
  const std::int32_t slot = find(obj.id());
  DTM_REQUIRE(slot >= 0, "unknown object " << obj.id());
  trails_[static_cast<std::size_t>(slot)].observe(obj);
}

void ObjectTrailDirectory::observe_announced(Time now) {
  while (!announced_.empty() && announced_.top().first <= now) {
    Trail& t = trails_[static_cast<std::size_t>(announced_.top().second)];
    announced_.pop();
    t.observe(*t.state);
    ++reads_;
  }
}

void ObjectTrailDirectory::Trail::observe(const ObjectState& obj) {
  if (obj.in_transit()) {
    const NodeId from = obj.leg_from();
    const NodeId to = obj.dest();
    if (!was_in_transit || leg_from != from || leg_to != to ||
        leg_depart != obj.depart_time()) {
      // New leg: the departure node keeps a forwarding pointer stamped with
      // the true departure time (a probe arriving earlier sees the object
      // as still present, which physically it is).
      const auto it = std::lower_bound(
          pointers.begin(), pointers.end(), from,
          [](const Pointer& p, NodeId n) { return p.node < n; });
      if (it != pointers.end() && it->node == from)
        *it = {from, to, obj.depart_time()};
      else
        pointers.insert(it, {from, to, obj.depart_time()});
      leg_from = from;
      leg_to = to;
      leg_depart = obj.depart_time();
      was_in_transit = true;
      terminus = to;
    }
  } else {
    was_in_transit = false;
    terminus = obj.at();
  }
}

ObjectTrailDirectory::TrailHop ObjectTrailDirectory::lookup(
    ObjId id, NodeId node, Time now, Time min_depart) const {
  const Trail& t = trail(id);
  const auto it = std::lower_bound(
      t.pointers.begin(), t.pointers.end(), node,
      [](const Pointer& p, NodeId n) { return p.node < n; });
  TrailHop hop;
  if (it != t.pointers.end() && it->node == node && it->time <= now &&
      (min_depart == kNoTime || it->time >= min_depart)) {
    hop.departed = true;
    hop.next = it->next;
    hop.depart_time = it->time;
  }
  return hop;
}

NodeId ObjectTrailDirectory::current_terminus(ObjId id) const {
  return trail(id).terminus;
}

}  // namespace dtm
