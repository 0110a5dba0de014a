// Reference (map-based) makespan lower bound, kept as the test oracle for
// the production version in core/lower_bound.cpp: that one groups uses by
// object without maps and stops a spread scan once no pair can raise it,
// and must return exactly what this one returns.
#pragma once

#include <algorithm>
#include <map>
#include <vector>

#include "core/lower_bound.hpp"

namespace dtm::oracle {

inline LowerBoundBreakdown makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor = 1) {
  std::map<ObjId, ObjectOrigin> origin_of;
  for (const auto& o : origins) origin_of[o.id] = o;

  std::map<ObjId, std::vector<NodeId>> users;
  for (const auto& t : txns)
    for (const auto& a : t.accesses) users[a.obj].push_back(t.node);

  LowerBoundBreakdown lb;
  for (const auto& [obj, nodes] : users) {
    const auto it = origin_of.find(obj);
    DTM_CHECK(it != origin_of.end(), "object " << obj << " has no origin");
    const NodeId origin = it->second.node;
    const Time created = it->second.created;

    Time nearest = kInfWeight;
    for (const NodeId u : nodes) {
      const Time travel =
          created + latency_factor * oracle.dist(origin, u);
      nearest = std::min(nearest, travel);
      lb.reach = std::max(lb.reach, travel);
    }
    const auto m = static_cast<Time>(nodes.size());
    lb.lmax = std::max(lb.lmax, m);
    lb.load = std::max(lb.load, nearest + (m - 1));

    const std::size_t cap = 512;
    const std::size_t step = nodes.size() > cap ? nodes.size() / cap + 1 : 1;
    for (std::size_t i = 0; i < nodes.size(); i += step)
      for (std::size_t j = i + step; j < nodes.size(); j += step)
        lb.spread = std::max(
            lb.spread, created + latency_factor * oracle.dist(nodes[i],
                                                              nodes[j]));
  }
  return lb;
}

}  // namespace dtm::oracle
