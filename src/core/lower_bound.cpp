#include "core/lower_bound.hpp"

#include <algorithm>

#include "util/id_table.hpp"

namespace dtm {

LowerBoundBreakdown makespan_lower_bound(
    const std::vector<Transaction>& txns,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor) {
  // Group the uses by object in one counting pass: each use's origin row,
  // per-row counts, then the user nodes in use order per row.
  const IdTable rows(origins, [](const ObjectOrigin& o) { return o.id; });
  std::vector<std::int32_t> use_row;
  std::vector<std::size_t> start(origins.size() + 1, 0);
  for (const auto& t : txns)
    for (const auto& a : t.accesses) {
      const std::int32_t r = rows.find(a.obj);
      DTM_CHECK(r >= 0, "object " << a.obj << " has no origin");
      use_row.push_back(r);
      ++start[static_cast<std::size_t>(r) + 1];
    }
  for (std::size_t r = 0; r < origins.size(); ++r) start[r + 1] += start[r];
  std::vector<NodeId> nodes(use_row.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    std::size_t u = 0;
    for (const auto& t : txns)
      for (std::size_t k = 0; k < t.accesses.size(); ++k)
        nodes[fill[static_cast<std::size_t>(use_row[u++])]++] = t.node;
  }

  const Weight diameter = oracle.diameter();
  LowerBoundBreakdown lb;
  for (std::size_t r = 0; r < origins.size(); ++r) {
    const std::size_t m = start[r + 1] - start[r];
    if (m == 0) continue;
    const NodeId* users = nodes.data() + start[r];
    const NodeId origin = origins[r].node;
    const Time created = origins[r].created;

    Time nearest = kInfWeight;
    for (std::size_t i = 0; i < m; ++i) {
      const Time travel =
          created + latency_factor * oracle.dist(origin, users[i]);
      nearest = std::min(nearest, travel);
      lb.reach = std::max(lb.reach, travel);
    }
    lb.lmax = std::max(lb.lmax, static_cast<Time>(m));
    lb.load = std::max(lb.load, nearest + static_cast<Time>(m - 1));

    // Pairwise spread: O(m^2) oracle lookups; sampled cap keeps giant
    // hotspot objects cheap while staying a valid (smaller) certificate.
    // No pair can beat created + latency·diameter (diameter() bounds every
    // dist()), so the scan stops once the spread reaches it.
    const Time ceiling = created + latency_factor * diameter;
    const std::size_t cap = 512;
    const std::size_t step = m > cap ? m / cap + 1 : 1;
    for (std::size_t i = 0; i < m && lb.spread < ceiling; i += step)
      for (std::size_t j = i + step; j < m; j += step) {
        const Time s =
            created + latency_factor * oracle.dist(users[i], users[j]);
        if (s > lb.spread) {
          lb.spread = s;
          if (s >= ceiling) break;
        }
      }
  }
  return lb;
}

Time single_txn_lower_bound(NodeId txn_node, std::span<const AvailPoint> objs,
                            const DistanceOracle& oracle,
                            std::int64_t latency_factor) {
  // The transaction executes no earlier than the latest of its objects'
  // earliest possible arrivals. If another transaction uses the object
  // first, triangle inequality keeps the bound valid: routing via that
  // user's node is never shorter than the direct trip, and a commit en
  // route only adds (+1 when from_txn).
  Time lb = 0;
  for (const AvailPoint& a : objs) {
    Time arrive = a.ready_rel + latency_factor * oracle.dist(a.node, txn_node);
    if (a.from_txn) arrive = std::max(arrive, a.ready_rel + 1);
    lb = std::max(lb, arrive);
  }
  return lb;
}

}  // namespace dtm
