#include "net/routing.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace dtm {

RoutingTable::RoutingTable(const Graph& g, std::size_t max_cached_destinations)
    : n_(g.num_nodes()),
      graph_(&g),
      capacity_(std::max<std::size_t>(1, max_cached_destinations)) {
  // Fail fast on disconnected inputs (the lazy Dijkstra would only notice
  // when the unreachable destination is first queried).
  DTM_CHECK(g.connected(), "routing table requires a connected graph");
  sorted_adj_.reserve(static_cast<std::size_t>(n_));
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = g.neighbors(u);
    std::vector<HalfEdge> sorted(nbrs.begin(), nbrs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
    sorted_adj_.push_back(std::move(sorted));
  }
}

const RoutingTable::DestTable& RoutingTable::ensure(NodeId dest) const {
  const auto it = cache_.find(dest);
  if (it != cache_.end()) {
    ++stats_.hits;
    if (it->second.lru_pos != lru_.begin())
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second;
  }
  ++stats_.misses;
  if (cache_.size() >= capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }

  DestTable t;
  t.next.assign(static_cast<std::size_t>(n_), kNoNode);
  t.dist.assign(static_cast<std::size_t>(n_), kInfWeight);
  // One Dijkstra toward `dest`, recording each node's parent toward the
  // destination; the parent IS the next hop. Identical relaxation and
  // tie-break rules to the original eager build.
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  t.dist[static_cast<std::size_t>(dest)] = 0;
  t.next[static_cast<std::size_t>(dest)] = dest;
  pq.emplace(0, dest);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : sorted_adj_[static_cast<std::size_t>(u)]) {
      const Weight nd = d + e.weight;
      auto& cur = t.dist[static_cast<std::size_t>(e.to)];
      auto& hop = t.next[static_cast<std::size_t>(e.to)];
      if (nd < cur) {
        cur = nd;
        hop = u;  // from e.to, step to u to get closer to dest
        pq.emplace(nd, e.to);
      } else if (nd == cur && u < hop) {
        hop = u;  // deterministic tie-break; u is a valid parent (equal d)
      }
    }
  }

  lru_.push_front(dest);
  t.lru_pos = lru_.begin();
  return cache_.emplace(dest, std::move(t)).first->second;
}

NodeId RoutingTable::next_hop(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "next_hop(" << u << "," << dest << ")");
  return ensure(dest).next[static_cast<std::size_t>(u)];
}

std::vector<NodeId> RoutingTable::path(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "path(" << u << "," << dest << ")");
  const DestTable& t = ensure(dest);
  std::vector<NodeId> p{u};
  while (u != dest) {
    u = t.next[static_cast<std::size_t>(u)];
    p.push_back(u);
    DTM_CHECK(p.size() <= static_cast<std::size_t>(n_) + 1,
              "routing loop between " << p.front() << " and " << dest);
  }
  return p;
}

Weight RoutingTable::dist(NodeId u, NodeId dest) const {
  DTM_REQUIRE(u >= 0 && u < n_ && dest >= 0 && dest < n_,
              "dist(" << u << "," << dest << ")");
  return ensure(dest).dist[static_cast<std::size_t>(u)];
}

Weight RoutingTable::edge_weight(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "edge_weight(" << u << "," << v << ")");
  const auto& adj = sorted_adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(
      adj.begin(), adj.end(), v,
      [](const HalfEdge& e, NodeId target) { return e.to < target; });
  DTM_CHECK(it != adj.end() && it->to == v,
            "nodes " << u << " and " << v << " are not adjacent");
  return it->weight;
}

// ---------------------------------------------------------------------------
// Landmark / hierarchical routing

RoutingMode parse_routing_mode(const std::string& v) {
  if (v == "exact") return RoutingMode::kExact;
  if (v == "landmark") return RoutingMode::kLandmark;
  throw CheckError("spec: routing must be exact|landmark, got '" + v + "'");
}

std::string to_string(RoutingMode m) {
  return m == RoutingMode::kLandmark ? "landmark" : "exact";
}

namespace {

/// One Dijkstra from `src`, writing dist and next-hop-toward-src rows with
/// the same relaxation + smaller-parent tie-break as RoutingTable::ensure
/// (so landmark tree walks agree with exact tables wherever both apply).
void sssp_with_hops(const Graph& g, NodeId src, Weight* dist, NodeId* hop) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::fill(dist, dist + n, kInfWeight);
  std::fill(hop, hop + n, kNoNode);
  using Item = std::pair<Weight, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  hop[static_cast<std::size_t>(src)] = src;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& e : g.neighbors(u)) {
      const Weight nd = d + e.weight;
      auto& cur = dist[static_cast<std::size_t>(e.to)];
      auto& h = hop[static_cast<std::size_t>(e.to)];
      if (nd < cur) {
        cur = nd;
        h = u;
        pq.emplace(nd, e.to);
      } else if (nd == cur && u < h) {
        h = u;
      }
    }
  }
}

std::int32_t default_num_landmarks(NodeId n) {
  const auto l = static_cast<std::int32_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  return std::clamp(l, 1, 64);
}

}  // namespace

LandmarkRouter::LandmarkRouter(const Graph& g, LandmarkOptions opts)
    : n_(g.num_nodes()), intra_(g, opts.intra_cache) {
  // intra_'s constructor already checked connectivity.
  std::int32_t want = opts.num_landmarks > 0 ? opts.num_landmarks
                                             : default_num_landmarks(n_);
  want = std::min(want, static_cast<std::int32_t>(n_));
  const auto nn = static_cast<std::size_t>(n_);
  ldist_.resize(static_cast<std::size_t>(want) * nn);
  lhop_.resize(static_cast<std::size_t>(want) * nn);

  // Greedy farthest-point selection: node 0 seeds; each subsequent landmark
  // is the node maximizing distance to the chosen set (ties: smaller id).
  std::vector<Weight> mindist(nn, kInfWeight);
  for (std::int32_t i = 0; i < want; ++i) {
    NodeId next = 0;
    if (i > 0) {
      Weight best = -1;
      for (NodeId v = 0; v < n_; ++v) {
        const Weight d = mindist[static_cast<std::size_t>(v)];
        if (d > best) {
          best = d;
          next = v;
        }
      }
      if (best == 0) break;  // every node IS a landmark already
    }
    landmarks_.push_back(next);
    Weight* drow = ldist_.data() + static_cast<std::size_t>(i) * nn;
    NodeId* hrow = lhop_.data() + static_cast<std::size_t>(i) * nn;
    sssp_with_hops(g, next, drow, hrow);
    for (std::size_t v = 0; v < nn; ++v)
      mindist[v] = std::min(mindist[v], drow[v]);
  }
  const auto kL = static_cast<std::int32_t>(landmarks_.size());
  ldist_.resize(static_cast<std::size_t>(kL) * nn);
  lhop_.resize(static_cast<std::size_t>(kL) * nn);

  // Home-cluster assignment (nearest landmark, ties toward the smaller
  // landmark index) and the metric bounds.
  home_.assign(nn, 0);
  diameter_bound_ = kInfWeight;
  for (std::int32_t l = 0; l < kL; ++l) {
    const Weight* drow = ldist(l);
    Weight ecc = 0;
    for (std::size_t v = 0; v < nn; ++v) {
      ecc = std::max(ecc, drow[v]);
      if (drow[v] < ldist(home_[v])[v]) home_[v] = l;
    }
    diameter_bound_ = std::min(diameter_bound_, 2 * ecc);
  }
  for (std::size_t v = 0; v < nn; ++v)
    radius_ = std::max(radius_, ldist(home_[v])[v]);
}

Weight LandmarkRouter::dist(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "dist(" << u << "," << v << ")");
  if (u == v) return 0;
  if (home_[static_cast<std::size_t>(u)] ==
      home_[static_cast<std::size_t>(v)])
    return intra_query([&](const RoutingTable& t) { return t.dist(u, v); });
  inter_queries_.fetch_add(1, std::memory_order_relaxed);
  Weight best = kInfWeight;
  const auto kL = num_landmarks();
  for (std::int32_t l = 0; l < kL; ++l) {
    const Weight* drow = ldist(l);
    best = std::min(best, drow[static_cast<std::size_t>(u)] +
                              drow[static_cast<std::size_t>(v)]);
  }
  return best;
}

std::int32_t LandmarkRouter::best_landmark(NodeId u, NodeId v) const {
  std::int32_t bl = 0;
  Weight best = kInfWeight;
  const auto kL = num_landmarks();
  for (std::int32_t l = 0; l < kL; ++l) {
    const Weight* drow = ldist(l);
    const Weight d = drow[static_cast<std::size_t>(u)] +
                     drow[static_cast<std::size_t>(v)];
    if (d < best) {
      best = d;
      bl = l;
    }
  }
  return bl;
}

std::vector<NodeId> LandmarkRouter::walk_to_landmark(NodeId u,
                                                     std::int32_t l) const {
  const NodeId* hrow = lhop(l);
  const NodeId lm = landmarks_[static_cast<std::size_t>(l)];
  std::vector<NodeId> p{u};
  while (u != lm) {
    u = hrow[static_cast<std::size_t>(u)];
    p.push_back(u);
    DTM_CHECK(p.size() <= static_cast<std::size_t>(n_) + 1,
              "landmark tree loop between " << p.front() << " and " << lm);
  }
  return p;
}

std::vector<NodeId> LandmarkRouter::path(NodeId u, NodeId v) const {
  DTM_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_,
              "path(" << u << "," << v << ")");
  if (u == v) return {u};
  if (home_[static_cast<std::size_t>(u)] ==
      home_[static_cast<std::size_t>(v)])
    return intra_query([&](const RoutingTable& t) { return t.path(u, v); });
  inter_queries_.fetch_add(1, std::memory_order_relaxed);
  const std::int32_t l = best_landmark(u, v);
  std::vector<NodeId> p = walk_to_landmark(u, l);       // u ... landmark
  const std::vector<NodeId> back = walk_to_landmark(v, l);  // v ... landmark
  // Append landmark ... v, trimming immediate backtracking (a, x, a -> a):
  // each trim removes a there-and-back edge pair, so the walk only gets
  // shorter than the reported d(u,l) + d(l,v).
  for (auto it = back.rbegin() + 1; it != back.rend(); ++it) {
    if (p.size() >= 2 && p[p.size() - 2] == *it)
      p.pop_back();
    else
      p.push_back(*it);
  }
  return p;
}

NodeId LandmarkRouter::next_hop(NodeId u, NodeId v) const {
  if (u == v) return u;
  if (home_[static_cast<std::size_t>(u)] ==
      home_[static_cast<std::size_t>(v)])
    return intra_query(
        [&](const RoutingTable& t) { return t.next_hop(u, v); });
  return path(u, v)[1];
}

Weight LandmarkRouter::path_weight(const std::vector<NodeId>& p) const {
  DTM_REQUIRE(!p.empty(), "path_weight on empty path");
  Weight total = 0;
  for (std::size_t i = 1; i < p.size(); ++i)
    total += intra_.edge_weight(p[i - 1], p[i]);
  return total;
}

std::size_t LandmarkRouter::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(intra_mu_);
  return ldist_.size() * sizeof(Weight) + lhop_.size() * sizeof(NodeId) +
         home_.size() * sizeof(std::int32_t) +
         landmarks_.size() * sizeof(NodeId) + intra_.memory_bytes();
}

// ---------------------------------------------------------------------------
// LandmarkOracle

LandmarkOracle::LandmarkOracle(std::shared_ptr<const Graph> graph,
                               LandmarkOptions opts)
    : graph_(std::move(graph)),
      router_(*graph_, opts),
      diameter_(router_.diameter_bound()) {}

}  // namespace dtm
