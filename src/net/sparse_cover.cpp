#include "net/sparse_cover.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <utility>

namespace dtm {

namespace {

std::int32_t ceil_log2(std::int64_t x) {
  DTM_REQUIRE(x >= 1, "ceil_log2(" << x << ")");
  std::int32_t l = 0;
  std::int64_t p = 1;
  while (p < x) {
    p <<= 1;
    ++l;
  }
  return l;
}

}  // namespace

SparseCover::SparseCover(const Graph& g, const DistanceOracle& oracle,
                         const Options& opts) {
  const NodeId n = g.num_nodes();
  const Weight d = std::max<Weight>(oracle.diameter(), 1);
  const std::int32_t h1 = ceil_log2(d) + 1;
  std::int32_t max_random = opts.max_random_sublayers;
  if (max_random <= 0) max_random = 4 * ceil_log2(std::max<NodeId>(n, 2)) + 8;

  Rng rng(opts.seed);
  layers_.resize(static_cast<std::size_t>(h1));
  home_.assign(static_cast<std::size_t>(h1),
               std::vector<std::pair<std::int32_t, std::int32_t>>(
                   static_cast<std::size_t>(n), {-1, -1}));
  for (std::int32_t l = 0; l < h1; ++l) {
    layers_[static_cast<std::size_t>(l)].radius = Weight{1} << l;
    build_layer(g, oracle, l, rng, max_random);
  }
}

namespace {

/// Bounded multi-source Dijkstra whose buffers outlive one search: a search
/// touches, and a reset clears, only the nodes it reached.
class BoundedSearch {
 public:
  explicit BoundedSearch(NodeId n)
      : dist_(static_cast<std::size_t>(n), kInfWeight) {}

  /// Seeds `u` at distance `d` (the smaller seed wins).
  void seed(NodeId u, Weight d) {
    Weight& du = dist_[static_cast<std::size_t>(u)];
    if (du == kInfWeight) reached_.push_back(u);
    if (d < du) {
      du = d;
      heap_.emplace_back(d, u);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }

  /// Settles every node within `radius` of the seeds; returns the reached
  /// nodes (seeds included), unordered.
  const std::vector<NodeId>& run(const Graph& g, Weight radius) {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > dist_[static_cast<std::size_t>(u)]) continue;
      for (const auto& e : g.neighbors(u)) {
        const Weight nd = d + e.weight;
        if (nd > radius) continue;
        seed(e.to, nd);
      }
    }
    return reached_;
  }

  void reset() {
    for (const NodeId u : reached_)
      dist_[static_cast<std::size_t>(u)] = kInfWeight;
    reached_.clear();
  }

 private:
  std::vector<Weight> dist_;
  std::vector<NodeId> reached_;
  std::vector<std::pair<Weight, NodeId>> heap_;
};

}  // namespace

void SparseCover::build_layer(const Graph& g, const DistanceOracle& oracle,
                              std::int32_t l, Rng& rng,
                              std::int32_t max_random) {
  const NodeId n = g.num_nodes();
  auto& layer = layers_[static_cast<std::size_t>(l)];
  auto& home = home_[static_cast<std::size_t>(l)];
  const Weight r = layer.radius;

  std::vector<bool> home_done(static_cast<std::size_t>(n), false);
  NodeId remaining = n;

  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  BoundedSearch search(n);

  std::int32_t sublayer_count = 0;
  while (remaining > 0) {
    // Safety valve: random carving makes progress every sub-layer (the first
    // uncovered center always gets home-covered), so this loop terminates in
    // at most n sub-layers; max_random only controls when we stop shuffling
    // and switch to deterministic uncovered-first ordering.
    const bool randomized = sublayer_count < max_random;
    if (randomized) {
      rng.shuffle(order);
    } else {
      std::stable_partition(order.begin(), order.end(), [&](NodeId u) {
        return !home_done[static_cast<std::size_t>(u)];
      });
    }

    CoverSubLayer sub;
    sub.cluster_of.assign(static_cast<std::size_t>(n), -1);

    for (const NodeId c : order) {
      if (home_done[static_cast<std::size_t>(c)]) continue;
      if (sub.cluster_of[static_cast<std::size_t>(c)] >= 0) continue;
      // Carve the still-unassigned part of ball(c, 2R).
      search.seed(c, 0);
      CoverCluster cl;
      cl.leader = c;
      for (const NodeId u : search.run(g, 2 * r))
        if (sub.cluster_of[static_cast<std::size_t>(u)] < 0) {
          sub.cluster_of[static_cast<std::size_t>(u)] =
              static_cast<std::int32_t>(sub.clusters.size());
          cl.nodes.push_back(u);
        }
      search.reset();
      std::sort(cl.nodes.begin(), cl.nodes.end());
      sub.clusters.push_back(std::move(cl));
    }
    // Nodes untouched by any carve (all were home-covered or swallowed):
    // singleton clusters keep the sub-layer a partition of V.
    for (NodeId u = 0; u < n; ++u) {
      if (sub.cluster_of[static_cast<std::size_t>(u)] < 0) {
        sub.cluster_of[static_cast<std::size_t>(u)] =
            static_cast<std::int32_t>(sub.clusters.size());
        sub.clusters.push_back({u, {u}, 0});
      }
    }
    // Weak-diameter upper bound: members sit within 2R of the leader, so
    // pairwise distance is at most twice the max leader distance.
    for (auto& cl : sub.clusters) {
      Weight to_leader = 0;
      for (const NodeId u : cl.nodes)
        to_leader = std::max(to_leader, oracle.dist(cl.leader, u));
      cl.weak_diameter = 2 * to_leader;
      DTM_CHECK(cl.weak_diameter <= 4 * r,
                "cluster diameter bound violated at layer " << l);
    }
    // Home coverage: u's (R-1)-neighborhood lies inside its cluster exactly
    // when no node of another cluster lies within R-1 of u. One search,
    // seeded at every node with its lightest cross-cluster edge, reaches
    // within R-1 exactly those exposed nodes: if a foreign node x is within
    // R-1 of u, the shortest u-x path first leaves u's cluster at some node
    // b, whose seed reaches u in time; conversely a node reached from seed
    // b lies within R-1 of both b and b's foreign neighbour, and one of the
    // two is foreign to it.
    const auto& cluster_of = sub.cluster_of;
    for (NodeId u = 0; u < n; ++u) {
      Weight exit = kInfWeight;
      for (const auto& e : g.neighbors(u))
        if (cluster_of[static_cast<std::size_t>(e.to)] !=
            cluster_of[static_cast<std::size_t>(u)])
          exit = std::min(exit, e.weight);
      if (exit <= r - 1) search.seed(u, exit);
    }
    std::vector<bool> exposed(static_cast<std::size_t>(n), false);
    for (const NodeId u : search.run(g, r - 1))
      exposed[static_cast<std::size_t>(u)] = true;
    search.reset();
    const std::int32_t si = static_cast<std::int32_t>(layer.sublayers.size());
    for (NodeId u = 0; u < n; ++u) {
      if (home_done[static_cast<std::size_t>(u)] ||
          exposed[static_cast<std::size_t>(u)])
        continue;
      home_done[static_cast<std::size_t>(u)] = true;
      home[static_cast<std::size_t>(u)] = {
          si, cluster_of[static_cast<std::size_t>(u)]};
      --remaining;
    }
    layer.sublayers.push_back(std::move(sub));
    ++sublayer_count;
    DTM_CHECK(sublayer_count <= n + 1,
              "sparse cover failed to converge at layer " << l);
  }
}

const CoverCluster& SparseCover::cluster(const ClusterRef& ref) const {
  DTM_REQUIRE(ref.valid(), "invalid cluster ref");
  const auto& layer = layers_[static_cast<std::size_t>(ref.layer)];
  const auto& sub = layer.sublayers[static_cast<std::size_t>(ref.sublayer)];
  return sub.clusters[static_cast<std::size_t>(ref.cluster)];
}

ClusterRef SparseCover::home_cluster(NodeId u, std::int32_t l) const {
  DTM_REQUIRE(l >= 0 && l < num_layers(), "layer " << l);
  const auto& [si, ci] =
      home_[static_cast<std::size_t>(l)][static_cast<std::size_t>(u)];
  DTM_CHECK(si >= 0, "node " << u << " has no home cluster at layer " << l);
  return {l, si, ci};
}

std::int32_t SparseCover::lowest_layer_covering(Weight y) const {
  DTM_REQUIRE(y >= 0, "coverage radius " << y);
  const std::int32_t l = ceil_log2(y + 1);
  return std::min(l, num_layers() - 1);
}

std::int32_t SparseCover::max_sublayers() const {
  std::int32_t m = 0;
  for (const auto& l : layers_)
    m = std::max(m, static_cast<std::int32_t>(l.sublayers.size()));
  return m;
}

}  // namespace dtm
