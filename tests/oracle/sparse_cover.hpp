// Reference sparse-cover construction, kept as the test oracle for
// net/sparse_cover.cpp: the same shuffles and ball carving, but each ball
// and each node's home-coverage check comes from its own bounded SSSP over
// the whole graph. The production build (one boundary-seeded search per
// sub-layer) must produce the identical cover.
#pragma once

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "net/sparse_cover.hpp"

namespace dtm::oracle {

struct ReferenceCover {
  std::vector<CoverLayer> layers;
  /// home[l][u] = (sublayer, cluster) of u's home at layer l.
  std::vector<std::vector<std::pair<std::int32_t, std::int32_t>>> home;
};

inline ReferenceCover build_sparse_cover(const Graph& g,
                                         const DistanceOracle& oracle,
                                         const SparseCoverOptions& opts = {}) {
  const auto ceil_log2 = [](std::int64_t x) {
    std::int32_t l = 0;
    for (std::int64_t p = 1; p < x; p <<= 1) ++l;
    return l;
  };
  const NodeId n = g.num_nodes();
  const Weight d = std::max<Weight>(oracle.diameter(), 1);
  const std::int32_t h1 = ceil_log2(d) + 1;
  std::int32_t max_random = opts.max_random_sublayers;
  if (max_random <= 0) max_random = 4 * ceil_log2(std::max<NodeId>(n, 2)) + 8;

  Rng rng(opts.seed);
  ReferenceCover out;
  out.layers.resize(static_cast<std::size_t>(h1));
  out.home.assign(static_cast<std::size_t>(h1),
                  std::vector<std::pair<std::int32_t, std::int32_t>>(
                      static_cast<std::size_t>(n), {-1, -1}));
  for (std::int32_t l = 0; l < h1; ++l) {
    auto& layer = out.layers[static_cast<std::size_t>(l)];
    auto& home = out.home[static_cast<std::size_t>(l)];
    const Weight r = Weight{1} << l;
    layer.radius = r;

    std::vector<bool> home_done(static_cast<std::size_t>(n), false);
    NodeId remaining = n;
    std::vector<NodeId> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::int32_t sublayer_count = 0;
    while (remaining > 0) {
      if (sublayer_count < max_random) {
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
        const auto ball = g.sssp_within(c, 2 * r);
        CoverCluster cl;
        cl.leader = c;
        for (NodeId u = 0; u < n; ++u) {
          if (ball[static_cast<std::size_t>(u)] < kInfWeight &&
              sub.cluster_of[static_cast<std::size_t>(u)] < 0) {
            sub.cluster_of[static_cast<std::size_t>(u)] =
                static_cast<std::int32_t>(sub.clusters.size());
            cl.nodes.push_back(u);
          }
        }
        sub.clusters.push_back(std::move(cl));
      }
      for (NodeId u = 0; u < n; ++u) {
        if (sub.cluster_of[static_cast<std::size_t>(u)] < 0) {
          sub.cluster_of[static_cast<std::size_t>(u)] =
              static_cast<std::int32_t>(sub.clusters.size());
          sub.clusters.push_back({u, {u}, 0});
        }
      }
      for (auto& cl : sub.clusters) {
        Weight to_leader = 0;
        for (const NodeId u : cl.nodes)
          to_leader = std::max(to_leader, oracle.dist(cl.leader, u));
        cl.weak_diameter = 2 * to_leader;
      }
      // The per-node check: u is covered if its (R-1)-neighborhood lies
      // inside u's cluster in this sub-layer.
      const auto si = static_cast<std::int32_t>(layer.sublayers.size());
      for (NodeId u = 0; u < n; ++u) {
        if (home_done[static_cast<std::size_t>(u)]) continue;
        const std::int32_t cu = sub.cluster_of[static_cast<std::size_t>(u)];
        const auto nb = g.sssp_within(u, r - 1);
        bool inside = true;
        for (NodeId v = 0; v < n && inside; ++v)
          if (nb[static_cast<std::size_t>(v)] < kInfWeight &&
              sub.cluster_of[static_cast<std::size_t>(v)] != cu)
            inside = false;
        if (inside) {
          home_done[static_cast<std::size_t>(u)] = true;
          home[static_cast<std::size_t>(u)] = {si, cu};
          --remaining;
        }
      }
      layer.sublayers.push_back(std::move(sub));
      ++sublayer_count;
    }
  }
  return out;
}

}  // namespace dtm::oracle
