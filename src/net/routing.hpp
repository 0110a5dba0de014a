// Explicit shortest-path routing: per-destination next-hop tables, computed
// lazily, plus cluster-level landmark routing for graphs too large for
// exact all-pairs state.
//
// The baseline model (paper §II) abstracts object motion as "arrives after
// dist(u,v) steps". The congestion extension (paper §VI names bounded link
// capacity as an open question) needs objects to physically occupy edges,
// which requires hop-by-hop paths. A destination's table (one Dijkstra,
// O(n) memory) is built on first use and memoized in an LRU-bounded cache,
// so large topologies no longer pay the O(n^2) all-destinations cost up
// front — replays that only ever route toward a few hot destinations stay
// O(hot * n). Tie-breaks are deterministic (smaller parent id wins), so a
// lazily built table answers exactly like an eagerly built one.
//
// LandmarkRouter scales past even the lazy table: L landmark nodes (greedy
// farthest-point, deterministic) each carry one SSSP tree (dist + next-hop
// toward the landmark, O(L * n) memory total); every node is assigned to
// its nearest landmark's cluster. Same-cluster queries use exact global
// shortest paths through a shared LRU RoutingTable (cluster-local
// destinations are few and hot, so the cache stays small); cross-cluster
// queries answer d'(u,v) = min_l dist(u,l) + dist(l,v) with the realized
// route u -> l* -> v stitched from the two SSSP trees (backtracking
// trimmed, so the walk only gets shorter than the reported distance). This
// is the fog-cloud hierarchical shape of Adhikari/Busch/Poudel (PAPERS.md):
// exact within a cluster, via-landmark between clusters, stretch bounded in
// practice by the cluster radii.
//
// LandmarkOracle adapts the router to the engine's DistanceOracle seam
// behind the topology-spec knob `routing=exact|landmark`
// (sim/registry.cpp). landmark mode builds no exact oracle at all, which is
// what lets 50k+-node random graphs run without the O(n^2) APSP wall. The
// stretch cross-check against the exact oracle is test-side
// (tests/oracle/stretch_oracle.hpp).
//
// RoutingTable is not thread-safe: queries mutate its cache, so give each
// thread its own table. LandmarkRouter is: concurrent activation trials
// of the bucket schedulers call dist() from pool workers, so the shared
// intra-cluster table sits behind a mutex and the query counters are
// relaxed atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"

namespace dtm {

class RoutingTable {
 public:
  /// `max_cached_destinations` bounds the memo: at most that many
  /// per-destination tables are resident; least-recently-queried tables are
  /// evicted (and transparently recomputed on the next query).
  explicit RoutingTable(const Graph& g,
                        std::size_t max_cached_destinations = 512);

  /// First hop on a shortest path from `u` toward `dest` (u itself when
  /// u == dest). Deterministic: ties broken toward the smaller node id.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest) const;

  /// Full node sequence u -> ... -> dest (inclusive).
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId dest) const;

  /// Shortest-path distance (same metric the hops realize).
  [[nodiscard]] Weight dist(NodeId u, NodeId dest) const;

  [[nodiscard]] NodeId num_nodes() const { return n_; }

  /// Weight of edge {u, v}; u and v must be adjacent. Binary search over
  /// sorted adjacency: O(log deg(u)).
  [[nodiscard]] Weight edge_weight(NodeId u, NodeId v) const;

  // ---- Cache introspection (tests, benchmarks, serve metrics) ----

  struct CacheStats {
    std::int64_t hits = 0;       ///< queries served by a resident table
    std::int64_t misses = 0;     ///< queries that ran a Dijkstra
    std::int64_t evictions = 0;  ///< tables dropped to respect the bound
  };
  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }
  [[nodiscard]] std::size_t cached_destinations() const {
    return cache_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Bytes held by resident per-destination tables.
  [[nodiscard]] std::size_t memory_bytes() const {
    return cache_.size() * static_cast<std::size_t>(n_) *
           (sizeof(NodeId) + sizeof(Weight));
  }

 private:
  struct DestTable {
    std::vector<NodeId> next;  ///< next[u] = hop from u toward the dest
    std::vector<Weight> dist;  ///< dist[u] = shortest distance to the dest
    std::list<NodeId>::iterator lru_pos;
  };

  /// Returns the (possibly freshly computed) table for `dest`, promoting it
  /// to most-recently-used and evicting the LRU entry past capacity.
  const DestTable& ensure(NodeId dest) const;

  NodeId n_;
  const Graph* graph_;
  /// Per-node adjacency sorted by neighbor id, for edge_weight lookups.
  std::vector<std::vector<HalfEdge>> sorted_adj_;

  std::size_t capacity_;
  mutable std::unordered_map<NodeId, DestTable> cache_;
  mutable std::list<NodeId> lru_;  ///< front = most recently used
  mutable CacheStats stats_;
};

// ---------------------------------------------------------------------------
// Landmark / hierarchical routing

/// Topology-spec routing knob (`routing=` on every topology kind).
enum class RoutingMode : std::uint8_t {
  kExact,     ///< the builder's native oracle (closed-form or APSP)
  kLandmark,  ///< LandmarkOracle only — no exact oracle is built at all
};

[[nodiscard]] RoutingMode parse_routing_mode(const std::string& v);
[[nodiscard]] std::string to_string(RoutingMode m);

struct LandmarkOptions {
  /// Landmark count; 0 = ceil(sqrt(n)) clamped to [1, 64].
  std::int32_t num_landmarks = 0;
  /// LRU bound for the shared intra-cluster exact RoutingTable.
  std::size_t intra_cache = 64;
};

class LandmarkRouter {
 public:
  /// `g` must outlive the router. Requires a connected graph. Build cost:
  /// L Dijkstras (landmark selection is greedy farthest-point from node 0,
  /// deterministic ties toward smaller ids).
  explicit LandmarkRouter(const Graph& g, LandmarkOptions opts = {});

  /// Exact distance for same-cluster pairs; the via-landmark upper bound
  /// min_l dist(u,l) + dist(l,v) otherwise. Always >= the true distance.
  /// Safe to call concurrently.
  [[nodiscard]] Weight dist(NodeId u, NodeId v) const;

  /// A valid walk u -> ... -> v realizing at most dist(u, v): exact
  /// shortest path within a cluster, the (trimmed) stitched tree walk
  /// through the best landmark across clusters.
  [[nodiscard]] std::vector<NodeId> path(NodeId u, NodeId v) const;

  /// First hop of path(u, v) (u itself when u == v).
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v) const;

  /// Sum of edge weights along `p`, asserting every consecutive pair is
  /// adjacent — the walk-validity check of the stretch cross-check.
  [[nodiscard]] Weight path_weight(const std::vector<NodeId>& p) const;

  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] std::int32_t num_landmarks() const {
    return static_cast<std::int32_t>(landmarks_.size());
  }
  [[nodiscard]] NodeId landmark(std::int32_t i) const {
    return landmarks_[static_cast<std::size_t>(i)];
  }
  /// Index (into landmarks) of v's home landmark.
  [[nodiscard]] std::int32_t home(NodeId v) const {
    return home_[static_cast<std::size_t>(v)];
  }
  /// max over v of dist(v, home landmark) — the stretch driver.
  [[nodiscard]] Weight radius() const { return radius_; }
  /// Upper bound on the d' metric's diameter: min_l 2 * ecc(l). Valid for
  /// every value this router returns (and >= the true graph diameter).
  [[nodiscard]] Weight diameter_bound() const { return diameter_bound_; }

  struct Stats {
    std::int64_t intra_queries = 0;  ///< same-cluster (exact) answers
    std::int64_t inter_queries = 0;  ///< via-landmark answers
  };
  /// A snapshot of the query counters.
  [[nodiscard]] Stats stats() const {
    return {intra_queries_.load(std::memory_order_relaxed),
            inter_queries_.load(std::memory_order_relaxed)};
  }
  [[nodiscard]] RoutingTable::CacheStats intra_cache_stats() const {
    const std::lock_guard<std::mutex> lock(intra_mu_);
    return intra_.cache_stats();
  }
  /// Bytes held by the landmark tables plus the resident intra tables.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// Row pointers into the L x n landmark tables.
  [[nodiscard]] const Weight* ldist(std::int32_t l) const {
    return ldist_.data() + static_cast<std::size_t>(l) *
                               static_cast<std::size_t>(n_);
  }
  [[nodiscard]] const NodeId* lhop(std::int32_t l) const {
    return lhop_.data() + static_cast<std::size_t>(l) *
                              static_cast<std::size_t>(n_);
  }
  /// argmin_l dist(u,l) + dist(l,v), ties toward the smaller index.
  [[nodiscard]] std::int32_t best_landmark(NodeId u, NodeId v) const;
  /// Tree walk u -> ... -> landmark(l) along l's SSSP next-hops.
  [[nodiscard]] std::vector<NodeId> walk_to_landmark(NodeId u,
                                                     std::int32_t l) const;
  /// Counts one same-cluster query and returns f(intra_) under the lock.
  template <typename F>
  auto intra_query(F&& f) const {
    intra_queries_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(intra_mu_);
    return f(intra_);
  }

  NodeId n_;
  std::vector<NodeId> landmarks_;
  std::vector<Weight> ldist_;       ///< row-major L x n
  std::vector<NodeId> lhop_;        ///< row-major L x n
  std::vector<std::int32_t> home_;  ///< n: landmark index
  Weight radius_ = 0;
  Weight diameter_bound_ = 0;
  RoutingTable intra_;
  mutable std::mutex intra_mu_;  ///< guards intra_'s LRU cache
  mutable std::atomic<std::int64_t> intra_queries_{0};
  mutable std::atomic<std::int64_t> inter_queries_{0};
};

/// DistanceOracle adapter over a LandmarkRouter. Owns a copy of the graph
/// (Network moves around by value; the oracle must not dangle into it).
class LandmarkOracle final : public DistanceOracle {
 public:
  LandmarkOracle(std::shared_ptr<const Graph> graph, LandmarkOptions opts);

  [[nodiscard]] Weight dist(NodeId u, NodeId v) const override {
    return router_.dist(u, v);
  }
  /// An upper bound valid for every dist() this oracle returns (consumers
  /// use diameter as a scale: greedy-uniform's beta, dist-bucket timeouts).
  [[nodiscard]] Weight diameter() const override { return diameter_; }
  [[nodiscard]] NodeId num_nodes() const override {
    return router_.num_nodes();
  }

  [[nodiscard]] const LandmarkRouter& router() const { return router_; }

 private:
  std::shared_ptr<const Graph> graph_;
  LandmarkRouter router_;
  Weight diameter_;
};

}  // namespace dtm
