// Equivalence of the step-path kernels with their references: guide-table
// Zipf draws vs a whole-CDF lower_bound, the map-free makespan lower bound
// vs the map-based original (tests/oracle/lower_bound.hpp), and the
// boundary-seeded sparse-cover build vs the per-node reference
// (tests/oracle/sparse_cover.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/lower_bound.hpp"
#include "net/routing.hpp"
#include "net/sparse_cover.hpp"
#include "net/topology.hpp"
#include "oracle/lower_bound.hpp"
#include "oracle/sparse_cover.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

// ---- ZipfSampler ----

std::int32_t whole_cdf_rank(const ZipfSampler& z, double u) {
  const auto& cdf = z.cdf();
  const auto idx = static_cast<std::int32_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(idx, z.size() - 1);
}

TEST(ZipfGuide, DrawsEqualWholeCdfLowerBound) {
  for (const std::int32_t n : {1, 2, 7, 4096})
    for (const double s : {0.0, 0.9, 1.5}) {
      const ZipfSampler z(n, s);
      ASSERT_GE(z.slices(), static_cast<std::size_t>(n));
      std::int64_t mismatches = 0;
      const auto check = [&](double u) {
        if (u < 0.0 || u >= 1.0) return;
        if (z.rank_of(u) != whole_cdf_rank(z, u)) ++mismatches;
      };
      // Every slice threshold k/K and its neighbours, the CDF steps and
      // theirs, and the ends of [0, 1).
      const auto k_max = static_cast<double>(z.slices());
      for (std::size_t k = 0; k <= z.slices(); ++k) {
        const double t = static_cast<double>(k) / k_max;
        check(t);
        check(std::nextafter(t, 0.0));
        check(std::nextafter(t, 1.0));
      }
      for (const double c : z.cdf()) {
        check(c);
        check(std::nextafter(c, 0.0));
        check(std::nextafter(c, 1.0));
      }
      check(0.0);
      check(std::nextafter(1.0, 0.0));
      Rng rng(static_cast<std::uint64_t>(n) * 31 +
              static_cast<std::uint64_t>(s * 10));
      for (int i = 0; i < 1'000'000; ++i) check(rng.uniform01());
      EXPECT_EQ(mismatches, 0) << "n=" << n << " s=" << s;

      // draw() consumes exactly one uniform per call, as before.
      Rng a(99), b(99);
      for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(z.draw(a), whole_cdf_rank(z, b.uniform01()));
    }
}

TEST(ZipfGuide, RejectsValuesOutsideTheUnitInterval) {
  const ZipfSampler z(16, 1.0);
  EXPECT_THROW((void)z.rank_of(1.0), CheckError);
  EXPECT_THROW((void)z.rank_of(-0.25), CheckError);
}

// ---- makespan_lower_bound ----

void expect_same_bound(const std::vector<Transaction>& txns,
                       const std::vector<ObjectOrigin>& origins,
                       const DistanceOracle& oracle, std::int64_t lf,
                       const std::string& what) {
  const LowerBoundBreakdown want =
      oracle::makespan_lower_bound(txns, origins, oracle, lf);
  const LowerBoundBreakdown got =
      makespan_lower_bound(txns, origins, oracle, lf);
  EXPECT_EQ(got.load, want.load) << what;
  EXPECT_EQ(got.reach, want.reach) << what;
  EXPECT_EQ(got.spread, want.spread) << what;
  EXPECT_EQ(got.lmax, want.lmax) << what;
}

/// A random instance: `objects` ids (dense from `base`, or spread over a
/// range 1000x wider), some repeated with a different origin row, and
/// transactions over them; `hot` > 0 adds that many users of one object so
/// the spread scan samples.
void random_instance(Rng& rng, NodeId nodes, std::int32_t objects,
                     bool sparse_ids, ObjId base, std::int32_t hot,
                     std::vector<ObjectOrigin>& origins,
                     std::vector<Transaction>& txns) {
  origins.clear();
  txns.clear();
  std::vector<ObjId> ids;
  for (std::int32_t i = 0; i < objects; ++i)
    ids.push_back(base + (sparse_ids ? i * 1000 + static_cast<ObjId>(
                                                      rng.uniform_int(0, 999))
                                     : i));
  for (const ObjId id : ids)
    origins.push_back({id, static_cast<NodeId>(rng.uniform_int(0, nodes - 1)),
                       rng.uniform_int(0, 20)});
  // Repeated ids: a later row for the same object must win.
  for (int r = 0; r < 3; ++r)
    origins.push_back(
        {ids[static_cast<std::size_t>(rng.uniform_int(0, objects - 1))],
         static_cast<NodeId>(rng.uniform_int(0, nodes - 1)),
         rng.uniform_int(0, 20)});
  rng.shuffle(origins);
  const auto num_txns = rng.uniform_int(1, 300);
  for (TxnId t = 0; t < num_txns; ++t) {
    Transaction x;
    x.id = t;
    x.node = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    x.gen_time = 0;
    const auto k = static_cast<std::int32_t>(
        rng.uniform_int(1, std::min<std::int32_t>(objects, 3)));
    for (const auto i : rng.sample_distinct(objects, k))
      x.accesses.push_back({ids[static_cast<std::size_t>(i)],
                            AccessMode::kWrite});
    txns.push_back(std::move(x));
  }
  for (std::int32_t h = 0; h < hot; ++h) {
    Transaction x;
    x.id = num_txns + h;
    x.node = static_cast<NodeId>(rng.uniform_int(0, nodes - 1));
    x.gen_time = 0;
    x.accesses.push_back({ids[0], AccessMode::kWrite});
    txns.push_back(std::move(x));
  }
  rng.shuffle(txns);
}

TEST(LowerBoundKernel, MatchesMapOracleOnRandomInstances) {
  Rng topo_rng(5);
  std::vector<Network> nets;
  nets.push_back(make_line(40));
  nets.push_back(make_clique(16));
  nets.push_back(make_grid({6, 6}));
  nets.push_back(make_cluster(3, 4, 6));
  nets.push_back(make_random_connected(48, 40, 4, topo_rng));
  // A landmark oracle: dist() is an upper bound on the graph distance and
  // diameter() bounds every value dist() returns.
  Network lm = make_random_connected(64, 48, 3, topo_rng);
  LandmarkOptions lo;
  lo.num_landmarks = 5;
  lm.oracle = std::make_shared<LandmarkOracle>(
      std::make_shared<Graph>(lm.graph), lo);
  nets.push_back(std::move(lm));

  Rng rng(2026);
  std::vector<ObjectOrigin> origins;
  std::vector<Transaction> txns;
  int instances = 0;
  for (int round = 0; round < 60; ++round)
    for (const Network& net : nets) {
      const bool sparse = round % 3 == 1;
      const ObjId base = round % 4 == 2 ? -5000 : 0;
      // Every fourth round has one object with more than 512 users (the
      // sampled spread scan).
      const std::int32_t hot =
          round % 4 == 0 ? static_cast<std::int32_t>(rng.uniform_int(513, 1400))
                         : 0;
      random_instance(rng, net.num_nodes(),
                      static_cast<std::int32_t>(rng.uniform_int(1, 40)), sparse,
                      base, hot, origins, txns);
      const std::int64_t lf = round % 2 == 0 ? 1 : 2;
      expect_same_bound(txns, origins, *net.oracle, lf,
                        net.name + " round " + std::to_string(round));
      ++instances;
    }
  EXPECT_EQ(instances, 360);
}

TEST(LowerBoundKernel, ObjectWithoutOriginStaysAHardError) {
  const Network net = make_line(8);
  Transaction t;
  t.id = 1;
  t.node = 3;
  t.gen_time = 0;
  t.accesses = write_set({0, 9});
  const std::vector<ObjectOrigin> dense{{0, 1, 0}, {1, 2, 0}};
  EXPECT_THROW((void)makespan_lower_bound({t}, dense, *net.oracle),
               CheckError);
  EXPECT_THROW((void)oracle::makespan_lower_bound({t}, dense, *net.oracle),
               CheckError);
  const std::vector<ObjectOrigin> sparse{{0, 1, 0}, {100000, 2, 0}};
  EXPECT_THROW((void)makespan_lower_bound({t}, sparse, *net.oracle),
               CheckError);
  EXPECT_THROW((void)makespan_lower_bound({t}, {}, *net.oracle), CheckError);
  // Objects nobody uses need no users; no transactions, no bound.
  const auto lb = makespan_lower_bound({}, dense, *net.oracle);
  EXPECT_EQ(lb.best(), 1);
}

// ---- SparseCover ----

void expect_same_cover(const Network& net, std::uint64_t seed) {
  SparseCoverOptions opts;
  opts.seed = seed;
  const SparseCover cover(net.graph, *net.oracle, opts);
  const oracle::ReferenceCover ref =
      oracle::build_sparse_cover(net.graph, *net.oracle, opts);
  const std::string what = net.name + " seed " + std::to_string(seed);
  ASSERT_EQ(cover.num_layers(), static_cast<std::int32_t>(ref.layers.size()))
      << what;
  for (std::int32_t l = 0; l < cover.num_layers(); ++l) {
    const CoverLayer& got = cover.layer(l);
    const CoverLayer& want = ref.layers[static_cast<std::size_t>(l)];
    EXPECT_EQ(got.radius, want.radius) << what;
    ASSERT_EQ(got.sublayers.size(), want.sublayers.size())
        << what << " layer " << l;
    for (std::size_t s = 0; s < got.sublayers.size(); ++s) {
      const CoverSubLayer& a = got.sublayers[s];
      const CoverSubLayer& b = want.sublayers[s];
      EXPECT_EQ(a.cluster_of, b.cluster_of) << what << " layer " << l;
      ASSERT_EQ(a.clusters.size(), b.clusters.size()) << what;
      for (std::size_t c = 0; c < a.clusters.size(); ++c) {
        EXPECT_EQ(a.clusters[c].leader, b.clusters[c].leader) << what;
        EXPECT_EQ(a.clusters[c].nodes, b.clusters[c].nodes) << what;
        EXPECT_EQ(a.clusters[c].weak_diameter, b.clusters[c].weak_diameter)
            << what;
      }
    }
    for (NodeId u = 0; u < net.num_nodes(); ++u) {
      const ClusterRef home = cover.home_cluster(u, l);
      const auto& [si, ci] =
          ref.home[static_cast<std::size_t>(l)][static_cast<std::size_t>(u)];
      EXPECT_EQ(home.sublayer, si) << what << " node " << u << " layer " << l;
      EXPECT_EQ(home.cluster, ci) << what << " node " << u << " layer " << l;
    }
  }
}

TEST(SparseCoverBuild, MatchesPerNodeReferenceCover) {
  Rng topo_rng(11);
  std::vector<Network> nets;
  nets.push_back(make_line(64));
  nets.push_back(make_ring(30));
  nets.push_back(make_clique(12));
  nets.push_back(make_grid({6, 6}));
  nets.push_back(make_torus({5, 5}));
  nets.push_back(make_hypercube(5));
  nets.push_back(make_butterfly(3));
  nets.push_back(make_star(4, 6));
  nets.push_back(make_cluster(3, 4, 8));
  nets.push_back(make_tree(3, 3));
  nets.push_back(make_random_connected(60, 50, 5, topo_rng));
  nets.push_back(make_random_connected(80, 20, 9, topo_rng));
  for (const Network& net : nets)
    for (const std::uint64_t seed : {1u, 7u, 12345u})
      expect_same_cover(net, seed);
}

TEST(SparseCoverBuild, DeterministicFallbackMatchesReference) {
  // max_random_sublayers = 1 forces the uncovered-first sweep after the
  // first shuffled sub-layer.
  SparseCoverOptions opts;
  opts.seed = 3;
  opts.max_random_sublayers = 1;
  for (const Network& net : {make_line(48), make_grid({5, 7})}) {
    const SparseCover cover(net.graph, *net.oracle, opts);
    const oracle::ReferenceCover ref =
        oracle::build_sparse_cover(net.graph, *net.oracle, opts);
    for (std::int32_t l = 0; l < cover.num_layers(); ++l) {
      const auto& want = ref.layers[static_cast<std::size_t>(l)];
      ASSERT_EQ(cover.layer(l).sublayers.size(), want.sublayers.size());
      for (std::size_t s = 0; s < want.sublayers.size(); ++s)
        EXPECT_EQ(cover.layer(l).sublayers[s].cluster_of,
                  want.sublayers[s].cluster_of);
      for (NodeId u = 0; u < net.num_nodes(); ++u)
        EXPECT_EQ(cover.home_cluster(u, l).cluster,
                  ref.home[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(u)]
                              .second);
    }
  }
}

}  // namespace
}  // namespace dtm
