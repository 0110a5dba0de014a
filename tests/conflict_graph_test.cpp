// Tests for core/conflict_graph: H_t / H'_t construction, degrees, and the
// standing invariant that assigned schedules form a valid partial coloring
// of H'_t at every step (for every scheduler).
#include <gtest/gtest.h>

#include "core/bucket_scheduler.hpp"
#include "core/conflict_graph.hpp"
#include "core/greedy_scheduler.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::txn;

TEST(DependencyGraph, BuildsNodesAndEdges) {
  const Network net = make_line(10);
  SyncEngine eng(net.oracle, {origin(0, 0), origin(1, 9)}, {});
  eng.begin_step({{txn(1, 2, 0, {0}), txn(2, 7, 0, {0, 1}),
                   txn(3, 4, 0, {1})}});
  const DependencyGraph g = DependencyGraph::build(eng);
  const auto s = g.stats();
  EXPECT_EQ(s.live_txns, 3);
  EXPECT_EQ(s.holders, 2);
  // Conflict edges: (1,2) share obj0, (2,3) share obj1; holder edges:
  // obj0 -> txn1, txn2; obj1 -> txn2, txn3.
  EXPECT_EQ(s.edges, 2 + 4);
  const auto i1 = g.index_of(1);
  const auto i2 = g.index_of(2);
  ASSERT_GE(i1, 0);
  ASSERT_GE(i2, 0);
  EXPECT_EQ(g.txn_degree(i1), 1);
  EXPECT_EQ(g.txn_degree(i2), 2);
  EXPECT_EQ(g.degree(i2), 2 + 2);  // two conflicts + two holders
  // Conflict weight between txn1 (node 2) and txn2 (node 7) is 5.
  EXPECT_EQ(g.txn_weighted_degree(i1), 5);
  EXPECT_EQ(g.index_of(99), -1);
}

TEST(DependencyGraph, HolderWeightsUseObjectPositions) {
  const Network net = make_line(10);
  SyncEngine eng(net.oracle, {origin(0, 3)}, {});
  eng.begin_step({{txn(1, 8, 0, {0})}});
  const DependencyGraph g = DependencyGraph::build(eng);
  const auto i = g.index_of(1);
  EXPECT_EQ(g.weighted_degree(i) - g.txn_weighted_degree(i), 5);
}

TEST(DependencyGraph, UnscheduledColorsAreUnset) {
  const Network net = make_line(6);
  SyncEngine eng(net.oracle, {origin(0, 0)}, {});
  eng.begin_step({{txn(1, 3, 0, {0})}});
  DependencyGraph g = DependencyGraph::build(eng);
  const auto& node = g.nodes()[static_cast<std::size_t>(g.index_of(1))];
  EXPECT_EQ(node.color, kNoTime);
  EXPECT_TRUE(g.valid_partial_coloring());  // vacuous
  eng.apply({{Assignment{1, 3}}});
  g = DependencyGraph::build(eng);
  EXPECT_EQ(g.nodes()[static_cast<std::size_t>(g.index_of(1))].color, 3);
  EXPECT_TRUE(g.valid_partial_coloring());
}

TEST(DependencyGraph, DetectsInvalidColoring) {
  // Force an invalid color by scheduling a txn too early relative to a
  // far-away conflicting one through the engine's own apply (the engine
  // does not check coloring — the graph does).
  const Network net = make_line(10);
  SyncEngine eng(net.oracle, {origin(0, 0)}, {});
  eng.begin_step({{txn(1, 0, 0, {0}), txn(2, 9, 0, {0})}});
  eng.apply({{Assignment{1, 0}, Assignment{2, 3}}});  // 9 hops in 3 steps
  const DependencyGraph g = DependencyGraph::build(eng);
  EXPECT_FALSE(g.valid_partial_coloring());
}

// The bitset pair-construction path (kSoA) must reproduce the scalar
// packed-sort path edge for edge, on live engine states mid-run.
TEST(DependencyGraph, BitsetBuildMatchesScalar) {
  const auto nets = testing::small_networks();
  for (std::size_t ni = 0; ni < nets.size(); ++ni) {
    const Network& net = nets[ni];
    SyntheticOptions w;
    w.num_objects = std::max<std::int32_t>(4, net.num_nodes() / 2);
    w.k = 2;
    w.rounds = 2;
    w.seed = 900 + static_cast<std::int64_t>(ni);
    SyntheticWorkload wl(net, w);
    GreedyScheduler sched;
    SyncEngine eng(net.oracle, wl.objects(), {});
    int steps = 0;
    while (!(wl.finished() && eng.all_done())) {
      const auto arrivals = wl.arrivals_at(eng.now());
      eng.begin_step(arrivals);
      eng.apply(sched.on_step(eng, arrivals));
      const DependencyGraph ref =
          DependencyGraph::build(eng, BatchMathMode::kScalar);
      const DependencyGraph g =
          DependencyGraph::build(eng, BatchMathMode::kSoA);
      ASSERT_EQ(g.nodes().size(), ref.nodes().size());
      ASSERT_EQ(g.edges().size(), ref.edges().size())
          << net.name << " step " << eng.now();
      for (std::size_t e = 0; e < g.edges().size(); ++e) {
        EXPECT_EQ(g.edges()[e].a, ref.edges()[e].a);
        EXPECT_EQ(g.edges()[e].b, ref.edges()[e].b);
        EXPECT_EQ(g.edges()[e].weight, ref.edges()[e].weight);
      }
      for (std::size_t v = 0; v < g.nodes().size(); ++v) {
        const auto n = static_cast<std::int32_t>(v);
        EXPECT_EQ(g.degree(n), ref.degree(n));
        EXPECT_EQ(g.weighted_degree(n), ref.weighted_degree(n));
      }
      for (const auto& c : eng.finish_step()) wl.on_commit(c.txn, c.exec);
      ASSERT_LT(++steps, 1'000'000);
    }
    EXPECT_GT(steps, 0);
  }
}

// The standing invariant: at every step of a run, the assigned execution
// times form a valid partial coloring of H'_t. This is the graph-theoretic
// statement of schedule feasibility and holds for every scheduler.
class ColoringInvariant : public ::testing::TestWithParam<int> {};

TEST_P(ColoringInvariant, HoldsThroughoutRuns) {
  const auto nets = testing::small_networks();
  const Network& net = nets[static_cast<std::size_t>(GetParam()) % nets.size()];
  const bool bucket = GetParam() >= 5;
  SyntheticOptions w;
  w.num_objects = std::max<std::int32_t>(4, net.num_nodes() / 2);
  w.k = 2;
  w.rounds = 2;
  w.seed = 500 + GetParam();
  SyntheticWorkload wl(net, w);
  std::unique_ptr<OnlineScheduler> sched;
  if (bucket)
    sched = std::make_unique<BucketScheduler>(
        std::shared_ptr<const BatchScheduler>(make_coloring_batch()));
  else
    sched = std::make_unique<GreedyScheduler>();
  SyncEngine eng(net.oracle, wl.objects(), {});
  int checks = 0;
  while (!(wl.finished() && eng.all_done())) {
    const auto arrivals = wl.arrivals_at(eng.now());
    eng.begin_step(arrivals);
    eng.apply(sched->on_step(eng, arrivals));
    const DependencyGraph g = DependencyGraph::build(eng);
    EXPECT_TRUE(g.valid_partial_coloring())
        << net.name << " at step " << eng.now();
    ++checks;
    for (const auto& c : eng.finish_step()) wl.on_commit(c.txn, c.exec);
    ASSERT_LT(checks, 1'000'000);
  }
  EXPECT_GT(checks, 0);
}

INSTANTIATE_TEST_SUITE_P(SchedulersAndTopologies, ColoringInvariant,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace dtm
