// Tests for batch/: problems, the ordered-chain engine, every per-topology
// scheduler, F_A estimation, and the baselines.
#include <gtest/gtest.h>

#include "batch/batch_scheduler.hpp"
#include "core/lower_bound.hpp"
#include "net/topology.hpp"
#include "sim/registry.hpp"
#include "test_helpers.hpp"

namespace dtm {
namespace {

BatchProblem line_problem(const Network& net) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  p.objects = {{0, 0, 0, false}, {1, 9, 0, false}};
  p.txns = {{1, 2, {0}}, {2, 7, {0, 1}}, {3, 4, {1}}};
  return p;
}

TEST(BatchProblem, ObjectLookup) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  EXPECT_EQ(p.travel(0, 4), 4);
  // On both sides of the cursor table (a far id makes the span too wide
  // for the slot table): a repeated id keeps its last row, an id the
  // objects lack throws, and a reload forgets the previous load's ids.
  CursorTable table;
  for (const ObjId far : {ObjId{9}, ObjId{-(1 << 20)}}) {
    std::vector<BatchObject> objects = p.objects;
    objects.push_back({far, 3, 0, false});
    objects.push_back({1, 4, 2, true});
    table.load(objects);
    EXPECT_EQ(table.dense(), far == 9);
    EXPECT_EQ(table.find(0).node, 0);
    EXPECT_EQ(table.find(1).node, 4);
    EXPECT_EQ(table.find(far).node, 3);
    EXPECT_THROW((void)table.find(7), CheckError);
    // The chain rule: one step after a commit even at distance zero.
    EXPECT_EQ(p.arrival(table.find(1), 4), 3);
    EXPECT_EQ(p.arrival(table.find(1), 7), 5);
    EXPECT_EQ(p.arrival(table.find(far), 7), 4);
    table.load(p.objects);
    EXPECT_TRUE(table.dense());
    EXPECT_THROW((void)table.find(far), CheckError);
    EXPECT_EQ(table.find(1).node, 9);
  }
}

// The chain bound is a certified lower bound: no registered A schedules
// below it, on problems with sparse and negative ids, repeated object rows,
// availability from commits, latency factor 2 and objects with more users
// than the exact enumeration covers. The landmark-routed graph's distances
// are approximate but metric.
TEST(BatchProblem, ChainLowerBoundHoldsForEveryAlgorithm) {
  std::vector<Network> nets;
  nets.push_back(make_cluster(3, 4, 6));
  nets.push_back(make_star(4, 3));
  nets.push_back(make_line(12));
  nets.push_back(Registry::make_network(parse_spec(
      "random:n=40,extra=60,maxw=3,routing=landmark,landmarks=3")));
  Rng draw(31);
  std::int64_t checked = 0;
  std::int64_t tight = 0;
  for (const Network& net : nets) {
    std::vector<std::shared_ptr<const BatchScheduler>> algos;
    for (const auto& e : Registry::batch_algos()) {
      try {
        algos.push_back(Registry::make_batch_algo(e.name, net));
      } catch (const CheckError& err) {
        // Only the As that need their own topology's parameters refuse,
        // and hierarchical on the landmark-routed graph: its sparse
        // cover's diameter check assumes exact distances.
        EXPECT_TRUE(e.name == "cluster" || e.name == "star" ||
                    e.name == "grid-snake" ||
                    (e.name == "hierarchical" && &net == &nets.back()))
            << e.name << ": " << err.what();
      }
    }
    for (int trial = 0; trial < 30; ++trial) {
      const BatchProblem p = testing::random_batch_problem(
          net, draw, 1 + trial % 8, 1 + trial % 5, trial % 3 == 0,
          trial % 2 == 1);
      const Time bound = chain_lower_bound(p);
      Time per_object = 0;
      for (const BatchObject& o : p.objects)
        per_object = std::max(per_object, object_chain_bound(p, o.id));
      EXPECT_EQ(bound, per_object);
      for (const auto& a : algos) {
        Rng rng(static_cast<std::uint64_t>(trial) + 7);
        const Time span = a->schedule(p, rng).makespan;
        EXPECT_GE(span, bound) << a->name() << " trial " << trial;
        ++checked;
        tight += span == bound;
      }
    }
  }
  EXPECT_GT(tight, 0);
  EXPECT_GT(checked, tight);
}

// Exact on hand-built cases: one transaction runs at its earliest exec,
// two users at one node run one step apart, a transaction listing an
// object twice is one user, and an unused object adds nothing.
TEST(BatchProblem, ChainLowerBoundIsExactOnSmallCases) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 2;
  p.objects = {{0, 0, 0, false}, {1, 9, 3, true}, {2, 5, 40, false}};
  p.txns = {{1, 7, {0, 1}}};
  // Object 0 arrives at 0 + 7, object 1 at 3 + 2: txn 1 runs at 7.
  EXPECT_EQ(chain_lower_bound(p), 5);
  EXPECT_EQ(chain_lower_bound(p), chain_evaluate(p, {0}).makespan);
  EXPECT_EQ(object_chain_bound(p, 2), 0);  // unused: its ready adds nothing

  p.txns = {{1, 4, {1}}, {2, 4, {1}}};
  // Both users wait for object 1 at 3 + 5 = 8; the second runs at 9.
  EXPECT_EQ(object_chain_bound(p, 1), 7);
  EXPECT_EQ(chain_lower_bound(p), chain_evaluate(p, {0, 1}).makespan);

  p.txns = {{1, 4, {1, 1}}};
  EXPECT_EQ(object_chain_bound(p, 1), 6);

  // Six users at one node: the earliest arrival plus five steps.
  p.txns.clear();
  for (TxnId t = 1; t <= 6; ++t) p.txns.push_back({t, 9, {0}});
  EXPECT_EQ(chain_lower_bound(p), 9 + 5 - 2);
  EXPECT_EQ(chain_lower_bound(p),
            chain_evaluate(p, {0, 1, 2, 3, 4, 5}).makespan);

  // Three users: the best of six orders, here the sweep 1 → 3 → 8 from
  // node 0 (exec 1, 3, 8), though a txn at node 8 is listed first.
  p.now = 0;
  p.txns = {{1, 8, {0}}, {2, 1, {0}}, {3, 3, {0}}};
  EXPECT_EQ(chain_lower_bound(p), 8);
  EXPECT_EQ(chain_lower_bound(p), chain_evaluate(p, {1, 2, 0}).makespan);
}

TEST(BatchResult, ExecLookup) {
  BatchResult r;
  r.assignments = {{1, 5}, {2, 9}};
  EXPECT_EQ(r.exec_of(2), 9);
  EXPECT_THROW((void)r.exec_of(3), CheckError);
}

TEST(ChainEvaluate, FollowsOrderAndChains) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  const BatchResult r = chain_evaluate(p, {0, 1, 2});
  // txn1@2 gets obj0 after 2 steps; txn2@7: obj0 from node 2 (released at
  // 2) = 2+5 = 7, obj1 from 9 = 2; exec 7. txn3@4: obj1 from node 7 at 7
  // -> 7+3 = 10.
  EXPECT_EQ(r.exec_of(1), 2);
  EXPECT_EQ(r.exec_of(2), 7);
  EXPECT_EQ(r.exec_of(3), 10);
  EXPECT_EQ(r.makespan, 10);
}

TEST(ChainEvaluate, OrderMatters) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  const BatchResult r = chain_evaluate(p, {2, 1, 0});
  EXPECT_EQ(r.exec_of(3), 5);  // obj1 travels 9 -> 4
  // txn2 next: obj1 from 4 (at 5) -> 5+3 = 8; obj0 from 0 -> 7. exec 8.
  EXPECT_EQ(r.exec_of(2), 8);
  // txn1 last: obj0 from node 7 at 8 -> 8+5 = 13.
  EXPECT_EQ(r.exec_of(1), 13);
}

TEST(ChainEvaluate, RespectsReadyTimesAndFromTxn) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 100;
  p.objects = {{0, 3, 120, true}};
  p.txns = {{1, 3, {0}}};
  const BatchResult r = chain_evaluate(p, {0});
  EXPECT_EQ(r.exec_of(1), 121);  // from_txn forces +1 at distance zero
  EXPECT_EQ(r.makespan, 21);
}

TEST(ChainEvaluate, RejectsBadOrderSize) {
  const Network net = make_line(10);
  const BatchProblem p = line_problem(net);
  EXPECT_THROW((void)chain_evaluate(p, {0, 1}), CheckError);
  // The makespan-only walk validates no schedule, so it checks the order.
  EXPECT_THROW((void)chain_makespan(p, {0, 1}), CheckError);
  EXPECT_THROW((void)chain_makespan(p, {0, 2, 0}), CheckError);
  EXPECT_EQ(chain_makespan(p, {0, 1, 2}),
            chain_evaluate(p, {0, 1, 2}).makespan);
  // A walk that would stop at its first transaction checks the whole order
  // first.
  EXPECT_THROW((void)chain_makespan(p, {0, 1}, 1), CheckError);
  EXPECT_THROW((void)chain_makespan(p, {0, 2, 0}, 1), CheckError);
  EXPECT_THROW((void)chain_makespan(p, {0, 1, 3}, 0), CheckError);
  // Below the cutoff the answer is exact; at or above it, at least it.
  EXPECT_EQ(chain_makespan(p, {0, 1, 2}, 11), 10);
  EXPECT_GE(chain_makespan(p, {0, 1, 2}, 10), 10);
  EXPECT_GE(chain_makespan(p, {0, 1, 2}, 3), 3);
  EXPECT_LT(chain_makespan(p, {0, 1, 2}, 3), 10);  // it stopped early
}

TEST(EstimateFa, EmptyProblemUsesHorizon) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 50;
  p.objects = {{0, 3, 80, true}};
  Rng rng(1);
  const auto algo = make_coloring_batch();
  EXPECT_EQ(estimate_fa(*algo, p, rng), 30);
}

TEST(EstimateFa, CoversLateAvailability) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 0;
  // Object 1 is pinned far in the future but unused by the new txns.
  p.objects = {{0, 0, 0, false}, {1, 5, 90, true}};
  p.txns = {{1, 0, {0}}};
  Rng rng(1);
  const auto algo = make_coloring_batch();
  EXPECT_GE(estimate_fa(*algo, p, rng), 90);
}

// ---- Every scheduler produces feasible schedules on random problems ----

struct SchedulerCase {
  std::string label;
  std::function<std::unique_ptr<BatchScheduler>()> make;
  std::function<Network()> net;
};

class BatchSchedulerSweep : public ::testing::TestWithParam<int> {
 public:
  static std::vector<SchedulerCase> cases() {
    return {
        {"coloring-line", make_coloring_batch, [] { return make_line(12); }},
        {"coloring-clique", make_coloring_batch,
         [] { return make_clique(10); }},
        {"line", make_line_batch, [] { return make_line(12); }},
        {"clique", make_clique_batch, [] { return make_clique(10); }},
        {"cluster", [] { return make_cluster_batch(3); },
         [] { return make_cluster(4, 3, 4); }},
        {"star", [] { return make_star_batch(4); },
         [] { return make_star(3, 4); }},
        {"grid", [] { return make_grid_snake_batch({3, 4}); },
         [] { return make_grid({3, 4}); }},
        {"hypercube", make_hypercube_gray_batch,
         [] { return make_hypercube(3); }},
        {"tsp", make_tsp_batch, [] { return make_grid({3, 4}); }},
        {"sequential", make_sequential_batch, [] { return make_line(12); }},
        {"local-search", [] { return make_local_search_batch(3); },
         [] { return make_grid({3, 4}); }},
    };
  }
};

TEST_P(BatchSchedulerSweep, FeasibleAndAboveLowerBound) {
  const auto c = cases()[static_cast<std::size_t>(GetParam())];
  const Network net = c.net();
  const auto algo = c.make();
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    BatchProblem p;
    p.oracle = net.oracle.get();
    p.now = trial * 10;
    const ObjId w = 5;
    std::vector<ObjectOrigin> origins;
    for (ObjId o = 0; o < w; ++o) {
      const auto node =
          static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
      p.objects.push_back({o, node, p.now, false});
      origins.push_back({o, node, 0});
    }
    std::vector<Transaction> txns;
    for (TxnId i = 0; i < 8; ++i) {
      const auto objs = rng.sample_distinct(w, 2);
      const auto node =
          static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
      p.txns.push_back({i, node, {objs[0], objs[1]}});
      Transaction t;
      t.id = i;
      t.node = node;
      t.gen_time = 0;
      t.accesses = write_set({objs[0], objs[1]});
      txns.push_back(t);
    }
    // makespan() answers schedule()'s makespan exactly below its cutoff
    // and at least the cutoff otherwise, and leaves the Rng where
    // schedule() leaves it whatever the cutoff.
    Rng built_rng = rng;
    const Time m = algo->schedule(p, built_rng).makespan;
    for (const Time cutoff : {Time{0}, Time{1}, m, m + 1, kNoCutoff}) {
      Rng a = rng;
      const Time got = algo->makespan(p, a, cutoff);
      if (m < cutoff)
        EXPECT_EQ(got, m) << c.label << " cutoff " << cutoff;
      else
        EXPECT_GE(got, cutoff) << c.label << " cutoff " << cutoff;
      EXPECT_TRUE(a == built_rng) << c.label << " cutoff " << cutoff;
    }
    // schedule() internally runs check_batch_result (feasibility); if it
    // returns, the schedule is valid.
    const BatchResult r = algo->schedule(p, rng);
    EXPECT_EQ(r.assignments.size(), p.txns.size()) << c.label;
    // Makespan can never beat the certified lower bound.
    const auto lb = makespan_lower_bound(txns, origins, *net.oracle);
    EXPECT_GE(r.makespan + 1, lb.best()) << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, BatchSchedulerSweep,
                         ::testing::Range(0, 11));

TEST(LineBatch, SweepsLeftToRight) {
  const Network net = make_line(10);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  p.txns = {{1, 8, {0}}, {2, 1, {0}}, {3, 5, {0}}};
  Rng rng(1);
  const BatchResult r = make_line_batch()->schedule(p, rng);
  // Sweep order 1, 5, 8: execs 1, 5, 8 — a single pass.
  EXPECT_EQ(r.exec_of(2), 1);
  EXPECT_EQ(r.exec_of(3), 5);
  EXPECT_EQ(r.exec_of(1), 8);
}

TEST(SequentialBatch, FullySerial) {
  const Network net = make_clique(6);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}, {1, 1, 0, false}};
  p.txns = {{1, 0, {0}}, {2, 1, {1}}, {3, 2, {0}}};
  Rng rng(1);
  const BatchResult r = make_sequential_batch()->schedule(p, rng);
  // Even independent txns never share a step.
  EXPECT_LT(r.exec_of(1), r.exec_of(2));
  EXPECT_LT(r.exec_of(2), r.exec_of(3));
}

TEST(ClusterStarBatch, RandomizedFlagSet) {
  EXPECT_TRUE(make_cluster_batch(3)->randomized());
  EXPECT_TRUE(make_star_batch(3)->randomized());
  EXPECT_FALSE(make_line_batch()->randomized());
  EXPECT_FALSE(make_coloring_batch()->randomized());
  // Only key-ordered chain algorithms skip the suffix pass.
  EXPECT_TRUE(make_line_batch()->suffix_tight());
  EXPECT_TRUE(make_grid_snake_batch({3, 4})->suffix_tight());
  EXPECT_TRUE(make_hypercube_gray_batch()->suffix_tight());
  EXPECT_FALSE(make_cluster_batch(3)->suffix_tight());
  EXPECT_FALSE(make_clique_batch()->suffix_tight());
  EXPECT_FALSE(make_tsp_batch()->suffix_tight());
  EXPECT_FALSE(make_coloring_batch()->suffix_tight());
}

TEST(ColoringBatch, CliqueRespectsLoadBound) {
  // On the clique with l transactions sharing one object, coloring gives
  // makespan O(l) — the Theorem 3 structure.
  const Network net = make_clique(16);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  for (TxnId i = 0; i < 12; ++i)
    p.txns.push_back({i, static_cast<NodeId>(i + 1), {0}});
  Rng rng(1);
  const BatchResult r = make_coloring_batch()->schedule(p, rng);
  EXPECT_LE(r.makespan, 2 * 12);
  EXPECT_GE(r.makespan, 11);  // 12 commits of one object need 11 gaps
}

TEST(LocalSearchBatch, ImprovesOnBadSeedOrders) {
  // A line instance where the natural id order ping-pongs the object; the
  // best chain order sweeps. Local search must land at (or near) the
  // sweep's makespan.
  const Network net = make_line(16);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  // Alternating far/near users: id order is terrible.
  p.txns = {{1, 15, {0}}, {2, 1, {0}}, {3, 14, {0}}, {4, 2, {0}},
            {5, 13, {0}}, {6, 3, {0}}};
  Rng rng(5);
  const Time pingpong = chain_evaluate(p, {0, 1, 2, 3, 4, 5}).makespan;
  const BatchResult tuned = make_local_search_batch(6)->schedule(p, rng);
  EXPECT_LT(tuned.makespan, pingpong);
  // The sweep order (1,2,3 then 13,14,15) costs ~18; allow slack.
  EXPECT_LE(tuned.makespan, pingpong / 2);
}

TEST(LocalSearchBatch, RandomizedFlagSet) {
  EXPECT_TRUE(make_local_search_batch(2)->randomized());
  EXPECT_EQ(make_local_search_batch(2)->name(), "local-search");
  EXPECT_THROW((void)make_local_search_batch(0), CheckError);
}

TEST(HypercubeGray, ConsecutiveRanksOneHop) {
  const Network net = make_hypercube(4);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.objects = {{0, 0, 0, false}};
  for (NodeId u = 0; u < 16; ++u) p.txns.push_back({u, u, {0}});
  Rng rng(1);
  const BatchResult r = make_hypercube_gray_batch()->schedule(p, rng);
  // A Gray walk visits all 16 nodes with unit hops: one object can follow
  // it in 16 + small steps; far below the naive 16 * diameter.
  EXPECT_LE(r.makespan, 16 + 4);
}

}  // namespace
}  // namespace dtm
