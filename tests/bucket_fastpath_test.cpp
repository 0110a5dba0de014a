// Tests for the incremental bucket-insertion core (batch/bucket_insertion):
// the level-search lower bound is exact and memoized F_A estimates and
// cached problems change nothing observable — the naive-insertion
// differential scheduler (tests/oracle/naive_insertion.hpp) checks every
// level choice and every activation problem against the paper's scan on
// randomized workloads, in the centralized and the dist-bucket call shapes
// — and naive and incremental insertion produce byte-identical commit
// sequences on the production engine and in lockstep with the scan
// reference engine, for both the centralized and distributed schedulers.
#include <gtest/gtest.h>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "batch/suffix_wrapper.hpp"
#include "oracle/all_trials.hpp"
#include "oracle/lockstep.hpp"
#include "oracle/naive_insertion.hpp"

namespace dtm {
namespace {

using oracle::DifferentialBucketScheduler;
using oracle::DifferentialOptions;

using testing::origin;
using testing::random_topology;
using testing::random_workload;
using testing::txn;

std::shared_ptr<const BatchScheduler> coloring() {
  return std::shared_ptr<const BatchScheduler>(make_coloring_batch());
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.committed.size(), b.committed.size());
  for (std::size_t i = 0; i < a.committed.size(); ++i) {
    EXPECT_EQ(a.committed[i].txn.id, b.committed[i].txn.id) << "commit " << i;
    EXPECT_EQ(a.committed[i].exec, b.committed[i].exec) << "commit " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.active_steps, b.active_steps);
}

// ---------------------------------------------------------------------------
// Level-search lower bound and scan invariants

TEST(BucketFastPath, LowerBoundStartsScanAtExactLevel) {
  // Single txn at distance 15 from its object: LB = 15, so the scan must
  // start at level 4 (2^4 = 16 >= 15) having skipped levels 0-3, and the
  // single probe must succeed there — the level the naive scan also picks
  // (bucket_test pins level 4 for this scenario).
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 0)}, {txn(1, 15, 0, {0})});
  BucketScheduler sched(coloring());
  (void)testing::run_and_validate(net, wl, sched);
  ASSERT_EQ(sched.traces().size(), 1u);
  EXPECT_EQ(sched.traces()[0].level, 4);

  const BucketInsertionCore& core = sched.insertion_core();
  EXPECT_EQ(core.last_lower_bound(), 15);
  ASSERT_EQ(core.last_scan().size(), 1u);
  EXPECT_EQ(core.last_scan()[0].level, 4);
  EXPECT_EQ(core.last_scan()[0].estimate, 15);
  EXPECT_EQ(sched.fastpath_stats().levels_skipped, 4);
}

TEST(BucketFastPath, ScanRecordsRespectLowerBoundAndThresholds) {
  // Conflicting transactions: the last arrival's scan must show (a) every
  // estimate >= the single-txn lower bound, (b) every failed level's
  // estimate strictly above its 2^i threshold (that is what "failed"
  // means), (c) the chosen level's estimate within threshold.
  const Network net = make_line(16);
  ScriptedWorkload wl({origin(0, 8)},
                      {txn(1, 0, 0, {0}), txn(2, 15, 0, {0}),
                       txn(3, 12, 0, {0})});
  BucketScheduler sched(coloring());
  SyncEngine eng(net.oracle, wl.objects(), {});
  const auto arrivals = wl.arrivals_at(0);
  eng.begin_step(arrivals);
  (void)sched.on_step(eng, arrivals);
  eng.finish_step();

  const BucketInsertionCore& core = sched.insertion_core();
  const auto& scan = core.last_scan();
  ASSERT_FALSE(scan.empty());
  for (std::size_t i = 0; i < scan.size(); ++i) {
    EXPECT_GE(scan[i].estimate, core.last_lower_bound()) << "probe " << i;
    const Time threshold = Time{1} << scan[i].level;
    if (i + 1 < scan.size()) {
      EXPECT_GT(scan[i].estimate, threshold) << "probe " << i;
    } else {
      // Last probe either succeeded or the candidate fell through to the
      // top bucket; here the horizon is small enough that it succeeded.
      EXPECT_LE(scan[i].estimate, threshold);
    }
  }
}

FaultPlan chaos_plan() {
  FaultPlan chaos;
  chaos.drop = 0.3;
  chaos.jitter = 2;
  chaos.dup = 0.1;
  chaos.stall = 0.3;
  chaos.seed = 23;
  return chaos;
}

/// The dist-bucket call shape: partial buckets per home, arrivals reported
/// up to 6 steps late (so insertions see the step's activations in
/// `extra`), the leader's gather shift, half-speed objects, and transfer
/// stalls moving the world under the cached problems.
DifferentialOptions dist_shape() {
  DifferentialOptions o;
  o.homes = 3;
  o.report_delay = 6;
  o.gather = 2;
  return o;
}

RunOptions dist_run_options(const FaultPlan& plan) {
  RunOptions opts;
  opts.engine.latency_factor = 2;
  opts.engine.fault = plan;
  return opts;
}

TEST(BucketFastPath, VerifyModeMatchesNaiveScanOnRandomWorkloads) {
  // The differential scheduler re-runs the paper-verbatim scan from level
  // 0 beside every insertion of the incremental core and DTM_CHECKs the
  // same level wins, and compares every activation problem's fingerprint
  // with a fresh build — the lower bound's exactness proof running as a
  // test. Randomized topologies and workloads; coloring (deterministic)
  // and auto (randomized on cluster / star) offline algorithms; the
  // centralized call shape (which must reproduce BucketScheduler exactly)
  // and the dist-bucket shape under the chaos plan.
  Rng rng(0xFA57BD);
  for (int iter = 0; iter < 6; ++iter) {
    const Network net = random_topology(rng);
    const SyntheticOptions wopts = random_workload(net, rng);
    {
      SyntheticWorkload wl(net, wopts);
      DifferentialBucketScheduler sched(Registry::make_batch_algo("auto", net));
      const RunResult checked = testing::run_and_validate(net, wl, sched);
      EXPECT_EQ(sched.levels_checked(), checked.num_txns)
          << "every insertion must have been cross-checked";
      EXPECT_GT(sched.activations_checked(), 0);

      SyntheticWorkload wl2(net, wopts);
      BucketScheduler prod(Registry::make_batch_algo("auto", net));
      expect_identical(checked, testing::run_and_validate(net, wl2, prod));
    }
    {
      SyntheticWorkload wl(net, wopts);
      DifferentialBucketScheduler sched(Registry::make_batch_algo("auto", net),
                                        dist_shape());
      const RunResult r =
          run_experiment(net, wl, sched, dist_run_options(chaos_plan()));
      EXPECT_EQ(sched.levels_checked(), r.num_txns);
      EXPECT_GT(sched.activations_checked(), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Byte-identity across insertion paths, engines, and schedulers

RunResult run_bucket(const Network& net, const SyntheticOptions& wopts,
                     bool lockstep) {
  SyntheticWorkload wl(net, wopts);
  BucketScheduler sched(Registry::make_batch_algo("auto", net));
  RunOptions opts;
  opts.validate = true;
  return lockstep ? oracle::run_lockstep(net, wl, sched, opts)
                  : run_experiment(net, wl, sched, opts);
}

RunResult run_naive(const Network& net, const SyntheticOptions& wopts,
                    DifferentialOptions o, const RunOptions& opts = {}) {
  SyntheticWorkload wl(net, wopts);
  o.drive_naive = true;
  DifferentialBucketScheduler sched(Registry::make_batch_algo("auto", net), o);
  return run_experiment(net, wl, sched, opts);
}

TEST(BucketFastPath, PathsByteIdenticalInAllEngineModes) {
  // line (deterministic A), cluster and star (randomized A, where the
  // derived per-probe / per-trial RNG streams carry the byte-identity).
  const Network nets[] = {make_line(12), make_cluster(2, 3, 4),
                          make_star(3, 3)};
  for (const Network& net : nets) {
    SyntheticOptions w;
    w.num_objects = 8;
    w.k = 2;
    w.rounds = 3;
    w.arrival_prob = 0.3;
    w.seed = 909;
    const RunResult naive = run_naive(net, w, {});
    expect_identical(naive, run_bucket(net, w, /*lockstep=*/false));
    expect_identical(naive, run_bucket(net, w, /*lockstep=*/true));
  }
}

TEST(BucketFastPath, IncrementalPathActuallyTakesTheFastRoute) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 4;
  w.seed = 1234;
  SyntheticWorkload wl(net, w);
  BucketScheduler sched(Registry::make_batch_algo("auto", net), {});
  (void)testing::run_and_validate(net, wl, sched);
  const FastPathStats& s = sched.fastpath_stats();
  EXPECT_GT(s.inserts, 0);
  EXPECT_EQ(s.appends, s.inserts);  // every insertion appended in place
  EXPECT_EQ(s.rebuilds, 0);         // no full problem rebuilds at all
  EXPECT_GT(s.levels_skipped, 0);   // the lower bound skipped real work
  EXPECT_EQ(s.probes, s.memo_hits + s.estimates);
}

RunResult run_dist(const Network& net, const FaultPlan& plan, bool lockstep) {
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.seed = 606;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = 77;
  o.fault = plan;
  DistributedBucketScheduler sched(net, Registry::make_batch_algo("auto", net),
                                   o);
  RunOptions opts = dist_run_options(plan);
  opts.validate = true;
  return lockstep ? oracle::run_lockstep(net, wl, sched, opts)
                  : run_experiment(net, wl, sched, opts);
}

TEST(DistBucketFastPath, PathsByteIdenticalUnderNullAndChaosPlans) {
  const Network net = make_cluster(2, 3, 4);
  for (const FaultPlan& plan : {FaultPlan{}, chaos_plan()}) {
    // The distributed scheduler on the production engine and in lockstep
    // with the scan reference.
    expect_identical(run_dist(net, plan, /*lockstep=*/false),
                     run_dist(net, plan, /*lockstep=*/true));
    // Its insertion call shape through the core (checked against the naive
    // scan at every call) and through the naive scan alone.
    SyntheticOptions w;
    w.num_objects = 10;
    w.k = 2;
    w.rounds = 2;
    w.seed = 606;
    SyntheticWorkload wl(net, w);
    DifferentialBucketScheduler checked(Registry::make_batch_algo("auto", net),
                                        dist_shape());
    const RunResult r =
        run_experiment(net, wl, checked, dist_run_options(plan));
    EXPECT_EQ(checked.levels_checked(), r.num_txns);
    expect_identical(r,
                     run_naive(net, w, dist_shape(), dist_run_options(plan)));
  }
}

// ---------------------------------------------------------------------------
// Fingerprint / estimator units

TEST(BucketFastPath, FingerprintIsShiftInvariantAndContentSensitive) {
  BatchProblem p;
  p.latency_factor = 1;
  p.now = 10;
  p.txns.push_back({1, 0, {0}});
  p.objects.push_back({0, 3, 12, false});
  const std::uint64_t fp = problem_fingerprint(p);

  // Shifting the absolute clock (and availability with it) changes nothing:
  // batch algorithms schedule relative to now.
  BatchProblem shifted = p;
  shifted.now = 100;
  shifted.objects[0].ready = 102;
  EXPECT_EQ(problem_fingerprint(shifted), fp);

  // Any content change flips it.
  BatchProblem other = p;
  other.objects[0].ready = 13;
  EXPECT_NE(problem_fingerprint(other), fp);
  other = p;
  other.txns[0].node = 1;
  EXPECT_NE(problem_fingerprint(other), fp);
  other = p;
  other.latency_factor = 2;
  EXPECT_NE(problem_fingerprint(other), fp);
}

TEST(BucketFastPath, SeededEstimateIsAPureFunctionOfSeed) {
  // The memoization soundness condition: same problem + same seed => same
  // estimate, regardless of when or how often it is computed.
  const Network net = make_cluster(2, 3, 4);
  const auto algo = Registry::make_batch_algo("cluster", net);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = 1;
  p.now = 0;
  p.txns.push_back({1, 0, {0}});
  p.txns.push_back({2, 5, {0, 1}});
  p.objects.push_back({0, 3, 0, false});
  p.objects.push_back({1, 4, 2, true});
  const Time a = estimate_fa_seeded(*algo, p, 42);
  const Time b = estimate_fa_seeded(*algo, p, 42);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Activation trials

// The serial scan stops at the chain bound and the fanned-out merge runs
// every trial; both must return what running every trial returns, for the
// bare and the suffix-wrapped randomized As, at one thread and at two
// (where the gate runs some activations each way).
TEST(BucketFastPath, ActivationMatchesEveryTrialReference) {
  struct Case {
    Network net;
    std::shared_ptr<const BatchScheduler> algo;
  };
  std::vector<Case> cases;
  cases.push_back({make_cluster(4, 4, 8), nullptr});
  cases.back().algo = Registry::make_batch_algo("cluster", cases.back().net);
  cases.push_back({make_star(4, 3), nullptr});
  cases.back().algo = Registry::make_batch_algo("star", cases.back().net);
  cases.push_back({make_cluster(3, 4, 6), make_local_search_batch(3)});
  constexpr std::uint64_t kSeed = 77;
  Rng draw(13);
  for (const Case& c : cases) {
    const SuffixWrapper wrapped(c.algo);
    for (const std::int32_t threads : {1, 2}) {
      BucketInsertionCore core(c.algo, kSeed, threads);
      for (int trial = 0; trial < 40; ++trial) {
        const BatchProblem p = testing::random_batch_problem(
            c.net, draw, 1 + trial % 14, 2 + trial % 7, trial % 5 == 0);
        const BatchScheduler& runner =
            trial % 2 == 0 ? *c.algo
                           : static_cast<const BatchScheduler&>(wrapped);
        testing::expect_same_result(
            core.run_activation(p, runner, 3),
            oracle::all_trials_activation(p, runner, kSeed, 3));
      }
    }
  }
}

/// Counts schedule() calls; randomized() can be forced on, so that a
/// deterministic A is retried like a randomized one.
class CountingRunner final : public BatchScheduler {
 public:
  CountingRunner(std::shared_ptr<const BatchScheduler> inner, bool randomized)
      : inner_(std::move(inner)), randomized_(randomized) {}
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    ++calls;
    return inner_->schedule(p, rng);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool randomized() const override { return randomized_; }

  mutable std::int64_t calls = 0;

 private:
  std::shared_ptr<const BatchScheduler> inner_;
  bool randomized_;
};

// One transaction always meets the chain bound (it runs at its earliest
// exec), so of retries=3 only the first trial runs. A fully serial A on
// two independent transactions misses the bound by a step in every trial,
// so all three run.
TEST(BucketFastPath, ActivationStopsAtTheChainBound) {
  const Network net = make_cluster(2, 3, 4);
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.now = 4;
  p.objects = {{0, 1, 2, false}, {1, 5, 4, true}};
  p.txns = {{7, 4, {0, 1}}};
  BucketInsertionCore core(Registry::make_batch_algo("cluster", net), 5, 1);
  const CountingRunner cluster(Registry::make_batch_algo("cluster", net),
                               /*randomized=*/true);
  const BatchResult one = core.run_activation(p, cluster, 3);
  EXPECT_EQ(one.makespan, chain_lower_bound(p));
  EXPECT_EQ(cluster.calls, 1);

  p.txns = {{7, 4, {0}}, {8, 5, {1}}};
  const CountingRunner serial(make_sequential_batch(), /*randomized=*/true);
  const BatchResult both = core.run_activation(p, serial, 3);
  EXPECT_EQ(both.makespan, chain_lower_bound(p) + 1);
  EXPECT_EQ(serial.calls, 3);
}

// The activation gate's choices, from fed costs (seconds per trial).
TEST(ActivationGate, MeasuresBothModesThenRunsTheCheaper) {
  ActivationGate g;
  // A size class fans out first, then runs serially once.
  EXPECT_TRUE(g.fan_out(5));
  g.record(5, /*fanned=*/true, 2e-6);
  EXPECT_FALSE(g.fan_out(6));  // 5 and 6 rows share class ⌊log2⌋ = 2
  EXPECT_TRUE(g.fan_out(8));   // class 3 has not fanned out yet
  // Fan-out measured cheaper: it stays on.
  g.record(6, /*fanned=*/false, 4e-6);
  EXPECT_TRUE(g.fan_out(7));
  g.record(7, /*fanned=*/true, 2e-6);
  EXPECT_TRUE(g.fan_out(4));
}

TEST(ActivationGate, RetriesFanOutOnlyOnceSerialCostDoubled) {
  ActivationGate g;
  g.record(1, /*fanned=*/true, 12e-6);
  g.record(1, /*fanned=*/false, 10e-6);  // fan-out lost at serial = 10 µs
  EXPECT_FALSE(g.fan_out(1));
  g.record(1, /*fanned=*/false, 20e-6);  // running serial cost 12.5 µs,
  EXPECT_FALSE(g.fan_out(1));            // above the stale fanned 12 µs
  for (int i = 0; i < 8 && !g.fan_out(1); ++i)
    g.record(1, /*fanned=*/false, 40e-6);
  ASSERT_TRUE(g.fan_out(1));  // the running serial cost reached 20 µs
  // The retry measures afresh: 15 µs beats the running serial cost.
  g.record(1, /*fanned=*/true, 15e-6);
  EXPECT_TRUE(g.fan_out(1));
  // A fanned cost that climbs above the serial one loses again.
  for (int i = 0; i < 16 && g.fan_out(1); ++i)
    g.record(1, /*fanned=*/true, 200e-6);
  EXPECT_FALSE(g.fan_out(1));
  // It lost at a fanned activation, at serial ≈ 24.5 µs. The serial
  // sample after a loss folds in like any other, so one problem costing
  // twice the loss figure does not start another retry.
  g.record(1, /*fanned=*/false, 50e-6);
  EXPECT_FALSE(g.fan_out(1));
}

TEST(ActivationGate, ReMeasuresSerialCostWhileFannedOut) {
  // Both modes truly cost about the same (serial 10 µs, fanned 11 µs per
  // trial), but the one cold serial sample read 4× the true cost.
  ActivationGate g;
  ASSERT_TRUE(g.fan_out(20));
  g.record(20, /*fanned=*/true, 11e-6);
  ASSERT_FALSE(g.fan_out(20));
  g.record(20, /*fanned=*/false, 40e-6);
  // The next serial re-measure replaces the inflated figure, so within
  // kSerialEvery activations the class is back to serial.
  for (int i = 0; i < ActivationGate::kSerialEvery; ++i) {
    const bool fan = g.fan_out(20);
    g.record(20, fan, fan ? 11e-6 : 10e-6);
  }
  EXPECT_FALSE(g.fan_out(20));
  int serial_runs = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fan = g.fan_out(20);
    if (!fan) ++serial_runs;
    g.record(20, fan, fan ? 11e-6 : 10e-6);
  }
  // Fan-out lost at the true serial cost and is not retried: the serial
  // cost never doubles.
  EXPECT_EQ(serial_runs, 200);
  for (int i = 0; i < 50; ++i) {
    ASSERT_FALSE(g.fan_out(20)) << "activation " << i;
    g.record(20, /*fanned=*/false, 10e-6);
  }
  // While fan-out keeps winning, one activation in kSerialEvery still runs
  // serially.
  ActivationGate h;
  h.record(20, /*fanned=*/true, 5e-6);
  h.record(20, /*fanned=*/false, 10e-6);
  int fanned = 0;
  for (int i = 0; i < 8 * ActivationGate::kSerialEvery; ++i) {
    const bool fan = h.fan_out(20);
    fanned += fan;
    h.record(20, fan, fan ? 5e-6 : 10e-6);
  }
  EXPECT_EQ(fanned, 7 * ActivationGate::kSerialEvery);
}

}  // namespace
}  // namespace dtm
