// The fast-path contract: the event-calendar engine (exec-time calendar +
// object-arrival queue + per-object scheduled-user heaps) must be
// observationally IDENTICAL to the full-scan reference engine
// (tests/oracle/scan_engine.hpp) — same commit sequence (ids, nodes, times,
// order), same step count, byte for byte. Randomized workloads reuse the
// fuzz suite's generators; the lockstep harness runs both engines side by
// side and asserts every step's commits, next_exec_due and object states
// agree too.
#include <gtest/gtest.h>

#include "core/bucket_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "oracle/lockstep.hpp"

namespace dtm {
namespace {

using oracle::LockstepEngine;

using testing::origin;
using testing::random_topology;
using testing::random_workload;
using testing::txn;

/// The production engine alone, or in lockstep with the scan reference.
RunResult run_engine(const Network& net, const SyntheticOptions& wopts,
                     std::unique_ptr<OnlineScheduler> sched, bool lockstep,
                     std::int64_t latency_factor) {
  SyntheticWorkload wl(net, wopts);
  RunOptions opts;
  opts.engine.latency_factor = latency_factor;
  opts.validate = true;
  return lockstep ? oracle::run_lockstep(net, wl, *sched, opts)
                  : run_experiment(net, wl, *sched, opts);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.committed.size(), b.committed.size());
  for (std::size_t i = 0; i < a.committed.size(); ++i) {
    const ScheduledTxn& x = a.committed[i];
    const ScheduledTxn& y = b.committed[i];
    EXPECT_EQ(x.txn.id, y.txn.id) << "commit " << i;
    EXPECT_EQ(x.txn.node, y.txn.node) << "commit " << i;
    EXPECT_EQ(x.txn.gen_time, y.txn.gen_time) << "commit " << i;
    EXPECT_EQ(x.exec, y.exec) << "commit " << i;
    EXPECT_EQ(x.txn.accesses, y.txn.accesses) << "commit " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.active_steps, b.active_steps);
}

class FastPathEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FastPathEquivalence, GreedyCommitSequencesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL +
          1442695040888963407ULL);
  for (int iter = 0; iter < 4; ++iter) {
    const Network net = random_topology(rng);
    const SyntheticOptions wopts = random_workload(net, rng);
    GreedyOptions g;
    if (rng.bernoulli(0.25)) g.coordination_delay = rng.uniform_int(1, 5);
    if (rng.bernoulli(0.25)) g.congestion_padding = rng.uniform01() * 0.5;
    const std::int64_t lf = rng.bernoulli(0.3) ? 2 : 1;

    // The lockstep run throws CheckError at the first step where the
    // engines disagree on commits, next_exec_due or any object's state.
    const RunResult lockstep =
        run_engine(net, wopts, std::make_unique<GreedyScheduler>(g),
                   /*lockstep=*/true, lf);
    const RunResult calendar =
        run_engine(net, wopts, std::make_unique<GreedyScheduler>(g),
                   /*lockstep=*/false, lf);
    expect_identical(lockstep, calendar);
  }
}

TEST_P(FastPathEquivalence, BucketCommitSequencesMatch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL +
          3037000493ULL);
  for (int iter = 0; iter < 2; ++iter) {
    const Network net = random_topology(rng);
    const SyntheticOptions wopts = random_workload(net, rng);
    auto make_sched = [] {
      return std::make_unique<BucketScheduler>(
          std::shared_ptr<const BatchScheduler>(make_coloring_batch()));
    };
    const RunResult lockstep =
        run_engine(net, wopts, make_sched(), /*lockstep=*/true, 1);
    const RunResult calendar =
        run_engine(net, wopts, make_sched(), /*lockstep=*/false, 1);
    expect_identical(lockstep, calendar);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalence, ::testing::Range(0, 6));

// A hand-built scenario pinning the subtle cases: redirects mid-flight,
// fast-forwarded idle stretches, and same-step independent commits.
TEST(FastPathEquivalence, ScriptedRedirectScenario) {
  const Network net = make_line(10);
  LockstepEngine e(net.oracle, {origin(0, 0), origin(1, 9)}, {});
  e.begin_step({{txn(1, 9, 0, {0}), txn(2, 5, 0, {1})}});
  e.apply({{Assignment{1, 20}, Assignment{2, 4}}});
  e.finish_step();
  EXPECT_EQ(e.next_exec_due(), 4);
  e.begin_step({{txn(3, 1, 1, {0})}});
  const Time promised = e.object(0).time_to(1, 1, *net.oracle);
  e.apply({{Assignment{3, 1 + promised}}});
  e.finish_step();
  e.advance_to(e.next_exec_due());
  while (!e.all_done()) {
    e.begin_step({});
    e.finish_step();
    const Time due = e.next_exec_due();
    if (due != kNoTime && due > e.now()) e.advance_to(due);
  }
  ASSERT_EQ(e.committed().size(), 3u);
  EXPECT_EQ(e.committed()[0].txn.id, 3);  // redirected, exec 1 + promised
  EXPECT_EQ(e.committed()[1].txn.id, 2);
  EXPECT_EQ(e.committed()[1].exec, 4);
  EXPECT_EQ(e.committed()[2].txn.id, 1);
  EXPECT_EQ(e.committed()[2].exec, 20);
  EXPECT_GT(e.steps_checked(), 3);
}

}  // namespace
}  // namespace dtm
