// Parallel-kernel determinism: the commit stream must be byte-identical at
// EVERY thread count — not merely self-consistent, but equal to the exact
// golden pins captured from the serial pre-parallel engine
// (golden_sequence_test.cpp). The matrix crosses scheduler kinds (engine
// reroute sharding, bucket wave probing + activation retries, the
// distributed twin), the production and lockstep-vs-scan paths, fault
// plans (chaos forces the transport serial — thread counts must still
// agree), and thread counts {1, 2, 4, hardware}. The lockstep harness
// against a serial twin (tests/oracle/lockstep.hpp) additionally compares
// every step of a threads=N engine with a threads=1 one.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "stream/stream_runner.hpp"
#include "util/parallel.hpp"
#include "oracle/lockstep.hpp"
#include "oracle/naive_insertion.hpp"
#include "oracle/validating_batch.hpp"

namespace dtm {
namespace {

using Reference = oracle::LockstepEngine::Reference;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_result(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& s : r.committed) {
    h = fnv(h, static_cast<std::uint64_t>(s.txn.id));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.node));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.gen_time));
    h = fnv(h, static_cast<std::uint64_t>(s.exec));
  }
  h = fnv(h, static_cast<std::uint64_t>(r.makespan));
  h = fnv(h, static_cast<std::uint64_t>(r.active_steps));
  return h;
}

/// Thread counts under test: serial, two oversubscribed counts, and
/// whatever the host actually has (deduplicated).
std::vector<std::int32_t> thread_ladder() {
  std::vector<std::int32_t> t = {1, 2, 4};
  const auto hw = static_cast<std::int32_t>(ThreadPool::hardware_threads());
  bool have = false;
  for (const std::int32_t v : t) have = have || v == hw;
  if (!have) t.push_back(hw);
  return t;
}

/// The production run, and lockstep runs against each reference.
enum class Path { kProduction, kLockstepScan, kLockstepSerial };
constexpr Path kPaths[] = {Path::kProduction, Path::kLockstepScan};

RunResult run_path(const Network& net, Workload& wl, OnlineScheduler& sched,
                   const RunOptions& opts, Path path) {
  switch (path) {
    case Path::kLockstepScan:
      return oracle::run_lockstep(net, wl, sched, Reference::kScan, opts);
    case Path::kLockstepSerial:
      return oracle::run_lockstep(net, wl, sched, Reference::kSerial, opts);
    default:
      return run_experiment(net, wl, sched, opts);
  }
}

// --- Engine-only sharding: greedy scheduler, golden pin "star33-greedy" ---

std::uint64_t run_greedy(Path path, std::int32_t threads) {
  const Network net = make_star(3, 3);
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.zipf_s = 1.2;
  w.seed = 505;
  SyntheticWorkload wl(net, w);
  GreedyScheduler sched;
  RunOptions opts;
  opts.engine.latency_factor = 2;
  opts.engine.threads = threads;
  return hash_result(run_path(net, wl, sched, opts, path));
}

TEST(ParallelEngine, GreedyMatchesGoldenPinAtEveryThreadCount) {
  const std::uint64_t kPin = 0x15943e0c37a4a3deULL;  // golden star33-greedy
  for (const Path path : kPaths)
    for (const std::int32_t t : thread_ladder())
      EXPECT_EQ(run_greedy(path, t), kPin)
          << "path " << static_cast<int>(path) << " threads " << t;
}

// --- Bucket core: wave probing + parallel retries, golden fastpath pin ---

SyntheticOptions bucket_workload() {
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 3;
  w.arrival_prob = 0.3;
  w.seed = 909;
  return w;
}

/// With `validating`, A runs behind the oracle decorator: every F_A
/// makespan (wave probes included) is checked against a validated
/// schedule, and the suffix pass runs even for key-ordered A.
std::uint64_t run_bucket(const Network& net, Path path, std::int32_t threads,
                         bool validating = false) {
  SyntheticWorkload wl(net, bucket_workload());
  BucketOptions o;
  o.threads = threads;
  std::shared_ptr<const BatchScheduler> algo =
      Registry::make_batch_algo("auto", net);
  if (validating)
    algo = std::make_shared<oracle::ValidatingBatch>(std::move(algo));
  BucketScheduler sched(std::move(algo), o);
  RunOptions opts;
  opts.engine.threads = threads;
  return hash_result(run_path(net, wl, sched, opts, path));
}

TEST(ParallelEngine, BucketClusterMatchesGoldenPinAtEveryThreadCount) {
  // cluster234 pin from GoldenSequence.BucketFastPathPinnedOnAllTopologies:
  // randomized cluster algo — activation retries AND wave probes in play.
  const std::uint64_t kPin = 0x0cf2ffb9c53e06ffULL;
  const Network net = make_cluster(2, 3, 4);
  for (const Path path : kPaths)
    for (const std::int32_t t : thread_ladder())
      EXPECT_EQ(run_bucket(net, path, t), kPin)
          << "path " << static_cast<int>(path) << " threads " << t;
  for (const std::int32_t t : thread_ladder())
    EXPECT_EQ(run_bucket(net, Path::kProduction, t, /*validating=*/true), kPin)
        << "validating A, threads " << t;
}

TEST(ParallelEngine, BucketLinePinHoldsAndVerifyFastPathStaysSerial) {
  const std::uint64_t kPin = 0x1476a1655424f9b0ULL;  // golden line12
  const Network net = make_line(12);
  for (const std::int32_t t : thread_ladder()) {
    EXPECT_EQ(run_bucket(net, Path::kProduction, t), kPin) << "threads " << t;
    EXPECT_EQ(run_bucket(net, Path::kProduction, t, /*validating=*/true), kPin)
        << "validating A, threads " << t;
    // The differential scheduler checks every level choice of a serial
    // core against the naive scan; it must keep landing on the same pin
    // with a parallel engine underneath.
    SyntheticWorkload wl(net, bucket_workload());
    oracle::DifferentialBucketScheduler sched(
        Registry::make_batch_algo("auto", net));
    RunOptions opts;
    opts.engine.threads = t;
    EXPECT_EQ(hash_result(run_experiment(net, wl, sched, opts)), kPin)
        << "naive-checked core, threads " << t;
    EXPECT_GT(sched.levels_checked(), 0);
  }
}

// --- Distributed twin under null and chaos plans (golden dist pins) ---

std::uint64_t run_dist(const FaultPlan& plan, Path path,
                       std::int32_t threads) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.seed = 606;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = 77;
  o.fault = plan;
  o.threads = threads;
  DistributedBucketScheduler sched(net, Registry::make_batch_algo("auto", net),
                                   o);
  RunOptions opts;
  opts.engine.latency_factor = 2;
  opts.engine.fault = plan;
  opts.engine.threads = threads;
  return hash_result(run_path(net, wl, sched, opts, path));
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.drop = 0.3;
  plan.jitter = 2;
  plan.dup = 0.1;
  plan.stall = 0.3;
  plan.seed = 23;
  return plan;
}

TEST(ParallelEngine, DistBucketNullPlanPinAtEveryThreadCount) {
  const std::uint64_t kPin = 0xcdd107db4c1159e2ULL;
  for (const Path path : kPaths)
    for (const std::int32_t t : thread_ladder())
      EXPECT_EQ(run_dist(FaultPlan{}, path, t), kPin)
          << "path " << static_cast<int>(path) << " threads " << t;
}

TEST(ParallelEngine, DistBucketChaosPlanPinAtEveryThreadCount) {
  // The stall plan forces the transport serial; scheduler-side parallelism
  // stays on. The chaos pin must hold regardless.
  const std::uint64_t kPin = 0x7d0e573c8d14d918ULL;
  for (const Path path : kPaths)
    for (const std::int32_t t : thread_ladder())
      EXPECT_EQ(run_dist(chaos_plan(), path, t), kPin)
          << "path " << static_cast<int>(path) << " threads " << t;
}

// --- The lockstep harness against a serial twin ---

TEST(ParallelEngine, LockstepSerialTwinMatchesCalendarPins) {
  for (const std::int32_t t : thread_ladder()) {
    EXPECT_EQ(run_greedy(Path::kLockstepSerial, t), 0x15943e0c37a4a3deULL)
        << "threads " << t;
    EXPECT_EQ(run_bucket(make_cluster(2, 3, 4), Path::kLockstepSerial, t),
              0x0cf2ffb9c53e06ffULL)
        << "threads " << t;
    EXPECT_EQ(run_dist(chaos_plan(), Path::kLockstepSerial, t),
              0x7d0e573c8d14d918ULL)
        << "threads " << t;
  }
}

// --- Landmark routing: concurrent dist() from the sharded reroute ---

TEST(ParallelEngine, LandmarkRoutedRunsIdenticalAcrossThreadCounts) {
  // The engine's reroute workers query the landmark oracle concurrently
  // (shared intra-cluster table, query counters); answers, and so commit
  // streams, must not depend on the thread count. Under TSan this is also
  // the data-race gate for LandmarkRouter.
  const std::string topo =
      "random:n=64,extra=96,maxw=3,routing=landmark,landmarks=4";
  for (const char* sched : {"greedy", "bucket"}) {
    RunSpec spec;
    spec.topology = parse_spec(topo);
    spec.scheduler = parse_spec(sched);
    spec.workload = parse_spec("synthetic:objects=128,k=2,rounds=2");
    spec.seed = 7;
    spec.threads = 1;
    const std::uint64_t serial = hash_result(run_spec(spec));
    for (const std::int32_t t : thread_ladder()) {
      spec.threads = t;
      EXPECT_EQ(hash_result(run_spec(spec)), serial)
          << sched << " threads " << t;
    }
  }
  RunSpec stream;
  stream.topology = parse_spec(topo);
  stream.scheduler = parse_spec("greedy");
  stream.stream = parse_spec(
      "stream:rate=8,objects=512,target=1500,window=256,drain-every=64");
  stream.seed = 7;
  const Network net = Registry::make_network(stream.topology);
  stream.threads = 1;
  const StreamReport serial = make_stream_runner(net, stream)->run();
  for (const std::int32_t t : thread_ladder()) {
    stream.threads = t;
    const StreamReport r = make_stream_runner(net, stream)->run();
    EXPECT_EQ(r.commit_hash, serial.commit_hash) << "stream threads " << t;
    EXPECT_EQ(r.commits, serial.commits) << "stream threads " << t;
  }
}

// --- Trial fan-out determinism ---

TEST(ParallelEngine, SeededTrialsIdenticalAcrossThreadCounts) {
  const Network net = make_cluster(2, 3, 4);
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 2;
  w.seed = 1234;
  const auto factory = [&]() -> std::unique_ptr<OnlineScheduler> {
    return std::make_unique<BucketScheduler>(
        Registry::make_batch_algo("auto", net));
  };
  TrialOptions base;
  base.trials = 5;
  base.threads = 1;
  const TrialSummary serial = run_seeded_trials(net, w, factory, base);
  for (const std::int32_t t : {2, 4}) {
    TrialOptions topts = base;
    topts.threads = t;
    const TrialSummary par = run_seeded_trials(net, w, factory, topts);
    EXPECT_EQ(par.ratio, serial.ratio) << "threads " << t;
    EXPECT_EQ(par.makespan, serial.makespan) << "threads " << t;
    EXPECT_EQ(par.mean_latency, serial.mean_latency) << "threads " << t;
    EXPECT_EQ(par.lb, serial.lb) << "threads " << t;
    EXPECT_EQ(par.txns, serial.txns) << "threads " << t;
  }
}

// --- Spec surface: threads knob round-trips and rejects bad values ---

TEST(ParallelEngine, RunSpecThreadsRoundTripsThroughJson) {
  RunSpec spec;
  spec.threads = 4;
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.threads, 4);
}

TEST(ParallelEngine, InvalidThreadValuesAreHardErrors) {
  RunSpec spec;
  spec.threads = -1;
  EXPECT_THROW((void)RunSpec::from_json(spec.to_json()), CheckError);
  spec.threads = 2000;
  EXPECT_THROW((void)RunSpec::from_json(spec.to_json()), CheckError);

  EngineOptions eopts;
  eopts.threads = -3;
  EXPECT_THROW(SyncEngine(std::shared_ptr<const DistanceOracle>(
                              make_clique(4).oracle),
                          {}, eopts),
               CheckError);
}

TEST(ParallelEngine, RunSpecThreadsDriveTheWholeStack) {
  // run_spec plumbs RunSpec::threads into the engine AND the scheduler
  // core; the result must equal the serial run of the same spec.
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.scheduler = parse_spec("bucket:algo=cluster");
  spec.workload = parse_spec("synthetic:objects=8,k=2,rounds=2");
  spec.seed = 77;
  spec.threads = 1;
  const std::uint64_t serial = hash_result(run_spec(spec));
  for (const std::int32_t t : {2, 4}) {
    spec.threads = t;
    EXPECT_EQ(hash_result(run_spec(spec)), serial) << "threads " << t;
  }
}

}  // namespace
}  // namespace dtm
