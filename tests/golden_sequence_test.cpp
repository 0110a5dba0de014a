// Golden commit sequences: FNV-1a hashes of the full (id, node, gen, exec)
// commit stream plus makespan and active-step count, captured from the
// PRE-layering engine (the monolithic SyncEngine before the store /
// transport / clock split) on fixed workloads. Any engine change that
// shifts a single commit by one step flips the hash. Every pin is checked
// on the production path and again through the lockstep harness against
// the scan reference engine (tests/oracle/lockstep.hpp), which also
// compares every step's internal state; fastpath_equivalence_test does the
// same on randomized workloads.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/bucket_scheduler.hpp"
#include "core/fcfs_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "serve/server.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "stream/stream_runner.hpp"
#include "oracle/lockstep.hpp"
#include "oracle/naive_insertion.hpp"
#include "oracle/validating_batch.hpp"

namespace dtm {
namespace {

using oracle::run_lockstep;

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

/// The production run and the lockstep run against the scan reference.
enum class Path { kProduction, kLockstepScan };
constexpr Path kPaths[] = {Path::kProduction, Path::kLockstepScan};

RunResult run_path(const Network& net, Workload& wl, OnlineScheduler& sched,
                   const RunOptions& opts, Path path) {
  return path == Path::kProduction
             ? run_experiment(net, wl, sched, opts)
             : run_lockstep(net, wl, sched, opts);
}

std::uint64_t run_case(const Network& net, const SyntheticOptions& w,
                       std::unique_ptr<OnlineScheduler> sched,
                       std::int64_t lf, Path path) {
  SyntheticWorkload wl(net, w);
  RunOptions opts;
  opts.engine.latency_factor = lf;
  return hash_result(run_path(net, wl, *sched, opts, path));
}

enum SchedKind { kGreedy, kGreedyDelay, kBucketColoring, kFcfs };

std::unique_ptr<OnlineScheduler> make_sched(SchedKind which) {
  switch (which) {
    case kGreedyDelay: {
      GreedyOptions g;
      g.coordination_delay = 3;
      return std::make_unique<GreedyScheduler>(g);
    }
    case kBucketColoring:
      return std::make_unique<BucketScheduler>(
          std::shared_ptr<const BatchScheduler>(make_coloring_batch()));
    case kFcfs: return std::make_unique<FcfsScheduler>();
    default: return std::make_unique<GreedyScheduler>();
  }
}

struct GoldenCase {
  const char* label;
  Network net;
  SyntheticOptions w;
  SchedKind sched;
  std::int64_t lf;
  /// Pre-refactor hash (captured at commit f599ea5). If the MODEL — not the
  /// engine internals — legitimately changes, take the new value from the
  /// failing expectation's message.
  std::uint64_t pin;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  {
    SyntheticOptions w;
    w.num_objects = 8; w.k = 2; w.rounds = 3; w.seed = 101;
    cases.push_back({"clique8-greedy", make_clique(8), w, kGreedy, 1,
                     0x68dfabb7dbbbaca3ULL});
  }
  {
    SyntheticOptions w;
    w.num_objects = 6; w.k = 2; w.rounds = 2; w.zipf_s = 0.9; w.seed = 202;
    cases.push_back({"line12-greedy-delay", make_line(12), w, kGreedyDelay, 2,
                     0x43998081b82a8990ULL});
  }
  {
    SyntheticOptions w;
    w.num_objects = 9; w.k = 3; w.rounds = 2; w.arrival_prob = 0.2;
    w.seed = 303;
    cases.push_back({"cluster334-bucket", make_cluster(3, 3, 4), w,
                     kBucketColoring, 1,
                     0xd632f1e8abb3a269ULL});
  }
  {
    SyntheticOptions w;
    w.num_objects = 10; w.k = 2; w.rounds = 2; w.node_participation = 0.5;
    w.seed = 404;
    cases.push_back({"grid34-fcfs", make_grid({3, 4}), w, kFcfs, 1,
                     0xee4d00ad75582bcaULL});
  }
  {
    SyntheticOptions w;
    w.num_objects = 10; w.k = 2; w.rounds = 2; w.zipf_s = 1.2; w.seed = 505;
    cases.push_back({"star33-greedy", make_star(3, 3), w, kGreedy, 2,
                     0x15943e0c37a4a3deULL});
  }
  return cases;
}

TEST(GoldenSequence, MatchesPreRefactorEngineInAllModes) {
  for (const auto& c : golden_cases()) {
    for (const Path path : kPaths) {
      const std::uint64_t h =
          run_case(c.net, c.w, make_sched(c.sched), c.lf, path);
      EXPECT_EQ(h, c.pin)
          << c.label << " path " << static_cast<int>(path)
          << ": commit sequence diverged from the pre-refactor engine";
    }
  }
}

// Bucket fast-path pins: the same workload through the bucket scheduler
// must hash identically on the production path, through the lockstep
// harness, behind the validating A, and through the naive-insertion
// differential scheduler — both checking the core against the paper's scan
// and scheduling from the scan alone. One pinned value per topology: a
// cached problem gone stale or a drifted derived RNG stream flips the
// hash. line exercises a deterministic A; cluster and star
// exercise randomized A, where the per-probe / per-trial derived streams
// carry the identity.
SyntheticOptions bucket_workload() {
  SyntheticOptions w;
  w.num_objects = 8;
  w.k = 2;
  w.rounds = 3;
  w.arrival_prob = 0.3;
  w.seed = 909;
  return w;
}

/// The registry's A for `net`; with `validating`, behind the oracle
/// decorator that checks every F_A makespan against a validated schedule
/// and makes the suffix pass run even for key-ordered A.
std::shared_ptr<const BatchScheduler> auto_algo(const Network& net,
                                                bool validating) {
  auto a = Registry::make_batch_algo("auto", net);
  if (!validating) return a;
  return std::make_shared<oracle::ValidatingBatch>(std::move(a));
}

std::uint64_t run_bucket_case(const Network& net, Path path,
                              bool validating = false) {
  SyntheticWorkload wl(net, bucket_workload());
  BucketScheduler sched(auto_algo(net, validating));
  return hash_result(run_path(net, wl, sched, {}, path));
}

std::uint64_t run_differential_case(const Network& net, bool drive_naive) {
  SyntheticWorkload wl(net, bucket_workload());
  oracle::DifferentialOptions o;
  o.drive_naive = drive_naive;
  oracle::DifferentialBucketScheduler sched(
      Registry::make_batch_algo("auto", net), o);
  const std::uint64_t h = hash_result(run_experiment(net, wl, sched, {}));
  if (!drive_naive) {
    EXPECT_GT(sched.levels_checked(), 0);
  }
  return h;
}

TEST(GoldenSequence, BucketFastPathPinnedOnAllTopologies) {
  struct FpCase {
    const char* label;
    Network net;
    std::uint64_t pin;
  };
  const FpCase cases[] = {
      {"line12", make_line(12), 0x1476a1655424f9b0ULL},
      {"cluster234", make_cluster(2, 3, 4), 0x0cf2ffb9c53e06ffULL},
      {"star33", make_star(3, 3), 0xd00a62eecafac274ULL},
  };
  for (const auto& c : cases) {
    for (const Path path : kPaths)
      EXPECT_EQ(run_bucket_case(c.net, path), c.pin)
          << c.label << " path " << static_cast<int>(path);
    EXPECT_EQ(run_bucket_case(c.net, Path::kProduction, /*validating=*/true),
              c.pin)
        << c.label << " validating A";
    EXPECT_EQ(run_differential_case(c.net, /*drive_naive=*/false), c.pin)
        << c.label << " core checked against the naive scan";
    EXPECT_EQ(run_differential_case(c.net, /*drive_naive=*/true), c.pin)
        << c.label << " naive insertion";
  }
}

// Distributed engine mode pins: the full message protocol (probes, replies,
// reports) over the bus, with and without a fault plan. The chaos pin is
// the satellite guarantee of the fault subsystem: a FIXED (plan, seed) pair
// is a deterministic workload, so its commit stream is pinnable exactly
// like the clean one — any change to the fault draw order, the timeout
// arithmetic, or the retry protocol flips it.
std::uint64_t run_dist_case(const Network& net, const FaultPlan& plan,
                            Path path, bool validating = false) {
  SyntheticOptions w;
  w.num_objects = 10;
  w.k = 2;
  w.rounds = 2;
  w.seed = 606;
  SyntheticWorkload wl(net, w);
  DistBucketOptions o;
  o.seed = 77;
  o.fault = plan;
  DistributedBucketScheduler sched(net, auto_algo(net, validating), o);
  RunOptions opts;
  opts.engine.latency_factor = 2;  // §V half-speed objects
  opts.engine.fault = plan;
  return hash_result(run_path(net, wl, sched, opts, path));
}

TEST(GoldenSequence, DistBucketNullPlanPinned) {
  // Captured with the fault subsystem in place but a null plan: this is the
  // byte-identical no-fault guarantee for the distributed mode.
  const std::uint64_t kPin = 0xcdd107db4c1159e2ULL;
  const Network net = make_cluster(2, 3, 4);
  for (const Path path : kPaths)
    EXPECT_EQ(run_dist_case(net, FaultPlan{}, path), kPin)
        << "path " << static_cast<int>(path);
  EXPECT_EQ(
      run_dist_case(net, FaultPlan{}, Path::kProduction, /*validating=*/true),
      kPin)
      << "validating A";
}

TEST(GoldenSequence, DistBucketChaosPlanPinned) {
  const std::uint64_t kPin = 0x7d0e573c8d14d918ULL;
  FaultPlan plan;
  plan.drop = 0.3;
  plan.jitter = 2;
  plan.dup = 0.1;
  plan.stall = 0.3;
  plan.seed = 23;
  const Network net = make_cluster(2, 3, 4);
  for (const Path path : kPaths)
    EXPECT_EQ(run_dist_case(net, plan, path), kPin)
        << "path " << static_cast<int>(path);
  EXPECT_EQ(run_dist_case(net, plan, Path::kProduction, /*validating=*/true),
            kPin)
      << "validating A";
}

TEST(GoldenSequence, ServeModePinned) {
  // Serve-mode pin: the full service loop (synthetic source -> admission ->
  // engine -> latency accounting) over the chaos-armed distributed
  // scheduler must reproduce this exact commit sequence. The hash covers
  // every commit's (id, node, offered, exec), so it pins admission order
  // and queue wait, not just engine output. Captured from `dtm_sim serve`
  // with the same spec.
  const std::uint64_t kPin = 1560900743787214076ULL;
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.scheduler = parse_spec("dist-bucket");
  spec.fault = parse_spec("fault:drop=0.05,jitter=2");
  spec.serve = parse_spec(
      "serve:rate=3,duration=512,window=128,admit-rate=4,max-inflight=64");
  spec.latency_factor = 2;
  spec.seed = 2026;
  const Network net = Registry::make_network(spec.topology);
  const ServeReport r = make_server(net, spec)->run();
  EXPECT_EQ(r.commit_hash, kPin);
  EXPECT_EQ(r.admitted, r.commits);
}

TEST(GoldenSequence, StreamModePinned) {
  // Stream-mode pin: the quick size of bench/e2e's stream-greedy-clique
  // workload at its default seed. The hash covers every commit's (id, node,
  // gen, exec), so it pins the stream source, the greedy colouring and the
  // drained run loop together; bench/e2e/run.sh checks the same value.
  const std::uint64_t kPin = 6637613284864579516ULL;
  RunSpec spec;
  spec.topology = parse_spec("clique:n=256");
  spec.scheduler = parse_spec("greedy");
  spec.stream = parse_spec(
      "stream:profile=steady,rate=6,objects=4096,k=2,zipf=0.9,target=15000,"
      "window=1024,drain-every=256");
  spec.seed = 2026;
  const Network net = Registry::make_network(spec.topology);
  const StreamReport r = make_stream_runner(net, spec)->run();
  EXPECT_EQ(r.commits, 15000);
  EXPECT_EQ(r.commit_hash, kPin);
}

}  // namespace
}  // namespace dtm
