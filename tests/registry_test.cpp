// Tests for sim/registry: by-name construction, RunSpec JSON round-trips,
// and the hard-error behavior that keeps typo'd knobs from silently running
// defaults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "oracle/naive_insertion.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "util/check.hpp"

namespace dtm {
namespace {

TEST(Spec, ParseCompactForm) {
  const Spec s = parse_spec("cluster:alpha=3,beta=4,gamma=8");
  EXPECT_EQ(s.kind, "cluster");
  ASSERT_EQ(s.params.size(), 3u);
  EXPECT_EQ(s.params.at("alpha"), "3");
  EXPECT_EQ(s.params.at("beta"), "4");
  EXPECT_EQ(s.params.at("gamma"), "8");

  const Spec bare = parse_spec("greedy");
  EXPECT_EQ(bare.kind, "greedy");
  EXPECT_TRUE(bare.params.empty());
}

TEST(Spec, ToStringRoundTrip) {
  for (const char* text :
       {"greedy", "cluster:alpha=3,beta=4,gamma=8", "grid:dims=3x4",
        "synthetic:k=2,objects=64,zipf=0.8"}) {
    const Spec s = parse_spec(text);
    EXPECT_EQ(parse_spec(to_string(s)), s) << text;
  }
}

TEST(Spec, ParseErrors) {
  EXPECT_THROW((void)parse_spec(""), CheckError);
  EXPECT_THROW((void)parse_spec("line:n"), CheckError);       // no '='
  EXPECT_THROW((void)parse_spec("line:=8"), CheckError);      // empty key
  EXPECT_THROW((void)parse_spec("line:n=8,n=9"), CheckError); // duplicate
}

TEST(SpecArgs, UnknownParameterIsHardError) {
  // A typo'd topology knob must abort, not silently run defaults.
  EXPECT_THROW((void)Registry::make_network(parse_spec("clique:nodes=8")),
               CheckError);
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  EXPECT_THROW((void)Registry::make_scheduler(
                   parse_spec("bucket:max-lvl=3"), net),
               CheckError);
  EXPECT_THROW((void)Registry::make_workload(
                   parse_spec("synthetic:object=8"), net, 1),
               CheckError);
}

TEST(Registry, UnknownKindIsHardError) {
  EXPECT_THROW((void)Registry::make_network(parse_spec("moebius:n=8")),
               CheckError);
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  EXPECT_THROW((void)Registry::make_scheduler(parse_spec("optimal"), net),
               CheckError);
  EXPECT_THROW((void)Registry::make_workload(parse_spec("tpcc"), net, 1),
               CheckError);
  EXPECT_THROW((void)Registry::make_batch_algo("bogus", net), CheckError);
}

TEST(Registry, EnumerationsMatchFactories) {
  // Every advertised name must construct on a topology-appropriate network.
  EXPECT_FALSE(Registry::topologies().empty());
  EXPECT_FALSE(Registry::schedulers().empty());
  EXPECT_FALSE(Registry::workloads().empty());
  EXPECT_FALSE(Registry::batch_algos().empty());
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  for (const auto& e : Registry::schedulers()) {
    EXPECT_NE(Registry::make_scheduler(parse_spec(e.name), net), nullptr)
        << e.name;
  }
}

TEST(Registry, BuildParamsFeedStructuralBatchAlgos) {
  // algo=auto must recover beta / dims from the network's build parameters.
  const Network cluster = Registry::make_network(
      parse_spec("cluster:alpha=2,beta=3,gamma=4"));
  EXPECT_NE(Registry::make_batch_algo("auto", cluster), nullptr);
  EXPECT_NE(Registry::make_batch_algo("cluster", cluster), nullptr);
  const Network grid = Registry::make_network(parse_spec("grid:dims=3x4"));
  EXPECT_NE(Registry::make_batch_algo("auto", grid), nullptr);
  EXPECT_NE(Registry::make_batch_algo("grid-snake", grid), nullptr);
}

// The tentpole guarantee: every registered scheduler runs on every small
// topology, and the engine validates each commit (object present at node).
TEST(Registry, SchedulerTopologySmokeMatrix) {
  const std::vector<std::string> topologies = {
      "clique:n=6",  "line:n=8",           "ring:n=8",
      "grid:dims=3x3", "hypercube:d=3",
      "star:alpha=2,beta=2", "cluster:alpha=2,beta=2,gamma=3",
      "tree:branching=2,depth=3"};
  for (const auto& topo : topologies) {
    for (const auto& sched : Registry::schedulers()) {
      RunSpec spec;
      spec.topology = parse_spec(topo);
      spec.scheduler = parse_spec(sched.name);
      spec.workload = parse_spec("synthetic:objects=6,k=2,rounds=2");
      spec.seed = 11;
      // §V: the distributed protocol needs half-speed objects.
      if (sched.name == "dist-bucket") spec.latency_factor = 2;
      const RunResult r = run_spec(spec);
      EXPECT_GT(r.num_txns, 0) << topo << " / " << sched.name;
      EXPECT_GT(r.makespan, 0) << topo << " / " << sched.name;
    }
  }
}

/// The CheckError a spec-building call throws; the test fails if none.
template <typename F>
std::string hard_error(F&& f) {
  try {
    f();
  } catch (const CheckError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a CheckError";
  return {};
}

TEST(Registry, BucketFastpathKnobSelectsPath) {
  // The incremental insertion core is the bucket schedulers' only path (the
  // naive scan is the oracle in tests/oracle/): a spec without the knob
  // builds it, and every fastpath= value is a hard error naming the key.
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  const auto b = Registry::make_scheduler(parse_spec("bucket"), net);
  EXPECT_NE(dynamic_cast<const BucketScheduler*>(b.get()), nullptr);
  const auto d = Registry::make_scheduler(parse_spec("dist-bucket"), net);
  EXPECT_NE(dynamic_cast<const DistributedBucketScheduler*>(d.get()), nullptr);
  for (const char* spec :
       {"bucket:fastpath=off", "bucket:fastpath=on", "bucket:fastpath=verify",
        "dist-bucket:fastpath=off", "dist-bucket:fastpath=on",
        "dist-bucket:fastpath=verify"})
    EXPECT_NE(hard_error([&] {
                (void)Registry::make_scheduler(parse_spec(spec), net);
              }).find("fastpath"),
              std::string::npos)
        << spec;
}

TEST(Registry, BucketFastpathRoundTripsAndMatchesNaive) {
  // A bucket RunSpec survives the JSON round-trip, and its run commits the
  // schedule that the paper-verbatim naive insertion commits.
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=2,gamma=3");
  spec.scheduler = parse_spec("bucket");
  spec.workload = parse_spec("synthetic:objects=6,k=2,rounds=2");
  spec.seed = 11;
  EXPECT_EQ(RunSpec::from_json(spec.to_json()), spec);

  const RunResult on = run_spec(spec);
  const Network net = Registry::make_network(spec.topology);
  const auto wl = Registry::make_workload(spec.workload, net, spec.seed);
  oracle::DifferentialOptions o;
  o.drive_naive = true;
  oracle::DifferentialBucketScheduler sched(
      Registry::make_batch_algo("auto", net), o);
  const RunResult naive = run_experiment(net, *wl, sched);
  ASSERT_GT(on.committed.size(), 0u);
  ASSERT_EQ(on.committed.size(), naive.committed.size());
  for (std::size_t i = 0; i < on.committed.size(); ++i) {
    EXPECT_EQ(on.committed[i].txn.id, naive.committed[i].txn.id);
    EXPECT_EQ(on.committed[i].exec, naive.committed[i].exec);
  }
  EXPECT_EQ(on.makespan, naive.makespan);
}

TEST(Registry, RemovedKnobsAreHardErrors) {
  // The reference-path knobs are gone from the shipped code (their oracles
  // live in tests/oracle/); each must fail loudly and name itself, never
  // silently run the default. fastpath= is covered above.
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  for (const char* spec :
       {"bucket:batch_math=verify", "dist-bucket:batch_math=verify"})
    EXPECT_NE(hard_error([&] {
                (void)Registry::make_scheduler(parse_spec(spec), net);
              }).find("batch_math"),
              std::string::npos)
        << spec;
  EXPECT_NE(hard_error([] {
              (void)Registry::make_network(
                  parse_spec("grid:dims=4x4,routing=verify"));
            }).find("routing"),
            std::string::npos);
  for (const char* spec : {"grid:dims=4x4,routing=landmark,stretch=4",
                           "random:n=20,routing=landmark,stretch=6"})
    EXPECT_NE(hard_error([&] {
                (void)Registry::make_network(parse_spec(spec));
              }).find("stretch"),
              std::string::npos)
        << spec;
  for (const char* mode : {"scan", "calendar", "verify", "verify-parallel"})
    EXPECT_NE(hard_error([&] {
                (void)RunSpec::from_json(Json::parse(
                    std::string("{\"mode\": \"") + mode + "\"}"));
              }).find("'mode'"),
              std::string::npos)
        << mode;
}

TEST(Registry, BatchMathKnobSelectsMode) {
  const Network net = Registry::make_network(parse_spec("clique:n=4"));
  const auto math_of = [&](const std::string& spec) {
    const auto s = Registry::make_scheduler(parse_spec(spec), net);
    const auto* b = dynamic_cast<const BucketScheduler*>(s.get());
    EXPECT_NE(b, nullptr) << spec;
    return b->insertion_core().math();
  };
  EXPECT_EQ(math_of("bucket"), BatchMathMode::kScalar);  // default: scalar
  EXPECT_EQ(math_of("bucket:batch_math=scalar"), BatchMathMode::kScalar);
  EXPECT_EQ(math_of("bucket:batch_math=soa"), BatchMathMode::kSoA);
  EXPECT_THROW((void)Registry::make_scheduler(
                   parse_spec("bucket:batch_math=simd"), net),
               CheckError);

  const auto d =
      Registry::make_scheduler(parse_spec("dist-bucket:batch_math=soa"), net);
  const auto* db = dynamic_cast<const DistributedBucketScheduler*>(d.get());
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->insertion_core().math(), BatchMathMode::kSoA);
  EXPECT_THROW((void)Registry::make_scheduler(
                   parse_spec("dist-bucket:batch_math=avx"), net),
               CheckError);
}

TEST(Registry, BatchMathRoundTripsAndMatchesScalar) {
  // The knob survives the RunSpec JSON round-trip (compact spec string ->
  // JSON -> spec), and scalar/soa runs of the same spec commit identical
  // schedules.
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=2,gamma=3");
  spec.scheduler = parse_spec("bucket:batch_math=soa");
  spec.workload = parse_spec("synthetic:objects=6,k=2,rounds=2");
  spec.seed = 11;
  EXPECT_EQ(RunSpec::from_json(spec.to_json()), spec);

  const RunResult soa = run_spec(spec);
  RunSpec scalar = spec;
  scalar.scheduler = parse_spec("bucket:batch_math=scalar");
  const RunResult ref = run_spec(scalar);
  ASSERT_EQ(soa.committed.size(), ref.committed.size());
  for (std::size_t i = 0; i < soa.committed.size(); ++i) {
    EXPECT_EQ(soa.committed[i].txn.id, ref.committed[i].txn.id);
    EXPECT_EQ(soa.committed[i].exec, ref.committed[i].exec);
  }
  EXPECT_EQ(soa.makespan, ref.makespan);
}

TEST(Registry, DefaultBucketSmokeTakesIncrementalPath) {
  // The smoke matrix above proves default specs *run*; this proves the
  // default bucket schedulers actually took the fast path while doing so:
  // every insertion was an in-place append, nothing was rebuilt.
  const Network net = Registry::make_network(
      parse_spec("cluster:alpha=2,beta=2,gamma=3"));
  {
    const auto wl = Registry::make_workload(
        parse_spec("synthetic:objects=6,k=2,rounds=2"), net, 11);
    const auto s = Registry::make_scheduler(parse_spec("bucket"), net);
    (void)run_experiment(net, *wl, *s);
    const auto* b = dynamic_cast<const BucketScheduler*>(s.get());
    ASSERT_NE(b, nullptr);
    EXPECT_GT(b->fastpath_stats().inserts, 0);
    EXPECT_EQ(b->fastpath_stats().appends, b->fastpath_stats().inserts);
    EXPECT_EQ(b->fastpath_stats().rebuilds, 0);
  }
  {
    const auto wl = Registry::make_workload(
        parse_spec("synthetic:objects=6,k=2,rounds=2"), net, 11);
    const auto s = Registry::make_scheduler(parse_spec("dist-bucket"), net);
    RunOptions opts;
    opts.engine.latency_factor = 2;  // §V: half-speed objects
    (void)run_experiment(net, *wl, *s, opts);
    const auto* db = dynamic_cast<const DistributedBucketScheduler*>(s.get());
    ASSERT_NE(db, nullptr);
    EXPECT_GT(db->fastpath_stats().inserts, 0);
    EXPECT_EQ(db->fastpath_stats().rebuilds, 0);
  }
}

TEST(Registry, RunSpecIsDeterministic) {
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.scheduler = parse_spec("bucket");
  spec.workload = parse_spec("synthetic:objects=8,k=2,rounds=3,zipf=0.7");
  spec.seed = 5;
  const RunResult a = run_spec(spec);
  const RunResult b = run_spec(spec);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.num_txns, b.num_txns);
  ASSERT_EQ(a.committed.size(), b.committed.size());
  for (std::size_t i = 0; i < a.committed.size(); ++i) {
    EXPECT_EQ(a.committed[i].txn.id, b.committed[i].txn.id);
    EXPECT_EQ(a.committed[i].exec, b.committed[i].exec);
  }
}

TEST(Registry, WorkloadSeedParamWinsOverDefault) {
  const Network net = Registry::make_network(parse_spec("clique:n=6"));
  const Spec with_seed =
      parse_spec("synthetic:objects=6,k=2,rounds=2,seed=123");
  auto a = Registry::make_workload(with_seed, net, 999);
  auto b = Registry::make_workload(with_seed, net, 1);
  // Same embedded seed, different defaults: identical generators.
  RunSpec sa, sb;
  sa.workload = with_seed;
  sa.seed = 999;
  sb.workload = with_seed;
  sb.seed = 1;
  sa.topology = sb.topology = parse_spec("clique:n=6");
  EXPECT_EQ(run_spec(sa).makespan, run_spec(sb).makespan);
}

TEST(RunSpec, JsonRoundTrip) {
  RunSpec spec;
  spec.topology = parse_spec("cluster:alpha=2,beta=3,gamma=4");
  spec.workload = parse_spec("synthetic:objects=16,k=3,zipf=0.8");
  spec.scheduler = parse_spec("bucket:max-level=2,retries=5");
  spec.fault = parse_spec("fault:drop=0.1,jitter=2,stall=0.25");
  spec.latency_factor = 2;
  spec.seed = 77;
  spec.trials = 4;
  spec.ratio_window = 128;
  spec.validate = false;

  const Json j = spec.to_json();
  EXPECT_EQ(RunSpec::from_json(j), spec);
  // And through text: dump -> parse -> from_json.
  EXPECT_EQ(RunSpec::from_json(Json::parse(j.dump())), spec);
}

TEST(RunSpec, DefaultsRoundTripAndRun) {
  const RunSpec spec;  // clique(8) / synthetic / greedy
  EXPECT_EQ(RunSpec::from_json(spec.to_json()), spec);
  const RunResult r = run_spec(spec);
  EXPECT_GT(r.num_txns, 0);
}

TEST(RunSpec, FromJsonRejectsUnknownKeysAndBadMode) {
  EXPECT_THROW(
      (void)RunSpec::from_json(Json::parse("{\"topolgy\": \"line:n=8\"}")),
      CheckError);
  // The engine has one bookkeeping path: any "mode" key is rejected.
  EXPECT_THROW(
      (void)RunSpec::from_json(Json::parse("{\"mode\": \"turbo\"}")),
      CheckError);
  EXPECT_EQ(RunSpec{}.engine_mode(), EngineOptions::Mode::kCalendar);
}

TEST(RunSpec, CompactSpecStringsAcceptedInJson) {
  const RunSpec spec = RunSpec::from_json(Json::parse(
      "{\"topology\": \"star:alpha=2,beta=2\", \"scheduler\": \"fcfs\"}"));
  EXPECT_EQ(spec.topology, parse_spec("star:alpha=2,beta=2"));
  EXPECT_EQ(spec.scheduler.kind, "fcfs");
  EXPECT_EQ(spec.workload.kind, "synthetic");  // untouched default
}

TEST(RunSpec, FaultSpecRoundTripsThroughEverySurface) {
  // compact string -> Spec -> JSON -> Spec -> FaultPlan, all agreeing.
  const std::string text = "fault:drop=0.2,dup=0.05,jitter=3,pauses=2,seed=9";
  const Spec s = parse_spec(text);
  EXPECT_EQ(parse_spec(to_string(s)), s);

  RunSpec spec;
  spec.fault = s;
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back.fault, s);

  const FaultPlan p = Registry::make_fault_plan(back.fault, spec.seed);
  EXPECT_DOUBLE_EQ(p.drop, 0.2);
  EXPECT_EQ(p.jitter, 3);
  EXPECT_EQ(p.seed, 9u);
  // And back out: plan -> spec -> plan is the identity.
  EXPECT_EQ(Registry::make_fault_plan(Registry::fault_to_spec(p)), p);
}

TEST(RunSpec, OldJsonWithoutFaultMeansNoFaults) {
  // Spec files written before the fault subsystem keep their meaning.
  const RunSpec spec = RunSpec::from_json(
      Json::parse("{\"topology\": \"line:n=8\", \"scheduler\": \"greedy\"}"));
  EXPECT_EQ(spec.fault.kind, "none");
  EXPECT_TRUE(
      Registry::make_fault_plan(spec.fault, spec.seed).is_null());
}

TEST(RunSpec, UnknownFaultKnobIsHardError) {
  // A typo'd fault knob aborts the run like every other spec typo.
  RunSpec spec;
  spec.fault = parse_spec("fault:drp=0.1");
  EXPECT_THROW((void)run_spec(spec), CheckError);
  spec.fault = parse_spec("storm");
  EXPECT_THROW((void)run_spec(spec), CheckError);
}

TEST(RunSpec, TrialsAverageMatchesManualSeeds) {
  RunSpec spec;
  spec.topology = parse_spec("line:n=10");
  spec.scheduler = parse_spec("greedy");
  spec.workload = parse_spec("synthetic:objects=8,k=2,rounds=2");
  spec.seed = 3;
  spec.trials = 3;
  const TrialSummary s = run_spec_trials(spec);
  double sum = 0;
  for (std::int32_t t = 0; t < spec.trials; ++t) {
    RunSpec one = spec;
    one.seed = spec.seed + static_cast<std::uint64_t>(t) * 7919;
    one.trials = 1;
    sum += static_cast<double>(run_spec(one, /*collect_schedule=*/false)
                                   .makespan);
  }
  EXPECT_DOUBLE_EQ(s.makespan, sum / spec.trials);
}

}  // namespace
}  // namespace dtm
