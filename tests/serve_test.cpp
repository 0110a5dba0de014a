// Serve-layer tests: the log-bucketed latency histogram against exact
// sorted quantiles, admission-control semantics and determinism, the
// DtmServer drain-to-quiescence zero-loss invariant, bounded committed-log
// memory, live fault toggling, and the "serve:" spec round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "serve/admission.hpp"
#include "util/latency.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "sim/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

// ---------------------------------------------------------------------------
// LatencyRecorder

std::int64_t exact_quantile(std::vector<std::int64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::max<std::size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

TEST(LatencyRecorder, SmallValuesAreExact) {
  LatencyRecorder r;
  std::vector<std::int64_t> samples;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(0, 60);  // below 2^(sub_bits+1) = 64
    samples.push_back(v);
    r.record(v);
  }
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0})
    EXPECT_EQ(r.quantile(q), exact_quantile(samples, q)) << "q=" << q;
  EXPECT_EQ(r.count(), 5000);
  EXPECT_EQ(r.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(r.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(LatencyRecorder, LargeValuesWithinRelativeError) {
  LatencyRecorder r;  // sub_bits = 5 -> relative error <= 1/32
  std::vector<std::int64_t> samples;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across 5 decades, the shape latency tails actually have.
    const double e = rng.uniform01() * 5.0;
    const auto v = static_cast<std::int64_t>(std::pow(10.0, e));
    samples.push_back(v);
    r.record(v);
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = static_cast<double>(exact_quantile(samples, q));
    const double est = static_cast<double>(r.quantile(q));
    EXPECT_LE(std::abs(est - exact), exact / 32.0 + 1.0)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LatencyRecorder, MergeMatchesCombinedStream) {
  LatencyRecorder a, b, all;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    const auto v = rng.uniform_int(0, 100000);
    (i % 2 == 0 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  for (const double q : {0.5, 0.95, 0.999})
    EXPECT_EQ(a.quantile(q), all.quantile(q));
}

TEST(LatencyRecorder, ResetClears) {
  LatencyRecorder r;
  r.record(5);
  r.record(1000);
  r.reset();
  EXPECT_EQ(r.count(), 0);
  EXPECT_EQ(r.quantile(0.5), 0);
  EXPECT_EQ(r.max(), 0);
}

// ---------------------------------------------------------------------------
// AdmissionController

Transaction dummy_txn(TxnId id) {
  Transaction t;
  t.id = id;
  t.node = 0;
  t.gen_time = 0;
  t.accesses = write_set({0});
  return t;
}

TEST(Admission, TokenBucketLimitsSustainedRate) {
  AdmissionOptions o;
  o.rate = 0.5;  // one admit every 2 steps, sustained
  o.burst = 2.0;
  o.max_inflight = 0;
  AdmissionController ac(o);
  std::int64_t admitted = 0;
  for (Time now = 0; now < 100; ++now) {
    ac.refill(now);
    for (int i = 0; i < 3; ++i)
      if (ac.offer(dummy_txn(now * 3 + i), now, 0) ==
          AdmissionController::Outcome::kAdmit)
        ++admitted;
  }
  // 2 burst tokens + 0.5/step * 99 steps, within rounding.
  EXPECT_GE(admitted, 50);
  EXPECT_LE(admitted, 52);
  EXPECT_EQ(ac.stats().shed_tokens, ac.stats().shed);
}

TEST(Admission, InflightCapShedsAndQueuePolicyParks) {
  AdmissionOptions o;
  o.max_inflight = 4;
  AdmissionController shed(o);
  for (int i = 0; i < 6; ++i) {
    const auto out = shed.offer(dummy_txn(i), 0, /*inflight=*/i);
    EXPECT_EQ(out, i < 4 ? AdmissionController::Outcome::kAdmit
                         : AdmissionController::Outcome::kShed);
  }
  EXPECT_EQ(shed.stats().shed_inflight, 2);

  o.policy = AdmissionOptions::Policy::kQueue;
  o.queue_cap = 1;
  AdmissionController queue(o);
  EXPECT_EQ(queue.offer(dummy_txn(0), 0, 4),
            AdmissionController::Outcome::kQueued);
  EXPECT_EQ(queue.offer(dummy_txn(1), 0, 4),
            AdmissionController::Outcome::kShed);  // bounded queue overflow
  EXPECT_EQ(queue.stats().shed_queue_full, 1);

  std::vector<AdmissionController::Release> rel;
  queue.release(5, /*inflight=*/0, rel);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel[0].txn.id, 0);
  EXPECT_EQ(rel[0].offered, 0);
  EXPECT_EQ(queue.stats().max_queue_wait, 5);
  EXPECT_TRUE(queue.queue_empty());
}

TEST(Admission, NextTokenTimePredictsAdmission) {
  AdmissionOptions o;
  o.rate = 0.25;
  o.burst = 1.0;
  AdmissionController ac(o);
  ac.refill(0);
  ASSERT_EQ(ac.offer(dummy_txn(0), 0, 0), AdmissionController::Outcome::kAdmit);
  const Time t = ac.next_token_time(0);
  ASSERT_NE(t, kNoTime);
  EXPECT_EQ(t, 4);  // 1 token / 0.25 per step
  ac.refill(t);
  EXPECT_EQ(ac.offer(dummy_txn(1), t, 0), AdmissionController::Outcome::kAdmit);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(Metrics, SnapshotSequencesAndDuplicateNames) {
  MetricsRegistry m;
  m.add("a", [] { return Json(1); });
  EXPECT_TRUE(m.has("a"));
  EXPECT_THROW(m.add("a", [] { return Json(2); }), CheckError);
  const Json s0 = m.snapshot();
  const Json s1 = m.snapshot();
  EXPECT_EQ(s0.at("seq").as_int(), 0);
  EXPECT_EQ(s1.at("seq").as_int(), 1);
  EXPECT_EQ(s1.at("a").as_int(), 1);
}

// ---------------------------------------------------------------------------
// Sources

TEST(SyntheticSource, DeterministicPacingMatchesRate) {
  const Network net = make_line(6);
  SyntheticSourceOptions o;
  o.rate = 0.75;
  SyntheticSource s(net, o);
  std::int64_t total = 0;
  Time t = s.next_offer_time();
  while (t < 1000) {
    total += static_cast<std::int64_t>(s.offers_at(t).size());
    t = s.next_offer_time();
  }
  // The fractional accumulator is exact: floor(1000 * 0.75) +- 1.
  EXPECT_NEAR(static_cast<double>(total), 750.0, 1.0);
}

TEST(TraceSource, LoopsShiftedByPeriod) {
  std::vector<ObjectOrigin> origins = {{0, 0, 0}};
  Transaction a = dummy_txn(0);
  a.gen_time = 1;
  Transaction b = dummy_txn(1);
  b.gen_time = 3;
  TraceSource s(origins, {a, b}, /*loop_period=*/10);
  EXPECT_EQ(s.next_offer_time(), 1);
  EXPECT_EQ(s.offers_at(1).size(), 1u);
  EXPECT_EQ(s.next_offer_time(), 3);
  EXPECT_EQ(s.offers_at(3).size(), 1u);
  EXPECT_EQ(s.next_offer_time(), 11);  // second cycle, shifted by the period
  const auto second = s.offers_at(11);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].gen_time, 11);
  EXPECT_EQ(second[0].id, 2);  // fresh ids every cycle
}

// ---------------------------------------------------------------------------
// DtmServer end-to-end

RunSpec serve_spec(const std::string& topology, const std::string& scheduler,
                   const std::string& serve, const std::string& fault = "") {
  RunSpec spec;
  spec.topology = parse_spec(topology);
  spec.scheduler = parse_spec(scheduler);
  spec.serve = parse_spec(serve);
  if (!fault.empty()) spec.fault = parse_spec(fault);
  spec.seed = 12345;
  return spec;
}

TEST(Serve, DrainToQuiescenceLosesNothing) {
  const RunSpec spec = serve_spec(
      "line:n=8", "greedy",
      "serve:rate=3,duration=512,window=128,admit-rate=4,max-inflight=64");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  const ServeReport r = server->run();
  EXPECT_TRUE(server->finished());
  EXPECT_GT(r.offered, 0);
  EXPECT_GT(r.commits, 0);
  // The zero-loss invariant (also DTM_CHECKed inside the server).
  EXPECT_EQ(r.admitted, r.commits);
  EXPECT_EQ(r.offered, r.admitted + r.shed);
  EXPECT_GE(r.end_time, 512);
  EXPECT_EQ(r.windows,
            static_cast<std::int64_t>(server->windows().size()));
  // Window totals reconcile with the run totals.
  std::int64_t window_commits = 0, window_offered = 0;
  for (const auto& w : server->windows()) {
    window_commits += w.commits;
    window_offered += w.offered;
  }
  EXPECT_EQ(window_commits, r.commits);
  EXPECT_EQ(window_offered, r.offered);
}

TEST(Serve, DeterministicCommitHashAcrossRuns) {
  const RunSpec spec = serve_spec(
      "cluster:alpha=2,beta=3,gamma=4", "bucket",
      "serve:rate=2,duration=384,window=96,admit-rate=3,policy=queue,"
      "queue-cap=32");
  const Network net = Registry::make_network(spec.topology);
  const ServeReport a = make_server(net, spec)->run();
  const ServeReport b = make_server(net, spec)->run();
  EXPECT_EQ(a.commit_hash, b.commit_hash);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.latency.quantile(0.99), b.latency.quantile(0.99));
}

TEST(Serve, CommitHashIdenticalAcrossThreadCounts) {
  // The GoldenSequence.ServeModePinned service at every thread count: the
  // engine's sharded reroute and dist-bucket's parallel insertion must
  // reproduce the serial commit sequence, admission order included.
  RunSpec spec = serve_spec(
      "cluster:alpha=2,beta=3,gamma=4", "dist-bucket",
      "serve:rate=3,duration=512,window=128,admit-rate=4,max-inflight=64",
      "fault:drop=0.05,jitter=2");
  spec.latency_factor = 2;
  spec.seed = 2026;
  const Network net = Registry::make_network(spec.topology);
  for (const std::int32_t threads : {1, 2, 4}) {
    spec.threads = threads;
    const ServeReport r = make_server(net, spec)->run();
    EXPECT_EQ(r.commit_hash, 1560900743787214076ULL) << "threads " << threads;
    EXPECT_EQ(r.admitted, r.commits) << "threads " << threads;
  }
}

TEST(Serve, CommittedLogStaysBounded) {
  const RunSpec spec = serve_spec(
      "line:n=6", "greedy",
      "serve:rate=4,duration=2048,window=64,max-inflight=32");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  const ServeReport r = server->run();
  // Everything the engine committed was drained out on the window cadence,
  // and the in-memory log never held more than a couple of windows' worth
  // — the bounded-RSS property, asserted structurally.
  EXPECT_EQ(r.drained, r.commits);
  EXPECT_GT(r.commits, 1000);
  EXPECT_LT(r.peak_committed_log, r.commits / 4);
  // A server with draining disabled holds the whole log at peak instead.
  RunSpec keep = spec;
  keep.serve.params["drain-every"] = "-1";
  const ServeReport rk = make_server(net, keep)->run();
  EXPECT_EQ(rk.drained, 0);
  EXPECT_EQ(rk.peak_committed_log, rk.commits);
  EXPECT_EQ(rk.commit_hash, r.commit_hash);  // draining never changes the run
}

TEST(Serve, PumpHonorsHorizonAndResumes) {
  const RunSpec spec = serve_spec(
      "line:n=6", "greedy", "serve:rate=2,duration=600,window=100");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  EXPECT_TRUE(server->pump(250));
  EXPECT_LE(server->now(), 251);
  EXPECT_GT(server->commits(), 0);
  EXPECT_FALSE(server->finished());
  EXPECT_FALSE(server->pump(kNoTime));  // run the rest
  EXPECT_TRUE(server->finished());
  const ServeReport r = server->report();
  EXPECT_EQ(r.admitted, r.commits);
}

TEST(Serve, RequestDrainStopsAdmissionEarly) {
  const RunSpec spec = serve_spec(
      "line:n=6", "greedy", "serve:rate=2,duration=0,window=64");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  EXPECT_TRUE(server->pump(200));
  server->request_drain();
  EXPECT_FALSE(server->pump(kNoTime));
  const ServeReport r = server->report();
  EXPECT_EQ(r.admitted, r.commits);
  EXPECT_LE(r.end_time, 200 + 2000);  // drained promptly, no new admissions
}

TEST(Serve, LiveFaultToggleKeepsEveryAdmittedTxn) {
  // Start with chaos armed, crank intensity mid-run, then calm it down:
  // every admitted transaction must still commit by quiescence.
  const RunSpec spec = serve_spec(
      "cluster:alpha=2,beta=3,gamma=4", "dist-bucket",
      "serve:rate=2,duration=768,window=128,max-inflight=48",
      "fault:drop=0.05,jitter=2");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  EXPECT_TRUE(server->pump(256));
  FaultPlan storm;
  storm.drop = 0.3;
  storm.jitter = 6;
  storm.stall = 0.2;
  server->set_fault(storm);
  EXPECT_TRUE(server->pump(512));
  FaultPlan calm;
  calm.drop = 1e-9;  // message-faults stay "armed" but effectively zero
  server->set_fault(calm);
  EXPECT_FALSE(server->pump(kNoTime));
  const ServeReport r = server->report();
  EXPECT_EQ(r.fault_toggles, 2);
  EXPECT_GT(r.commits, 0);
  EXPECT_EQ(r.admitted, r.commits);  // zero lost admitted transactions
}

TEST(Serve, FaultToggleRequiresArmedScheduler) {
  const RunSpec spec = serve_spec(
      "cluster:alpha=2,beta=3,gamma=4", "dist-bucket",
      "serve:rate=2,duration=256,window=64");  // fault: none -> plain bus
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  FaultPlan storm;
  storm.drop = 0.2;
  EXPECT_THROW(server->set_fault(storm), CheckError);
  FaultPlan stall_only;
  stall_only.stall = 0.1;  // transport-level: fine without an armed bus
  server->set_fault(stall_only);
  EXPECT_FALSE(server->pump(kNoTime));
  EXPECT_EQ(server->report().fault_toggles, 1);
}

TEST(Serve, SloViolationsCounted) {
  // slo-p99=1 is unmeetable on any network with distance, so every window
  // with commits must violate.
  const RunSpec spec = serve_spec(
      "line:n=8", "greedy",
      "serve:rate=2,duration=256,window=64,slo-p99=1");
  const Network net = Registry::make_network(spec.topology);
  auto server = make_server(net, spec);
  const ServeReport r = server->run();
  std::int64_t windows_with_commits = 0;
  for (const auto& w : server->windows())
    if (w.commits > 0) ++windows_with_commits;
  EXPECT_EQ(r.slo_violations, windows_with_commits);
  EXPECT_GT(r.slo_violations, 0);
}

// ---------------------------------------------------------------------------
// Spec plumbing

TEST(ServeSpec, CompactAndJsonRoundTrip) {
  const Spec s = parse_spec(
      "serve:rate=6,duration=4096,admit-rate=8,policy=queue,queue-cap=64,"
      "zipf=0.9,burst-every=512,burst-len=64,burst-mult=3,slo-p99=200");
  const ServeConfig c = Registry::make_serve_config(s, 99);
  EXPECT_DOUBLE_EQ(c.rate, 6.0);
  EXPECT_EQ(c.duration, 4096);
  EXPECT_DOUBLE_EQ(c.admission.rate, 8.0);
  EXPECT_EQ(c.admission.policy, AdmissionOptions::Policy::kQueue);
  EXPECT_EQ(c.admission.queue_cap, 64);
  EXPECT_DOUBLE_EQ(c.zipf, 0.9);
  EXPECT_EQ(c.burst_every, 512);
  EXPECT_EQ(c.slo_p99, 200);
  EXPECT_EQ(c.seed, 99u);  // RunSpec seed flows through as the default

  RunSpec spec;
  spec.serve = s;
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back, spec);
  EXPECT_TRUE(spec.to_json().has("serve"));  // --dump-spec shows the kind
}

TEST(ServeSpec, UnknownKnobsAndBadValuesHardError) {
  EXPECT_THROW(Registry::make_serve_config(parse_spec("serve:ratee=4")),
               CheckError);
  EXPECT_THROW(Registry::make_serve_config(parse_spec("serve:policy=drop")),
               CheckError);
  EXPECT_THROW(Registry::make_serve_config(parse_spec("serve:rate=0")),
               CheckError);
  EXPECT_THROW(Registry::make_serve_config(parse_spec("serve:window=0")),
               CheckError);
  EXPECT_THROW(Registry::make_serve_config(parse_spec("bogus:rate=1")),
               CheckError);
  EXPECT_THROW(
      Registry::make_serve_config(parse_spec("serve:source=trace")),
      CheckError);  // trace source needs trace=PATH
}

// ---------------------------------------------------------------------------
// TraceSource looping-replay edge cases

TEST(TraceSource, EmptyTraceIsRejected) {
  EXPECT_THROW((void)TraceSource({{0, 0, 0}}, {}, 0), CheckError);
}

TEST(TraceSource, SingleTxnLoopsAtThePeriod) {
  Transaction t;
  t.id = 99;
  t.node = 0;
  t.gen_time = 3;
  t.accesses = write_set({0});
  TraceSource src({{0, 0, 0}}, {t}, /*loop_period=*/5);
  // Offers land at 3, 8, 13, ... — the recorded gen_time shifted by one
  // period per cycle — with fresh monotone ids each cycle.
  for (int cycle = 0; cycle < 4; ++cycle) {
    const Time due = 3 + 5 * cycle;
    EXPECT_EQ(src.next_offer_time(), due);
    const auto offers = src.offers_at(due);
    ASSERT_EQ(offers.size(), 1u);
    EXPECT_EQ(offers[0].gen_time, due);
    EXPECT_EQ(offers[0].id, cycle);
  }
}

TEST(TraceSource, WrapAroundPacingPreservesGaps) {
  std::vector<Transaction> txns;
  for (const Time g : {1, 4, 6}) {
    Transaction t;
    t.id = g;
    t.node = 0;
    t.gen_time = g;
    t.accesses = write_set({0});
    txns.push_back(std::move(t));
  }
  TraceSource src({{0, 0, 0}}, txns, /*loop_period=*/8);
  // Two full cycles: 1, 4, 6, then (shifted by 8) 9, 12, 14. The gap
  // across the wrap (6 -> 9) is period - last + first, not a restart at 0.
  std::vector<Time> seen;
  for (int i = 0; i < 6; ++i) {
    const Time due = src.next_offer_time();
    const auto offers = src.offers_at(due);
    ASSERT_EQ(offers.size(), 1u);
    seen.push_back(due);
  }
  EXPECT_EQ(seen, (std::vector<Time>{1, 4, 6, 9, 12, 14}));
}

TEST(TraceSource, NonLoopingTraceExhausts) {
  Transaction t;
  t.id = 0;
  t.node = 0;
  t.gen_time = 2;
  t.accesses = write_set({0});
  TraceSource src({{0, 0, 0}}, {t}, /*loop_period=*/0);
  EXPECT_EQ(src.next_offer_time(), 2);
  EXPECT_EQ(src.offers_at(2).size(), 1u);
  EXPECT_EQ(src.next_offer_time(), kNoTime);
}

TEST(TraceSource, LoopPeriodMustClearLastArrival) {
  Transaction t;
  t.id = 0;
  t.node = 0;
  t.gen_time = 7;
  t.accesses = write_set({0});
  // A period <= the last recorded arrival would replay time backwards.
  EXPECT_THROW((void)TraceSource({{0, 0, 0}}, {t}, /*loop_period=*/7),
               CheckError);
}

// ---------------------------------------------------------------------------
// LatencyRecorder window rollover

TEST(LatencyRecorder, ResetClearsEverything) {
  LatencyRecorder r;
  for (std::int64_t v : {3, 900, 12, 45000}) r.record(v);
  ASSERT_EQ(r.count(), 4);
  r.reset();
  EXPECT_EQ(r.count(), 0);
  EXPECT_EQ(r.min(), 0);
  EXPECT_EQ(r.max(), 0);
  EXPECT_EQ(r.mean(), 0.0);
  EXPECT_EQ(r.quantile(0.99), 0);
  // A reset recorder records like a fresh one (window rollover reuses the
  // same object every window).
  r.record(8);
  EXPECT_EQ(r.count(), 1);
  EXPECT_EQ(r.quantile(0.5), 8);
}

TEST(LatencyRecorder, WindowRolloverMergesIntoCumulative) {
  // The serve pattern: per-window recorder merged into the cumulative one,
  // then reset. Cumulative must equal one recorder fed every sample.
  LatencyRecorder window, cumulative, reference;
  Rng rng(21);
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 200; ++i) {
      const auto v = rng.uniform_int(0, 10000);
      window.record(v);
      reference.record(v);
    }
    cumulative.merge(window);
    window.reset();
  }
  EXPECT_EQ(window.count(), 0);
  EXPECT_EQ(cumulative.count(), reference.count());
  EXPECT_EQ(cumulative.min(), reference.min());
  EXPECT_EQ(cumulative.max(), reference.max());
  for (const double q : {0.5, 0.95, 0.99, 0.999})
    EXPECT_EQ(cumulative.quantile(q), reference.quantile(q));
}

}  // namespace
}  // namespace dtm
