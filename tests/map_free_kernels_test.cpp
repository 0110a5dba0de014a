// Equivalence of the chain walk, the flat (map-free) batch validation/
// ordering kernels, the flat schedule validator, the held-reference trail
// directory and the engine's per-step commit check against their map-based
// references (tests/oracle/map_kernels.hpp), on randomized inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "batch/suffix_wrapper.hpp"
#include "dist/dist_bucket.hpp"
#include "dist/tracking.hpp"
#include "net/topology.hpp"
#include "oracle/map_kernels.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "util/flat_map.hpp"

namespace dtm {
namespace {

using testing::expect_same_result;
using testing::random_batch_problem;

bool accepts(const std::function<void()>& check) {
  try {
    check();
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

TEST(MapFreeKernels, FlatMapBehavesAsASortedMap) {
  FlatMap<TxnId, int> m;
  EXPECT_TRUE(m.empty());
  m.insert_or_assign(5, 50);
  m.insert_or_assign(9, 90);
  m.insert_or_assign(1, 10);  // out of order: inserted in place
  m.insert_or_assign(5, 55);  // overwrite
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 55);
  EXPECT_EQ(*m.find(1), 10);
  EXPECT_EQ(m.find(4), nullptr);
  EXPECT_TRUE(m.erase(1));
  EXPECT_FALSE(m.erase(1));
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(*m.find(9), 90);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MapFreeKernels, CheckBatchResultAgreesWithMapReference) {
  const Network net = make_line(12);
  Rng rng(41);
  int accepted = 0;
  int rejected = 0;
  int dense_loads = 0;
  int sparse_loads = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Both sides of the cursor table, with and without repeated rows.
    BatchProblem p =
        random_batch_problem(net, rng, 1 + trial % 9, 1 + trial % 5,
                             trial % 3 == 0, (trial / 3) % 2 == 1);
    CursorTable side;
    side.load(p.objects);
    (side.dense() ? dense_loads : sparse_loads) += 1;
    std::vector<std::size_t> order(p.txns.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    BatchResult r = chain_evaluate(p, order);
    // The one chain walk answers as the map reference does, exec by exec,
    // and chain_makespan keeps its cutoff contract against that answer.
    const BatchResult want = oracle::chain_evaluate(p, order);
    expect_same_result(r, want);
    const Time m = want.makespan;
    for (const Time c : {Time{0}, Time{1}, m, m + 1, kNoCutoff}) {
      const Time got = chain_makespan(p, order, c);
      if (m < c)
        EXPECT_EQ(got, m) << "trial " << trial << " cutoff " << c;
      else
        EXPECT_GE(got, c) << "trial " << trial << " cutoff " << c;
    }
    rng.shuffle(r.assignments);
    switch (trial % 7) {
      case 1:  // one txn earlier: usually infeasible
        r.assignments[0].exec -= rng.uniform_int(1, 3);
        break;
      case 2:  // duplicate id
        if (r.assignments.size() > 1)
          r.assignments[1].txn = r.assignments[0].txn;
        break;
      case 3:
        ++r.makespan;
        break;
      case 4:  // an object the problem does not know, right after a walk
               // that held it: a slot left from that load must not count
        (void)chain_makespan(p, order, 0);
        p.objects.erase(p.objects.begin());
        break;
      case 5:  // one txn later: feasible unless the makespan moves
        r.assignments[0].exec += rng.uniform_int(0, 2);
        break;
      default:
        break;
    }
    const bool ref = accepts([&] { oracle::check_batch_result(p, r); });
    const bool flat = accepts([&] { check_batch_result(p, r); });
    EXPECT_EQ(ref, flat) << "trial " << trial;
    (ref ? accepted : rejected) += 1;
  }
  // Both verdicts and both sides of the table are exercised.
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 50);
  EXPECT_GT(dense_loads, 100);
  EXPECT_GT(sparse_loads, 100);
}

TEST(MapFreeKernels, ExecOrderMatchesStableSortOverMap) {
  const Network net = make_line(10);
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const BatchProblem p = random_batch_problem(net, rng, 1 + trial % 11, 4);
    std::vector<std::size_t> order(p.txns.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    BatchResult r = chain_evaluate(p, order);
    for (auto& a : r.assignments) a.exec = p.now + rng.uniform_int(0, 3);
    rng.shuffle(r.assignments);
    std::vector<Time> exec;
    exec_in_problem_order(p, r, exec);
    for (std::size_t i = 0; i < p.txns.size(); ++i)
      EXPECT_EQ(exec[i], r.exec_of(p.txns[i].id));
    std::vector<std::size_t> flat;
    order_by_exec(p, exec, flat);
    EXPECT_EQ(flat, oracle::exec_order(p, r)) << "trial " << trial;
  }
  const Network tiny = make_line(3);
  BatchProblem p = random_batch_problem(tiny, rng, 2, 1);
  BatchResult r;
  r.assignments = {{p.txns[0].id, p.now}};
  std::vector<Time> exec;
  EXPECT_THROW(exec_in_problem_order(p, r, exec), CheckError);
}

TEST(MapFreeKernels, OrderPoliciesMatchMapReferences) {
  struct Case {
    Network net;
    std::unique_ptr<BatchScheduler> flat;
    std::unique_ptr<BatchScheduler> ref;
  };
  std::vector<Case> cases;
  cases.push_back({make_cluster(4, 3, 5), make_cluster_batch(3),
                   oracle::make_cluster_batch(3)});
  cases.push_back({make_star(4, 3), make_star_batch(3),
                   oracle::make_star_batch(3)});
  cases.push_back({make_clique(9), make_clique_batch(),
                   oracle::make_clique_batch()});
  Rng draw(19);
  for (const Case& c : cases) {
    for (int trial = 0; trial < 60; ++trial) {
      const BatchProblem p = random_batch_problem(
          c.net, draw, 1 + trial % 12, 2 + trial % 6, trial % 3 == 0);
      const auto seed = static_cast<std::uint64_t>(trial) * 977 + 3;
      Rng a(seed);
      Rng b(seed);
      expect_same_result(c.flat->schedule(p, a), c.ref->schedule(p, b));
      // The same number of draws was consumed.
      EXPECT_EQ(a.uniform_int(0, 1 << 30), b.uniform_int(0, 1 << 30));
    }
  }
}

// The reference runs the suffix pass on every inner and re-runs schedule()
// on every candidate; the flat wrapper skips the pass for suffix-tight
// (key-ordered) inners, takes only the draws of a candidate whose last
// transaction cannot arrive earlier, and walks the others only up to the
// current makespan. Equal results and equal Rng end states mean none of
// that changed a decision or a draw. The landmark-routed graph checks the
// arrival bound under an approximate (but metric) distance.
TEST(MapFreeKernels, SuffixWrapperMatchesPrefixReplayReference) {
  std::vector<Network> nets;
  nets.push_back(make_cluster(3, 4, 6));
  nets.push_back(Registry::make_network(parse_spec(
      "random:n=40,extra=60,maxw=3,routing=landmark,landmarks=3")));
  std::vector<std::shared_ptr<const BatchScheduler>> inners = {
      make_tsp_batch(),
      make_sequential_batch(),
      make_cluster_batch(4),
      make_star_batch(4),
      make_line_batch(),
      make_coloring_batch(),
      make_grid_snake_batch({3, 4}),
      make_hypercube_gray_batch(),
      make_local_search_batch(3)};
  Rng draw(5);
  for (const Network& net : nets) {
    for (const auto& inner : inners) {
      const SuffixWrapper flat(inner);
      const oracle::SuffixWrapper ref(inner);
      for (int trial = 0; trial < 40; ++trial) {
        const BatchProblem p = random_batch_problem(
            net, draw, 1 + trial % 10, 2 + trial % 4, trial % 4 == 0);
        Rng a(trial + 1);
        Rng b(trial + 1);
        const BatchResult r = flat.schedule(p, a);
        expect_same_result(r, ref.schedule(p, b));
        EXPECT_TRUE(a == b) << inner->name() << " trial " << trial;
        for (std::size_t k = 0; k <= p.txns.size(); ++k) {
          const auto got = SuffixWrapper::availability_after_prefix(p, r, k);
          const auto want = oracle::availability_after_prefix(p, r, k);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id);
            EXPECT_EQ(got[i].node, want[i].node);
            EXPECT_EQ(got[i].ready, want[i].ready);
            EXPECT_EQ(got[i].from_txn, want[i].from_txn);
          }
        }
      }
    }
  }
}

/// Counts how a suffix pass asks its inner A: walked (makespan() with a
/// positive cutoff), drawn only (cutoff <= 0) and built (schedule()).
class CountingBatch final : public BatchScheduler {
 public:
  explicit CountingBatch(std::shared_ptr<const BatchScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    ++built;
    return inner_->schedule(p, rng);
  }
  [[nodiscard]] Time makespan(const BatchProblem& p, Rng& rng,
                              Time cutoff) const override {
    ++(cutoff > 0 ? walked : drawn);
    return inner_->makespan(p, rng, cutoff);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }

  mutable std::int64_t walked = 0;
  mutable std::int64_t drawn = 0;
  mutable std::int64_t built = 0;

 private:
  std::shared_ptr<const BatchScheduler> inner_;
};

// How many suffix candidates the pass walks, takes only the draws of, and
// adopts, on a fixed-seed stream of random cluster problems. A bound that
// silently stopped ruling candidates out, or ruled out winners, moves
// these counts; the results must also equal the reference pass. Both
// rules count: z's arrival and the moot pass (a chain bound of one of z's
// objects at the makespan), which moves 15 candidates from walked to drawn.
TEST(MapFreeKernels, SuffixPassCountsWalkedDrawnAndAdopted) {
  const Network net = make_cluster(4, 4, 8);
  const auto counting = std::make_shared<CountingBatch>(make_cluster_batch(4));
  const SuffixWrapper flat(counting);
  const oracle::SuffixWrapper ref(make_cluster_batch(4));
  Rng draw(2026);
  constexpr int kProblems = 200;
  for (int trial = 0; trial < kProblems; ++trial) {
    const BatchProblem p =
        random_batch_problem(net, draw, 4 + trial % 17, 3 + trial % 6);
    Rng a(static_cast<std::uint64_t>(trial) + 11);
    Rng b(static_cast<std::uint64_t>(trial) + 11);
    expect_same_result(flat.schedule(p, a), ref.schedule(p, b));
    EXPECT_TRUE(a == b) << "trial " << trial;
  }
  const std::int64_t adopted = counting->built - kProblems;
  EXPECT_EQ(counting->walked, 2067);
  EXPECT_EQ(counting->drawn, 378);
  EXPECT_EQ(adopted, 110);
}

TEST(MapFreeKernels, ValidateScheduleMatchesMapReference) {
  const Network net = make_line(9);
  Rng rng(23);
  int valid = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<ObjectOrigin> origins;
    const int objects = 1 + trial % 5;
    for (ObjId o = 0; o < objects; ++o)
      origins.push_back({o, static_cast<NodeId>(rng.uniform_int(0, 8)), 0});
    if (trial % 5 == 0) origins.push_back({0, 4, 0});  // repeated origin
    rng.shuffle(origins);
    std::vector<ScheduledTxn> sched;
    Time t = 0;
    const int txns = 1 + trial % 8;
    for (TxnId id = 0; id < txns; ++id) {
      // Mostly far apart (feasible), sometimes crowded (infeasible).
      t += trial % 2 == 0 ? 40 : rng.uniform_int(0, 3);
      std::vector<ObjId> objs;
      for (const auto o : rng.sample_distinct(objects + (trial % 7 == 0),
                                              std::min(2, objects)))
        objs.push_back(o);
      ScheduledTxn s{testing::txn(txns - id, static_cast<NodeId>(
                                                 rng.uniform_int(0, 8)),
                                  0, objs),
                     t};
      if (trial % 11 == 0 && id == 0) s.exec = kNoTime;
      sched.push_back(s);
    }
    rng.shuffle(sched);
    const ValidationError ref =
        oracle::validate_schedule(sched, origins, *net.oracle, 2);
    const ValidationError flat =
        validate_schedule(sched, origins, *net.oracle, 2);
    EXPECT_EQ(ref, flat) << "trial " << trial;
    valid += !ref.has_value();
  }
  EXPECT_GT(valid, 50);
  EXPECT_LT(valid, 250);
}

TEST(MapFreeKernels, HeldReferenceTrailsMatchMapReference) {
  const Network net = make_line(16);
  Rng rng(31);
  constexpr int kObjects = 6;
  std::vector<ObjectState> objs;
  for (ObjId o = 0; o < kObjects; ++o)
    objs.emplace_back(o * 5, static_cast<NodeId>(rng.uniform_int(0, 15)), 0);
  ObjectTrailDirectory dir;
  oracle::TrailDirectory ref;
  // Steps of the announcements no pass has read yet.
  std::vector<Time> unread;
  std::int64_t announced = 0;
  const auto announce = [&](ObjId id, Time step) {
    dir.announce(id, step);
    unread.push_back(step);
    ++announced;
  };
  for (Time now = 0; now < 400; ++now) {
    for (ObjectState& os : objs) {
      if (os.in_transit()) os.settle(now);
      if (rng.bernoulli(0.15)) {
        // A reroute is announced for the step it happens at: here it comes
        // before that step's pass (in the engine it comes after it, so the
        // scheduler announces the next step). Sometimes an announcement
        // also comes well ahead of its step.
        if (dir.contains(os.id())) {
          if (rng.bernoulli(0.2))
            announce(os.id(), now + rng.uniform_int(0, 6));
          announce(os.id(), now);
        }
        os.route_to(static_cast<NodeId>(rng.uniform_int(0, 15)), now,
                    *net.oracle, 2);
      } else if (os.in_transit() && rng.bernoulli(0.05)) {
        // Stalls, like settles, go unannounced: they change no trail.
        os.delay_arrival(rng.uniform_int(1, 3));
      }
    }
    // Objects join the directories over time; steps are observed only
    // sometimes (event-driven run loops skip steps).
    for (ObjectState& os : objs)
      if (now == os.id() * 10 && dir.track(os)) {
        ref.register_object(os.id(),
                            os.in_transit() ? os.dest() : os.at());
        ref.observe(os);
      }
    if (rng.bernoulli(0.6)) {
      const std::int64_t before = dir.num_reads();
      dir.observe_announced(now);
      for (const ObjectState& os : objs)
        if (dir.contains(os.id())) ref.observe(os);
      // The pass read the announcements for its step or earlier, once
      // each, and nothing else.
      const auto due = std::partition(unread.begin(), unread.end(),
                                      [&](Time step) { return step > now; });
      EXPECT_EQ(dir.num_reads() - before, unread.end() - due)
          << "step " << now;
      unread.erase(due, unread.end());
    }
    for (const ObjectState& os : objs) {
      if (!dir.contains(os.id())) continue;
      EXPECT_FALSE(dir.track(os));  // registered once
      EXPECT_EQ(dir.birth_node(os.id()), ref.birth_node(os.id()));
      EXPECT_EQ(dir.current_terminus(os.id()), ref.current_terminus(os.id()));
      for (NodeId node = 0; node < 16; ++node) {
        const Time min_depart =
            rng.bernoulli(0.5) ? kNoTime : rng.uniform_int(0, now + 1);
        const auto hop = dir.lookup(os.id(), node, now, min_depart);
        const auto [departed, next, when] =
            ref.lookup(os.id(), node, now, min_depart);
        EXPECT_EQ(hop.departed, departed);
        if (departed) {
          EXPECT_EQ(hop.next, next);
          EXPECT_EQ(hop.depart_time, when);
        }
      }
    }
  }
  for (const ObjectState& os : objs) EXPECT_TRUE(dir.contains(os.id()));
  // One read per track() and per announcement a pass consumed.
  EXPECT_EQ(dir.num_reads(),
            kObjects + announced - static_cast<std::int64_t>(unread.size()));
}

/// Runs the distributed scheduler while mirroring EVERY object it tracks
/// into the map-based reference at every step; after each step the
/// scheduler's announced mirror must answer every query identically.
class FullMirrorCheck final : public OnlineScheduler {
 public:
  FullMirrorCheck(DistributedBucketScheduler& inner,
                  std::vector<ObjectOrigin> origins)
      : inner_(inner), origins_(std::move(origins)) {}

  [[nodiscard]] std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override {
    for (const ObjId o : registered_) {
      ref_.observe(view.object(o));
      moving_sum_ += view.object(o).in_transit();
    }
    std::vector<Assignment> out = inner_.on_step(view, arrivals);
    for (const Assignment& a : out)
      uses_ += static_cast<std::int64_t>(view.txn(a.txn).accesses.size());
    const ObjectTrailDirectory& dir = inner_.trails();
    for (const ObjectOrigin& o : origins_) {
      if (!dir.contains(o.id) ||
          std::find(registered_.begin(), registered_.end(), o.id) !=
              registered_.end())
        continue;
      ref_.register_object(o.id, dir.birth_node(o.id));
      ref_.observe(view.object(o.id));
      registered_.push_back(o.id);
    }
    for (const ObjId o : registered_) {
      EXPECT_EQ(dir.current_terminus(o), ref_.current_terminus(o));
      for (NodeId node = 0; node < view.oracle().num_nodes(); ++node) {
        const auto hop = dir.lookup(o, node, view.now(), kNoTime);
        const auto [departed, next, when] =
            ref_.lookup(o, node, view.now(), kNoTime);
        EXPECT_EQ(hop.departed, departed) << "object " << o << " node " << node
                                          << " step " << view.now();
        if (departed) {
          EXPECT_EQ(hop.next, next);
          EXPECT_EQ(hop.depart_time, when);
        }
      }
    }
    return out;
  }
  [[nodiscard]] Time next_event_hint(Time now) const override {
    return inner_.next_event_hint(now);
  }
  [[nodiscard]] std::vector<const EventSource*> event_sources()
      const override {
    return inner_.event_sources();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::size_t registered() const { return registered_.size(); }
  /// Object uses of the assignments the scheduler made.
  [[nodiscard]] std::int64_t uses() const { return uses_; }
  /// Tracked objects in transit, summed over the passes: what a pass that
  /// re-reads every moving object would read at the least.
  [[nodiscard]] std::int64_t moving_sum() const { return moving_sum_; }

 private:
  DistributedBucketScheduler& inner_;
  std::vector<ObjectOrigin> origins_;
  oracle::TrailDirectory ref_;
  std::vector<ObjId> registered_;
  std::int64_t uses_ = 0;
  std::int64_t moving_sum_ = 0;
};

TEST(MapFreeKernels, WatchedTrailsMatchFullMirrorEndToEnd) {
  struct Case {
    Network net;
    FaultPlan fault;
    SyntheticOptions so;
  };
  SyntheticOptions small;
  small.num_objects = 10;
  small.k = 2;
  small.rounds = 3;
  small.gap = 3;
  small.seed = 77;
  FaultPlan chaos;
  chaos.drop = 0.05;
  chaos.dup = 0.05;
  chaos.jitter = 2;
  chaos.stall = 0.2;
  // The benchmark's line mix (drop/dup/jitter) plus stalls, on a line long
  // enough, and with rounds enough, that objects stay in transit across
  // many passes.
  FaultPlan bench_mix;
  bench_mix.drop = 0.05;
  bench_mix.dup = 0.02;
  bench_mix.jitter = 2;
  bench_mix.stall = 0.2;
  SyntheticOptions longer;
  longer.num_objects = 16;
  longer.k = 2;
  longer.rounds = 8;
  longer.gap = 16;
  longer.seed = 2026;
  std::vector<Case> cases;
  cases.push_back({make_line(24), {}, small});
  cases.push_back({make_line(24), chaos, small});
  cases.push_back({make_cluster(3, 4, 5), chaos, small});
  cases.push_back({make_line(64), bench_mix, longer});
  for (const Case& c : cases) {
    SyntheticWorkload wl(c.net, c.so);
    DistBucketOptions dopts;
    dopts.fault = c.fault;
    DistributedBucketScheduler sched(
        c.net, std::shared_ptr<const BatchScheduler>(make_coloring_batch()),
        dopts);
    FullMirrorCheck check(sched, wl.objects());
    RunOptions opts;
    opts.engine.latency_factor = 2;
    opts.engine.fault = c.fault;
    const RunResult r = run_experiment(c.net, wl, check, opts);
    EXPECT_GT(r.num_txns, 0);
    EXPECT_EQ(check.registered(), static_cast<std::size_t>(c.so.num_objects));
    // Each tracked object is read once when first seen, and each object use
    // of an assignment at most twice: after its apply and after its commit.
    const std::int64_t reads = sched.trails().num_reads();
    EXPECT_LE(reads, c.so.num_objects + 2 * check.uses());
    EXPECT_GT(reads, c.so.num_objects);
    // Fewer than re-reading every moving object at every pass would take.
    EXPECT_LT(reads, check.moving_sum());
  }
}

TEST(MapFreeKernels, EngineRejectsTwoCommitsOnOneObjectInOneStep) {
  const Network net = make_line(4);
  SyncEngine e(net.oracle, {testing::origin(0, 1)}, {});
  e.begin_step({{testing::txn(1, 1, 0, {0}), testing::txn(2, 1, 0, {0})}});
  e.apply({{Assignment{1, 0}, Assignment{2, 0}}});
  EXPECT_THROW((void)e.finish_step(), CheckError);
}

TEST(MapFreeKernels, EngineAllowsOneCommitPerObjectPerStep) {
  const Network net = make_line(4);
  SyncEngine e(net.oracle, {testing::origin(0, 1)}, {});
  e.begin_step({{testing::txn(1, 1, 0, {0}), testing::txn(2, 1, 0, {0})}});
  e.apply({{Assignment{1, 0}, Assignment{2, 1}}});
  EXPECT_EQ(e.finish_step().size(), 1u);
  e.begin_step({});
  EXPECT_EQ(e.finish_step().size(), 1u);
  EXPECT_TRUE(e.all_done());
}

}  // namespace
}  // namespace dtm
