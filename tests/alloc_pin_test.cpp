// Zero-allocation regression pins for the messaging hot path (PERF.md §8),
// the draws-only suffix candidate of the batch layer (PERF.md §14), the
// announced trail mirror of the §V tracking (PERF.md §15), the batch
// layer's chain walk and schedule validator (PERF.md §16) and the walked
// cluster and star order (PERF.md §17).
//
// Built with -DDTM_ALLOC_TRACK=ON these tests assert, via the counting
// operator new/delete hooks, that the steady-state send → drain loop — the
// shape dist-bucket's pump_messages drives every step — performs ZERO heap
// allocations once warmed up: wheel slots, drain scratch, and the reply
// pool all retain capacity. Without the option the hooks read zero and the
// assertions are skipped (the loops still run as smoke).
//
// An exact-zero pin needs the per-slot load pattern to be PERIODIC with a
// period dividing the ring size: slot s serves times s, s + kSlots, ...,
// so its capacity record stabilizes only once it has seen its maximum
// load, and a pattern with period p | kSlots shows every slot its full
// load set within one warmed turn. (Randomized traffic keeps setting rare
// new per-slot records forever — allocs/step tends to zero but never
// pins; bench_memory measures that asymptotic profile.) The traffic below
// therefore derives everything from `now` through power-of-two masks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "core/object_state.hpp"
#include "dist/bus.hpp"
#include "dist/tracking.hpp"
#include "net/topology.hpp"
#include "util/alloc.hpp"
#include "util/timing_wheel.hpp"

namespace dtm {
namespace {

constexpr Time kWarmupSteps =
    2 * static_cast<Time>(TimingWheel<Message>::kSlots);
constexpr Time kMeasuredSteps = 512;

TEST(AllocPin, TimingWheelScheduleDrainLoopIsAllocationFree) {
  TimingWheel<std::int64_t> wheel;
  std::vector<std::int64_t> scratch;
  const auto step = [&](Time now) {
    for (int i = 0; i < 4; ++i)  // period-8 offset pattern, 8 | kSlots
      wheel.schedule(now + ((now + i * 5) & 7), now + i);
    scratch.clear();
    wheel.drain_until(now, scratch);
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "timing-wheel steady state allocated ("
      << scope.allocs() << " allocs / " << kMeasuredSteps << " steps)";
  EXPECT_EQ(scope.bytes(), 0);
}

TEST(AllocPin, BusSendDrainLoopIsAllocationFree) {
  // The dist-bucket messaging step: a few probes, replies (inline user
  // lists), and reports per step, drained into persistent scratch.
  const Network net = make_line(10);
  MessageBus bus(*net.oracle);
  std::vector<Message> scratch;
  const auto step = [&](Time now) {
    // Deterministic period-64 endpoint pattern (64 | kSlots), so delivery
    // times now + dist repeat per slot and capacities pin after warmup.
    // Every draw is its own statement, so the traffic does not depend on
    // the order in which a compiler evaluates function arguments.
    int pick = 0;
    const auto node = [&] {
      const int k = pick++;
      return static_cast<NodeId>(((now >> (k & 3)) + k) & 7);
    };
    NodeId from = node();
    NodeId to = node();
    const NodeId requester = node();
    bus.send(from, to, now,
             ProbeMsg{static_cast<TxnId>(now), requester, 3, 0, now, 0});
    ReplyMsg reply;
    reply.requester = static_cast<TxnId>(now);
    reply.object = 3;
    reply.object_node = node();
    reply.object_free_at = now + 5;
    for (int u = 0; u < 4; ++u)  // within ReplyUsers inline capacity
      reply.users.emplace_back(static_cast<TxnId>(now + u), node());
    from = node();
    to = node();
    bus.send(from, to, now, std::move(reply));
    from = node();
    to = node();
    bus.send(from, to, now, ReportMsg{static_cast<TxnId>(now), 0});
    bus.drain_into(now, scratch);
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "bus send->drain steady state allocated ("
      << scope.allocs() << " allocs / " << kMeasuredSteps << " steps)";
  EXPECT_EQ(scope.bytes(), 0);
}

TEST(AllocPin, SpilledReplyPoolRoundTripIsAllocationFree) {
  // Replies whose user lists exceed the inline capacity spill to the heap;
  // dist-bucket parks those buffers in a pool and revives them for the next
  // reply. Once every pooled buffer has warmed to the working size, the
  // round trip must not touch the allocator (SmallVector's move-assign
  // reuses the revived buffer's capacity).
  const Network net = make_line(10);
  MessageBus bus(*net.oracle);
  std::vector<Message> scratch;
  std::vector<ReplyUsers> pool;
  const std::size_t spill =
      2 * ReplyUsers::inline_capacity();  // forces heap storage
  const auto step = [&](Time now) {
    ReplyMsg reply;
    reply.requester = static_cast<TxnId>(now);
    reply.object = 1;
    if (!pool.empty()) {
      reply.users = std::move(pool.back());
      pool.pop_back();
      reply.users.clear();
    }
    for (std::size_t u = 0; u < spill; ++u)
      reply.users.emplace_back(static_cast<TxnId>(now + static_cast<Time>(u)),
                               static_cast<NodeId>(u % 8));
    // Period-16 endpoints (16 | kSlots) — see the header comment.
    bus.send(static_cast<NodeId>(now & 7),
             static_cast<NodeId>((now >> 1) & 7), now, std::move(reply));
    bus.drain_into(now, scratch);
    for (Message& m : scratch) {
      auto* r = std::get_if<ReplyMsg>(&m.payload);
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(r->users.size(), spill);
      if (r->users.spilled() && pool.size() < 16)
        pool.push_back(std::move(r->users));
    }
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(scope.allocs(), 0)
      << "pooled spilled-reply loop allocated (" << scope.allocs()
      << " allocs / " << kMeasuredSteps << " steps)";
}

/// The cluster and star As, each with eight random problems over six
/// objects of 4, 4 + step, ..., 4 + 7·step one-object transactions.
struct GroupOrderCase {
  Network net;
  std::unique_ptr<BatchScheduler> algo;
  std::vector<BatchProblem> problems;
};

std::vector<GroupOrderCase> group_order_cases(std::uint64_t seed,
                                              TxnId step) {
  std::vector<GroupOrderCase> cases;
  cases.push_back({make_cluster(4, 4, 8), make_cluster_batch(4), {}});
  cases.push_back({make_star(4, 3), make_star_batch(3), {}});
  Rng draw(seed);
  for (GroupOrderCase& c : cases) {
    const NodeId nodes = c.net.num_nodes();
    for (int i = 0; i < 8; ++i) {
      BatchProblem p;
      p.oracle = c.net.oracle.get();
      p.now = 5;
      for (ObjId o = 0; o < 6; ++o)
        p.objects.push_back(
            {o, static_cast<NodeId>(draw.uniform_int(0, nodes - 1)), 5,
             false});
      for (TxnId t = 0; t < 4 + step * i; ++t)
        p.txns.push_back(
            {t, static_cast<NodeId>(draw.uniform_int(0, nodes - 1)),
             {static_cast<ObjId>(draw.uniform_int(0, 5))}});
      c.problems.push_back(std::move(p));
    }
  }
  return cases;
}

TEST(AllocPin, DrawOnlyMakespanIsAllocationFree) {
  // A suffix candidate that cannot win costs only A's draws: makespan()
  // with cutoff 0. For the group-shuffled cluster and star orders that is
  // a stamp-table count of the distinct groups plus a shuffle, all on
  // thread-local scratch, so once warmed it must not touch the allocator.
  const std::vector<GroupOrderCase> cases = group_order_cases(17, 2);
  Rng rng(3);
  const auto sweep = [&] {
    Time sum = 0;
    for (const GroupOrderCase& c : cases)
      for (const BatchProblem& p : c.problems)
        sum += c.algo->makespan(p, rng, 0);
    return sum;
  };
  EXPECT_EQ(sweep(), 0);  // warm-up: scratch grows to the largest problem

  const Rng before = rng;
  AllocScope scope;
  Time sum = 0;
  for (int i = 0; i < 64; ++i) sum += sweep();
  const std::int64_t allocs = scope.allocs();
  const std::int64_t bytes = scope.bytes();
  EXPECT_EQ(sum, 0);
  EXPECT_FALSE(rng == before);  // the draws were taken
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(allocs, 0) << "draw-only makespan() allocated";
  EXPECT_EQ(bytes, 0);
}

TEST(AllocPin, GroupOrderMakespanIsAllocationFree) {
  // Every F_A probe and walked suffix candidate of the cluster and star As
  // builds the group-shuffled order (a counting sort by rank on thread-
  // local scratch) into the thread's order buffer and walks it. Once one
  // pass has grown the scratch to the largest problem, neither allocates.
  const std::vector<GroupOrderCase> cases = group_order_cases(41, 3);
  Rng rng(3);
  const auto sweep = [&] {
    Time sum = 0;
    for (const GroupOrderCase& c : cases)
      for (const BatchProblem& p : c.problems)
        for (const Time cutoff : {Time{1}, Time{8}, kNoCutoff})
          sum += c.algo->makespan(p, rng, cutoff);
    return sum;
  };
  EXPECT_GT(sweep(), 0);  // warm-up: scratch grows to the largest problem

  AllocScope scope;
  Time sum = 0;
  for (int i = 0; i < 16; ++i) sum += sweep();
  const std::int64_t allocs = scope.allocs();
  const std::int64_t bytes = scope.bytes();
  EXPECT_GT(sum, 0);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(allocs, 0) << "walked group-order makespan() allocated";
  EXPECT_EQ(bytes, 0);
}

TEST(AllocPin, ChainWalkAndValidatorAreAllocationFree) {
  // Every F_A estimate, suffix candidate and schedule of A is a chain walk
  // over the thread's cursor table, and check_batch_result walks the same
  // table. Once one pass over problems of mixed sizes has grown the slot
  // table and the sort scratch to the largest, neither allocates. The ids
  // (negative ones too, rows shuffled) take the slot table, as those of
  // every generated workload do.
  const Network net = make_line(16);
  struct Case {
    BatchProblem p;
    std::vector<std::size_t> order;
    BatchResult r;
  };
  std::vector<Case> cases;
  Rng draw(29);
  const auto node = [&] {
    return static_cast<NodeId>(draw.uniform_int(0, net.num_nodes() - 1));
  };
  for (int i = 0; i < 12; ++i) {
    Case c;
    c.p.oracle = net.oracle.get();
    c.p.now = 3;
    const std::int32_t objects = 2 + 5 * i;
    const auto id_of = [&](std::int32_t j) { return 2 * j - objects; };
    for (std::int32_t o = 0; o < objects; ++o) {
      const NodeId at = node();
      c.p.objects.push_back(
          {id_of(o), at, 3 + draw.uniform_int(0, 4), draw.bernoulli(0.5)});
    }
    draw.shuffle(c.p.objects);
    for (TxnId t = 0; t < 3 + 4 * i; ++t) {
      BatchTxn txn{t, node(), {}};
      for (const std::int32_t j :
           draw.sample_distinct(objects, std::min(3, objects)))
        txn.objects.push_back(id_of(j));
      c.p.txns.push_back(std::move(txn));
    }
    c.order.resize(c.p.txns.size());
    for (std::size_t k = 0; k < c.order.size(); ++k) c.order[k] = k;
    draw.shuffle(c.order);
    c.r = chain_evaluate(c.p, c.order);
    cases.push_back(std::move(c));
  }
  const auto sweep = [&] {
    Time sum = 0;
    for (const Case& c : cases) {
      for (const Time cutoff : {Time{0}, Time{1}, kNoCutoff})
        sum += chain_makespan(c.p, c.order, cutoff);
      check_batch_result(c.p, c.r);
    }
    return sum;
  };
  const Time want = sweep();  // warm-up: scratch grows to the largest problem

  AllocScope scope;
  const Time sum = sweep();
  const std::int64_t allocs = scope.allocs();
  const std::int64_t bytes = scope.bytes();
  EXPECT_EQ(sum, want);
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(allocs, 0) << "chain walk or validator allocated";
  EXPECT_EQ(bytes, 0);
}

TEST(AllocPin, TrailMirrorAnnounceReadLoopIsAllocationFree) {
  // The dist-bucket mirror step: the scheduler announces the objects the
  // engine moves after an apply and after a commit, and the next pass reads
  // them through held references. Each object steps round a clique of 8,
  // so after warm-up every trail holds a pointer at every node, and the
  // period-8 announcement pattern has shown the heap its peak size.
  const Network net = make_clique(8);
  constexpr ObjId kObjects = 16;
  std::vector<ObjectState> objs;
  for (ObjId o = 0; o < kObjects; ++o)
    objs.emplace_back(o, static_cast<NodeId>(o & 7), 0);
  ObjectTrailDirectory dir;
  for (const ObjectState& os : objs) ASSERT_TRUE(dir.track(os));
  const auto step = [&](Time now) {
    for (ObjectState& os : objs) os.settle(now);
    for (Time i = 0; i < 4; ++i) {
      ObjectState& os = objs[static_cast<std::size_t>((now * 4 + i) % kObjects)];
      os.route_to((os.at() + 1) & 7, now, *net.oracle);
      dir.announce(os.id(), now + 1);
      dir.announce(os.id(), now + 1 + ((now + i) & 7));
    }
    dir.observe_announced(now);
  };
  Time now = 0;
  for (; now < kWarmupSteps; ++now) step(now);

  const std::int64_t reads = dir.num_reads();
  AllocScope scope;
  for (; now < kWarmupSteps + kMeasuredSteps; ++now) step(now);
  const std::int64_t allocs = scope.allocs();
  const std::int64_t bytes = scope.bytes();
  EXPECT_GT(dir.num_reads(), reads);  // the passes read
  if (!alloc_tracking_enabled())
    GTEST_SKIP() << "DTM_ALLOC_TRACK is OFF: counters read zero vacuously";
  EXPECT_EQ(allocs, 0) << "announce -> read steady state allocated ("
                       << allocs << " allocs / " << kMeasuredSteps
                       << " steps)";
  EXPECT_EQ(bytes, 0);
}

TEST(AllocPin, CountersAgreeWithTrackingMode) {
  // Sanity on the hooks themselves: when tracking is on, an explicit heap
  // allocation is visible in the thread counters; when off, everything
  // reads zero and enabled() says so.
  AllocScope scope;
  // Direct operator-new call: new-expression elision rules don't apply, so
  // the optimizer cannot drop the allocation.
  void* p = ::operator new(256);
  const std::int64_t seen = scope.allocs();
  ::operator delete(p);
  if (alloc_tracking_enabled()) {
    EXPECT_GE(seen, 1);
    EXPECT_GE(scope.delta().frees, 1);
    const AllocCounters global = global_alloc_counters();
    EXPECT_GE(global.allocs, thread_alloc_counters().allocs);
  } else {
    EXPECT_EQ(seen, 0);
    EXPECT_EQ(thread_alloc_counters().allocs, 0);
    EXPECT_EQ(global_alloc_counters().allocs, 0);
  }
}

}  // namespace
}  // namespace dtm
