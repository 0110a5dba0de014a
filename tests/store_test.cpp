// TxnStore on inputs the generators never send: sparse and negative object
// ids (the sorted-search fallback), hard errors on unknown objects,
// duplicate ids and non-live lookups, id order after out-of-order
// arrivals, and the lifetime of the references the engine hands out.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "core/greedy_scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/io.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "oracle/lockstep.hpp"

namespace dtm {
namespace {

using testing::origin;
using testing::txn;

Instance parse(const std::string& text) {
  std::stringstream buf(text);
  return load_instance(buf);
}

/// Runs the instance on the production engine, in lockstep with the scan
/// reference when `lockstep` is set.
void run_instance(const Network& net, const Instance& inst, bool lockstep) {
  ScriptedWorkload wl(inst.origins, inst.txns);
  GreedyScheduler greedy;
  const RunResult r =
      lockstep ? oracle::run_lockstep(net, wl, greedy)
               : run_experiment(net, wl, greedy);
  EXPECT_EQ(r.num_txns, static_cast<std::int64_t>(inst.txns.size()));
  ASSERT_EQ(r.committed.size(), inst.txns.size());
  EXPECT_FALSE(
      validate_schedule(r.committed, r.origins, *net.oracle).has_value());
}

TEST(TxnStore, SparseNegativeObjectIdsRunThroughSortedSearch) {
  const Instance inst = parse(
      "dtm-instance v1\n"
      "object -900000 0 0\n"
      "object -3 5 0\n"
      "object 0 2 0\n"
      "object 4096 7 0\n"
      "object 2000000000 3 0\n"
      "txn 0 1 0 -900000:w -3:w\n"
      "txn 1 6 0 2000000000:w\n"
      "txn 2 4 1 0:w -3:r\n"
      "txn 3 0 1 4096:w -900000:w 2000000000:w\n"
      "txn 4 7 5 -3:w 0:w\n"
      "txn 5 2 5 4096:r\n");
  const Network net = make_line(8);
  const TxnStore store(inst.origins, *net.oracle);
  EXPECT_FALSE(store.dense_objects());
  for (const auto& o : inst.origins) {
    ASSERT_NE(store.find_obj(o.id), nullptr) << o.id;
    EXPECT_EQ(store.find_obj(o.id)->id, o.id);
  }
  EXPECT_EQ(store.find_obj(1), nullptr);
  EXPECT_EQ(store.find_obj(-900001), nullptr);
  run_instance(net, inst, /*lockstep=*/false);
  run_instance(net, inst, /*lockstep=*/true);
}

TEST(TxnStore, DenseNegativeIdsWithHolesUseTheSlotTable) {
  // Every other id in [-40, 40]: dense enough for the slot table.
  const Network net = make_line(8);
  std::vector<ObjectOrigin> origins;
  for (ObjId id = 40; id >= -40; id -= 2)
    origins.push_back(origin(id, static_cast<NodeId>((id + 40) % 8)));
  const TxnStore store(origins, *net.oracle);
  EXPECT_TRUE(store.dense_objects());
  for (const auto& o : origins) EXPECT_EQ(store.find_obj(o.id)->id, o.id);
  for (const ObjId hole : {-42, -41, -39, -1, 1, 39, 41, 1000})
    EXPECT_EQ(store.find_obj(hole), nullptr) << hole;
  const Instance inst{origins,
                      {txn(0, 5, 0, {-40, 38}), txn(1, 1, 0, {-2}),
                       txn(2, 7, 2, {38, -2}), txn(3, 0, 2, {0, 40})}};
  run_instance(net, inst, /*lockstep=*/true);
}

TEST(TxnStore, UnknownObjectsAreHardErrors) {
  const Network net = make_line(8);
  for (const auto& origins :
       {std::vector<ObjectOrigin>{origin(0, 0), origin(1, 3)},
        std::vector<ObjectOrigin>{origin(0, 0), origin(1 << 20, 3)}}) {
    TxnStore store(origins, *net.oracle);
    EXPECT_THROW((void)store.obj_entry(7), CheckError);
    // A rejected arrival leaves no trace in the live set or user index.
    EXPECT_THROW(store.add_live(txn(1, 2, 0, {0, 7})), CheckError);
    EXPECT_EQ(store.num_live(), 0);
    EXPECT_TRUE(store.live_ids().empty());
    EXPECT_TRUE(store.obj_entry(0).users.empty());

    SyncEngine e(net.oracle, origins, {});
    EXPECT_THROW(e.begin_step({{txn(1, 2, 0, {5})}}), CheckError);
    EXPECT_THROW((void)e.object(5), CheckError);
    EXPECT_TRUE(e.live_users_of(5).empty());
  }
}

TEST(TxnStore, DuplicateLiveTxnIdsAreHardErrors) {
  const Network net = make_line(8);
  TxnStore store({origin(0, 0), origin(1, 3)}, *net.oracle);
  store.add_live(txn(4, 2, 0, {0}));
  store.add_live(txn(9, 2, 0, {1}));
  EXPECT_THROW(store.add_live(txn(4, 5, 0, {1})), CheckError);
  EXPECT_THROW(store.add_live(txn(9, 5, 0, {0})), CheckError);
  EXPECT_EQ(store.num_live(), 2);
  EXPECT_EQ(store.obj_entry(1).users, std::vector<TxnId>{9});

  SyncEngine e(net.oracle, {origin(0, 0)}, {});
  e.begin_step({{txn(1, 2, 0, {0})}});
  EXPECT_THROW(e.begin_step({{txn(1, 3, 0, {0})}}), CheckError);
}

TEST(TxnStore, NonLiveLookupsAreHardErrors) {
  const Network net = make_line(8);
  SyncEngine e(net.oracle, {origin(0, 2)}, {});
  e.begin_step({{txn(1, 2, 0, {0}), txn(2, 2, 0, {0})}});
  EXPECT_THROW((void)e.txn(3), CheckError);
  EXPECT_THROW((void)e.assigned_exec(0), CheckError);
  EXPECT_THROW(e.apply({{Assignment{7, 0}}}), CheckError);
  e.apply({{Assignment{1, 0}}});
  const auto commits = e.finish_step();
  ASSERT_EQ(commits.size(), 1u);
  // Committed transactions are no longer live.
  EXPECT_THROW((void)e.txn(1), CheckError);
  EXPECT_THROW((void)e.assigned_exec(1), CheckError);
  EXPECT_THROW(e.apply({{Assignment{1, 5}}}), CheckError);
  EXPECT_EQ(e.txn(2).id, 2);

  TxnStore store({origin(0, 0)}, *net.oracle);
  EXPECT_EQ(store.find_live(1), nullptr);
  EXPECT_THROW((void)store.live_txn(1), CheckError);
  EXPECT_THROW(store.commit(1, 0), CheckError);
  store.add_live(txn(1, 0, 0, {0}));
  store.commit(1, 0);
  EXPECT_THROW(store.commit(1, 0), CheckError);
  EXPECT_EQ(store.find_live(1), nullptr);
}

TEST(TxnStore, LiveIdsStayOrderedUnderRandomArrivalsAndCommits) {
  // Model check against std::set over long runs of mostly ascending ids
  // with short and long gaps, out-of-order arrivals, re-arrivals of
  // committed ids, and commits from the head, the middle and the tail.
  const Network net = make_line(4);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    TxnStore store({origin(0, 0), origin(1, 1)}, *net.oracle);
    std::set<TxnId> model;
    TxnId next = -40;
    for (int op = 0; op < 20000; ++op) {
      const auto dice = rng.uniform_int(0, 99);
      if (dice < 50 || model.empty()) {
        TxnId id;
        if (dice < 5) {
          id = next - rng.uniform_int(1, 300);  // out of order
        } else {
          next += dice < 8 ? rng.uniform_int(2, 5000) : 1;
          id = next;
        }
        if (model.count(id) > 0) {
          EXPECT_THROW(store.add_live(txn(id, 0, 0, {0})), CheckError);
          continue;
        }
        store.add_live(txn(id, static_cast<NodeId>(op % 4), 0,
                           {static_cast<ObjId>(id & 1)}));
        model.insert(id);
      } else {
        // Commit the oldest (often), or a random live one.
        auto it = model.begin();
        if (dice >= 80)
          std::advance(it, rng.uniform_int(
                               0, static_cast<std::int64_t>(model.size()) - 1));
        store.commit(*it, 0);
        model.erase(it);
      }
      if (op % 97 == 0) {
        const auto ids = store.live_ids();
        ASSERT_EQ(std::vector<TxnId>(ids.begin(), ids.end()),
                  std::vector<TxnId>(model.begin(), model.end()))
            << "seed " << seed << " op " << op;
        ASSERT_EQ(store.num_live(), static_cast<std::int64_t>(model.size()));
      }
      // Probe a live id, a committed-or-never-seen neighbour, and a far id.
      const TxnId probe = next - rng.uniform_int(0, 600);
      const TxnStore::LiveTxn* lt = store.find_live(probe);
      ASSERT_EQ(lt != nullptr, model.count(probe) > 0) << probe;
      if (lt != nullptr) {
        ASSERT_EQ(lt->txn.id, probe);
      }
    }
  }
}

TEST(TxnStore, LongLivedTransactionDoesNotPinTombstones) {
  // A straggler holds the head while thousands of later transactions come
  // and go: the tombstones behind it are dropped, and lookups past the
  // gaps that leaves still resolve.
  const Network net = make_line(4);
  TxnStore store({origin(0, 0), origin(1, 1)}, *net.oracle);
  store.add_live(txn(0, 0, 0, {0}));
  for (TxnId id = 1; id <= 5000; ++id) {
    store.add_live(txn(id, 1, 0, {1}));
    if (id % 10 != 0) store.commit(id, 0);  // every tenth stays live
  }
  ASSERT_EQ(store.num_live(), 501);
  const auto ids = store.live_ids();
  ASSERT_EQ(ids.size(), 501u);
  EXPECT_EQ(ids[0], 0);
  for (std::size_t i = 1; i < ids.size(); ++i)
    EXPECT_EQ(ids[i], static_cast<TxnId>(i) * 10);
  for (TxnId id = 0; id <= 5001; ++id)
    EXPECT_EQ(store.find_live(id) != nullptr, id == 0 || (id % 10 == 0 &&
                                                          id <= 5000))
        << id;
  store.commit(0, 0);
  for (TxnId id = 10; id <= 5000; id += 10) {
    ASSERT_NE(store.find_live(id), nullptr) << id;
    store.commit(id, 0);
  }
  EXPECT_EQ(store.num_live(), 0);
  EXPECT_TRUE(store.live_ids().empty());
}

TEST(TxnStore, LiveTxnsIdOrderedAfterOutOfOrderEngineArrivals) {
  const Network net = make_line(8);
  SyncEngine e(net.oracle, {origin(0, 0), origin(1, 4)}, {});
  e.begin_step({{txn(5, 1, 0, {0}), txn(2, 2, 0, {1}), txn(9, 3, 0, {0})}});
  e.apply({{Assignment{2, 10}}});
  (void)e.finish_step();
  e.begin_step(
      {{txn(3, 1, 1, {1}), txn(100000, 6, 1, {0}), txn(1, 0, 1, {1})}});
  const auto live = e.live_txns();
  EXPECT_EQ(std::vector<TxnId>(live.begin(), live.end()),
            (std::vector<TxnId>{1, 2, 3, 5, 9, 100000}));
  for (const TxnId id : live) EXPECT_EQ(e.txn(id).id, id);
  EXPECT_EQ(e.assigned_exec(2), 10);
  EXPECT_EQ(e.assigned_exec(3), kNoTime);
}

/// Holds every live transaction's reference from the start of its call,
/// runs greedy (which makes its own lookups), and checks that each held
/// reference still shows the same transaction afterwards.
class HoldingScheduler final : public OnlineScheduler {
 public:
  std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override {
    std::vector<std::pair<const Transaction*, Transaction>> held;
    for (const TxnId id : view.live_txns())
      held.emplace_back(&view.txn(id), view.txn(id));
    auto out = inner_.on_step(view, arrivals);
    for (const TxnId id : view.live_txns()) {
      (void)view.assigned_exec(id);
      for (const auto& a : view.txn(id).accesses)
        (void)view.live_users_of(a.obj);
    }
    for (const auto& [ref, copy] : held) {
      EXPECT_EQ(ref, &view.txn(copy.id));
      EXPECT_EQ(ref->id, copy.id);
      EXPECT_EQ(ref->node, copy.node);
      EXPECT_EQ(ref->accesses, copy.accesses);
      ++checked_;
    }
    return out;
  }
  [[nodiscard]] std::string name() const override { return "holding"; }
  [[nodiscard]] std::int64_t checked() const { return checked_; }

 private:
  GreedyScheduler inner_;
  std::int64_t checked_ = 0;
};

TEST(TxnStore, TxnReferencesStayValidForAWholeSchedulerCall) {
  const Network net = make_clique(16);
  SyntheticOptions wo;
  wo.num_objects = 12;
  wo.k = 2;
  wo.rounds = 12;
  wo.seed = 3;
  SyntheticWorkload wl(net, wo);
  HoldingScheduler sched;
  const RunResult r = run_experiment(net, wl, sched);
  EXPECT_EQ(r.num_txns, static_cast<std::int64_t>(wl.generated().size()));
  EXPECT_GT(sched.checked(), 100);
}

}  // namespace
}  // namespace dtm
