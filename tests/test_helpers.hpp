// Shared fixtures and builders for the dtm test suite.
//
// The randomized topology/workload draws, the small representative network
// set, and validated runs live in sim/trials.* (shared with the bench
// harness); this header re-exports them into dtm::testing and adds the
// hand-built-scenario literals and the random batch problems only tests
// need.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "batch/batch_problem.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "net/topology.hpp"
#include "sim/runner.hpp"
#include "sim/trials.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace dtm::testing {

using dtm::random_topology;
using dtm::random_workload;
using dtm::run_and_validate;
using dtm::small_networks;

/// A transaction literal for hand-built scenarios.
inline Transaction txn(TxnId id, NodeId node, Time gen,
                       std::vector<ObjId> objs) {
  Transaction t;
  t.id = id;
  t.node = node;
  t.gen_time = gen;
  t.accesses = write_set(objs);
  return t;
}

inline ObjectOrigin origin(ObjId id, NodeId node, Time created = 0) {
  return {id, node, created};
}

/// Equal batch results: the same makespan and the same assignments, row
/// by row.
inline void expect_same_result(const BatchResult& a, const BatchResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].txn, b.assignments[i].txn) << "row " << i;
    EXPECT_EQ(a.assignments[i].exec, b.assignments[i].exec) << "row " << i;
  }
}

/// Random batch problem: shuffled distinct txn ids, 1-3 distinct objects
/// per txn, availability in [now, now + 5], and (when `repeat_objects`) a
/// few repeated object rows whose last copy is the one that counts. Object
/// j has id 3j + 1, or with `sparse_ids` one 300007 apart from the next,
/// the first two negative: two or more of them span far more than the
/// cursor table's slot table covers. The draws do not depend on the ids.
inline BatchProblem random_batch_problem(const Network& net, Rng& rng,
                                         int txns, int objects,
                                         bool repeat_objects = false,
                                         bool sparse_ids = false) {
  const auto id_of = [sparse_ids](std::int32_t j) -> ObjId {
    return sparse_ids ? (j - 2) * 300007 - 11 : j * 3 + 1;
  };
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = rng.uniform_int(1, 2);
  p.now = rng.uniform_int(0, 20);
  const auto node = [&] {
    return static_cast<NodeId>(rng.uniform_int(0, net.num_nodes() - 1));
  };
  for (ObjId o = 0; o < objects; ++o)
    p.objects.push_back(
        {id_of(o), node(), p.now + rng.uniform_int(0, 5), rng.bernoulli(0.5)});
  if (repeat_objects)
    for (int i = 0; i < 2; ++i) {
      BatchObject dup = p.objects[static_cast<std::size_t>(
          rng.uniform_int(0, objects - 1))];
      dup.node = node();
      dup.ready = p.now + rng.uniform_int(0, 5);
      p.objects.push_back(dup);
    }
  rng.shuffle(p.objects);
  std::vector<TxnId> ids;
  for (int i = 0; i < txns; ++i) ids.push_back(100 + 7 * i);
  rng.shuffle(ids);
  for (const TxnId id : ids) {
    const auto k = static_cast<std::int32_t>(
        rng.uniform_int(1, std::min(3, objects)));
    BatchTxn t{id, node(), {}};
    for (const std::int32_t j : rng.sample_distinct(objects, k))
      t.objects.push_back(id_of(j));
    p.txns.push_back(std::move(t));
  }
  return p;
}

}  // namespace dtm::testing
