// Tests for util/bitset and batch/soa_problem: word kernels against naive
// references, the SoA view's CSR/conflict-row invariants on fuzzed
// instances, byte-identity of every batch algorithm across
// BatchMathMode::{kScalar, kSoA}, and race-freedom of a shared
// view under parallel evaluation (suite names carry "Soa" so the TSan CI
// job picks them up alongside the Parallel suites).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "batch/batch_scheduler.hpp"
#include "batch/soa_problem.hpp"
#include "net/topology.hpp"
#include "util/bitset.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

// ---- Word-kernel properties against naive bit loops ----

TEST(SoaBitset, AssignSetTestCount) {
  DynamicBitset b;
  b.assign(130, false);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0) && b.test(64) && b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
  b.assign(130, true);
  // The tail past size() must stay zero or every popcount-based kernel
  // over-counts.
  EXPECT_EQ(b.count(), 130u);
  EXPECT_EQ(popcount_words(b.words(), b.num_words()), 130u);
}

TEST(SoaBitset, KernelsMatchNaiveOnFuzzedWords) {
  Rng rng(0xB17);
  for (int it = 0; it < 200; ++it) {
    const auto nbits = static_cast<std::size_t>(rng.uniform_int(1, 300));
    DynamicBitset a, b;
    a.assign(nbits, false);
    b.assign(nbits, false);
    std::set<std::size_t> sa, sb;
    const auto fill = [&](DynamicBitset& d, std::set<std::size_t>& s) {
      const auto k = rng.uniform_int(0, static_cast<std::int64_t>(nbits));
      for (std::int64_t i = 0; i < k; ++i) {
        const auto bit = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(nbits) - 1));
        d.set(bit);
        s.insert(bit);
      }
    };
    fill(a, sa);
    fill(b, sb);

    std::set<std::size_t> both;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                          std::inserter(both, both.begin()));
    EXPECT_EQ(conflict_count(a.words(), b.words(), a.num_words()),
              both.size());
    EXPECT_EQ(conflict_any(a.words(), b.words(), a.num_words()),
              !both.empty());
    EXPECT_EQ(a.count(), sa.size());

    std::vector<std::size_t> seen;
    for_each_set_bit(a.words(), a.num_words(),
                     [&](std::size_t i) { seen.push_back(i); });
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), sa.begin(), sa.end()));
    seen.clear();
    for_each_set_and(a.words(), b.words(), a.num_words(),
                     [&](std::size_t i) { seen.push_back(i); });
    EXPECT_TRUE(
        std::equal(seen.begin(), seen.end(), both.begin(), both.end()));

    if (!sa.empty())
      EXPECT_EQ(first_set_bit(a.words(), a.num_words()), *sa.begin());
    std::size_t naive_zero = 0;
    while (naive_zero < nbits && a.test(naive_zero)) ++naive_zero;
    EXPECT_EQ(first_free_color(a), naive_zero);
  }
}

// ---- Fuzzed BatchProblem instances across topologies ----

Network fuzz_network(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return make_line(static_cast<NodeId>(rng.uniform_int(2, 14)));
    case 1:
      return make_clique(static_cast<NodeId>(rng.uniform_int(2, 10)));
    case 2:
      return make_star(static_cast<NodeId>(rng.uniform_int(2, 4)),
                       static_cast<NodeId>(rng.uniform_int(2, 4)));
    default: {
      const auto beta = rng.uniform_int(2, 3);
      return make_cluster(static_cast<NodeId>(rng.uniform_int(2, 3)),
                          static_cast<NodeId>(beta),
                          static_cast<Weight>(rng.uniform_int(beta, 6)));
    }
  }
}

/// Random problem; with `repeat_objects`, one or two object rows are
/// repeated at the end with other availability (the last row counts).
BatchProblem fuzz_problem(const Network& net, Rng& rng,
                          std::int64_t max_txns = 12,
                          bool repeat_objects = false) {
  BatchProblem p;
  p.oracle = net.oracle.get();
  p.latency_factor = rng.uniform_int(1, 2);
  p.now = rng.uniform_int(0, 50);
  const auto n_nodes = static_cast<std::int64_t>(net.num_nodes());
  const auto n_obj = rng.uniform_int(1, 8);
  for (ObjId o = 0; o < n_obj; ++o) {
    const bool from_txn = rng.uniform_int(0, 3) == 0;
    p.objects.push_back({o,
                         static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1)),
                         p.now + rng.uniform_int(0, 10), from_txn});
  }
  if (repeat_objects)
    for (auto k = rng.uniform_int(1, 2); k > 0; --k) {
      BatchObject dup = p.objects[static_cast<std::size_t>(
          rng.uniform_int(0, n_obj - 1))];
      dup.node = static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
      dup.ready = p.now + rng.uniform_int(0, 10);
      p.objects.push_back(dup);
    }
  const auto n_txn = rng.uniform_int(1, max_txns);
  for (TxnId t = 1; t <= n_txn; ++t) {
    BatchTxn bt;
    bt.id = t * 7 + 1;  // non-dense ids
    bt.node = static_cast<NodeId>(rng.uniform_int(0, n_nodes - 1));
    const auto k = rng.uniform_int(1, std::min<std::int64_t>(3, n_obj));
    std::set<ObjId> objs;
    while (static_cast<std::int64_t>(objs.size()) < k)
      objs.insert(static_cast<ObjId>(rng.uniform_int(0, n_obj - 1)));
    // Shuffled access order: the SoA txn rows must preserve it verbatim.
    bt.objects.assign(objs.begin(), objs.end());
    for (std::size_t i = bt.objects.size(); i > 1; --i)
      std::swap(bt.objects[i - 1],
                bt.objects[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    p.txns.push_back(std::move(bt));
  }
  return p;
}

TEST(SoaProblem, ViewMatchesProblemOnFuzzedInstances) {
  Rng rng(0x50A);
  for (int it = 0; it < 120; ++it) {
    const Network net = fuzz_network(rng);
    const BatchProblem p = fuzz_problem(net, rng);
    BatchProblemSoA soa;
    soa.build(p);
    ASSERT_TRUE(soa.matches(p));
    ASSERT_EQ(soa.num_txns(), p.txns.size());
    ASSERT_EQ(soa.num_objects(), p.objects.size());

    // Txn CSR rows reproduce each transaction's object list (as indices,
    // original access order preserved).
    for (std::size_t i = 0; i < p.txns.size(); ++i) {
      const auto row = soa.txn_objects(i);
      ASSERT_EQ(row.size(), p.txns[i].objects.size());
      for (std::size_t k = 0; k < row.size(); ++k) {
        EXPECT_EQ(soa.obj_ids()[row[k]], p.txns[i].objects[k]);
        EXPECT_EQ(soa.obj_index(p.txns[i].objects[k]), row[k]);
      }
      EXPECT_EQ(soa.txn_ids()[i], p.txns[i].id);
      EXPECT_EQ(soa.txn_node()[i], p.txns[i].node);
    }

    // Object CSR rows: exactly the users of each object, ascending.
    for (std::size_t j = 0; j < p.objects.size(); ++j) {
      const auto users = soa.object_users(j);
      EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
      std::set<std::size_t> expect;
      for (std::size_t i = 0; i < p.txns.size(); ++i)
        for (const ObjId o : p.txns[i].objects)
          if (o == soa.obj_ids()[j]) expect.insert(i);
      EXPECT_TRUE(
          std::equal(users.begin(), users.end(), expect.begin(), expect.end()));
    }

    // Conflict rows == the share-an-object predicate; symmetric, irreflexive.
    for (std::size_t i = 0; i < p.txns.size(); ++i) {
      std::size_t degree = 0;
      for (std::size_t j = 0; j < p.txns.size(); ++j) {
        std::set<ObjId> a(p.txns[i].objects.begin(), p.txns[i].objects.end());
        bool share = false;
        for (const ObjId o : p.txns[j].objects) share |= a.count(o) > 0;
        const bool expect = i != j && share;
        EXPECT_EQ(soa.conflicts(i, j), expect)
            << "txns " << i << "," << j << " at iter " << it;
        EXPECT_EQ(soa.conflicts(j, i), expect);
        degree += expect ? 1u : 0u;
      }
      EXPECT_EQ(soa.conflict_degree(i), degree);
    }
  }
}

TEST(SoaProblem, ChainEvaluateSoaMatchesScalar) {
  Rng rng(0xC4A1);
  for (int it = 0; it < 150; ++it) {
    const Network net = fuzz_network(rng);
    BatchProblem p = fuzz_problem(net, rng, 12, /*repeat_objects=*/it % 2 == 1);
    BatchProblemSoA soa;
    soa.build(p);
    std::vector<std::size_t> order(p.txns.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    const BatchResult ref = chain_evaluate(p, order);  // p.math is scalar
    const BatchResult got = chain_evaluate_soa(p, soa, order);
    ASSERT_EQ(got.makespan, ref.makespan);
    ASSERT_EQ(got.assignments.size(), ref.assignments.size());
    for (std::size_t i = 0; i < got.assignments.size(); ++i) {
      EXPECT_EQ(got.assignments[i].txn, ref.assignments[i].txn);
      EXPECT_EQ(got.assignments[i].exec, ref.assignments[i].exec);
    }
    // The makespan-only walks answer what the built schedules say, on both
    // math paths.
    EXPECT_EQ(chain_makespan(p, order), ref.makespan);
    EXPECT_EQ(chain_makespan_soa(p, soa, order), ref.makespan);
    p.math = BatchMathMode::kSoA;
    EXPECT_EQ(chain_makespan(p, order), ref.makespan);
  }
}

// Every batch algorithm, byte-identical across the two math modes. This is
// where the SoA kernels answer to the scalar ones: chain evaluation,
// coloring, local search (whose SoA path skips object-disjoint swaps the
// scalar path evaluates and reverts) and exhaustive search.
TEST(SoaProblem, BatchAlgorithmsIdenticalAcrossModes) {
  Rng rng(0x3A7);
  for (int it = 0; it < 40; ++it) {
    const Network net = fuzz_network(rng);
    BatchProblem p = fuzz_problem(net, rng, /*max_txns=*/6);
    const std::uint64_t algo_seed =
        static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
    const auto run = [&](const BatchScheduler& a, BatchMathMode m) {
      p.math = m;
      Rng r(algo_seed);
      return a.schedule(p, r);
    };
    const auto algos = [] {
      std::vector<std::unique_ptr<BatchScheduler>> v;
      v.push_back(make_coloring_batch());
      v.push_back(make_local_search_batch(3));
      v.push_back(make_exhaustive_batch(6));
      return v;
    }();
    for (const auto& a : algos) {
      const BatchResult ref = run(*a, BatchMathMode::kScalar);
      const BatchResult got = run(*a, BatchMathMode::kSoA);
      ASSERT_EQ(got.makespan, ref.makespan) << a->name() << " iter " << it;
      ASSERT_EQ(got.assignments.size(), ref.assignments.size());
      for (std::size_t i = 0; i < got.assignments.size(); ++i) {
        EXPECT_EQ(got.assignments[i].txn, ref.assignments[i].txn);
        EXPECT_EQ(got.assignments[i].exec, ref.assignments[i].exec);
      }
    }
  }
}

TEST(SoaProblem, SoaRefDoesNotPropagateThroughCopies) {
  const Network net = make_line(6);
  Rng rng(7);
  BatchProblem p = fuzz_problem(net, rng);
  BatchProblemSoA soa;
  soa.build(p);
  p.soa = &soa;
  ASSERT_EQ(p.soa.get(), &soa);
  // Copies describe the same content but must NOT inherit the view: the
  // copy is free to mutate, which would silently stale the pointer.
  const BatchProblem copy = p;  // NOLINT(performance-unnecessary-copy...)
  EXPECT_EQ(copy.soa.get(), nullptr);
  BatchProblem assigned;
  assigned = p;
  EXPECT_EQ(assigned.soa.get(), nullptr);
  EXPECT_EQ(p.soa.get(), &soa);  // source untouched
}

TEST(SoaProblem, StaleViewIsRebuiltNotTrusted) {
  const Network net = make_line(8);
  Rng rng(11);
  BatchProblem p = fuzz_problem(net, rng);
  p.math = BatchMathMode::kSoA;
  BatchProblemSoA soa;
  soa.build(p);
  p.soa = &soa;
  // Mutate the problem so the attached view no longer matches; the SoA
  // dispatch must detect the mismatch (matches() fails) and rebuild rather
  // than evaluate through the stale arrays.
  p.txns.push_back({999, 0, {p.objects.front().id}});
  std::vector<std::size_t> order(p.txns.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const BatchResult r = chain_evaluate(p, order);
  p.math = BatchMathMode::kScalar;
  p.soa = nullptr;
  const BatchResult ref = chain_evaluate(p, order);
  EXPECT_EQ(r.makespan, ref.makespan);
}

// One shared read-only view, many concurrent evaluators — the activation
// retry shape from BucketInsertionCore::run_activation. Named "SoaParallel"
// so the TSan CI job (-R 'Parallel|ThreadPool|Soa') races it for real.
TEST(SoaParallel, SharedViewIsRaceFreeUnderConcurrentEvaluation) {
  Rng rng(0xACE);
  const Network net = make_cluster(2, 3, 4);
  BatchProblem p = fuzz_problem(net, rng, /*max_txns=*/10);
  p.math = BatchMathMode::kSoA;
  BatchProblemSoA soa;
  soa.build(p);
  p.soa = &soa;
  std::vector<std::size_t> base(p.txns.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
  const BatchResult ref = chain_evaluate(p, base);
  const auto results = parallel_map<BatchResult>(
      16,
      [&](std::int64_t r) {
        std::vector<std::size_t> order = base;
        std::rotate(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(
                                        static_cast<std::size_t>(r) %
                                        std::max<std::size_t>(1, order.size())),
                    order.end());
        (void)chain_evaluate(p, order);
        return chain_evaluate(p, base);
      },
      4);
  for (const auto& r : results) EXPECT_EQ(r.makespan, ref.makespan);
}

}  // namespace
}  // namespace dtm
