#include "batch/batch_scheduler.hpp"

#include <algorithm>
#include <numeric>

namespace dtm {

Time estimate_fa(const BatchScheduler& a, const BatchProblem& p, Rng& rng) {
  if (p.txns.empty()) {
    // Nothing new to schedule; F_A is the residual availability horizon.
    Time horizon = 0;
    for (const auto& o : p.objects)
      horizon = std::max(horizon, o.ready - p.now);
    return horizon;
  }
  Time f = a.makespan(p, rng, kNoCutoff);
  // F_A covers *all* transactions in the combined set, including the pinned
  // ones folded into availability: an object whose ready time lies in the
  // future keeps the system busy until then even if no new txn touches it
  // late.
  for (const auto& o : p.objects) f = std::max(f, o.ready - p.now);
  return f;
}

Time BatchScheduler::makespan(const BatchProblem& p, Rng& rng,
                              Time cutoff) const {
  // A deterministic A draws nothing, and no makespan is below cutoff <= 0.
  if (cutoff <= 0 && !randomized()) return 0;
  return schedule(p, rng).makespan;
}

namespace {

/// The chain walk behind chain_evaluate and chain_makespan: visits
/// `order`, each transaction executing as soon as every one of its object
/// chains arrives, and hands each (txn index, exec) to `emit`. Returns the
/// makespan, or the running makespan once it reaches `cutoff`.
template <typename Emit>
Time walk(const BatchProblem& p, const std::vector<std::size_t>& order,
          Time cutoff, Emit emit) {
  check_permutation(order, p.txns.size());
  // This runs under every F_A estimate, suffix candidate and schedule of
  // A: each object use is two O(1) finds in the thread's cursor table.
  CursorTable& cur = CursorTable::local();
  cur.load(p.objects);
  Time makespan = 0;
  for (const std::size_t idx : order) {
    const BatchTxn& t = p.txns[idx];
    Time e = p.now;
    for (const ObjId o : t.objects)
      e = std::max(e, p.arrival(cur.find(o), t.node));
    for (const ObjId o : t.objects) cur.find(o) = {o, t.node, e, true};
    emit(idx, e);
    makespan = std::max(makespan, e - p.now);
    if (makespan >= cutoff) break;
  }
  return makespan;
}

}  // namespace

BatchResult chain_evaluate(const BatchProblem& p,
                           const std::vector<std::size_t>& order) {
  BatchResult r;
  r.assignments.reserve(order.size());
  r.makespan = walk(p, order, kNoCutoff, [&](std::size_t idx, Time e) {
    r.assignments.push_back({p.txns[idx].id, e});
  });
  check_batch_result(p, r);
  return r;
}

Time chain_makespan(const BatchProblem& p,
                    const std::vector<std::size_t>& order, Time cutoff) {
  return walk(p, order, cutoff, [](std::size_t, Time) {});
}

namespace {

/// The order buffer of OrderedChainBatch::schedule and makespan, per
/// thread. A policy fills it and the walk reads it; neither calls back into
/// another ordered chain algorithm, so one buffer serves both.
std::vector<std::size_t>& order_scratch() {
  static thread_local std::vector<std::size_t> order;
  return order;
}

}  // namespace

BatchResult OrderedChainBatch::schedule(const BatchProblem& p,
                                        Rng& rng) const {
  std::vector<std::size_t>& order = order_scratch();
  policy_(p, rng, order);
  return chain_evaluate(p, order);
}

Time OrderedChainBatch::makespan(const BatchProblem& p, Rng& rng,
                                 Time cutoff) const {
  std::vector<std::size_t>& order = order_scratch();
  if (cutoff > 0) {
    policy_(p, rng, order);
    return chain_makespan(p, order, cutoff);
  }
  // No order's makespan is below cutoff <= 0: take the draws, skip the walk.
  if (draws_)
    draws_(p, rng);
  else if (randomized_)
    policy_(p, rng, order);
  return 0;
}

namespace {

/// Sorts transaction indices by a key functor (stable, ties by txn id) into
/// `out`. Each key is computed once, then (key, id, index) rows are sorted:
/// a total order, so the unstable sort reproduces the stable one exactly.
template <typename KeyFn>
void order_by_key(const BatchProblem& p, const KeyFn& key,
                  std::vector<std::size_t>& out) {
  using Key = decltype(key(p.txns[0]));
  struct Row {
    Key key;
    TxnId id;
    std::size_t index;
  };
  static thread_local std::vector<Row> rows;
  rows.clear();
  rows.reserve(p.txns.size());
  for (std::size_t i = 0; i < p.txns.size(); ++i)
    rows.push_back({key(p.txns[i]), p.txns[i].id, i});
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.id != b.id) return a.id < b.id;
    return a.index < b.index;
  });
  out.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) out[i] = rows[i].index;
}

}  // namespace

std::unique_ptr<OrderedChainBatch> OrderedChainBatch::key_ordered(
    std::string policy_name, TxnKey key) {
  auto a = std::make_unique<OrderedChainBatch>(
      std::move(policy_name),
      [key = std::move(key)](const BatchProblem& p, Rng&,
                             std::vector<std::size_t>& out) {
        order_by_key(p, key, out);
      });
  a->suffix_tight_ = true;
  return a;
}

namespace {

/// Per-thread scratch of group_shuffled. Rank 0 holds the nodes below
/// `first`; the shuffled groups take ranks 1..G.
struct GroupScratch {
  struct Row {
    NodeId member;
    TxnId id;
    std::size_t index;
  };
  std::vector<std::uint32_t> seen;  ///< per group id: last call that saw it
  std::uint32_t call = 0;
  std::vector<std::size_t> rank;    ///< per group id: its rank this call
  std::vector<NodeId> group;        ///< per txn row: its group, -1 below first
  std::vector<NodeId> groups;       ///< distinct groups of this call
  std::vector<std::size_t> perm;    ///< shuffled positions into groups
  std::vector<std::size_t> start;   ///< per rank: its first row
  std::vector<Row> rows;            ///< the txn rows by rank

  /// Finds each row's group and the distinct groups (in first-seen order),
  /// and shuffles positions: the draws of the whole order.
  void draw(const BatchProblem& p, NodeId first, NodeId beta, Rng& rng) {
    if (++call == 0) {  // stamps wrapped: forget every old one
      std::fill(seen.begin(), seen.end(), 0);
      call = 1;
    }
    group.resize(p.txns.size());
    groups.clear();
    for (std::size_t i = 0; i < p.txns.size(); ++i) {
      const NodeId u = p.txns[i].node;
      group[i] = u < first ? NodeId{-1} : (u - first) / beta;
      if (group[i] < 0) continue;
      const auto gi = static_cast<std::size_t>(group[i]);
      if (gi >= seen.size()) {
        seen.resize(gi + 1, 0);
        rank.resize(gi + 1);
      }
      if (seen[gi] == call) continue;
      seen[gi] = call;
      groups.push_back(group[i]);
    }
    // Shuffling positions draws exactly what shuffling the ids would.
    perm.resize(groups.size());
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
  }

  /// draw(), then the order: a counting sort of the rows by rank, then
  /// each rank's rows sorted by (member, id, index).
  void order(const BatchProblem& p, NodeId first, NodeId beta, Rng& rng,
             std::vector<std::size_t>& out) {
    draw(p, first, beta, rng);
    // The shuffle permuted positions of the ascending group ids:
    // groups[perm[i]] of the sorted list gets rank i + 1.
    std::sort(groups.begin(), groups.end());
    for (std::size_t i = 0; i < perm.size(); ++i)
      rank[static_cast<std::size_t>(groups[perm[i]])] = i + 1;
    const auto rank_of = [&](std::size_t i) {
      return group[i] < 0 ? 0 : rank[static_cast<std::size_t>(group[i])];
    };
    const std::size_t n = p.txns.size();
    start.assign(groups.size() + 2, 0);
    for (std::size_t i = 0; i < n; ++i) ++start[rank_of(i) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId u = p.txns[i].node;
      const NodeId member = group[i] < 0 ? u : u - first - group[i] * beta;
      rows[start[rank_of(i)]++] = {member, p.txns[i].id, i};
    }
    // Each start[r] has advanced to the end of rank r's rows.
    std::size_t lo = 0;
    for (std::size_t r = 0; r <= groups.size(); ++r) {
      std::sort(rows.begin() + static_cast<std::ptrdiff_t>(lo),
                rows.begin() + static_cast<std::ptrdiff_t>(start[r]),
                [](const Row& a, const Row& b) {
                  if (a.member != b.member) return a.member < b.member;
                  if (a.id != b.id) return a.id < b.id;
                  return a.index < b.index;
                });
      lo = start[r];
    }
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = rows[i].index;
  }
};

GroupScratch& group_scratch() {
  static thread_local GroupScratch s;
  return s;
}

}  // namespace

std::unique_ptr<OrderedChainBatch> OrderedChainBatch::group_shuffled(
    std::string policy_name, NodeId first, NodeId beta) {
  DTM_REQUIRE(first >= 0 && beta >= 1,
              "group_shuffled needs first >= 0 and beta >= 1, got first "
                  << first << ", beta " << beta);
  auto a = std::make_unique<OrderedChainBatch>(
      std::move(policy_name),
      [first, beta](const BatchProblem& p, Rng& rng,
                    std::vector<std::size_t>& out) {
        group_scratch().order(p, first, beta, rng, out);
      },
      /*is_randomized=*/true);
  a->draws_ = [first, beta](const BatchProblem& p, Rng& rng) {
    group_scratch().draw(p, first, beta, rng);
  };
  return a;
}

std::unique_ptr<BatchScheduler> make_line_batch() {
  // Left-to-right along the line: every object performs one sweep, so its
  // total travel is O(n) against a spread lower bound — the O(1)
  // approximation structure of [SPAA'17]'s line scheduler.
  return OrderedChainBatch::key_ordered(
      "line-sweep", [](const BatchTxn& t) { return std::int64_t{t.node}; });
}

std::unique_ptr<BatchScheduler> make_clique_batch() {
  return std::make_unique<OrderedChainBatch>(
      "clique-load",
      [](const BatchProblem& p, Rng&, std::vector<std::size_t>& out) {
        // Heaviest transactions (sum of their objects' user counts) first:
        // hot objects start their chains immediately instead of idling.
        // An object's load is the length of its run in the sorted list of
        // every (transaction, object) use.
        std::vector<ObjId> uses;
        for (const auto& t : p.txns)
          uses.insert(uses.end(), t.objects.begin(), t.objects.end());
        std::sort(uses.begin(), uses.end());
        order_by_key(
            p,
            [&](const BatchTxn& t) {
              std::int64_t w = 0;
              for (const ObjId o : t.objects) {
                const auto [lo, hi] =
                    std::equal_range(uses.begin(), uses.end(), o);
                w += hi - lo;
              }
              return -w;
            },
            out);
      });
}

std::unique_ptr<BatchScheduler> make_cluster_batch(NodeId beta) {
  // Random permutation of cliques (the randomized step of [SPAA'17]);
  // within a clique the bridge node (member 0) goes first so inter-clique
  // transfers leave as early as possible.
  return OrderedChainBatch::group_shuffled("cluster-random", 0, beta);
}

std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta) {
  // Center first; then rays in random order, each walked center-outward —
  // objects funnel through the hub once per ray.
  return OrderedChainBatch::group_shuffled("star-random", 1, beta);
}

std::unique_ptr<BatchScheduler> make_grid_snake_batch(
    std::vector<NodeId> extents) {
  // Row-major strides: coordinate d of node u is (u / stride[d]) % extent.
  std::vector<NodeId> stride(extents.size(), 1);
  for (std::size_t d = extents.size(); d-- > 1;)
    stride[d - 1] = stride[d] * extents[d];
  // Boustrophedon: row-major, alternating direction per row, so that
  // consecutive transactions are adjacent in the grid.
  return OrderedChainBatch::key_ordered(
      "grid-snake", [extents = std::move(extents),
                     stride = std::move(stride)](const BatchTxn& t) {
        std::int64_t key = 0;
        bool flip = false;
        for (std::size_t d = 0; d < extents.size(); ++d) {
          const NodeId c = (t.node / stride[d]) % extents[d];
          key = key * extents[d] + (flip ? extents[d] - 1 - c : c);
          if (c % 2 == 1) flip = !flip;
        }
        return key;
      });
}

std::unique_ptr<BatchScheduler> make_hypercube_gray_batch() {
  // Inverse Gray code: consecutive ranks differ in one bit, so the visiting
  // order is a Hamiltonian walk of the cube.
  return OrderedChainBatch::key_ordered(
      "hypercube-gray", [](const BatchTxn& t) {
        auto g = static_cast<std::uint32_t>(t.node);
        std::uint32_t b = 0;
        for (; g; g >>= 1) b ^= g;
        return std::int64_t{b};
      });
}

std::unique_ptr<BatchScheduler> make_tsp_batch() {
  return std::make_unique<OrderedChainBatch>(
      "tsp-nn",
      [](const BatchProblem& p, Rng&, std::vector<std::size_t>& tour) {
        // Nearest-neighbor tour over transaction nodes, starting from the
        // busiest object's position (Zhang et al. route objects along TSP
        // tours; this is the standard constructive heuristic for it).
        const std::size_t n = p.txns.size();
        if (n <= 2) {
          tour.resize(n);
          std::iota(tour.begin(), tour.end(), 0);
          return;
        }
        NodeId pos = p.objects.empty() ? p.txns[0].node : p.objects[0].node;
        std::vector<bool> used(n, false);
        tour.clear();
        for (std::size_t step = 0; step < n; ++step) {
          std::size_t best = n;
          Weight best_d = kInfWeight;
          for (std::size_t i = 0; i < n; ++i) {
            if (used[i]) continue;
            const Weight d = p.oracle->dist(pos, p.txns[i].node);
            if (d < best_d ||
                (d == best_d && best < n && p.txns[i].id < p.txns[best].id)) {
              best_d = d;
              best = i;
            }
          }
          used[best] = true;
          tour.push_back(best);
          pos = p.txns[best].node;
        }
      });
}

namespace {

/// Fully serial schedule: transaction i+1 starts only after transaction i
/// has committed *and* every one of its objects could have been shipped
/// over. Implements the Lemma 3 worst case as an honest baseline.
class SequentialBatch final : public BatchScheduler {
 public:
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng&) const override {
    CursorTable& cur = CursorTable::local();
    cur.load(p.objects);
    BatchResult r;
    Time prev = p.now;
    for (const auto& t : p.txns) {
      Time e = prev;
      for (const ObjId o : t.objects)
        e = std::max(e, p.arrival(cur.find(o), t.node));
      for (const ObjId o : t.objects) cur.find(o) = {o, t.node, e, true};
      r.assignments.push_back({t.id, e});
      r.makespan = std::max(r.makespan, e - p.now);
      prev = e + 1;  // full serialization: nobody overlaps
    }
    check_batch_result(p, r);
    return r;
  }
  [[nodiscard]] std::string name() const override { return "sequential"; }
};

}  // namespace

std::unique_ptr<BatchScheduler> make_sequential_batch() {
  return std::make_unique<SequentialBatch>();
}

}  // namespace dtm
