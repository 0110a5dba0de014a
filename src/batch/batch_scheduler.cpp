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

BatchResult OrderedChainBatch::schedule(const BatchProblem& p,
                                        Rng& rng) const {
  return chain_evaluate(p, policy_(p, rng));
}

Time OrderedChainBatch::makespan(const BatchProblem& p, Rng& rng,
                                 Time cutoff) const {
  if (cutoff > 0) return chain_makespan(p, policy_(p, rng), cutoff);
  // No order's makespan is below cutoff <= 0: take the draws, skip the walk.
  if (draws_)
    draws_(p, rng);
  else if (randomized_)
    (void)policy_(p, rng);
  return 0;
}

namespace {

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Sorts transaction indices by a key functor (stable, ties by txn id).
/// Each key is computed once, then (key, id, index) rows are sorted: a
/// total order, so the unstable sort reproduces the stable one exactly.
template <typename KeyFn>
std::vector<std::size_t> order_by_key(const BatchProblem& p,
                                      const KeyFn& key) {
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
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) order[i] = rows[i].index;
  return order;
}

}  // namespace

std::unique_ptr<OrderedChainBatch> OrderedChainBatch::key_ordered(
    std::string policy_name, TxnKey key) {
  auto a = std::make_unique<OrderedChainBatch>(
      std::move(policy_name),
      [key = std::move(key)](const BatchProblem& p, Rng&) {
        return order_by_key(p, key);
      });
  a->suffix_tight_ = true;
  return a;
}

namespace {

/// Per-thread scratch of group_shuffled: which groups the current call has
/// seen (a stamp per group id) and each group's shuffled rank (a dense
/// table by group id).
struct GroupScratch {
  std::vector<std::uint32_t> seen;  ///< per group id: last call that saw it
  std::uint32_t call = 0;
  std::vector<NodeId> groups;       ///< distinct groups of this call
  std::vector<std::size_t> perm;    ///< shuffled positions into groups
  std::vector<std::int64_t> rank;   ///< per group id: shuffled position

  /// Collects the distinct groups (>= 0) of p's transactions, in first-
  /// seen order, and shuffles positions: the draws of the whole order.
  void draw(const BatchProblem& p, const OrderedChainBatch::NodeFn& group,
            Rng& rng) {
    if (++call == 0) {  // stamps wrapped: forget every old one
      std::fill(seen.begin(), seen.end(), 0);
      call = 1;
    }
    groups.clear();
    for (const BatchTxn& t : p.txns) {
      const NodeId g = group(t.node);
      if (g < 0) continue;
      const auto gi = static_cast<std::size_t>(g);
      if (gi >= seen.size()) {
        seen.resize(gi + 1, 0);
        rank.resize(gi + 1);
      }
      if (seen[gi] == call) continue;
      seen[gi] = call;
      groups.push_back(g);
    }
    // Shuffling positions draws exactly what shuffling the ids would.
    perm.resize(groups.size());
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
  }
};

GroupScratch& group_scratch() {
  static thread_local GroupScratch s;
  return s;
}

}  // namespace

std::unique_ptr<OrderedChainBatch> OrderedChainBatch::group_shuffled(
    std::string policy_name, NodeFn group, NodeFn member) {
  auto a = std::make_unique<OrderedChainBatch>(
      std::move(policy_name),
      [group, member](const BatchProblem& p, Rng& rng) {
        GroupScratch& s = group_scratch();
        s.draw(p, group, rng);
        // The shuffle permuted positions of the ascending group ids:
        // groups[perm[i]] of the sorted list gets rank i.
        std::sort(s.groups.begin(), s.groups.end());
        for (std::size_t i = 0; i < s.perm.size(); ++i)
          s.rank[static_cast<std::size_t>(s.groups[s.perm[i]])] =
              static_cast<std::int64_t>(i);
        // One int64 key, rank * 2^32 + member: (rank, member) order, with
        // a node outside every group at rank -1.
        return order_by_key(p, [&](const BatchTxn& t) {
          const NodeId g = group(t.node);
          const std::int64_t r =
              g < 0 ? -1 : s.rank[static_cast<std::size_t>(g)];
          return r * (std::int64_t{1} << 32) + member(t.node);
        });
      },
      /*is_randomized=*/true);
  a->draws_ = [group = std::move(group)](const BatchProblem& p, Rng& rng) {
    group_scratch().draw(p, group, rng);
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
      "clique-load", [](const BatchProblem& p, Rng&) {
        // Heaviest transactions (sum of their objects' user counts) first:
        // hot objects start their chains immediately instead of idling.
        // An object's load is the length of its run in the sorted list of
        // every (transaction, object) use.
        std::vector<ObjId> uses;
        for (const auto& t : p.txns)
          uses.insert(uses.end(), t.objects.begin(), t.objects.end());
        std::sort(uses.begin(), uses.end());
        return order_by_key(p, [&](const BatchTxn& t) {
          std::int64_t w = 0;
          for (const ObjId o : t.objects) {
            const auto [lo, hi] = std::equal_range(uses.begin(), uses.end(), o);
            w += hi - lo;
          }
          return -w;
        });
      });
}

std::unique_ptr<BatchScheduler> make_cluster_batch(NodeId beta) {
  // Random permutation of cliques (the randomized step of [SPAA'17]);
  // within a clique the bridge node (member 0) goes first so inter-clique
  // transfers leave as early as possible.
  return OrderedChainBatch::group_shuffled(
      "cluster-random", [beta](NodeId u) { return u / beta; },
      [beta](NodeId u) { return u % beta; });
}

std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta) {
  // Center first; then rays in random order, each walked center-outward —
  // objects funnel through the hub once per ray.
  return OrderedChainBatch::group_shuffled(
      "star-random",
      [beta](NodeId u) { return u != 0 ? (u - 1) / beta : NodeId{-1}; },
      [beta](NodeId u) { return u != 0 ? (u - 1) % beta : NodeId{0}; });
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
      "tsp-nn", [](const BatchProblem& p, Rng&) {
        // Nearest-neighbor tour over transaction nodes, starting from the
        // busiest object's position (Zhang et al. route objects along TSP
        // tours; this is the standard constructive heuristic for it).
        const std::size_t n = p.txns.size();
        auto order = identity_order(n);
        if (n <= 2) return order;
        NodeId pos = p.objects.empty() ? p.txns[0].node : p.objects[0].node;
        std::vector<bool> used(n, false);
        std::vector<std::size_t> tour;
        tour.reserve(n);
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
        return tour;
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
