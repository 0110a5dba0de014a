#include "batch/batch_scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <optional>

#include "batch/soa_problem.hpp"

namespace dtm {

namespace {

/// Cross-check two results element-wise (same assignment order expected —
/// both paths emit in visiting order).
void check_results_equal(const BatchResult& soa, const BatchResult& ref,
                         const char* what) {
  DTM_CHECK(soa.makespan == ref.makespan && soa.assignments.size() ==
                                                ref.assignments.size(),
            "" << what << ": SoA makespan " << soa.makespan << " vs scalar "
               << ref.makespan);
  for (std::size_t i = 0; i < soa.assignments.size(); ++i)
    DTM_CHECK(soa.assignments[i].txn == ref.assignments[i].txn &&
                  soa.assignments[i].exec == ref.assignments[i].exec,
              "" << what << ": assignment " << i << " diverged (txn "
                 << soa.assignments[i].txn << " exec "
                 << soa.assignments[i].exec << " vs txn "
                 << ref.assignments[i].txn << " exec "
                 << ref.assignments[i].exec << ")");
}

}  // namespace

Time estimate_fa(const BatchScheduler& a, const BatchProblem& p, Rng& rng) {
  if (p.txns.empty()) {
    // Nothing new to schedule; F_A is the residual availability horizon.
    Time horizon = 0;
    for (const auto& o : p.objects)
      horizon = std::max(horizon, o.ready - p.now);
    return horizon;
  }
  const BatchResult r = a.schedule(p, rng);
  Time f = r.makespan;
  // F_A covers *all* transactions in the combined set, including the pinned
  // ones folded into availability: an object whose ready time lies in the
  // future keeps the system busy until then even if no new txn touches it
  // late.
  for (const auto& o : p.objects) f = std::max(f, o.ready - p.now);
  return f;
}

BatchResult chain_evaluate(const BatchProblem& p,
                           const std::vector<std::size_t>& order,
                           bool validate) {
  if (p.math == BatchMathMode::kScalar)
    return chain_evaluate_scalar(p, order, validate);
  // SoA path: use the owner's prebuilt view when present, else build into
  // a thread-local scratch (one-shot callers like OrderedChainBatch).
  static thread_local BatchProblemSoA scratch;
  const BatchProblemSoA* s = p.soa.get();
  if (s == nullptr || !s->matches(p)) {
    scratch.build(p);
    s = &scratch;
  }
  BatchResult r = chain_evaluate_soa(p, *s, order);
  if (p.math == BatchMathMode::kVerify)
    check_results_equal(r, chain_evaluate_scalar(p, order, /*validate=*/false),
                        "chain_evaluate");
  if (validate) check_batch_result(p, r);
  return r;
}

BatchResult chain_evaluate_scalar(const BatchProblem& p,
                                  const std::vector<std::size_t>& order,
                                  bool validate) {
  DTM_REQUIRE(order.size() == p.txns.size(),
              "order size " << order.size() << " != " << p.txns.size());
  struct Cursor {
    ObjId id;
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  // Flat sorted cursor table instead of a node-based map: this runs under
  // every F_A estimate, and the per-call rebuild of a std::map used to be
  // the single largest allocation source in the bucket schedulers. The
  // thread_local scratch keeps the capacity across calls.
  static thread_local std::vector<Cursor> cur;
  cur.clear();
  cur.reserve(p.objects.size());
  for (const auto& o : p.objects)
    cur.push_back({o.id, o.node, o.ready, o.from_txn});
  std::sort(cur.begin(), cur.end(),
            [](const Cursor& a, const Cursor& b) { return a.id < b.id; });
  const auto find = [&](ObjId o) -> Cursor& {
    const auto it = std::lower_bound(
        cur.begin(), cur.end(), o,
        [](const Cursor& c, ObjId v) { return c.id < v; });
    DTM_CHECK(it != cur.end() && it->id == o,
              "object " << o << " missing from problem");
    return *it;
  };

  BatchResult r;
  r.assignments.reserve(p.txns.size());
  for (const std::size_t idx : order) {
    const BatchTxn& t = p.txns[idx];
    Time e = p.now;
    for (const ObjId o : t.objects) {
      const Cursor& c = find(o);
      Time arrive = c.free_at + p.travel(c.node, t.node);
      if (c.from_txn) arrive = std::max(arrive, c.free_at + 1);
      e = std::max(e, arrive);
    }
    for (const ObjId o : t.objects) find(o) = {o, t.node, e, true};
    r.assignments.push_back({t.id, e});
    r.makespan = std::max(r.makespan, e - p.now);
  }
  if (validate) check_batch_result(p, r);
  return r;
}

BatchResult OrderedChainBatch::schedule(const BatchProblem& p,
                                        Rng& rng) const {
  return chain_evaluate(p, policy_(p, rng));
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
std::vector<std::size_t> order_by_key(const BatchProblem& p, KeyFn key) {
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

/// Random ranks for the groups the transactions fall into (cliques, rays):
/// the distinct group ids in ascending order are shuffled with `rng`, and a
/// group's rank is its position in the shuffle. Reusable: assign() keeps
/// the buffers' capacity.
class ShuffledRanks {
 public:
  template <typename GroupFn>
  void assign(const BatchProblem& p, Rng& rng, GroupFn group) {
    groups_.clear();
    for (const auto& t : p.txns)
      if (const auto g = group(t)) groups_.push_back(*g);
    std::sort(groups_.begin(), groups_.end());
    groups_.erase(std::unique(groups_.begin(), groups_.end()), groups_.end());
    // Shuffling positions draws exactly what shuffling the ids would:
    // perm_[i] is the index of the group the shuffle puts at position i.
    perm_.resize(groups_.size());
    std::iota(perm_.begin(), perm_.end(), 0);
    rng.shuffle(perm_);
    rank_.resize(groups_.size());
    for (std::size_t i = 0; i < perm_.size(); ++i)
      rank_[perm_[i]] = static_cast<NodeId>(i);
  }

  [[nodiscard]] NodeId rank(NodeId g) const {
    return rank_[static_cast<std::size_t>(
        std::lower_bound(groups_.begin(), groups_.end(), g) -
        groups_.begin())];
  }

 private:
  std::vector<NodeId> groups_;     ///< distinct group ids, ascending
  std::vector<std::size_t> perm_;  ///< shuffled group indices
  std::vector<NodeId> rank_;       ///< rank per entry of groups_
};

}  // namespace

std::unique_ptr<BatchScheduler> make_line_batch() {
  return std::make_unique<OrderedChainBatch>(
      "line-sweep", [](const BatchProblem& p, Rng&) {
        // Left-to-right along the line: every object performs one sweep, so
        // its total travel is O(n) against a spread lower bound — the O(1)
        // approximation structure of [SPAA'17]'s line scheduler.
        return order_by_key(p, [](const BatchTxn& t) { return t.node; });
      });
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
  return std::make_unique<OrderedChainBatch>(
      "cluster-random",
      [beta](const BatchProblem& p, Rng& rng) {
        // Random permutation of cliques (the randomized step of [SPAA'17]);
        // within a clique the bridge node (member 0) goes first so inter-
        // clique transfers leave as early as possible.
        static thread_local ShuffledRanks cliques;
        cliques.assign(p, rng, [&](const BatchTxn& t) {
          return std::optional<NodeId>(t.node / beta);
        });
        return order_by_key(p, [&](const BatchTxn& t) {
          return std::pair(cliques.rank(t.node / beta), t.node % beta);
        });
      },
      /*is_randomized=*/true);
}

std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta) {
  return std::make_unique<OrderedChainBatch>(
      "star-random",
      [beta](const BatchProblem& p, Rng& rng) {
        // Center first; then rays in random order, each walked center-
        // outward — objects funnel through the hub once per ray.
        static thread_local ShuffledRanks rays;
        rays.assign(p, rng, [&](const BatchTxn& t) {
          return t.node != 0 ? std::optional<NodeId>((t.node - 1) / beta)
                             : std::nullopt;
        });
        return order_by_key(p, [&](const BatchTxn& t) {
          if (t.node == 0) return std::pair<NodeId, NodeId>(-1, 0);
          return std::pair(rays.rank((t.node - 1) / beta),
                           (t.node - 1) % beta);
        });
      },
      /*is_randomized=*/true);
}

std::unique_ptr<BatchScheduler> make_grid_snake_batch(
    std::vector<NodeId> extents) {
  return std::make_unique<OrderedChainBatch>(
      "grid-snake", [extents](const BatchProblem& p, Rng&) {
        // Boustrophedon: row-major, alternating direction per row, so that
        // consecutive transactions are adjacent in the grid.
        std::vector<NodeId> c(extents.size());
        return order_by_key(p, [&](const BatchTxn& t) {
          NodeId id = t.node;
          // Decode row-major coordinates, then snake-fold the last axis.
          for (std::size_t d = extents.size(); d-- > 0;) {
            c[d] = id % extents[d];
            id /= extents[d];
          }
          NodeId key = 0;
          bool flip = false;
          for (std::size_t d = 0; d < extents.size(); ++d) {
            const NodeId v = flip ? extents[d] - 1 - c[d] : c[d];
            key = key * extents[d] + v;
            flip = (c[d] % 2) == 1 ? !flip : flip;
          }
          return key;
        });
      });
}

std::unique_ptr<BatchScheduler> make_hypercube_gray_batch() {
  return std::make_unique<OrderedChainBatch>(
      "hypercube-gray", [](const BatchProblem& p, Rng&) {
        // Inverse Gray code: consecutive ranks differ in one bit, so the
        // visiting order is a Hamiltonian walk of the cube.
        return order_by_key(p, [](const BatchTxn& t) {
          std::uint32_t g = static_cast<std::uint32_t>(t.node);
          std::uint32_t b = 0;
          for (; g; g >>= 1) b ^= g;
          return b;
        });
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
    // Flat cursor table sorted by object id (a repeated id keeps its last
    // row, as an assignment into a map would).
    std::vector<BatchObject> cur(p.objects.begin(), p.objects.end());
    std::stable_sort(cur.begin(), cur.end(),
                     [](const BatchObject& a, const BatchObject& b) {
                       return a.id < b.id;
                     });
    const auto find = [&](ObjId o) -> BatchObject& {
      const auto it = std::upper_bound(
          cur.begin(), cur.end(), o,
          [](ObjId v, const BatchObject& c) { return v < c.id; });
      DTM_CHECK(it != cur.begin() && std::prev(it)->id == o,
                "object " << o << " missing from problem");
      return *std::prev(it);
    };
    BatchResult r;
    Time prev = p.now;
    for (const auto& t : p.txns) {
      Time e = prev;
      for (const ObjId o : t.objects) {
        const BatchObject& c = find(o);
        Time arrive = c.ready + p.travel(c.node, t.node);
        if (c.from_txn) arrive = std::max(arrive, c.ready + 1);
        e = std::max(e, arrive);
      }
      for (const ObjId o : t.objects) find(o) = {o, t.node, e, true};
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
