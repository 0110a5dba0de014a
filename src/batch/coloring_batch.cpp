// Generic offline batch scheduler: Lemma 1 greedy coloring applied to the
// batch conflict graph. This is the "direct approach" of §III used offline;
// near-optimal on low-diameter graphs (clique: O(k) of optimal, matching
// Theorem 3's argument).
//
// Two math paths behind BatchProblem::math (byte-identical output):
//   scalar  the original flat sorted (object, txn) user table with
//           seen-tick dedup — the pinned reference.
//   soa     floors from the SoA txn→object CSR (O(1) availability reads
//           instead of the linear BatchProblem::object scan), constraints
//           gathered from conflict-row ∧ colored-mask word intersections
//           (dedup is inherent — one bit per conflicting partner), and a
//           first_free_color popcount-mask fast path when every gathered
//           gap is 1 (the all-unit-travel case, e.g. cliques at latency 1).
#include <algorithm>
#include <numeric>

#include "batch/batch_scheduler.hpp"
#include "batch/soa_problem.hpp"
#include "core/coloring.hpp"

namespace dtm {

namespace {

class ColoringBatch final : public BatchScheduler {
 public:
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng&) const override {
    if (p.math == BatchMathMode::kScalar) {
      BatchResult r = schedule_scalar(p);
      check_batch_result(p, r);
      return r;
    }
    static thread_local BatchProblemSoA soa_scratch;
    const BatchProblemSoA* s = p.soa.get();
    if (s == nullptr || !s->matches(p)) {
      soa_scratch.build(p);
      s = &soa_scratch;
    }
    BatchResult r = schedule_soa(p, *s);
    if (p.math == BatchMathMode::kVerify) {
      const BatchResult ref = schedule_scalar(p);
      DTM_CHECK(r.makespan == ref.makespan &&
                    r.assignments.size() == ref.assignments.size(),
                "coloring SoA makespan " << r.makespan << " vs scalar "
                                         << ref.makespan);
      for (std::size_t i = 0; i < r.assignments.size(); ++i)
        DTM_CHECK(r.assignments[i].txn == ref.assignments[i].txn &&
                      r.assignments[i].exec == ref.assignments[i].exec,
                  "coloring SoA assignment " << i << " diverged");
    }
    check_batch_result(p, r);
    return r;
  }

  [[nodiscard]] std::string name() const override { return "coloring"; }

 private:
  struct Scratch {
    std::vector<Time> floor;
    std::vector<std::pair<ObjId, std::size_t>> users;
    std::vector<std::size_t> order;
    std::vector<Time> color;
    std::vector<ColorConstraint> cs;
    std::vector<std::size_t> seen_tick;  ///< dedup marker, epoch = tick
    DynamicBitset colored;               ///< SoA path: txns already colored
    DynamicBitset forbidden;             ///< SoA path: unit-gap color mask
  };
  static Scratch& scratch() {
    static thread_local Scratch s;
    return s;
  }

  /// Ascending-floor visiting order (cheap transactions commit early — the
  /// property the online greedy schedule also has), ties by txn id.
  template <typename IdOf>
  static void floor_order(Scratch& s, std::size_t n, IdOf id_of) {
    s.order.resize(n);
    std::iota(s.order.begin(), s.order.end(), 0);
    std::stable_sort(s.order.begin(), s.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (s.floor[a] != s.floor[b])
                         return s.floor[a] < s.floor[b];
                       return id_of(a) < id_of(b);
                     });
  }

  [[nodiscard]] BatchResult schedule_scalar(const BatchProblem& p) const {
    const std::size_t n = p.txns.size();
    // Scratch arena: this scheduler is the workhorse behind every bucket
    // F_A probe on generic topologies, so the per-call map/set churn of the
    // original transcription dominated insertion cost. All buffers persist
    // across calls; output is unchanged.
    Scratch& s = scratch();

    // Availability floor per transaction: the object must be able to reach
    // it from its availability point. One-sided (the object simply does not
    // exist for us before `ready`), hence a floor rather than a gap.
    s.floor.assign(n, 0);
    s.users.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const BatchTxn& t = p.txns[i];
      for (const ObjId o : t.objects) {
        const BatchObject& avail = p.object(o);
        Time arrive = (avail.ready - p.now) + p.travel(avail.node, t.node);
        if (avail.from_txn) arrive = std::max(arrive, avail.ready - p.now + 1);
        s.floor[i] = std::max(s.floor[i], std::max<Time>(arrive, 0));
        s.users.emplace_back(o, i);
      }
    }
    // Flat user lists: sorting (object, index) pairs groups each object's
    // users contiguously in ascending index order — the same enumeration
    // order the former per-object vectors had.
    std::sort(s.users.begin(), s.users.end());

    floor_order(s, n, [&](std::size_t i) { return p.txns[i].id; });

    s.color.assign(n, kNoTime);
    s.seen_tick.assign(n, 0);
    std::size_t tick = 0;
    BatchResult r;
    r.assignments.resize(n);
    for (const std::size_t i : s.order) {
      s.cs.clear();
      ++tick;
      for (const ObjId o : p.txns[i].objects) {
        auto it = std::lower_bound(
            s.users.begin(), s.users.end(), std::pair<ObjId, std::size_t>{o, 0});
        for (; it != s.users.end() && it->first == o; ++it) {
          const std::size_t j = it->second;
          if (j == i || s.color[j] == kNoTime || s.seen_tick[j] == tick)
            continue;
          s.seen_tick[j] = tick;
          s.cs.push_back(
              {s.color[j],
               std::max<Weight>(1, p.travel(p.txns[j].node, p.txns[i].node))});
        }
      }
      s.color[i] = min_feasible_color(s.cs, s.floor[i]);
      r.assignments[i] = {p.txns[i].id, p.now + s.color[i]};
      r.makespan = std::max(r.makespan, s.color[i]);
    }
    return r;
  }

  [[nodiscard]] BatchResult schedule_soa(const BatchProblem& p,
                                         const BatchProblemSoA& soa) const {
    const std::size_t n = soa.num_txns();
    Scratch& s = scratch();
    const auto node = soa.txn_node();
    const auto ids = soa.txn_ids();
    const auto onode = soa.obj_node();
    const auto oready = soa.obj_ready();
    const auto ofrom = soa.obj_from_txn();

    // Floors through the CSR: dense index reads replace the linear
    // BatchProblem::object scans of the reference path.
    s.floor.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (const std::size_t j : soa.txn_objects(i)) {
        Time arrive = (oready[j] - p.now) + p.travel(onode[j], node[i]);
        if (ofrom[j]) arrive = std::max(arrive, oready[j] - p.now + 1);
        s.floor[i] = std::max(s.floor[i], std::max<Time>(arrive, 0));
      }
    }

    floor_order(s, n, [&](std::size_t i) { return ids[i]; });

    s.color.assign(n, kNoTime);
    s.colored.assign(n, false);
    BatchResult r;
    r.assignments.resize(n);
    for (const std::size_t i : s.order) {
      s.cs.clear();
      bool unit_gaps = true;
      // Conflict partners already colored = row_i ∧ colored — the same set
      // the scalar path reaches through per-object user lists plus dedup,
      // because row_i has exactly one bit per partner no matter how many
      // objects are shared. Emission is ascending j; min_feasible_color is
      // order-insensitive (it sorts), so the color is identical.
      for_each_set_and(
          soa.conflict_row(i), s.colored.words(), soa.row_words(),
          [&](std::size_t j) {
            const Weight gap =
                std::max<Weight>(1, p.travel(node[j], node[i]));
            unit_gaps = unit_gaps && gap == 1;
            s.cs.push_back({s.color[j], gap});
          });
      if (unit_gaps && !s.cs.empty()) {
        // Every constraint forbids exactly one color: mark offsets from the
        // floor in a k+1-bit mask and take the first free slot (pigeonhole
        // guarantees one in range). Equals min_feasible_color with all
        // gaps 1.
        s.forbidden.assign(s.cs.size() + 1, false);
        for (const ColorConstraint& c : s.cs) {
          const Time off = c.color - s.floor[i];
          if (off >= 0 && off < static_cast<Time>(s.forbidden.size()))
            s.forbidden.set(static_cast<std::size_t>(off));
        }
        s.color[i] =
            s.floor[i] + static_cast<Time>(first_free_color(s.forbidden));
      } else {
        s.color[i] = min_feasible_color(s.cs, s.floor[i]);
      }
      s.colored.set(i);
      r.assignments[i] = {ids[i], p.now + s.color[i]};
      r.makespan = std::max(r.makespan, s.color[i]);
    }
    return r;
  }
};

}  // namespace

std::unique_ptr<BatchScheduler> make_coloring_batch() {
  return std::make_unique<ColoringBatch>();
}

}  // namespace dtm
