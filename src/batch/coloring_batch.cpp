// Generic offline batch scheduler: Lemma 1 greedy coloring applied to the
// batch conflict graph. This is the "direct approach" of §III used offline;
// near-optimal on low-diameter graphs (clique: O(k) of optimal, matching
// Theorem 3's argument).
#include <algorithm>
#include <numeric>

#include "batch/batch_scheduler.hpp"
#include "core/coloring.hpp"

namespace dtm {

namespace {

class ColoringBatch final : public BatchScheduler {
 public:
  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng&) const override {
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
    CursorTable& avail = CursorTable::local();
    avail.load(p.objects);
    for (std::size_t i = 0; i < n; ++i) {
      const BatchTxn& t = p.txns[i];
      for (const ObjId o : t.objects) {
        const Time arrive = p.arrival(avail.find(o), t.node) - p.now;
        s.floor[i] = std::max(s.floor[i], std::max<Time>(arrive, 0));
        s.users.emplace_back(o, i);
      }
    }
    // Flat user lists: sorting (object, index) pairs groups each object's
    // users contiguously in ascending index order — the same enumeration
    // order the former per-object vectors had.
    std::sort(s.users.begin(), s.users.end());

    // Ascending-floor visiting order (cheap transactions commit early — the
    // property the online greedy schedule also has), ties by txn id.
    s.order.resize(n);
    std::iota(s.order.begin(), s.order.end(), 0);
    std::stable_sort(s.order.begin(), s.order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (s.floor[a] != s.floor[b])
                         return s.floor[a] < s.floor[b];
                       return p.txns[a].id < p.txns[b].id;
                     });

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
  };
  static Scratch& scratch() {
    static thread_local Scratch s;
    return s;
  }
};

}  // namespace

std::unique_ptr<BatchScheduler> make_coloring_batch() {
  return std::make_unique<ColoringBatch>();
}

}  // namespace dtm
