// Local-search batch scheduler: starts from the generic coloring schedule's
// execution order and improves it with first-improvement pairwise swaps on
// the chain order. Topology-agnostic; slower but tighter than the
// per-topology heuristics on small batch problems, and a calibration point
// for how loose the certified lower bounds are (see bench_baselines).
//
// On the SoA math path the inner loop gets two kernel assists, neither of
// which changes a single decision:
//   - candidate orders evaluate through chain_evaluate_soa against ONE
//     BatchProblemSoA built up front (the scalar path rebuilds its cursor
//     table per evaluation either way, but the SoA arrays beat the sorted
//     lookups);
//   - an adjacent swap of object-disjoint transactions is skipped via a
//     single bit test on the conflict rows: disjointness means no object's
//     visiting order changes, so the swapped order evaluates to the exact
//     same schedule — the scalar path would compute it and revert.
#include <algorithm>

#include "batch/batch_scheduler.hpp"
#include "batch/soa_problem.hpp"

namespace dtm {

namespace {

class LocalSearchBatch final : public BatchScheduler {
 public:
  explicit LocalSearchBatch(std::int32_t max_rounds)
      : max_rounds_(max_rounds) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    const std::size_t n = p.txns.size();
    if (n == 0) return chain_evaluate(p, {});

    const bool use_soa = p.math != BatchMathMode::kScalar;
    static thread_local BatchProblemSoA soa_scratch;
    const BatchProblemSoA* soa = nullptr;
    if (use_soa) {
      soa = p.soa.get();
      if (soa == nullptr || !soa->matches(p)) {
        soa_scratch.build(p);
        soa = &soa_scratch;
      }
    }
    // One evaluation seam for the whole search: scalar or SoA.
    const auto eval = [&](const std::vector<std::size_t>& order,
                          bool validate) {
      if (!use_soa) return chain_evaluate_scalar(p, order, validate);
      BatchResult r = chain_evaluate_soa(p, *soa, order);
      if (validate) check_batch_result(p, r);
      return r;
    };

    // Seed order: the coloring schedule's execution order — already good
    // on low-diameter graphs.
    const auto seed_algo = make_coloring_batch();
    const BatchResult seed = seed_algo->schedule(p, rng);
    std::vector<Time> seed_exec;
    exec_in_problem_order(p, seed, seed_exec);
    std::vector<std::size_t> order;
    order_by_exec(p, seed_exec, order);

    BatchResult best = eval(order, /*validate=*/true);
    // First-improvement adjacent-and-random swaps. Adjacent swaps fix
    // local inversions cheaply; random swaps escape plateaus.
    // Invariant used by the prune: the current order always evaluates to
    // best.makespan (improving swaps are kept, others reverted).
    for (std::int32_t round = 0; round < max_rounds_; ++round) {
      bool improved = false;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        if (use_soa && !soa->conflicts(order[i], order[i + 1])) {
          // Object-disjoint neighbors: swapping them is a no-op schedule-
          // wise, so the scalar path's evaluate-and-revert is skippable.
          continue;
        }
        std::swap(order[i], order[i + 1]);
        // Inner-loop evaluations skip validation; the winning order is
        // checked once below.
        const BatchResult cand = eval(order, /*validate=*/false);
        if (cand.makespan < best.makespan) {
          best = cand;
          improved = true;
        } else {
          std::swap(order[i], order[i + 1]);  // revert
        }
      }
      for (std::size_t s = 0; s < n; ++s) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (i == j) continue;
        std::swap(order[i], order[j]);
        const BatchResult cand = eval(order, /*validate=*/false);
        if (cand.makespan < best.makespan) {
          best = cand;
          improved = true;
        } else {
          std::swap(order[i], order[j]);
        }
      }
      if (!improved) break;
    }
    check_batch_result(p, best);
    return best;
  }

  [[nodiscard]] std::string name() const override { return "local-search"; }
  [[nodiscard]] bool randomized() const override { return true; }

 private:
  std::int32_t max_rounds_;
};

}  // namespace

std::unique_ptr<BatchScheduler> make_local_search_batch(
    std::int32_t max_rounds) {
  DTM_REQUIRE(max_rounds >= 1, "max_rounds=" << max_rounds);
  return std::make_unique<LocalSearchBatch>(max_rounds);
}

}  // namespace dtm
