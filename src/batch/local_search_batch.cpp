// Local-search batch scheduler: starts from the generic coloring schedule's
// execution order and improves it with first-improvement pairwise swaps on
// the chain order. Topology-agnostic; slower but tighter than the
// per-topology heuristics on small batch problems, and a calibration point
// for how loose the certified lower bounds are (see bench_baselines).
//
// Candidate orders are scored by the makespan-only chain walk; only the
// final order is built and validated.
#include <algorithm>

#include "batch/batch_scheduler.hpp"

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

    // Seed order: the coloring schedule's execution order — already good
    // on low-diameter graphs.
    const auto seed_algo = make_coloring_batch();
    const BatchResult seed = seed_algo->schedule(p, rng);
    std::vector<Time> seed_exec;
    exec_in_problem_order(p, seed, seed_exec);
    std::vector<std::size_t> order;
    order_by_exec(p, seed_exec, order);

    Time best = chain_makespan(p, order);
    // First-improvement adjacent-and-random swaps. Adjacent swaps fix
    // local inversions cheaply; random swaps escape plateaus.
    // Invariant used by the final build: the current order always scores
    // best (improving swaps are kept, others reverted).
    for (std::int32_t round = 0; round < max_rounds_; ++round) {
      bool improved = false;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        std::swap(order[i], order[i + 1]);
        const Time cand = chain_makespan(p, order);
        if (cand < best) {
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
        const Time cand = chain_makespan(p, order);
        if (cand < best) {
          best = cand;
          improved = true;
        } else {
          std::swap(order[i], order[j]);
        }
      }
      if (!improved) break;
    }
    return chain_evaluate(p, order);
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
