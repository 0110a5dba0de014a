// Exhaustive search over chain orders — exact within the chain-schedule
// class, usable only for tiny batches (<= ~9 transactions). Calibration
// tool: every heuristic's makespan can be compared against the best
// possible visiting order, which brackets how much of the measured
// approximation gap is the heuristic's fault versus lower-bound looseness.
#include <algorithm>
#include <numeric>

#include "batch/batch_scheduler.hpp"
#include "batch/soa_problem.hpp"

namespace dtm {

namespace {

class ExhaustiveBatch final : public BatchScheduler {
 public:
  explicit ExhaustiveBatch(std::size_t limit) : limit_(limit) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    DTM_REQUIRE(p.txns.size() <= limit_,
                "exhaustive batch limited to " << limit_ << " txns, got "
                                               << p.txns.size());
    std::vector<std::size_t> order(p.txns.size());
    std::iota(order.begin(), order.end(), 0);
    if (order.empty()) return chain_evaluate(p, order);
    // One SoA build amortized over all n! evaluations; the scalar mode
    // evaluates through the scalar path.
    static thread_local BatchProblemSoA soa_scratch;
    const bool use_soa = p.math != BatchMathMode::kScalar;
    if (use_soa && (p.soa.get() == nullptr || !p.soa.get()->matches(p)))
      soa_scratch.build(p);
    const BatchProblemSoA* soa =
        !use_soa ? nullptr
                 : (p.soa.get() != nullptr && p.soa.get()->matches(p)
                        ? p.soa.get()
                        : &soa_scratch);
    const auto eval = [&](const std::vector<std::size_t>& ord) {
      if (!use_soa) return chain_evaluate_scalar(p, ord, /*validate=*/false);
      return chain_evaluate_soa(p, *soa, ord);
    };
    std::vector<std::size_t> best_order = order;
    Time best = -1;
    do {
      const BatchResult r = eval(order);
      if (best < 0 || r.makespan < best) {
        best = r.makespan;
        best_order = order;
      }
    } while (std::next_permutation(order.begin(), order.end()));
    (void)rng;
    return chain_evaluate(p, best_order);
  }

  [[nodiscard]] std::string name() const override { return "exhaustive"; }

 private:
  std::size_t limit_;
};

}  // namespace

std::unique_ptr<BatchScheduler> make_exhaustive_batch(std::size_t limit) {
  DTM_REQUIRE(limit >= 1 && limit <= 10, "exhaustive limit " << limit);
  return std::make_unique<ExhaustiveBatch>(limit);
}

}  // namespace dtm
