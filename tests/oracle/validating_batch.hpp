// Validating decorator over a batch algorithm: every schedule() result is
// checked against the map-based reference validator, and every makespan()
// answer against a validated schedule() run from a copy of the Rng — same
// makespan, same draws. It never declares suffix_tight(), so a
// SuffixWrapper around it runs the suffix pass as an oracle: for a
// suffix-tight inner the pass must adopt nothing, which the unchanged
// commit hash of a pinned run shows.
#pragma once

#include <memory>
#include <string>

#include "batch/batch_scheduler.hpp"
#include "oracle/map_kernels.hpp"

namespace dtm::oracle {

class ValidatingBatch final : public BatchScheduler {
 public:
  explicit ValidatingBatch(std::shared_ptr<const BatchScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    BatchResult r = inner_->schedule(p, rng);
    oracle::check_batch_result(p, r);
    return r;
  }

  [[nodiscard]] Time makespan(const BatchProblem& p,
                              Rng& rng) const override {
    Rng replay = rng;
    const Time m = inner_->makespan(p, rng);
    const Time built = schedule(p, replay).makespan;
    DTM_CHECK(m == built, "makespan() of " << inner_->name() << " is " << m
                                          << ", schedule() says " << built);
    DTM_CHECK(replay == rng, "makespan() and schedule() of "
                                 << inner_->name()
                                 << " drew different streams");
    return m;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }
  [[nodiscard]] bool suffix_tight() const override { return false; }

 private:
  std::shared_ptr<const BatchScheduler> inner_;
};

}  // namespace dtm::oracle
