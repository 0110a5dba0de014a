// Validating decorator over a batch algorithm: every schedule() result is
// checked against the map-based reference validator, and every makespan()
// answer against a validated schedule() run from a copy of the Rng under
// the cutoff contract — the same makespan below the cutoff, both at or
// above it otherwise, and the same draws either way (cutoff 0, the
// draws-only call, included). It never declares suffix_tight(), so a
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

  [[nodiscard]] Time makespan(const BatchProblem& p, Rng& rng,
                              Time cutoff) const override {
    Rng replay = rng;
    const Time m = inner_->makespan(p, rng, cutoff);
    const Time built = schedule(p, replay).makespan;
    if (built < cutoff)
      DTM_CHECK(m == built, "makespan() of " << inner_->name() << " is " << m
                                            << ", schedule() says " << built
                                            << " (cutoff " << cutoff << ")");
    else
      DTM_CHECK(m >= cutoff, "makespan() of "
                                 << inner_->name() << " is " << m
                                 << " below cutoff " << cutoff
                                 << ", schedule() says " << built);
    DTM_CHECK(replay == rng, "makespan() and schedule() of "
                                 << inner_->name()
                                 << " drew different streams (cutoff "
                                 << cutoff << ")");
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
