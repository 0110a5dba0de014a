// The paper's second "basic modification" of a batch algorithm A (§IV-A):
// enforce the *suffix property* — every suffix of the produced schedule
// (with object positions inherited from the prefix) executes within F_A of
// that suffix's own batch problem.
//
// As in the paper, the property is established by repeatedly re-running A on
// violating suffixes, longest first, until no suffix violates it. The
// wrapper preserves feasibility at every step (suffix re-schedules are
// computed against availability induced by the prefix). A candidate is
// adopted only when it is strictly shorter than the current makespan, so
// each one costs only what that question needs, with every draw of A
// taken as a full re-run would take it:
//   - the last transaction z in execution order ends every suffix. When
//     z's earliest arrival from the prefix's availability (the chain
//     walk's rule; by the triangle inequality no schedule does better)
//     already reaches the makespan, the candidate cannot win and A is
//     asked for its draws alone (makespan() with cutoff 0);
//   - when some object of z has a chain bound (object_chain_bound of the
//     whole problem) that reaches the makespan, the pass is moot: every
//     suffix keeps z, so that object's chain cannot finish sooner, and
//     every candidate of the pass takes the draws-only path too. The
//     bound is asked for at the pass's first candidate that survives z's
//     arrival test, and at most once per pass;
//   - every other candidate is scored by makespan() with the current
//     makespan as cutoff, and only an adopted one is built.
// For a suffix_tight() A (key-ordered chain algorithms) every re-run
// reproduces its suffix exactly, so the pass is skipped.
#pragma once

#include <memory>

#include "batch/batch_scheduler.hpp"

namespace dtm {

struct SuffixWrapperOptions {
    /// Bound on inner re-schedules per call; the fixpoint is usually
    /// reached far earlier, this guards adversarial instances.
    std::int32_t max_inner_calls = 0;  ///< 0 => 4 * |txns| + 8
  };

class SuffixWrapper final : public BatchScheduler {
 public:
  using Options = SuffixWrapperOptions;

  explicit SuffixWrapper(std::shared_ptr<const BatchScheduler> inner,
                         Options opts = {})
      : inner_(std::move(inner)), opts_(opts) {
    DTM_REQUIRE(inner_ != nullptr, "SuffixWrapper needs an inner scheduler");
  }

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override;
  [[nodiscard]] std::string name() const override {
    return inner_->name() + "+suffix";
  }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }

  /// Availability each object would have after the `prefix` transactions of
  /// `r` (ordered by execution time) have run. Exposed for tests.
  [[nodiscard]] static std::vector<BatchObject> availability_after_prefix(
      const BatchProblem& p, const BatchResult& r, std::size_t prefix_len);

 private:
  std::shared_ptr<const BatchScheduler> inner_;
  Options opts_;
};

}  // namespace dtm
