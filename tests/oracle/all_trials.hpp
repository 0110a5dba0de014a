// Reference activation: every trial of BucketInsertionCore::run_activation
// run to the end, kept as the test oracle for the core's serial scan, which
// stops at the chain bound, and for its fanned-out merge.
#pragma once

#include <algorithm>
#include <cstdint>

#include "batch/bucket_insertion.hpp"

namespace dtm::oracle {

/// The best of `retries` trials of `runner` on `p` under scheduler seed
/// `seed`: trial r draws from Rng(trial_seed(seed, fingerprint, r)), every
/// trial runs, and the least (makespan, trial index) wins. A deterministic
/// runner runs one trial.
inline BatchResult all_trials_activation(const BatchProblem& p,
                                         const BatchScheduler& runner,
                                         std::uint64_t seed,
                                         std::int32_t retries) {
  const std::uint64_t fp = problem_fingerprint(p);
  const std::int32_t trials =
      runner.randomized() ? std::max(retries, 1) : 1;
  BatchResult best;
  for (std::int32_t r = 0; r < trials; ++r) {
    Rng rng(trial_seed(seed, fp, r));
    BatchResult alt = runner.schedule(p, rng);
    if (r == 0 || alt.makespan < best.makespan) best = std::move(alt);
  }
  return best;
}

}  // namespace dtm::oracle
