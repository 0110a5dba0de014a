// The batch-math path selector: the scalar kernels vs the
// structure-of-arrays kernel layer (batch/soa_problem.*).
//
// Lives in util/ (not batch/) because both the batch layer (BatchProblem,
// chain evaluation, coloring) and the core analysis layer (DependencyGraph)
// take the knob, and neither should pull the other's headers for an enum.
//
// The mode rides on BatchProblem itself rather than on each consumer:
// problems flow through shared code (suffix wrapper, activation retries,
// F_A probes) that must keep one consistent path end to end, and stamping
// the problem once is how the bucket schedulers guarantee that. kSoA must
// reproduce the scalar path's output byte-identically — golden pins hold
// in both modes, and soa_test compares the two answers call for call —
// which is what makes the SoA layer (and a future CUDA backend behind the
// same seam) a drop-in.
#pragma once

#include <string>

#include "util/check.hpp"

namespace dtm {

enum class BatchMathMode {
  kScalar,  ///< pointer-chasing kernels (the default)
  kSoA,     ///< flat CSR + bitset conflict rows + popcount kernels
};

/// Registry knob (`batch_math=scalar|soa`); hard error on anything else.
[[nodiscard]] inline BatchMathMode parse_batch_math(const std::string& v) {
  if (v == "scalar") return BatchMathMode::kScalar;
  if (v == "soa") return BatchMathMode::kSoA;
  throw CheckError("spec: batch_math must be scalar|soa, got '" + v + "'");
}

[[nodiscard]] inline const char* to_string(BatchMathMode m) {
  return m == BatchMathMode::kSoA ? "soa" : "scalar";
}

}  // namespace dtm
