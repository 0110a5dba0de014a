// One repetition of a workload through a public driver: run_experiment
// (batch), DtmServer::run (serve) or StreamRunner::run (stream). An
// untraced rep goes through the registry factories exactly as the tools
// do; a traced rep builds the same objects behind the trace.hpp decorators
// (and, for batch, steps a bench-side copy of the runner loop) and must
// reproduce the untraced commit hash.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "serve/latency.hpp"
#include "sim/registry.hpp"

namespace e2e {

enum class Driver { kBatch, kServe, kStream };

[[nodiscard]] Driver parse_driver(const std::string& name);

/// FNV-1a offset basis shared with the serve and stream commit hashes.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

struct RepResult {
  /// Untraced reps: RunSpec -> ready driver (network, source, scheduler),
  /// the median of several builds.
  double setup_s = 0.0;
  double run_s = 0.0;    ///< host wall time of the run call
  double cpu_s = 0.0;    ///< process CPU time (all threads) during the run call
  std::int64_t offered = 0;  ///< transactions generated / offered
  std::int64_t shed = 0;     ///< refused: serve admission, stream max-live
  std::int64_t commits = 0;
  std::int64_t active_steps = 0;
  std::int64_t allocs = 0;   ///< heap allocations in the run (alloc builds)
  /// FNV-1a over every commit's (id, node, gen or offer step, exec).
  std::uint64_t hash = kFnvOffset;
  dtm::LatencyRecorder latency;  ///< per-commit simulated latency, steps
  /// Traced reps only: per-layer metric name -> value.
  std::map<std::string, double> layers;
};

/// Runs one repetition. Every correctness check (schedule validation, no
/// transaction lost) throws dtm::CheckError naming the check. With
/// `traced`, raw spans go to `spans` when it is non-null.
[[nodiscard]] RepResult run_rep(Driver driver, const dtm::RunSpec& spec,
                                bool traced, std::ostream* spans);

}  // namespace e2e
