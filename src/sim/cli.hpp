// Uniform command-line handling for every bench and example binary.
//
// Every binary accepts the same four core flags —
//   --help            usage, including any binary-specific flags
//   --list            registry enumeration (topologies, schedulers,
//                     workloads, batch algorithms)
//   --seed N          base RNG seed override
//   --trials N        trial-count override for averaged benches
//   --threads N       worker threads (0 = all hardware threads)
//   --warmup N        steps excluded from steady-state measurements
// — plus whatever flags the binary registers. Unknown flags and numbers
// with trailing junk are hard errors: a typo aborts instead of silently
// running defaults. The spec-driven tool's modes (dtm_sim run, serve and
// stream) build their RunSpec through one helper, resolve_spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace dtm {

struct RunSpec;

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Boolean flag (`--name` sets *target = true).
  void add_flag(const std::string& name, const std::string& help,
                bool* target);
  /// Value flag (`--name VALUE` stores the raw string).
  void add_value(const std::string& name, const std::string& help,
                 std::string* target);

  /// Handles --help / --list (prints and returns false: the caller should
  /// exit 0), --seed, --trials, and the registered flags. Throws CheckError
  /// on unknown flags or missing values.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] bool seed_set() const { return seed_.has_value(); }
  [[nodiscard]] std::uint64_t seed(std::uint64_t def) const {
    return seed_.value_or(def);
  }
  [[nodiscard]] bool trials_set() const { return trials_.has_value(); }
  [[nodiscard]] std::int32_t trials(std::int32_t def) const {
    return trials_.value_or(def);
  }
  [[nodiscard]] bool threads_set() const { return threads_.has_value(); }
  /// Worker-thread count: 0 = all hardware threads, N = exactly N. The
  /// default stays serial; results are byte-identical at every value.
  [[nodiscard]] std::int32_t threads(std::int32_t def) const {
    return threads_.value_or(def);
  }
  [[nodiscard]] bool warmup_set() const { return warmup_.has_value(); }
  /// Warmup steps excluded from steady-state measurements (allocs/step,
  /// steps/sec): caches, pools, and scratch capacities fill during warmup.
  /// Each bench keeps its own default, so 0-warmup behavior is unchanged
  /// unless the flag is passed.
  [[nodiscard]] std::int64_t warmup(std::int64_t def) const {
    return warmup_.value_or(def);
  }

  void print_usage() const;
  /// The shared --list output: every registered component, one per line.
  static void print_registry();

  /// The whole of `value` as a T; otherwise (trailing junk, out of range)
  /// a CheckError naming `flag`.
  template <typename T>
  [[nodiscard]] T number(const std::string& flag,
                         const std::string& value) const {
    return parse_number<T>(value, program_ + ": " + flag + " needs a number");
  }

 private:
  struct Flag {
    std::string name;
    std::string help;
    bool* flag = nullptr;         ///< boolean flags
    std::string* value = nullptr; ///< value flags
  };

  std::string program_;
  std::string description_;
  std::vector<Flag> flags_;
  std::optional<std::uint64_t> seed_;
  std::optional<std::int32_t> trials_;
  std::optional<std::int32_t> threads_;
  std::optional<std::int64_t> warmup_;
};

/// The RunSpec flags of dtm_sim's modes, as raw text; empty = not given.
/// Each mode registers the ones it takes.
struct SpecFlags {
  std::string spec;  ///< --spec: a JSON RunSpec file the others override
  std::string topology, scheduler, workload, fault, serve, stream;
  std::string lf;      ///< --lf: latency factor
  std::string window;  ///< --window: Definition-1 ratio window
};

/// The RunSpec a mode runs: the --spec file, then every given flag, then
/// --seed, --trials and --threads. The latency factor is raised to
/// RunSpec::run_latency_factor(), so --dump-spec prints what runs.
[[nodiscard]] RunSpec resolve_spec(const SpecFlags& flags, const Cli& cli);

}  // namespace dtm
