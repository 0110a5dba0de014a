// Registry + RunSpec: declarative, by-name construction of every component
// an experiment needs.
//
// A RunSpec names a topology, a workload, and a scheduler — each a Spec of
// `kind` plus string parameters — and the run-level knobs (latency factor,
// seed, trials, threads). Every binary (benches, examples, tests)
// goes through the same three factories, so a new scheduler or topology
// registered here is immediately reachable from every CLI and from JSON
// spec files, with one shared `--list` enumeration.
//
// Specs have two interchangeable surfaces:
//   compact strings   "cluster:alpha=3,beta=4,gamma=8"   (CLI flags)
//   JSON objects      {"kind": "cluster", "alpha": 3, ...} (spec files)
// Unknown parameter names are hard errors (SpecArgs tracks consumption), so
// a typo'd knob fails loudly instead of silently running defaults.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "core/scheduler.hpp"
#include "fault/plan.hpp"
#include "net/topology.hpp"
#include "sim/runner.hpp"
#include "sim/trials.hpp"
#include "sim/workload.hpp"
#include "util/json.hpp"

namespace dtm {

struct ServeConfig;   // serve/config.hpp
struct StreamConfig;  // stream/config.hpp

/// A named component: registry kind plus string-valued parameters.
struct Spec {
  std::string kind;
  std::map<std::string, std::string> params;

  friend bool operator==(const Spec&, const Spec&) = default;
};

/// Parses the compact form "kind" or "kind:key=value,key=value".
[[nodiscard]] Spec parse_spec(const std::string& text);

/// Inverse of parse_spec (params in map order).
[[nodiscard]] std::string to_string(const Spec& spec);

/// Typed parameter access with consumption tracking: factories pull the
/// keys they understand, then call finish(), which hard-errors on anything
/// left over.
class SpecArgs {
 public:
  explicit SpecArgs(const Spec& spec);

  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] bool has(const std::string& key) const {
    return remaining_.count(key) > 0;
  }
  [[nodiscard]] std::string str(const std::string& key, std::string def);
  [[nodiscard]] std::int64_t integer(const std::string& key,
                                     std::int64_t def);
  [[nodiscard]] double real(const std::string& key, double def);
  [[nodiscard]] bool boolean(const std::string& key, bool def);

  /// Throws CheckError listing any parameter no factory consumed.
  void finish() const;

 private:
  std::string kind_;
  std::map<std::string, std::string> remaining_;
};

/// The run-level configuration: what to build and how to drive it.
struct RunSpec {
  Spec topology{"clique", {{"n", "8"}}};
  Spec workload{"synthetic", {}};
  Spec scheduler{"greedy", {}};
  /// Fault-injection plan: "none" (default) or
  /// "fault:drop=...,dup=...,jitter=...,...". Absent from old JSON spec
  /// files, which therefore keep meaning "no faults".
  Spec fault{"none", {}};
  /// Service-mode shape: "serve:rate=...,duration=...,admit-rate=...,...".
  /// Only dtm_serve / make_server consume it; batch binaries carry the
  /// defaults along untouched. Absent from old JSON spec files.
  Spec serve{"serve", {}};
  /// Streaming-run shape: "stream:profile=...,rate=...,target=...,...".
  /// Only dtm_stream / make_stream_runner consume it; everything else
  /// carries the defaults along untouched. Absent from old JSON spec files.
  Spec stream{"stream", {}};
  std::int64_t latency_factor = 1;
  std::uint64_t seed = 42;
  std::int32_t trials = 1;
  /// Worker threads for the simulation kernel (engine reroute sharding,
  /// bucket wave probing, activation retries, trial fan-out). 1 = serial,
  /// 0 = all hardware threads. Results are byte-identical at every value
  /// (ARCHITECTURE.md §8).
  std::int32_t threads = 1;
  Time ratio_window = 0;
  bool validate = true;

  /// Always EngineOptions::Mode::kCalendar, the engine's only path; kept
  /// for callers written against the old multi-mode engine.
  [[nodiscard]] EngineOptions::Mode engine_mode() const {
    return EngineOptions::Mode::kCalendar;
  }
  /// The latency factor the spec runs at: dist-bucket's probe-catching
  /// argument needs half-speed objects (§V), so at least 2 for it.
  [[nodiscard]] std::int64_t run_latency_factor() const;
  /// Engine options every entry point runs the spec under:
  /// run_latency_factor(), `plan` (built from `fault`), and threads.
  [[nodiscard]] EngineOptions engine_options(const FaultPlan& plan) const;
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static RunSpec from_json(const Json& j);

  friend bool operator==(const RunSpec&, const RunSpec&) = default;
};

/// Static enumeration + construction of registered components.
class Registry {
 public:
  struct Entry {
    std::string name;
    std::string help;  ///< parameters and defaults, one line
  };

  [[nodiscard]] static const std::vector<Entry>& topologies();
  [[nodiscard]] static const std::vector<Entry>& schedulers();
  [[nodiscard]] static const std::vector<Entry>& workloads();
  [[nodiscard]] static const std::vector<Entry>& batch_algos();
  [[nodiscard]] static const std::vector<Entry>& fault_plans();
  [[nodiscard]] static const std::vector<Entry>& serve_configs();
  [[nodiscard]] static const std::vector<Entry>& stream_configs();

  [[nodiscard]] static Network make_network(const Spec& spec);

  /// `default_seed` seeds the generator unless the spec carries its own
  /// "seed" parameter (the RunSpec / --seed flag wins by default).
  [[nodiscard]] static std::unique_ptr<Workload> make_workload(
      const Spec& spec, const Network& net, std::uint64_t default_seed);

  /// The network is consulted for topology-aware defaults: bucket's
  /// algo=auto picks the per-topology offline algorithm, and the cluster /
  /// star / grid batch algorithms read their structural parameters from
  /// net.build_params.
  /// `fault`, when non-null, is copied into schedulers that take a plan
  /// (dist-bucket arms its FaultyBus + timeout protocol from it). Bus-level
  /// faults have no effect on schedulers that exchange no messages; the
  /// transport stall knob acts through EngineOptions instead.
  /// `threads` is the default worker-thread count for schedulers with a
  /// parallel insertion core (bucket / dist-bucket); a `threads=` spec
  /// parameter overrides it per scheduler.
  [[nodiscard]] static std::unique_ptr<OnlineScheduler> make_scheduler(
      const Spec& spec, const Network& net,
      const FaultPlan* fault = nullptr, std::int32_t threads = 1);

  [[nodiscard]] static std::shared_ptr<const BatchScheduler> make_batch_algo(
      const std::string& name, const Network& net);

  /// Builds a FaultPlan from a "none" or "fault:..." spec. Unknown knobs
  /// are hard errors; knob ranges are validated. `default_seed` seeds the
  /// plan unless the spec carries its own "seed" parameter.
  [[nodiscard]] static FaultPlan make_fault_plan(
      const Spec& spec, std::uint64_t default_seed = FaultPlan{}.seed);

  /// Inverse of make_fault_plan: "none" for a null plan, otherwise a
  /// "fault" spec listing every knob that differs from the defaults.
  [[nodiscard]] static Spec fault_to_spec(const FaultPlan& plan);

  /// Builds a ServeConfig from a "serve:..." spec. Unknown knobs are hard
  /// errors; ranges are validated. `default_seed` seeds the source unless
  /// the spec carries its own "seed" parameter. Defined by the serve layer
  /// (serve/server.cpp), like make_stream_config by the stream layer
  /// (stream/config.cpp), so that sim/ depends on neither.
  [[nodiscard]] static ServeConfig make_serve_config(
      const Spec& spec, std::uint64_t default_seed = 42);

  /// Builds a StreamConfig from a "stream:..." spec. Unknown knobs are hard
  /// errors; ranges are validated. `default_seed` seeds the source unless
  /// the spec carries its own "seed" parameter.
  [[nodiscard]] static StreamConfig make_stream_config(
      const Spec& spec, std::uint64_t default_seed = 42);
};

/// Builds everything the RunSpec names and runs one experiment (the spec's
/// base seed; trials is ignored). `collect_schedule` mirrors
/// RunOptions::collect_schedule.
[[nodiscard]] RunResult run_spec(const RunSpec& spec,
                                 bool collect_schedule = true);

/// Runs spec.trials independent seeds (seed + t * 7919) through run_spec
/// and averages the headline metrics.
[[nodiscard]] TrialSummary run_spec_trials(const RunSpec& spec);

}  // namespace dtm
