// ServeConfig — the "serve:" spec kind's typed form (serve layer;
// docs/ARCHITECTURE.md §7).
//
// Constructed via Registry::make_serve_config, which hard-errors on unknown
// knobs like every other spec. The registry only declares that factory;
// serve/server.cpp defines it, so sim/ includes nothing from serve/.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"
#include "serve/admission.hpp"

namespace dtm {

struct ServeConfig {
  /// Mean offered transactions per step (synthetic source).
  double rate = 4.0;
  /// Admission horizon in simulated steps: offers stop at `duration`, then
  /// the service drains to quiescence. 0 = run until externally drained
  /// (dtm_serve's signal/socket drain, or DtmServer::request_drain).
  Time duration = 2048;
  /// Metrics/latency window length in steps.
  Time window = 256;
  /// Committed-log drain cadence in steps; 0 = every window. The drained
  /// log is counted and discarded, which is what keeps RSS bounded on
  /// unbounded runs. Negative disables draining (tests only).
  Time drain_every = 0;

  AdmissionOptions admission;

  /// Source kind: "synthetic" | "trace".
  std::string source = "synthetic";
  std::string trace_file;  ///< dtm-instance v1 path (trace source)
  Time trace_loop = 0;     ///< trace loop period; 0 = play once

  // -- synthetic source shape --
  std::int32_t objects = 0;  ///< 0 => one per node
  std::int32_t k = 2;
  double zipf = 0.0;
  double write_frac = 1.0;
  Time burst_every = 0;
  Time burst_len = 0;
  double burst_mult = 1.0;

  /// Per-window p99 latency SLO in steps; windows whose p99 exceeds it are
  /// counted as violations. 0 disables SLO accounting.
  std::int64_t slo_p99 = 0;

  std::uint64_t seed = 42;

  void validate() const;
};

}  // namespace dtm
