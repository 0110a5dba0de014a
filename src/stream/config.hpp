// StreamConfig — the "stream:" spec kind's typed form (streaming subsystem;
// docs/ARCHITECTURE.md §10).
//
// Constructed via Registry::make_stream_config (hard errors on unknown
// knobs), which stream/config.cpp defines, like ServeConfig's factory, so
// sim/ includes nothing from stream/.
//
// A stream run differs from a serve run in what it measures: no admission
// control (arrivals are the experiment, shaped by `profile`), a committed-
// transaction target instead of a wall-clock duration, and windowed
// competitive-ratio accumulators in place of latency SLOs. Memory stays
// bounded by construction: committed-log draining on a cadence, windowed
// stats that are finalized and discarded as soon as their last transaction
// commits, and (via `max_live`) optional load shedding so adversarial
// profiles cannot grow the live set without bound.
#pragma once

#include <cstdint>
#include <string>

#include "core/types.hpp"

namespace dtm {

struct StreamConfig {
  /// Arrival-rate profile:
  ///   steady   — constant `rate` offers per step
  ///   diurnal  — square wave: `rate` for duty*period steps, rate*low_mult
  ///              for the rest of each period
  ///   mmpp     — Markov-modulated on/off: geometric dwells of mean
  ///              dwell_on at rate*hi_mult and dwell_off at rate*low_mult
  ///   adversary— (rho, b)-adversary per Busch et al. "Stable Scheduling
  ///              in Transactional Memory": token budget grows by rho =
  ///              `rate` per step and is released only in bursts of at
  ///              least `burst` — the extremal schedule for any window
  ///              bound rho*T + b
  std::string profile = "steady";
  double rate = 4.0;  ///< mean offers per step (rho for the adversary)

  // -- transaction shape (SyntheticSource-compatible knobs) --
  std::int32_t objects = 0;  ///< 0 => one object per node
  std::int32_t k = 2;        ///< objects requested per transaction
  double zipf = 0.9;         ///< 0 = uniform object popularity
  double write_frac = 1.0;
  /// Rotate the Zipf hotspot by a deterministic stride every this many
  /// steps (0 = static hotspot) — moving-hotspot workloads that defeat
  /// placement that never revisits decisions.
  Time rotate_every = 0;

  // -- profile shape --
  Time period = 2048;      ///< diurnal period in steps
  double duty = 0.5;       ///< diurnal high-phase fraction of the period
  double low_mult = 0.25;  ///< off-phase rate multiplier (diurnal, mmpp)
  Time dwell_on = 256;     ///< mmpp mean on-phase dwell (steps)
  Time dwell_off = 768;    ///< mmpp mean off-phase dwell (steps)
  double hi_mult = 4.0;    ///< mmpp on-phase rate multiplier
  double burst = 64.0;     ///< adversary burst threshold b (released txns)

  // -- run extent --
  /// Stop offering once this many transactions have been accepted (they
  /// all commit before the run ends). 0 = no target (duration governs).
  std::int64_t target = 100000;
  /// Stop offering at this step regardless of target. 0 = no time limit.
  Time duration = 0;

  // -- bounded-memory machinery --
  Time window = 1024;      ///< ratio/stat window length in steps
  Time drain_every = 256;  ///< committed-log drain cadence; 0 = every
                           ///< window; negative disables (tests only)
  /// Shed arrivals while the live set is at least this large (0 = never
  /// shed). The streaming analogue of admission control: keeps adversarial
  /// profiles from growing live-set memory without bound.
  std::int64_t max_live = 0;
  /// Track every ratio_every-th window in the windowed competitive-ratio
  /// accumulator (1 = all windows). Tracking a window retains its arrivals
  /// until they commit; sampling keeps that transient bounded at high
  /// rates.
  std::int64_t ratio_every = 1;

  std::uint64_t seed = 42;

  void validate() const;
};

}  // namespace dtm
