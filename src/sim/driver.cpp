#include "sim/driver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace dtm {

namespace {

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
}

}  // namespace

Driver::Driver(std::shared_ptr<const DistanceOracle> oracle,
               std::vector<ObjectOrigin> origins, const EngineOptions& engine,
               OnlineScheduler& scheduler, ArrivalSource& source,
               const DriverOptions& opts)
    : engine_(std::move(oracle), std::move(origins), engine),
      scheduler_(scheduler),
      source_(source),
      sources_(scheduler.event_sources()),
      opts_(opts),
      ratio_(engine_.oracle(), engine.latency_factor, opts.ratio_window,
             opts.ratio_every) {}

void Driver::step() {
  const Time now = engine_.now();
  // Windows open before arrivals: this step's arrivals belong to the
  // window containing `now`, which needs its start-of-window snapshot.
  ratio_.maybe_open(engine_, now);
  arrivals_.clear();
  source_.arrivals(engine_, now, arrivals_);
  for (const auto& t : arrivals_) ratio_.on_arrival(t, now);

  engine_.begin_step(arrivals_);
  const auto assignments = scheduler_.on_step(engine_, arrivals_);
  engine_.apply(assignments);
  const auto commits = engine_.finish_step();
  ++totals_.active_steps;

  for (const auto& c : commits) {
    const Time origin = source_.on_commit(c);
    ++totals_.commits;
    totals_.makespan = std::max(totals_.makespan, c.exec);
    totals_.latency.record(c.exec - origin);
    fnv(totals_.commit_hash, static_cast<std::uint64_t>(c.txn));
    fnv(totals_.commit_hash, static_cast<std::uint64_t>(c.node));
    fnv(totals_.commit_hash, static_cast<std::uint64_t>(origin));
    fnv(totals_.commit_hash, static_cast<std::uint64_t>(c.exec));
    ratio_.on_commit(c.gen, c.exec);
  }

  totals_.peak_live = std::max(totals_.peak_live, engine_.num_live());
  totals_.peak_committed_log =
      std::max(totals_.peak_committed_log,
               static_cast<std::int64_t>(engine_.committed().size()));
  if (opts_.drain_every > 0 &&
      engine_.now() - last_drain_ >= opts_.drain_every) {
    drain_log();
    last_drain_ = engine_.now();
  }
}

bool Driver::run_until(Time horizon) {
  while (!done_ && (horizon == kNoTime || engine_.now() <= horizon)) {
    step();
    if (source_.exhausted() && engine_.all_done()) {
      done_ = true;
      ratio_.finish();
      break;
    }
    DTM_CHECK(totals_.active_steps < opts_.max_steps,
              "run exceeded " << opts_.max_steps << " active steps");

    const Time now = engine_.now();
    const Time next = engine_.clock().next_event(
        {source_.next_arrival(now), engine_.next_exec_due(),
         scheduler_.next_event_hint(now)},
        sources_);
    DTM_CHECK(next != kNoTime,
              "deadlock: live transactions but no future event (now="
                  << now << ", live=" << engine_.num_live() << ")");
    if (horizon != kNoTime && next > horizon) {
      // Nothing happens in (now, horizon]: park the clock there so callers
      // pacing by simulated time observe progress.
      if (horizon > now) engine_.advance_to(horizon);
      break;
    }
    if (next > now) engine_.advance_to(next);
  }
  return done_;
}

void Driver::drain_log() {
  totals_.drained += static_cast<std::int64_t>(take_log().size());
}

std::vector<ScheduledTxn> Driver::take_log() {
  return engine_.take_committed();
}

}  // namespace dtm
