#include "oracle/lockstep.hpp"

#include <algorithm>

namespace dtm::oracle {

LockstepEngine::LockstepEngine(std::shared_ptr<const DistanceOracle> oracle,
                               std::vector<ObjectOrigin> origins,
                               EngineOptions opts)
    : primary_(oracle, origins, opts),
      scan_(std::move(oracle), std::move(origins), opts) {}

void LockstepEngine::begin_step(std::span<const Transaction> arrivals) {
  primary_.begin_step(arrivals);
  scan_.begin_step(arrivals);
}

void LockstepEngine::apply(std::span<const Assignment> assignments) {
  primary_.apply(assignments);
  scan_.apply(assignments);
}

std::vector<SyncEngine::Commit> LockstepEngine::finish_step() {
  const Time step = now();
  std::vector<SyncEngine::Commit> commits = primary_.finish_step();
  const std::vector<SyncEngine::Commit> ref = scan_.finish_step();
  DTM_CHECK(commits.size() == ref.size(),
            "lockstep: engine committed " << commits.size()
                                          << " txns at step " << step
                                          << ", reference " << ref.size());
  for (std::size_t i = 0; i < commits.size(); ++i) {
    const SyncEngine::Commit& a = commits[i];
    const SyncEngine::Commit& b = ref[i];
    DTM_CHECK(a.txn == b.txn && a.node == b.node && a.gen == b.gen &&
                  a.exec == b.exec,
              "lockstep: commit " << i << " at step " << step << " is txn "
                                  << a.txn << "@" << a.exec
                                  << " vs reference " << b.txn << "@"
                                  << b.exec);
  }
  check_objects(step);
  (void)next_exec_due();
  ++steps_checked_;
  return commits;
}

void LockstepEngine::check_objects(Time step) const {
  for (const ObjectOrigin& o : primary_.origins()) {
    const ObjectState& a = primary_.object(o.id);
    const ObjectState& b = scan_.object(o.id);
    DTM_CHECK(a == b, "lockstep: object " << o.id << " diverges after step "
                                          << step);
  }
}

void LockstepEngine::advance_to(Time t) {
  primary_.advance_to(t);
  scan_.advance_to(t);
}

Time LockstepEngine::next_exec_due() const {
  const Time due = primary_.next_exec_due();
  const Time ref = scan_.next_exec_due();
  DTM_CHECK(due == ref, "lockstep: next_exec_due " << due << " vs reference "
                                                   << ref << " (now " << now()
                                                   << ")");
  return due;
}

RunResult run_lockstep(const Network& net, Workload& workload,
                       OnlineScheduler& scheduler, const RunOptions& opts) {
  DTM_REQUIRE(opts.ratio_window == 0,
              "lockstep runs skip windowed ratios");
  LockstepEngine engine(net.oracle, workload.objects(), opts.engine);
  std::int64_t iterations = 0;
  while (true) {
    const auto arrivals = workload.arrivals_at(engine.now());
    engine.begin_step(arrivals);
    const auto assignments = scheduler.on_step(engine, arrivals);
    engine.apply(assignments);
    for (const auto& c : engine.finish_step())
      workload.on_commit(c.txn, c.exec);
    if (workload.finished() && engine.all_done()) break;
    DTM_CHECK(++iterations < opts.max_steps,
              "run exceeded " << opts.max_steps << " active steps");
    const Time now = engine.now();
    const std::vector<const EventSource*> sources = scheduler.event_sources();
    const Time next = engine.clock().next_event(
        {workload.next_arrival_time(), engine.next_exec_due(),
         scheduler.next_event_hint(now)},
        sources);
    DTM_CHECK(next != kNoTime,
              "deadlock: live transactions but no future event (now=" << now
                                                                      << ")");
    if (next > now) engine.advance_to(next);
  }

  RunResult r;
  r.scheduler = scheduler.name();
  r.network = net.name;
  r.active_steps = iterations + 1;
  r.num_txns = static_cast<std::int64_t>(engine.committed().size());
  for (const auto& s : engine.committed()) {
    r.makespan = std::max(r.makespan, s.exec);
    r.latency.record(s.exec - s.txn.gen_time);
  }
  if (opts.validate) {
    const auto err =
        validate_schedule(engine.committed(), engine.origins(), *net.oracle,
                          opts.engine.latency_factor);
    DTM_CHECK(!err.has_value(), "invalid schedule: " << *err);
  }
  r.lb = makespan_lower_bound(workload.generated(), engine.origins(),
                              *net.oracle, opts.engine.latency_factor);
  r.ratio = static_cast<double>(r.makespan) /
            static_cast<double>(std::max<Time>(r.lb.best(), 1));
  if (opts.collect_schedule) {
    r.origins = engine.origins();
    r.committed = engine.committed();
  }
  return r;
}

}  // namespace dtm::oracle
