#include "drivers.hpp"

#include <algorithm>
#include <ctime>
#include <memory>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "serve/server.hpp"
#include "sim/runner.hpp"
#include "stream/stream_runner.hpp"
#include "trace.hpp"
#include "util/alloc.hpp"

namespace e2e {

namespace {

using dtm::CheckError;
using dtm::FaultPlan;
using dtm::Network;
using dtm::Registry;
using dtm::RunSpec;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
}

void hash_commit(std::uint64_t& h, dtm::TxnId id, dtm::NodeId node, Time gen,
                 Time exec) {
  fnv(h, static_cast<std::uint64_t>(id));
  fnv(h, static_cast<std::uint64_t>(node));
  fnv(h, static_cast<std::uint64_t>(gen));
  fnv(h, static_cast<std::uint64_t>(exec));
}

/// Named correctness check: a failure says which one.
void require(bool ok, const std::string& check, const std::string& detail) {
  if (!ok) throw CheckError("check '" + check + "' failed: " + detail);
}

/// Engine options as make_server / make_stream_runner derive them
/// (dist-bucket needs half-speed objects, latency factor >= 2).
dtm::EngineOptions engine_options(const RunSpec& spec, const FaultPlan& fault) {
  dtm::EngineOptions e;
  e.mode = spec.engine_mode();
  e.latency_factor = spec.latency_factor;
  if (spec.scheduler.kind == "dist-bucket")
    e.latency_factor = std::max<std::int64_t>(e.latency_factor, 2);
  e.fault = fault;
  e.threads = spec.threads;
  return e;
}

/// Builds `Setup` kSetupSamples times and keeps the last; setup_s is the
/// median build time. The samples smooth out allocator and cache noise in
/// set-up times that are often well under a millisecond.
constexpr int kSetupSamples = 5;

template <typename Setup>
std::unique_ptr<Setup> timed_setup(RepResult& out, const RunSpec& spec) {
  std::vector<double> samples;
  std::unique_ptr<Setup> setup;
  for (int i = 0; i < kSetupSamples; ++i) {
    setup.reset();
    const std::int64_t t0 = now_ns();
    setup = std::make_unique<Setup>(spec);
    samples.push_back(seconds(now_ns() - t0));
  }
  std::sort(samples.begin(), samples.end());
  out.setup_s = samples[samples.size() / 2];
  return setup;
}

/// Measures process CPU time, heap allocations and wall time across `fn`.
template <typename Fn>
void timed_run(RepResult& out, Fn&& fn) {
  const std::int64_t allocs0 = dtm::global_alloc_counters().allocs;
  const double cpu0 = cpu_now_s();
  const std::int64_t t0 = now_ns();
  fn();
  out.run_s = seconds(now_ns() - t0);
  out.cpu_s = cpu_now_s() - cpu0;
  out.allocs = dtm::global_alloc_counters().allocs - allocs0;
}

// ---------------------------------------------------------------------------
// Traced construction

/// Network whose oracle counts dist() calls. Schedulers keep references into
/// the network, so it must outlive them.
Network counting_network(const Network& net, Tracer& tracer) {
  Network out = net;
  out.oracle = std::make_shared<CountingOracle>(net.oracle, tracer);
  return out;
}

/// The scheduler the registry would build, with its offline algorithm
/// behind TracedBatch. Bucket schedulers are built by hand to reach the
/// algorithm, so they accept only the algo= knob; the hash comparison with
/// the untraced rep proves the construction is the same.
std::unique_ptr<TracedScheduler> traced_scheduler(const RunSpec& spec,
                                                  const Network& net,
                                                  const FaultPlan& fault,
                                                  Tracer& tracer) {
  std::unique_ptr<dtm::OnlineScheduler> inner;
  const std::string& kind = spec.scheduler.kind;
  if (kind == "bucket" || kind == "dist-bucket") {
    dtm::SpecArgs a(spec.scheduler);
    auto algo = std::make_shared<TracedBatch>(
        Registry::make_batch_algo(a.str("algo", "auto"), net), tracer);
    a.finish();
    if (kind == "bucket") {
      dtm::BucketOptions o;
      o.threads = spec.threads;
      inner = std::make_unique<dtm::BucketScheduler>(std::move(algo), o);
    } else {
      dtm::DistBucketOptions o;
      o.threads = spec.threads;
      o.fault = fault;
      inner = std::make_unique<dtm::DistributedBucketScheduler>(
          net, std::move(algo), o);
    }
  } else {
    inner = Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);
  }
  return std::make_unique<TracedScheduler>(std::move(inner), tracer);
}

/// What every traced rep builds first. Schedulers keep references into
/// `net`, so this is built in place and outlives them.
struct TracedParts {
  TracedParts(const RunSpec& spec, Tracer& tracer)
      : net(counting_network(timed_network(spec, build_s), tracer)),
        fault(Registry::make_fault_plan(spec.fault, spec.seed)),
        sched(traced_scheduler(spec, net, fault, tracer)) {}

  static Network timed_network(const RunSpec& spec, double& build_s) {
    const std::int64_t t0 = now_ns();
    Network net = Registry::make_network(spec.topology);
    build_s = seconds(now_ns() - t0);
    return net;
  }

  double build_s = 0.0;  ///< make_network alone (net.build_s)
  const Network net;
  const FaultPlan fault;
  std::unique_ptr<TracedScheduler> sched;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced rep

using Layers = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Layer counters the schedulers expose through their public accessors.
void scheduler_layers(const dtm::OnlineScheduler& s, std::int64_t commits,
                      Layers& m) {
  const dtm::FastPathStats* fp = nullptr;
  if (const auto* b = dynamic_cast<const dtm::BucketScheduler*>(&s))
    fp = &b->fastpath_stats();
  const auto* db = dynamic_cast<const dtm::DistributedBucketScheduler*>(&s);
  if (db != nullptr) fp = &db->fastpath_stats();
  if (fp != nullptr) {
    m["batch.inserts"] = static_cast<double>(fp->inserts);
    m["batch.probes"] = static_cast<double>(fp->probes);
    m["batch.estimates"] = static_cast<double>(fp->estimates);
    m["batch.memo_hit_rate"] = ratio(static_cast<double>(fp->memo_hits),
                                     static_cast<double>(fp->probes));
    m["batch.levels_skipped"] = static_cast<double>(fp->levels_skipped);
    m["batch.rebuilds"] = static_cast<double>(fp->rebuilds);
    m["batch.activations"] = static_cast<double>(fp->activations);
  }
  if (db == nullptr) return;
  const dtm::DistStats& d = db->stats();
  m["dist.probes"] = static_cast<double>(d.probes);
  m["dist.probe_hops"] = static_cast<double>(d.probe_hops);
  m["dist.reports"] = static_cast<double>(d.reports);
  m["dist.notifications"] = static_cast<double>(d.notifications);
  m["dist.probe_timeouts"] = static_cast<double>(d.probe_timeouts);
  m["dist.reprobes"] = static_cast<double>(d.reprobes);
  m["dist.report_retries"] = static_cast<double>(d.report_retries);
  m["dist.useful_probe_frac"] =
      ratio(static_cast<double>(d.probes),
            static_cast<double>(d.probes + d.reprobes));
  m["dist.max_discovery_delay_steps"] =
      static_cast<double>(d.max_discovery_delay);
  for (const dtm::EventSource* src : db->event_sources())
    if (const auto* bus = dynamic_cast<const dtm::MessageBus*>(src))
      m["dist.msgs_per_commit"] =
          ratio(static_cast<double>(bus->messages_sent()),
                static_cast<double>(commits));
  if (const dtm::FaultBusStats* f = db->fault_bus_stats()) {
    m["fault.offered"] = static_cast<double>(f->offered);
    m["fault.dropped"] = static_cast<double>(f->dropped);
    m["fault.duplicated"] = static_cast<double>(f->duplicated);
    m["fault.jitter_total"] = static_cast<double>(f->jitter_total);
  }
}

/// Metrics every driver shares: the tracer's spans and counters. A span
/// the driver never opened is left out (run.py reports the layer idle).
/// `step_wall_ns` is the host time the step loop took; `in_spans_ns` the
/// part of it inside a named span.
void tracer_layers(const Tracer& t, const TracedScheduler& sched,
                   std::int64_t step_wall_ns, std::int64_t in_spans_ns,
                   std::int64_t active_steps, std::int64_t commits,
                   double build_s, Layers& m) {
  const auto put_span = [&](const char* name, Span s) {
    if (t.span(s).count > 0) m[name] = seconds(t.span(s).total_ns);
  };
  const auto us_quantile = [](const dtm::LatencyRecorder& h, double q) {
    return static_cast<double>(h.quantile(q)) * 1e-3;
  };
  const double steps =
      static_cast<double>(std::max<std::int64_t>(active_steps, 1));
  m["sim.step_us_p50"] = us_quantile(t.step_interval(), 0.50);
  m["sim.step_us_p99"] = us_quantile(t.step_interval(), 0.99);
  put_span("sim.arrivals_s", Span::kArrivals);
  put_span("sim.begin_step_s", Span::kBeginStep);
  put_span("sim.apply_s", Span::kApply);
  put_span("sim.finish_step_s", Span::kFinishStep);
  put_span("sim.on_commit_s", Span::kOnCommit);
  put_span("sim.next_event_s", Span::kNextEvent);
  put_span("sim.validate_s", Span::kValidate);
  m["sim.driver_other_s"] = seconds(step_wall_ns - in_spans_ns);
  m["sim.accounted_frac"] = ratio(static_cast<double>(in_spans_ns),
                                  static_cast<double>(step_wall_ns));
  m["sim.active_steps"] = static_cast<double>(active_steps);
  if (const std::int64_t views = t.total(Count::kViewCalls); views > 0)
    m["sim.view_calls_per_step"] = static_cast<double>(views) / steps;
  put_span("core.on_step_s", Span::kOnStep);
  m["core.on_step_self_s"] = seconds(t.on_step_self_ns());
  m["core.on_step_us_p99"] = us_quantile(t.span(Span::kOnStep).hist, 0.99);
  m["core.assignments"] = static_cast<double>(t.assignments());
  put_span("core.lower_bound_s", Span::kLowerBound);
  if (const SpanStats& b = t.span(Span::kBatchSchedule); b.count > 0) {
    m["batch.schedule_calls"] = static_cast<double>(b.count);
    m["batch.schedule_s"] = seconds(b.total_ns);
    m["batch.schedule_us_p99"] = us_quantile(b.hist, 0.99);
    m["batch.txns_per_call"] = static_cast<double>(t.batch_txns()) /
                               static_cast<double>(b.count);
  }
  put_span("serve.source_s", Span::kSource);
  m["net.build_s"] = build_s;
  m["net.dist_calls_per_step"] =
      static_cast<double>(t.total(Count::kOracleDist)) / steps;
  scheduler_layers(sched.inner(), commits, m);
}

// ---------------------------------------------------------------------------
// Batch: run_experiment

dtm::RunOptions batch_options(const RunSpec& spec, const FaultPlan& fault) {
  require(spec.validate, "validate", "batch reps always validate the schedule");
  require(spec.ratio_window == 0, "spec", "ratio_window is not measured");
  dtm::RunOptions o;
  o.engine = engine_options(spec, fault);
  o.validate = true;
  return o;
}

void check_batch(const RepResult& r, std::int64_t generated) {
  require(r.commits == generated, "batch num_txns == generated",
          std::to_string(r.commits) + " != " + std::to_string(generated));
}

/// What run_spec builds before it calls run_experiment.
struct BatchSetup {
  explicit BatchSetup(const RunSpec& spec)
      : net(Registry::make_network(spec.topology)),
        wl(Registry::make_workload(spec.workload, net, spec.seed)),
        fault(Registry::make_fault_plan(spec.fault, spec.seed)),
        sched(Registry::make_scheduler(spec.scheduler, net, &fault,
                                       spec.threads)),
        opts(batch_options(spec, fault)) {}

  const Network net;
  const std::unique_ptr<dtm::Workload> wl;
  const FaultPlan fault;
  const std::unique_ptr<dtm::OnlineScheduler> sched;
  const dtm::RunOptions opts;
};

RepResult batch_untraced(const RunSpec& spec) {
  RepResult out;
  const auto setup = timed_setup<BatchSetup>(out, spec);
  dtm::RunResult r;
  timed_run(out, [&] {
    r = dtm::run_experiment(setup->net, *setup->wl, *setup->sched,
                            setup->opts);
  });
  out.commits = r.num_txns;
  out.offered = static_cast<std::int64_t>(setup->wl->generated().size());
  out.active_steps = r.active_steps;
  for (const auto& c : r.committed) {
    hash_commit(out.hash, c.txn.id, c.txn.node, c.txn.gen_time, c.exec);
    out.latency.record(c.exec - c.txn.gen_time);
  }
  check_batch(out, out.offered);
  return out;
}

/// run_experiment's loop (sim/runner.cpp) with a span around each call into
/// a layer. Windowed ratios and drain_every are off in every workload, so
/// their branches are left out; the commit hash proves the copy equivalent.
RepResult batch_traced(const RunSpec& spec, std::ostream* spans) {
  RepResult out;
  Tracer tr;
  TracedParts p(spec, tr);
  const Network& net = p.net;
  TracedScheduler& sched = *p.sched;
  auto wl = Registry::make_workload(spec.workload, net, spec.seed);
  const dtm::RunOptions opts = batch_options(spec, p.fault);

  std::int64_t loop_ns = 0;
  std::int64_t peak_live = 0;
  Time end_time = 0;
  timed_run(out, [&] {
    dtm::SyncEngine engine(net.oracle, wl->objects(), opts.engine);
    const CountingView view(engine, tr);
    const std::int64_t loop0 = now_ns();
    std::int64_t iterations = 0;
    while (true) {
      tr.set_loop_step(engine.now());
      std::vector<dtm::Transaction> arrivals;
      {
        const Tracer::Scope s(tr, Span::kArrivals);
        arrivals = wl->arrivals_at(engine.now());
      }
      {
        const Tracer::Scope s(tr, Span::kBeginStep);
        engine.begin_step(arrivals);
      }
      peak_live = std::max(peak_live, engine.num_live());
      const auto assignments = sched.on_step(view, arrivals);
      {
        const Tracer::Scope s(tr, Span::kApply);
        engine.apply(assignments);
      }
      std::vector<dtm::SyncEngine::Commit> commits;
      {
        const Tracer::Scope s(tr, Span::kFinishStep);
        commits = engine.finish_step();
      }
      {
        const Tracer::Scope s(tr, Span::kOnCommit);
        for (const auto& c : commits) {
          wl->on_commit(c.txn, c.exec);
          hash_commit(out.hash, c.txn, c.node, c.gen, c.exec);
          out.latency.record(c.exec - c.gen);
        }
      }
      if (wl->finished() && engine.all_done()) break;
      DTM_CHECK(++iterations < opts.max_steps,
                "run exceeded " << opts.max_steps << " active steps");
      const Tracer::Scope s(tr, Span::kNextEvent);
      const Time now = engine.now();
      const Time next = engine.clock().next_event(
          {wl->next_arrival_time(), engine.next_exec_due(),
           sched.next_event_hint(now)},
          sched.event_sources());
      DTM_CHECK(next != dtm::kNoTime && next >= now,
                "no valid next event (now=" << now << ")");
      if (next > now) engine.advance_to(next);
    }
    loop_ns = now_ns() - loop0;
    end_time = engine.now();
    out.active_steps = iterations + 1;
    out.commits = static_cast<std::int64_t>(engine.committed().size());
    {
      const Tracer::Scope s(tr, Span::kValidate);
      const auto err = dtm::validate_schedule(
          engine.committed(), engine.origins(), *net.oracle,
          opts.engine.latency_factor);
      require(!err.has_value(), "validate_schedule", err.value_or(""));
    }
    const Tracer::Scope s(tr, Span::kLowerBound);
    (void)dtm::makespan_lower_bound(wl->generated(), engine.origins(),
                                    *net.oracle, opts.engine.latency_factor);
  });
  out.offered = static_cast<std::int64_t>(wl->generated().size());
  check_batch(out, out.offered);

  std::int64_t in_spans = 0;
  for (const Span s : {Span::kArrivals, Span::kBeginStep, Span::kOnStep,
                       Span::kApply, Span::kFinishStep, Span::kOnCommit,
                       Span::kNextEvent})
    in_spans += tr.span(s).total_ns;
  Layers& m = out.layers;
  tracer_layers(tr, sched, loop_ns, in_spans, out.active_steps, out.commits,
                p.build_s, m);
  m["sim.skipped_steps"] = static_cast<double>(end_time - out.active_steps);
  m["sim.peak_live"] = static_cast<double>(peak_live);
  if (spans != nullptr) tr.write_jsonl(*spans);
  return out;
}

// ---------------------------------------------------------------------------
// Serve: DtmServer::run

void fill_serve(RepResult& out, const dtm::ServeReport& r) {
  require(r.admitted == r.commits, "serve admitted == commits",
          std::to_string(r.admitted) + " != " + std::to_string(r.commits));
  require(r.offered == r.admitted + r.shed, "serve offered == admitted + shed",
          std::to_string(r.offered) + " != " + std::to_string(r.admitted) +
              " + " + std::to_string(r.shed));
  out.offered = r.offered;
  out.shed = r.shed;
  out.commits = r.commits;
  out.active_steps = r.active_steps;
  out.hash = r.commit_hash;
  out.latency = r.latency;
}

struct ServeSetup {
  explicit ServeSetup(const RunSpec& spec)
      : net(Registry::make_network(spec.topology)),
        server(dtm::make_server(net, spec)) {}

  const Network net;
  const std::unique_ptr<dtm::DtmServer> server;
};

RepResult serve_untraced(const RunSpec& spec) {
  RepResult out;
  const auto setup = timed_setup<ServeSetup>(out, spec);
  dtm::ServeReport r;
  timed_run(out, [&] { r = setup->server->run(); });
  fill_serve(out, r);
  return out;
}

/// make_server's synthetic-source branch, with the source and scheduler
/// behind decorators.
RepResult serve_traced(const RunSpec& spec, std::ostream* spans) {
  RepResult out;
  Tracer tr;
  TracedParts p(spec, tr);
  const TracedScheduler& sched = *p.sched;
  dtm::ServeConfig cfg = Registry::make_serve_config(spec.serve, spec.seed);
  require(cfg.source == "synthetic", "spec",
          "traced serve reps support the synthetic source only");
  dtm::SyntheticSourceOptions so;
  so.rate = cfg.rate;
  so.num_objects = cfg.objects;
  so.k = cfg.k;
  so.zipf_s = cfg.zipf;
  so.write_fraction = cfg.write_frac;
  so.burst_every = cfg.burst_every;
  so.burst_len = cfg.burst_len;
  so.burst_mult = cfg.burst_mult;
  so.seed = cfg.seed;
  auto source = std::make_unique<TracedSource>(
      std::make_unique<dtm::SyntheticSource>(p.net, so), tr);
  dtm::DtmServer server(p.net, std::move(source), std::move(p.sched),
                        std::move(cfg), engine_options(spec, p.fault));

  dtm::ServeReport r;
  timed_run(out, [&] { r = server.run(); });
  fill_serve(out, r);

  const std::int64_t wall = static_cast<std::int64_t>(out.run_s * 1e9);
  const std::int64_t in_spans =
      tr.span(Span::kOnStep).total_ns + tr.span(Span::kSource).total_ns;
  Layers& m = out.layers;
  tracer_layers(tr, sched, wall, in_spans, r.active_steps, r.commits,
                p.build_s, m);
  m["sim.skipped_steps"] = static_cast<double>(r.end_time - r.active_steps);
  m["sim.peak_live"] = static_cast<double>(r.admission.max_inflight_seen);
  m["serve.offered"] = static_cast<double>(r.offered);
  m["serve.admitted"] = static_cast<double>(r.admitted);
  m["serve.max_inflight_seen"] =
      static_cast<double>(r.admission.max_inflight_seen);
  m["serve.peak_committed_log"] = static_cast<double>(r.peak_committed_log);
  if (spans != nullptr) tr.write_jsonl(*spans);
  return out;
}

// ---------------------------------------------------------------------------
// Stream: StreamRunner::run

void fill_stream(RepResult& out, const dtm::StreamReport& r) {
  require(r.drained + r.residual == r.commits,
          "stream drained + residual == commits",
          std::to_string(r.drained) + " + " + std::to_string(r.residual) +
              " != " + std::to_string(r.commits));
  require(r.accepted == r.commits, "stream accepted == commits",
          std::to_string(r.accepted) + " != " + std::to_string(r.commits));
  out.offered = r.offered;
  out.shed = r.shed;
  out.commits = r.commits;
  out.active_steps = r.active_steps;
  out.hash = r.commit_hash;
  out.latency = r.latency;
}

struct StreamSetup {
  explicit StreamSetup(const RunSpec& spec)
      : net(Registry::make_network(spec.topology)),
        runner(dtm::make_stream_runner(net, spec)) {}

  const Network net;
  const std::unique_ptr<dtm::StreamRunner> runner;
};

RepResult stream_untraced(const RunSpec& spec) {
  RepResult out;
  const auto setup = timed_setup<StreamSetup>(out, spec);
  dtm::StreamReport r;
  timed_run(out, [&] { r = setup->runner->run(); });
  fill_stream(out, r);
  return out;
}

/// make_stream_runner with the scheduler behind its decorator. The stream
/// source is a final class the runner takes by type, so its time stays in
/// sim.driver_other_s.
RepResult stream_traced(const RunSpec& spec, std::ostream* spans) {
  RepResult out;
  Tracer tr;
  TracedParts p(spec, tr);
  const TracedScheduler& sched = *p.sched;
  dtm::StreamConfig cfg = Registry::make_stream_config(spec.stream, spec.seed);
  auto source = dtm::make_stream_source(p.net, cfg);
  dtm::StreamRunner runner(p.net, std::move(source), std::move(p.sched),
                           std::move(cfg), engine_options(spec, p.fault));

  dtm::StreamReport r;
  timed_run(out, [&] { r = runner.run(); });
  fill_stream(out, r);

  const std::int64_t wall = static_cast<std::int64_t>(out.run_s * 1e9);
  Layers& m = out.layers;
  tracer_layers(tr, sched, wall, tr.span(Span::kOnStep).total_ns,
                r.active_steps, r.commits, p.build_s, m);
  m["sim.skipped_steps"] = static_cast<double>(r.end_time - r.active_steps);
  m["sim.peak_live"] = static_cast<double>(r.peak_live);
  m["stream.peak_committed_log"] = static_cast<double>(r.peak_committed_log);
  m["stream.peak_calendar"] = static_cast<double>(r.peak_calendar);
  m["stream.peak_live"] = static_cast<double>(r.peak_live);
  m["stream.peak_open_windows"] = static_cast<double>(r.peak_open_windows);
  if (spans != nullptr) tr.write_jsonl(*spans);
  return out;
}

}  // namespace

Driver parse_driver(const std::string& name) {
  if (name == "batch") return Driver::kBatch;
  if (name == "serve") return Driver::kServe;
  if (name == "stream") return Driver::kStream;
  throw CheckError("unknown driver '" + name + "' (batch | serve | stream)");
}

RepResult run_rep(Driver driver, const RunSpec& spec, bool traced,
                  std::ostream* spans) {
  switch (driver) {
    case Driver::kBatch:
      return traced ? batch_traced(spec, spans) : batch_untraced(spec);
    case Driver::kServe:
      return traced ? serve_traced(spec, spans) : serve_untraced(spec);
    case Driver::kStream:
      return traced ? stream_traced(spec, spans) : stream_untraced(spec);
  }
  throw CheckError("unreachable driver");
}

}  // namespace e2e
