#include "serve/server.hpp"

#include <algorithm>
#include <utility>

#include "core/bucket_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "net/routing.hpp"
#include "sim/io.hpp"
#include "util/alloc.hpp"
#include "util/check.hpp"

namespace dtm {

namespace {

/// Windows retained for inspection on unbounded runs; older ones are
/// dropped (totals keep counting — ServeReport::windows is exact).
constexpr std::size_t kMaxRetainedWindows = 65536;

Json fastpath_json(const FastPathStats& s) {
  return Json::Object{
      {"inserts", s.inserts}, {"probes", s.probes}, {"memo_hits", s.memo_hits},
      {"estimates", s.estimates}, {"levels_skipped", s.levels_skipped},
      {"rebuilds", s.rebuilds}, {"refreshes", s.refreshes},
      {"appends", s.appends}, {"activations", s.activations}};
}

Json dist_json(const DistStats& s) {
  return Json::Object{
      {"probes", s.probes}, {"probe_hops", s.probe_hops},
      {"reports", s.reports}, {"notifications", s.notifications},
      {"message_distance", s.message_distance},
      {"max_discovery_delay", s.max_discovery_delay},
      {"probe_timeouts", s.probe_timeouts}, {"reprobes", s.reprobes},
      {"report_retries", s.report_retries}, {"dup_replies", s.dup_replies},
      {"dup_reports", s.dup_reports}};
}

Json fault_bus_json(const FaultBusStats* s) {
  if (s == nullptr) return Json::Object{{"armed", false}};
  return Json::Object{
      {"armed", true}, {"offered", s->offered}, {"dropped", s->dropped},
      {"duplicated", s->duplicated}, {"degraded", s->degraded},
      {"jitter_total", s->jitter_total}, {"pause_deferred", s->pause_deferred},
      {"bytes_duplicated", s->bytes_duplicated}};
}

}  // namespace

void ServeConfig::validate() const {
  DTM_REQUIRE(source == "synthetic" || source == "trace",
              "serve source '" << source << "' (synthetic | trace)");
  DTM_REQUIRE(rate > 0.0, "serve rate " << rate);
  DTM_REQUIRE(duration >= 0, "serve duration " << duration);
  DTM_REQUIRE(window >= 1, "serve window " << window);
  if (source == "trace")
    DTM_REQUIRE(!trace_file.empty(), "trace source needs trace=PATH");
  DTM_REQUIRE(trace_loop >= 0, "serve trace_loop " << trace_loop);
  DTM_REQUIRE(k >= 1, "serve k=" << k);
  DTM_REQUIRE(zipf >= 0.0, "serve zipf " << zipf);
  DTM_REQUIRE(write_frac >= 0.0 && write_frac <= 1.0,
              "serve write_frac " << write_frac);
  DTM_REQUIRE(burst_every >= 0 && burst_len >= 0 && burst_mult > 0.0,
              "serve burst knobs");
  DTM_REQUIRE(slo_p99 >= 0, "serve slo_p99 " << slo_p99);
  admission.validate();
}

ServeConfig Registry::make_serve_config(const Spec& spec,
                                        std::uint64_t default_seed) {
  SpecArgs a(spec);
  DTM_REQUIRE(a.kind() == "serve",
              "unknown serve config '" << a.kind()
                                       << "' (serve:knob=value,...)");
  ServeConfig c;
  c.rate = a.real("rate", c.rate);
  c.duration = a.integer("duration", c.duration);
  c.window = a.integer("window", c.window);
  c.drain_every = a.integer("drain-every", c.drain_every);
  c.admission.rate = a.real("admit-rate", c.admission.rate);
  c.admission.burst = a.real("burst", c.admission.burst);
  c.admission.max_inflight =
      a.integer("max-inflight", c.admission.max_inflight);
  const std::string policy = a.str("policy", "shed");
  if (policy == "shed") {
    c.admission.policy = AdmissionOptions::Policy::kShed;
  } else if (policy == "queue") {
    c.admission.policy = AdmissionOptions::Policy::kQueue;
  } else {
    throw CheckError("serve: unknown policy '" + policy +
                     "' (shed | queue)");
  }
  c.admission.queue_cap = a.integer("queue-cap", c.admission.queue_cap);
  c.source = a.str("source", c.source);
  c.trace_file = a.str("trace", c.trace_file);
  c.trace_loop = a.integer("trace-loop", c.trace_loop);
  c.objects = static_cast<std::int32_t>(a.integer("objects", c.objects));
  c.k = static_cast<std::int32_t>(a.integer("k", c.k));
  c.zipf = a.real("zipf", c.zipf);
  c.write_frac = a.real("write-frac", c.write_frac);
  c.burst_every = a.integer("burst-every", c.burst_every);
  c.burst_len = a.integer("burst-len", c.burst_len);
  c.burst_mult = a.real("burst-mult", c.burst_mult);
  c.slo_p99 = a.integer("slo-p99", c.slo_p99);
  c.seed = static_cast<std::uint64_t>(
      a.integer("seed", static_cast<std::int64_t>(default_seed)));
  a.finish();
  c.validate();
  return c;
}

Json ServeWindow::to_json() const {
  return Json::Object{
      {"start", start}, {"end", end}, {"offered", offered},
      {"admitted", admitted}, {"shed", shed}, {"commits", commits},
      {"p50", p50}, {"p95", p95}, {"p99", p99}, {"p999", p999}, {"max", max},
      {"shed_rate", shed_rate}, {"throughput", throughput},
      {"slo_violated", slo_violated}};
}

Json ServeReport::to_json() const {
  return Json::Object{
      {"end_time", end_time}, {"active_steps", active_steps},
      {"offered", offered}, {"admitted", admitted}, {"shed", shed},
      {"commits", commits}, {"drained", drained},
      {"peak_committed_log", peak_committed_log}, {"windows", windows},
      {"slo_violations", slo_violations}, {"fault_toggles", fault_toggles},
      {"commit_hash", std::to_string(commit_hash)},
      {"latency", latency.to_json()}, {"admission", admission.to_json()}};
}

DtmServer::DtmServer(const Network& net, std::unique_ptr<TxnSource> source,
                     std::unique_ptr<OnlineScheduler> scheduler,
                     ServeConfig cfg, EngineOptions engine_opts, Hooks hooks)
    : net_(net),
      cfg_(std::move(cfg)),
      hooks_(std::move(hooks)),
      source_(std::move(source)),
      scheduler_(std::move(scheduler)),
      admission_(cfg_.admission),
      window_end_(cfg_.window) {
  cfg_.validate();
  DTM_REQUIRE(source_ != nullptr, "serve: null source");
  DTM_REQUIRE(scheduler_ != nullptr, "serve: null scheduler");
  DriverOptions d;
  d.drain_every = DriverOptions::window_cadence(cfg_.drain_every, cfg_.window);
  driver_.emplace(net_.oracle, source_->objects(), engine_opts, *scheduler_,
                  static_cast<ArrivalSource&>(*this), d);
  register_metrics();
}

void DtmServer::register_metrics() {
  metrics_.add("server", [this] {
    const RunTotals& t = driver_->totals();
    return Json::Object{
        {"now", now()}, {"admitting", admitting_},
        {"finished", driver_->done()}, {"scheduler", scheduler_->name()},
        {"source", source_->name()}, {"inflight", inflight()},
        {"queue_depth", admission_.queue_depth()},
        {"active_steps", t.active_steps}, {"commits", t.commits},
        {"drained", t.drained}, {"peak_committed_log", t.peak_committed_log},
        {"windows", windows_closed_}, {"slo_violations", slo_violations_},
        {"fault_toggles", fault_toggles_}};
  });
  metrics_.add("admission", [this] { return admission_.stats().to_json(); });
  metrics_.add("latency", [this] {
    return Json::Object{
        {"total", driver_->totals().latency.to_json()},
        {"window", window_latency_.to_json()}};
  });
  metrics_.add("engine", [this] {
    const SyncEngine& e = driver_->engine();
    return Json::Object{
        {"live", e.num_live()},
        {"committed_log", static_cast<std::int64_t>(e.committed().size())}};
  });
  // Heap-allocation counters (process-wide). All zeros unless the build
  // was configured with -DDTM_ALLOC_TRACK=ON — "tracking" says which.
  metrics_.add("alloc", [] {
    const AllocCounters g = global_alloc_counters();
    return Json::Object{
        {"tracking", alloc_tracking_enabled()}, {"allocs", g.allocs},
        {"frees", g.frees}, {"bytes", g.bytes}};
  });
  // Routing: exact oracles have no live counters; landmark oracles expose
  // the cluster-query mix and the intra-cluster cache's hit rate — so
  // `stats` on `dtm_sim serve`'s socket shows what the hierarchical
  // routing layer is actually doing under load.
  if (const auto* lm =
          dynamic_cast<const LandmarkOracle*>(net_.oracle.get())) {
    metrics_.add("routing", [lm] {
      const LandmarkRouter& r = lm->router();
      const LandmarkRouter::Stats qs = r.stats();
      const RoutingTable::CacheStats cs = r.intra_cache_stats();
      const std::int64_t lookups = cs.hits + cs.misses;
      const double hit_rate = lookups > 0 ? static_cast<double>(cs.hits) /
                                                static_cast<double>(lookups)
                                          : 0.0;
      return Json::Object{
          {"mode", "landmark"},
          {"landmarks", static_cast<std::int64_t>(r.num_landmarks())},
          {"radius", r.radius()}, {"diameter_bound", r.diameter_bound()},
          {"intra_queries", qs.intra_queries},
          {"inter_queries", qs.inter_queries}, {"cache_hits", cs.hits},
          {"cache_misses", cs.misses}, {"cache_evictions", cs.evictions},
          {"cache_hit_rate", hit_rate},
          {"memory_bytes", static_cast<std::int64_t>(r.memory_bytes())}};
    });
  } else {
    metrics_.add("routing", [] { return Json::Object{{"mode", "exact"}}; });
  }
  if (const auto* db =
          dynamic_cast<const DistributedBucketScheduler*>(scheduler_.get())) {
    metrics_.add("dist", [db] { return dist_json(db->stats()); });
    metrics_.add("fault_bus",
                 [db] { return fault_bus_json(db->fault_bus_stats()); });
    metrics_.add("fastpath",
                 [db] { return fastpath_json(db->fastpath_stats()); });
  } else if (const auto* b =
                 dynamic_cast<const BucketScheduler*>(scheduler_.get())) {
    metrics_.add("fastpath",
                 [b] { return fastpath_json(b->fastpath_stats()); });
  }
}

Transaction DtmServer::admit_stamp(const Transaction& t, Time offered,
                                   Time now) {
  Transaction s = t;
  s.id = next_engine_id_++;
  s.gen_time = now;  // the engine requires arrivals stamped with `now`
  offered_time_.emplace(s.id, offered);
  return s;
}

void DtmServer::close_windows_through(Time now) {
  while (now >= window_end_) {
    emit_window(window_end_ - cfg_.window, window_end_);
    window_end_ += cfg_.window;
  }
}

void DtmServer::emit_window(Time start, Time end) {
  const AdmissionStats& as = admission_.stats();
  ServeWindow w;
  w.start = start;
  w.end = end;
  w.offered = as.offered - last_offered_;
  w.admitted = as.admitted - last_admitted_;
  w.shed = as.shed - last_shed_;
  w.commits = commits() - last_commits_;
  w.p50 = window_latency_.quantile(0.50);
  w.p95 = window_latency_.quantile(0.95);
  w.p99 = window_latency_.quantile(0.99);
  w.p999 = window_latency_.quantile(0.999);
  w.max = window_latency_.max();
  if (w.offered > 0)
    w.shed_rate = static_cast<double>(w.shed) / static_cast<double>(w.offered);
  if (end > start)
    w.throughput =
        static_cast<double>(w.commits) / static_cast<double>(end - start);
  if (cfg_.slo_p99 > 0 && w.commits > 0 && w.p99 > cfg_.slo_p99) {
    w.slo_violated = true;
    ++slo_violations_;
  }
  last_offered_ = as.offered;
  last_admitted_ = as.admitted;
  last_shed_ = as.shed;
  last_commits_ = commits();
  window_latency_.reset();
  ++windows_closed_;
  windows_.push_back(w);
  if (windows_.size() > kMaxRetainedWindows) windows_.pop_front();
  if (hooks_.on_window) hooks_.on_window(windows_.back());
}

void DtmServer::arrivals(const SyncEngine& /*engine*/, Time now,
                         std::vector<Transaction>& out) {
  // Close windows first: this step's commits (exec == now) belong to the
  // window containing `now`, which is still open after this call.
  close_windows_through(now);
  if (admitting_ && cfg_.duration > 0 && now >= cfg_.duration)
    admitting_ = false;

  admission_.refill(now);
  std::vector<AdmissionController::Release> released;
  admission_.release(now, inflight(), released);
  for (const auto& r : released)
    out.push_back(admit_stamp(r.txn, r.offered, now));
  if (admitting_) {
    for (const auto& t : source_->offers_at(now)) {
      if (admission_.offer(t, now, inflight()) ==
          AdmissionController::Outcome::kAdmit)
        out.push_back(admit_stamp(t, now, now));
      // kQueued / kShed: the controller did the bookkeeping.
    }
    // A finite source (trace without loop) running dry is a natural drain.
    if (source_->next_offer_time() == kNoTime && admission_.queue_empty())
      admitting_ = false;
  }
}

Time DtmServer::on_commit(const SyncEngine::Commit& c) {
  const auto it = offered_time_.find(c.txn);
  DTM_CHECK(it != offered_time_.end(),
            "serve: commit for unknown transaction " << c.txn);
  const Time offered = it->second;
  offered_time_.erase(it);
  window_latency_.record(c.exec - offered);
  return offered;
}

Time DtmServer::next_arrival(Time now) const {
  Time next = kNoTime;
  if (admitting_) {
    next = source_->next_offer_time();
    if (cfg_.duration > 0) next = EventClock::merge(next, cfg_.duration);
  }
  if (!admission_.queue_empty())
    next = EventClock::merge(next, admission_.next_token_time(now));
  return next;
}

void DtmServer::finish() {
  // Trailing partial window, then the zero-loss invariant: everything
  // admitted must have committed by quiescence.
  const AdmissionStats& as = admission_.stats();
  if (as.offered != last_offered_ || commits() != last_commits_)
    emit_window(window_end_ - cfg_.window, now());
  DTM_CHECK(offered_time_.empty(),
            "serve drain lost " << offered_time_.size()
                                << " admitted transactions");
  DTM_CHECK(as.admitted == commits(),
            "serve drain: admitted " << as.admitted << " != commits "
                                     << commits());
  if (cfg_.drain_every >= 0) driver_->drain_log();
}

bool DtmServer::pump(Time until) {
  if (driver_->done()) return false;
  if (driver_->run_until(until))
    finish();
  else
    close_windows_through(now());
  return !driver_->done();
}

ServeReport DtmServer::run() {
  (void)pump(kNoTime);
  return report();
}

ServeReport DtmServer::report() const {
  DTM_REQUIRE(driver_->done(),
              "serve report requested before the service drained");
  const AdmissionStats& as = admission_.stats();
  const RunTotals& t = driver_->totals();
  ServeReport r;
  r.end_time = now();
  r.active_steps = t.active_steps;
  r.offered = as.offered;
  r.admitted = as.admitted;
  r.shed = as.shed;
  r.commits = t.commits;
  r.drained = t.drained;
  r.peak_committed_log = t.peak_committed_log;
  r.windows = windows_closed_;
  r.slo_violations = slo_violations_;
  r.fault_toggles = fault_toggles_;
  r.commit_hash = t.commit_hash;
  r.latency = t.latency;
  r.admission = as;
  return r;
}

void DtmServer::set_fault(const FaultPlan& plan) {
  plan.validate();
  driver_->engine().set_fault(plan);
  if (auto* db = dynamic_cast<DistributedBucketScheduler*>(scheduler_.get())) {
    if (db->resilient())
      db->set_fault(plan);
    else
      DTM_REQUIRE(!plan.message_faults(),
                  "live bus faults require a service started with chaos "
                  "armed (a non-null fault plan with message faults)");
  }
  ++fault_toggles_;
}

std::unique_ptr<DtmServer> make_server(const Network& net, const RunSpec& spec,
                                       DtmServer::Hooks hooks) {
  ServeConfig cfg = Registry::make_serve_config(spec.serve, spec.seed);
  const FaultPlan fault = Registry::make_fault_plan(spec.fault, spec.seed);
  auto scheduler =
      Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);

  std::unique_ptr<TxnSource> source;
  if (cfg.source == "trace") {
    Instance inst = load_instance_file(cfg.trace_file);
    source = std::make_unique<TraceSource>(std::move(inst.origins),
                                           std::move(inst.txns),
                                           cfg.trace_loop);
  } else {
    SyntheticSourceOptions so;
    so.rate = cfg.rate;
    so.num_objects = cfg.objects;
    so.k = cfg.k;
    so.zipf_s = cfg.zipf;
    so.write_fraction = cfg.write_frac;
    so.burst_every = cfg.burst_every;
    so.burst_len = cfg.burst_len;
    so.burst_mult = cfg.burst_mult;
    so.seed = cfg.seed;
    source = std::make_unique<SyntheticSource>(net, so);
  }

  return std::make_unique<DtmServer>(net, std::move(source),
                                     std::move(scheduler), std::move(cfg),
                                     spec.engine_options(fault),
                                     std::move(hooks));
}

}  // namespace dtm
