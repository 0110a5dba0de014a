#include "dist/dist_bucket.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace dtm {

DistributedBucketScheduler::DistributedBucketScheduler(
    const Network& net, std::shared_ptr<const BatchScheduler> algo,
    DistBucketOptions opts)
    : net_(net),
      cover_(net.graph, *net.oracle, opts.cover),
      algo_(std::move(algo)),
      opts_(opts),
      core_(algo_, opts.seed, opts.threads, opts.batch_math) {
  DTM_REQUIRE(algo_ != nullptr, "distributed bucket needs a batch algorithm");
  opts_.fault.validate();
  if (opts_.fault.message_faults()) {
    // Chaos armed: wrap the bus and switch the protocol to timeout/retry
    // mode. The plan pointer aims at opts_.fault, which lives as long as
    // the scheduler.
    DTM_REQUIRE(opts_.message_level_discovery,
                "bus-level faults require message_level_discovery (analytic "
                "mode materializes no messages to perturb)");
    auto fb = std::make_unique<FaultyBus>(*net.oracle, opts_.fault);
    faulty_ = fb.get();
    bus_ = std::move(fb);
    resilient_ = true;
  } else {
    bus_ = std::make_unique<MessageBus>(*net.oracle);
  }
  if (opts_.enforce_suffix_property)
    wrapped_ = std::make_unique<SuffixWrapper>(algo_);
}

void DistributedBucketScheduler::set_fault(const FaultPlan& plan) {
  DTM_REQUIRE(resilient_,
              "live fault toggle requires a scheduler constructed with "
              "message faults (start the service with chaos armed)");
  plan.validate();
  // The FaultyBus reads every knob through its plan pointer per send, so
  // this assignment is the whole toggle. The timeout/retry protocol stays
  // armed even when the new plan is benign — retries on a clean bus are
  // harmless (duplicates are ignored end-to-end).
  opts_.fault = plan;
}

void DistributedBucketScheduler::ensure_levels(const SystemView& view) {
  if (num_levels_ > 0) return;
  DTM_REQUIRE(view.latency_factor() >= 2,
              "Algorithm 3 requires half-speed objects (latency factor >= 2, "
              "got " << view.latency_factor() << ") so discovery probes can "
              "catch in-transit objects");
  std::int32_t levels = opts_.max_level;
  if (levels <= 0) {
    const std::int64_t horizon = static_cast<std::int64_t>(
                                     view.oracle().num_nodes()) *
                                 std::max<Weight>(view.oracle().diameter(), 1) *
                                 view.latency_factor();
    levels = ceil_log2_i64(std::max<std::int64_t>(horizon, 2)) + 6;
  }
  num_levels_ = levels + 1;
  pending_.assign(static_cast<std::size_t>(num_levels_), {});
}

DistributedBucketScheduler::TxnTrace& DistributedBucketScheduler::trace(
    TxnId txn) {
  const std::size_t* row = trace_index_.find(txn);
  DTM_REQUIRE(row != nullptr, "no trace for txn " << txn);
  return traces_[*row];
}

std::vector<Assignment> DistributedBucketScheduler::on_step(
    const SystemView& view, std::span<const Transaction> arrivals) {
  ensure_levels(view);
  const Time now = view.now();
  std::vector<Assignment> out;
  ExtraAssignments extra;

  if (opts_.message_level_discovery) trails_.observe_watched(now);

  // 1. New transactions start discovery (Algorithm 3 lines 2-6).
  for (const Transaction& t : arrivals) {
    trace_index_.insert_or_assign(t.id, traces_.size());
    traces_.push_back({t.id, now, kNoTime, {}, -1, kNoTime});
    if (opts_.message_level_discovery)
      start_probe_discovery(view, t);
    else
      start_analytic_discovery(view, t);
  }

  // 2. Protocol messages (probes chasing trails, replies, reports).
  if (opts_.message_level_discovery) pump_messages(view, extra);

  // 2b. Reports reaching their leader now (insertion into partial
  //     buckets). In message mode the bus enqueued these via ReportMsg;
  //     in analytic mode they were scheduled at arrival. A transaction is
  //     placed at most once: retransmitted / duplicated reports landing
  //     after the first are discarded here.
  while (!reports_.empty() && reports_.top().when <= now) {
    const PendingReport rep = reports_.top();
    reports_.pop();
    const TxnTrace& tr = trace(rep.txn);
    if (tr.reported != kNoTime) {
      ++stats_.dup_reports;
      continue;
    }
    stats_.max_discovery_delay =
        std::max(stats_.max_discovery_delay, rep.when - tr.arrived);
    handle_report(view, {now, rep.txn, rep.home}, extra);
  }

  // 2c. Fire due probe/report deadlines (re-probe, retransmit). After the
  //     report drain so a report processed this very step is not also
  //     retransmitted.
  if (resilient_) service_timeouts(view);

  // 3. Global activations: every partial i-bucket fires at multiples of 2^i
  //    (lowest level first, heights lexicographic within a level).
  if (now > 0) {
    for (std::int32_t i = 0; i < num_levels_; ++i) {
      if (i < 63 && (now % (Time{1} << i)) != 0) continue;
      activate(view, i, extra, out);
    }
  }
  stats_.message_distance = analytic_distance_ + bus_->total_distance();
  return out;
}

void DistributedBucketScheduler::start_analytic_discovery(
    const SystemView& view, const Transaction& t) {
  const Time now = view.now();
  Weight x = 0;        // furthest object (distance bound)
  Time probe_rtt = 0;  // chase + reply, max over objects
  SmallVector<TxnId, 16> seen;
  Weight conflict_dist = 0;
  for (const auto& acc : t.accesses) {
    // Pure-distance bound to the object's current position (factor 1).
    const Weight xd =
        view.object(acc.obj).time_to(t.node, now, view.oracle(), 1);
    x = std::max(x, xd);
    probe_rtt = std::max<Time>(probe_rtt, 4 * xd);
    ++stats_.probes;
    analytic_distance_ += 4 * xd;
    for (const TxnId uid : view.live_users_of(acc.obj)) {
      if (uid == t.id ||
          std::find(seen.begin(), seen.end(), uid) != seen.end())
        continue;
      seen.push_back(uid);
      conflict_dist = std::max(
          conflict_dist, view.oracle().dist(view.txn(uid).node, t.node));
    }
  }
  const Weight y = std::max(x, conflict_dist);
  const std::int32_t layer = cover_.lowest_layer_covering(y);
  const ClusterRef home = cover_.home_cluster(t.node, layer);
  const NodeId leader = cover_.cluster(home).leader;
  const Weight to_leader = view.oracle().dist(t.node, leader);
  const Time report_at = now + probe_rtt + to_leader;
  ++stats_.reports;
  analytic_distance_ += to_leader;
  trace(t.id).home = home;
  reports_.push({report_at, t.id, home});
}

void DistributedBucketScheduler::start_probe_discovery(
    const SystemView& view, const Transaction& t) {
  std::int32_t slot;
  if (free_discovery_slots_.empty()) {
    slot = static_cast<std::int32_t>(discovery_slots_.size());
    discovery_slots_.emplace_back();
  } else {
    slot = free_discovery_slots_.back();
    free_discovery_slots_.pop_back();
  }
  Discovery& d = discovery_slots_[static_cast<std::size_t>(slot)];
  d.node = t.node;
  d.started = view.now();
  d.awaiting.clear();
  d.y = 0;
  d.epoch.clear();
  for (const auto& acc : t.accesses) {
    // First sight of an object: its current resting place (or inbound
    // node) becomes the trail root every requester is assumed to know, and
    // the directory keeps the engine's record for the per-step mirror.
    (void)trails_.track(view.object(acc.obj));
    if (d.awaits(acc.obj)) continue;
    d.awaiting.push_back(acc.obj);
    ++stats_.probes;
    d.epoch.emplace_back(acc.obj, 0);
    send_probe(view, t.id, t.node, acc.obj, 0);
  }
  discovering_.insert_or_assign(t.id, slot);
}

DistributedBucketScheduler::Discovery*
DistributedBucketScheduler::discovery(TxnId txn) {
  const std::int32_t* slot = discovering_.find(txn);
  return slot != nullptr ? &discovery_slots_[static_cast<std::size_t>(*slot)]
                         : nullptr;
}

void DistributedBucketScheduler::send_probe(const SystemView& view, TxnId txn,
                                            NodeId txn_node, ObjId obj,
                                            std::int32_t epoch) {
  // The initial probe starts the honest chase from the object's birth node
  // — the one trail root a requester knows without help. A multi-hop chase
  // dies if ANY hop is dropped, and its success probability decays
  // geometrically with trail length, so timeout-driven retries switch
  // strategy: they aim straight at the directory's current terminus hint
  // (modeling a query to the tracking layer — same fidelity class as the
  // report retransmission, see DESIGN notes) and escalate to a few
  // redundant copies. min_depart = now keeps the shortcut cycle-free: the
  // probe only chases onward over departures that genuinely happen after
  // the hint was read, otherwise the landing node answers with the
  // object's current knowledge.
  const Time now = view.now();
  const NodeId target =
      epoch == 0 ? trails_.birth_node(obj) : trails_.current_terminus(obj);
  const Time min_depart = epoch == 0 ? kNoTime : now;
  const int copies = resilient_ ? 1 + std::min(epoch, 2) : 1;
  for (int c = 0; c < copies; ++c)
    bus_->send(txn_node, target, now,
               ProbeMsg{txn, txn_node, obj, 0, min_depart, epoch});
  if (resilient_)
    probe_timeouts_.push({retry_deadline(now, epoch), txn, obj, epoch});
}

Time DistributedBucketScheduler::retry_deadline(Time now,
                                                std::int32_t attempt) const {
  // Base window: a few network diameters (a fault-free probe round trip is
  // at most 4x <= 4 * diameter). Exponential backoff keeps retry traffic
  // bounded under persistent loss; the cap keeps the worst-case idle wait
  // proportional to the network size rather than doubling without bound
  // (an uncapped run's makespan is dominated by one unlucky chain's final
  // wait).
  const Time base = std::max<Time>(
      opts_.timeout_mult * std::max<Weight>(net_.oracle->diameter(), 1), 1);
  return now + (base << std::min<std::int32_t>(attempt, 5));
}

void DistributedBucketScheduler::service_timeouts(const SystemView& view) {
  const Time now = view.now();
  // Probe deadlines: entries are lazily invalidated — the object may have
  // been answered, the discovery finished, or the epoch superseded since
  // the entry was pushed.
  while (!probe_timeouts_.empty() && probe_timeouts_.top().deadline <= now) {
    const ProbeTimeout pt = probe_timeouts_.top();
    probe_timeouts_.pop();
    Discovery* dp = discovery(pt.txn);
    if (dp == nullptr) continue;
    Discovery& d = *dp;
    if (!d.awaits(pt.obj)) continue;
    std::int32_t* ep = d.epoch_of(pt.obj);
    DTM_CHECK(ep != nullptr, "awaited object " << pt.obj << " has no epoch");
    if (*ep != pt.epoch) continue;
    ++stats_.probe_timeouts;
    const std::int32_t next_epoch = pt.epoch + 1;
    *ep = next_epoch;
    ++stats_.reprobes;
    send_probe(view, pt.txn, d.node, pt.obj, next_epoch);
  }
  // Report deadlines: retransmit until handle_report has placed the txn.
  while (!report_retries_.empty() &&
         report_retries_.top().deadline <= now) {
    const ReportRetry rr = report_retries_.top();
    report_retries_.pop();
    const TxnTrace& tr = trace(rr.txn);
    if (tr.reported != kNoTime) continue;
    ++stats_.report_retries;
    const std::int32_t attempt = rr.attempt + 1;
    bus_->send(view.txn(rr.txn).node, cover_.cluster(tr.home).leader, now,
               ReportMsg{rr.txn, attempt});
    report_retries_.push({retry_deadline(now, attempt), rr.txn, attempt});
  }
}

void DistributedBucketScheduler::pump_messages(const SystemView& view,
                                               const ExtraAssignments& extra) {
  (void)extra;
  const Time now = view.now();
  // Multiple drain rounds: a probe answered locally can produce a reply
  // and a report within the same step when distances are zero.
  // drain_scratch_ persists across steps so the steady-state loop reuses
  // its capacity; sends during iteration go to the bus, never the scratch.
  for (int round = 0; round < 8; ++round) {
    bus_->drain_into(now, drain_scratch_);
    if (drain_scratch_.empty()) break;
    for (Message& m : drain_scratch_) {
      if (const auto* probe = std::get_if<ProbeMsg>(&m.payload)) {
        const auto hop =
            trails_.lookup(probe->object, m.to, now, probe->min_depart);
        if (hop.departed) {
          // Chase the forwarding pointer, forward in trail time.
          ProbeMsg next = *probe;
          next.travelled += view.oracle().dist(m.to, hop.next);
          next.min_depart = hop.depart_time;
          ++stats_.probe_hops;
          // Under chaos a delayed probe can legitimately chase a long-lived
          // trail for many hops, so the no-fault termination bound only
          // applies to the clean protocol.
          DTM_CHECK(resilient_ ||
                        next.travelled <=
                            4 * static_cast<Weight>(view.oracle().num_nodes()) *
                                std::max<Weight>(view.oracle().diameter(), 1),
                    "probe chase failed to terminate");
          bus_->send(m.to, hop.next, now, next);
          continue;
        }
        // The object is here (or inbound here): reply with its knowledge,
        // echoing the probe's epoch so the requester can tell generations
        // apart.
        ReplyMsg reply;
        reply.requester = probe->requester;
        reply.object = probe->object;
        reply.object_node = trails_.current_terminus(probe->object);
        const ObjectState& os = view.object(probe->object);
        reply.object_free_at =
            os.in_transit() ? os.arrive_time() : now;
        reply.epoch = probe->epoch;
        if (!reply_pool_.empty()) {
          // Revive a pooled spill buffer (move-assign reuses its capacity).
          reply.users = std::move(reply_pool_.back());
          reply_pool_.pop_back();
          reply.users.clear();
        }
        for (const TxnId uid : view.live_users_of(probe->object)) {
          if (uid == probe->requester) continue;
          reply.users.emplace_back(uid, view.txn(uid).node);
        }
        bus_->send(m.to, probe->requester_node, now, std::move(reply));
      } else if (auto* reply = std::get_if<ReplyMsg>(&m.payload)) {
        // Each object is answered at most once per discovery: replies for a
        // finished discovery or an already-answered object (duplicates, or
        // multiple epochs racing) are counted and dropped. Any epoch's
        // reply is an acceptable answer — it carries a genuine position
        // observation — so the first to arrive wins.
        Discovery* dp = discovery(reply->requester);
        if (dp == nullptr || !dp->awaits(reply->object)) {
          ++stats_.dup_replies;
        } else {
          Discovery& d = *dp;
          d.y = std::max(d.y, view.oracle().dist(d.node, reply->object_node));
          for (const auto& [uid, unode] : reply->users)
            d.y = std::max(d.y, view.oracle().dist(d.node, unode));
          d.retire(reply->object);
          if (d.awaiting.empty()) finish_discovery(view, reply->requester);
        }
        // Handled either way: park a spilled user list for the next reply
        // built here (bounded pool; inline lists need no recycling).
        if (reply->users.spilled() && reply_pool_.size() < 16)
          reply_pool_.push_back(std::move(reply->users));
      } else if (const auto* report = std::get_if<ReportMsg>(&m.payload)) {
        // Delivered at the leader: queue for insertion this step (the
        // drain in on_step discards it if the txn is already placed).
        const TxnTrace& tr = trace(report->txn);
        if (tr.reported != kNoTime) {
          ++stats_.dup_reports;
          continue;
        }
        reports_.push({now, report->txn, tr.home});
      }
    }
  }
}

void DistributedBucketScheduler::finish_discovery(const SystemView& view,
                                                  TxnId txn) {
  const Time now = view.now();
  const std::int32_t* slot = discovering_.find(txn);
  DTM_REQUIRE(slot != nullptr, "finish_discovery for unknown txn " << txn);
  const std::int32_t s = *slot;
  discovering_.erase(txn);
  free_discovery_slots_.push_back(s);
  const Discovery& d = discovery_slots_[static_cast<std::size_t>(s)];
  const std::int32_t layer = cover_.lowest_layer_covering(d.y);
  const ClusterRef home = cover_.home_cluster(d.node, layer);
  const NodeId leader = cover_.cluster(home).leader;
  trace(txn).home = home;
  ++stats_.reports;
  bus_->send(d.node, leader, now, ReportMsg{txn, 0});
  if (resilient_)
    report_retries_.push({retry_deadline(now, 0), txn, 0});
}

void DistributedBucketScheduler::handle_report(const SystemView& view,
                                               const PendingReport& rep,
                                               const ExtraAssignments& extra) {
  const std::int32_t h = home_index(rep.home);
  const std::int32_t level = choose_level(view, h, rep.txn, extra);
  std::vector<std::int32_t>& pending =
      pending_[static_cast<std::size_t>(level)];

  if (opts_.check_sublayer_disjointness) {
    // Corollary 1: within one sub-layer (and level), conflicting
    // transactions land in the same partial bucket. Only this level's
    // nonempty buckets can hold a conflicting member.
    const Transaction& t = view.txn(rep.txn);
    for (const std::int32_t other_home : pending) {
      const ClusterRef& key = homes_[static_cast<std::size_t>(other_home)].home;
      if (key == rep.home || key.layer != rep.home.layer ||
          key.sublayer != rep.home.sublayer)
        continue;
      for (const TxnId other : bucket(other_home, level).members)
        DTM_CHECK(!t.conflicts_with(view.txn(other)),
                  "Corollary 1 violated: txns " << t.id << " and " << other
                                                << " conflict across partial "
                                                   "buckets of one sub-layer");
    }
  }

  PartialBucket& b = bucket(h, level);
  if (b.members.empty()) pending.push_back(h);
  b.members.push_back(rep.txn);
  core_.on_inserted(view, b.id, view.txn(rep.txn), extra);
  max_level_used_ = std::max(max_level_used_, level);
  TxnTrace& tr = trace(rep.txn);
  tr.reported = rep.when;
  tr.level = level;
}

std::int32_t DistributedBucketScheduler::home_index(const ClusterRef& home) {
  const auto it = std::lower_bound(
      home_index_.begin(), home_index_.end(), home,
      [](const std::pair<ClusterRef, std::int32_t>& a, const ClusterRef& b) {
        return a.first < b;
      });
  if (it != home_index_.end() && it->first == home) return it->second;
  const auto h = static_cast<std::int32_t>(homes_.size());
  homes_.push_back({home, std::vector<PartialBucket>(
                              static_cast<std::size_t>(num_levels_))});
  home_index_.insert(it, {home, h});
  return h;
}

DistributedBucketScheduler::PartialBucket& DistributedBucketScheduler::bucket(
    std::int32_t home, std::int32_t level) {
  PartialBucket& b = homes_[static_cast<std::size_t>(home)]
                         .levels[static_cast<std::size_t>(level)];
  if (b.id == PartialBucket::kNoId) b.id = next_bucket_id_++;
  return b;
}

std::int32_t DistributedBucketScheduler::choose_level(
    const SystemView& view, std::int32_t home, TxnId txn,
    const ExtraAssignments& extra) {
  return core_.choose_level(
      view, view.txn(txn), num_levels_ - 1,
      [&](std::int32_t i) {
        const PartialBucket& b = bucket(home, i);
        return BucketInsertionCore::LevelView{b.id, b.members};
      },
      extra);
}

void DistributedBucketScheduler::activate(const SystemView& view,
                                          std::int32_t level,
                                          ExtraAssignments& extra,
                                          std::vector<Assignment>& out) {
  std::vector<std::int32_t>& pending =
      pending_[static_cast<std::size_t>(level)];
  if (pending.empty()) return;
  // This level's nonempty partial buckets in home order (the lexicographic
  // serialization of Lemma 8).
  activation_order_.assign(pending.begin(), pending.end());
  pending.clear();
  std::sort(activation_order_.begin(), activation_order_.end(),
            [&](std::int32_t a, std::int32_t b) {
              return homes_[static_cast<std::size_t>(a)].home <
                     homes_[static_cast<std::size_t>(b)].home;
            });

  const Time now = view.now();
  for (const std::int32_t h : activation_order_) {
    PartialBucket& b = bucket(h, level);
    const CoverCluster& cluster =
        cover_.cluster(homes_[static_cast<std::size_t>(h)].home);
    // Gather shift below must not touch the cached problem, so the
    // activation works on a copy.
    activation_scratch_ =
        core_.activation_problem(view, b.id, b.members, extra);
    BatchProblem& p = activation_scratch_;
    // Leader gather round: object commitments cannot be consumed before the
    // leader has collected state and redistributed decisions inside the
    // cluster (weak-diameter round trip).
    const Time gather = cluster.weak_diameter;
    for (auto& o : p.objects) o.ready = std::max(o.ready, now + gather);

    const BatchScheduler& a =
        wrapped_ ? static_cast<const BatchScheduler&>(*wrapped_) : *algo_;
    const BatchResult r =
        core_.run_activation(p, a, opts_.randomized_retries);
    // Leader -> transaction notification: a commit cannot happen before the
    // decision physically reaches the node. A uniform shift preserves every
    // chain gap and all availability floors.
    Time shift = 0;
    for (const auto& asg : r.assignments) {
      const NodeId node = view.txn(asg.txn).node;
      const Weight notify = view.oracle().dist(cluster.leader, node);
      shift = std::max(shift, (now + notify) - asg.exec);
      ++stats_.notifications;
      analytic_distance_ += notify;
    }
    for (const auto& asg : r.assignments) {
      const Assignment final{asg.txn, asg.exec + shift};
      out.push_back(final);
      extra.set(final.txn, final.exec);
      trace(final.txn).exec = final.exec;
      // The engine reroutes this txn's objects when it applies the
      // assignment and again when the txn commits at final.exec: the only
      // events that move a resting object.
      if (opts_.message_level_discovery)
        for (const auto& acc : view.txn(final.txn).accesses)
          trails_.watch(acc.obj, final.exec);
    }
    b.members.clear();
    core_.on_drained(b.id);
    core_.note_world_change();
  }
}

Time DistributedBucketScheduler::next_event_hint(Time now) const {
  // Bus deliveries are NOT merged here: the bus is exposed through
  // event_sources() and the runner's EventClock does the merging.
  Time next = reports_.empty() ? kNoTime : std::max(reports_.top().when, now);
  // Retry deadlines ARE merged here: with messages lost, the bus may hold
  // no future delivery while a timeout is the only thing standing between
  // the run and the runner's deadlock check. Heap tops may be stale
  // (lazily invalidated) — waking early on one is a harmless no-op.
  if (resilient_) {
    const auto merge = [&](Time t) {
      if (t == kNoTime) return;
      t = std::max(t, now);
      next = next == kNoTime ? t : std::min(next, t);
    };
    if (!probe_timeouts_.empty()) merge(probe_timeouts_.top().deadline);
    if (!report_retries_.empty()) merge(report_retries_.top().deadline);
  }
  for (std::size_t level = 0; level < pending_.size(); ++level) {
    if (pending_[level].empty()) continue;
    const Time period = level < 63 ? (Time{1} << level) : (Time{1} << 62);
    const Time base = std::max<Time>(now, 1);
    const Time fire = ((base + period - 1) / period) * period;
    next = next == kNoTime ? fire : std::min(next, fire);
  }
  return next;
}

}  // namespace dtm
