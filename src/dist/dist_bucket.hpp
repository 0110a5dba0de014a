// Distributed bucket schedule (paper Algorithm 3, §V).
//
// Decentralizes Algorithm 2 over a hierarchical sparse cover: bucket levels
// are split into *partial i-buckets* hosted at cluster leaders. A new
// transaction
//   1. discovers the current positions of its objects (probe messages chase
//      them; objects move at half speed — latency factor 2 — so a probe
//      catches an object at initial distance x by time 2x and the reply is
//      back within 4x),
//   2. learns its conflicting transactions from the objects (objects carry
//      the locations of the transactions that use them),
//   3. picks the lowest layer whose home cluster covers its y-neighborhood
//      (y = max of object distances and conflicting-transaction distances)
//      and reports to that cluster's leader,
//   4. is placed by the leader into a partial i-bucket via the F_A rule.
// All partial i-buckets activate globally every 2^i steps; heights are
// processed in lexicographic order (the serialization Lemma 8 charges for),
// and each activation pays the cluster's weak diameter for the leader's
// gather/notify round plus leader-to-transaction notification distance.
//
// Fidelity note (documented in DESIGN.md): message latencies are charged
// through deterministic distance-based delays rather than per-hop packet
// simulation; the information a leader uses is exactly what the paper's
// protocol would have delivered to it by that time.
#pragma once

#include <memory>
#include <queue>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "batch/bucket_insertion.hpp"
#include "batch/suffix_wrapper.hpp"
#include "core/scheduler.hpp"
#include "dist/bus.hpp"
#include "dist/tracking.hpp"
#include "net/sparse_cover.hpp"
#include "net/topology.hpp"
#include "util/flat_map.hpp"
#include "util/small_vector.hpp"

namespace dtm {

struct DistBucketOptions {
  std::int32_t max_level = 0;  ///< 0 = auto (as BucketScheduler)
  std::uint64_t seed = 0xD157;
  std::int32_t randomized_retries = 3;
  bool enforce_suffix_property = true;
  /// Verify Corollary 1 (no two conflicting transactions in distinct
  /// partial buckets of the same sub-layer and level) at every insertion.
  bool check_sublayer_disjointness = true;
  /// true: run discovery as an actual message protocol — probes chase the
  /// objects' forwarding-pointer trails over a message bus, replies carry
  /// the object's knowledge, reports travel to leaders (paper §V verbatim).
  /// false: analytic mode — charge the 4x-distance discovery bound
  /// deterministically without materializing messages.
  bool message_level_discovery = true;
  /// Fault-injection plan. Bus-level faults (drop/dup/jitter/degrade/pause)
  /// wrap the bus in a FaultyBus and arm the timeout/retry protocol, and
  /// require message_level_discovery (analytic mode has no messages to
  /// perturb). A null plan leaves the protocol byte-identical.
  FaultPlan fault;
  /// Probe/report timeout = timeout_mult * network diameter, doubling on
  /// every retry (capped exponential backoff). Only used when the plan has
  /// message faults.
  std::int64_t timeout_mult = 4;
  SparseCoverOptions cover;
  /// Worker threads for the insertion core (same semantics as
  /// BucketOptions::threads; 1 = serial, 0 = all hardware threads).
  std::int32_t threads = 1;
};

/// Message-accounting for the communication-overhead experiment (F4).
struct DistStats {
  std::int64_t probes = 0;          ///< object discovery probes started
  std::int64_t probe_hops = 0;      ///< trail-chasing forwards (msg mode)
  std::int64_t reports = 0;         ///< transaction -> leader reports
  std::int64_t notifications = 0;   ///< leader -> transaction schedules
  std::int64_t message_distance = 0;  ///< sum of distances charged
  Time max_discovery_delay = 0;     ///< worst arrival -> report latency
  // -- resilience counters (nonzero only under a fault plan) --
  std::int64_t probe_timeouts = 0;  ///< probe deadlines that fired
  std::int64_t reprobes = 0;        ///< probes re-sent after a timeout
  std::int64_t report_retries = 0;  ///< report retransmissions
  std::int64_t dup_replies = 0;     ///< replies ignored (stale/duplicate)
  std::int64_t dup_reports = 0;     ///< reports ignored (already placed)
};

class DistributedBucketScheduler final : public OnlineScheduler {
 public:
  DistributedBucketScheduler(const Network& net,
                             std::shared_ptr<const BatchScheduler> algo,
                             DistBucketOptions opts = {});

  [[nodiscard]] std::vector<Assignment> on_step(
      const SystemView& view, std::span<const Transaction> arrivals) override;

  [[nodiscard]] Time next_event_hint(Time now) const override;

  /// The protocol's message bus: delivery times wake the runner through
  /// the EventClock's source merging instead of next_event_hint.
  [[nodiscard]] std::vector<const EventSource*> event_sources()
      const override {
    return {bus_.get()};
  }

  /// What the chaos decorator did to the traffic; null when the plan has no
  /// message faults (the plain bus is in use).
  [[nodiscard]] const FaultBusStats* fault_bus_stats() const {
    return faulty_ ? &faulty_->fault_stats() : nullptr;
  }

  /// Whether the timeout/retry protocol is armed (the construction plan had
  /// message faults). Only resilient schedulers accept live fault toggles.
  [[nodiscard]] bool resilient() const { return resilient_; }

  /// Live fault-plan swap (serve-mode resilience drills). The FaultyBus
  /// reads its knobs through a pointer into opts_.fault on every send, so
  /// assigning here changes drop/dup/jitter/degrade behavior from the next
  /// message on. Requires a resilient scheduler: arming the chaos bus (or
  /// the timeout protocol) mid-run would swap the bus under in-flight
  /// traffic. Pause windows stay as materialized at construction, and the
  /// bus RNG stream continues uninterrupted — documented limits of the
  /// live toggle.
  void set_fault(const FaultPlan& plan);

  [[nodiscard]] std::string name() const override {
    return "dist-bucket[" + algo_->name() + "]";
  }

  [[nodiscard]] const DistStats& stats() const { return stats_; }
  [[nodiscard]] const SparseCover& cover() const { return cover_; }
  [[nodiscard]] std::int32_t max_level_used() const { return max_level_used_; }
  /// Insertion-core counters / last-scan trace (bench + tests).
  [[nodiscard]] const FastPathStats& fastpath_stats() const {
    return core_.stats();
  }
  [[nodiscard]] const BucketInsertionCore& insertion_core() const {
    return core_;
  }
  /// The discovery layer's object trails (message mode).
  [[nodiscard]] const ObjectTrailDirectory& trails() const { return trails_; }

  /// Trace of where each transaction landed, for the Lemma 7/8 experiments.
  struct TxnTrace {
    TxnId txn = kNoTxn;
    Time arrived = kNoTime;
    Time reported = kNoTime;
    ClusterRef home;
    std::int32_t level = -1;
    Time exec = kNoTime;
  };
  [[nodiscard]] const std::vector<TxnTrace>& traces() const { return traces_; }

 private:
  struct PendingReport {
    Time when = kNoTime;
    TxnId txn = kNoTxn;
    ClusterRef home;
    bool operator>(const PendingReport& o) const {
      return when > o.when || (when == o.when && txn > o.txn);
    }
  };

  /// One partial i-bucket. `id` is the insertion core's handle, assigned
  /// densely on first use (first probe of the bucket).
  struct PartialBucket {
    static constexpr BucketInsertionCore::BucketId kNoId = ~0ULL;
    BucketInsertionCore::BucketId id = kNoId;
    std::vector<TxnId> members;
  };
  /// The partial buckets of one home cluster, one per level.
  struct HomeBuckets {
    ClusterRef home;
    std::vector<PartialBucket> levels;
  };

  void ensure_levels(const SystemView& view);
  /// Dense index into homes_ of `home`'s buckets, created on first use.
  std::int32_t home_index(const ClusterRef& home);
  /// `home`'s bucket at `level`, its core id assigned if still unset.
  PartialBucket& bucket(std::int32_t home, std::int32_t level);
  std::int32_t choose_level(const SystemView& view, std::int32_t home,
                            TxnId txn, const ExtraAssignments& extra);
  /// traces_ row of `txn`.
  TxnTrace& trace(TxnId txn);
  void handle_report(const SystemView& view, const PendingReport& rep,
                     const ExtraAssignments& extra);
  void activate(const SystemView& view, std::int32_t level,
                ExtraAssignments& extra, std::vector<Assignment>& out);

  // -- analytic discovery (message_level_discovery = false) --
  void start_analytic_discovery(const SystemView& view, const Transaction& t);

  // -- message-level discovery --
  void start_probe_discovery(const SystemView& view, const Transaction& t);
  void pump_messages(const SystemView& view, const ExtraAssignments& extra);
  void finish_discovery(const SystemView& view, TxnId txn);

  // -- resilience protocol (armed only when the plan has message faults) --
  /// Sends the probe for (txn -> obj) from the object's birth node and, when
  /// resilient, arms its timeout. `epoch` is 0 for the initial probe.
  void send_probe(const SystemView& view, TxnId txn, NodeId txn_node,
                  ObjId obj, std::int32_t epoch);
  /// Fires due probe/report deadlines: re-probe from the trail root with a
  /// fresh epoch, retransmit unacknowledged reports. Exponential backoff.
  void service_timeouts(const SystemView& view);
  /// Timeout deadline for a message (re)try number `attempt` issued at `now`.
  [[nodiscard]] Time retry_deadline(Time now, std::int32_t attempt) const;

  /// Per-transaction discovery progress (message mode). The per-object
  /// collections are inline SmallVectors sized for k (transactions touch a
  /// handful of objects), membership-tested and erased but never iterated
  /// in a behavior-visible order — so swapping the old set/map for flat
  /// storage changes no outcome, only the allocation count.
  struct Discovery {
    NodeId node = kNoNode;
    Time started = kNoTime;
    SmallVector<ObjId, 8> awaiting;
    Weight y = 0;  ///< max object / conflicting-transaction distance
    /// Current probe generation per object (resilient mode): replies from
    /// older generations are accepted (their info is still a valid position
    /// observation), but each object is answered at most once.
    SmallVector<std::pair<ObjId, std::int32_t>, 8> epoch;

    [[nodiscard]] bool awaits(ObjId o) const {
      for (const ObjId a : awaiting)
        if (a == o) return true;
      return false;
    }
    void retire(ObjId o) {
      for (ObjId* it = awaiting.begin(); it != awaiting.end(); ++it)
        if (*it == o) {
          awaiting.erase(it);
          return;
        }
    }
    [[nodiscard]] std::int32_t* epoch_of(ObjId o) {
      for (auto& [obj, ep] : epoch)
        if (obj == o) return &ep;
      return nullptr;
    }
  };
  /// The live discovery of `txn`, or nullptr once it has finished.
  [[nodiscard]] Discovery* discovery(TxnId txn);

  /// Armed when a probe is sent; fires a re-probe if the reply has not
  /// retired (txn, obj) by `deadline`. Stale entries (epoch superseded or
  /// object already answered) are dropped lazily on pop.
  struct ProbeTimeout {
    Time deadline = kNoTime;
    TxnId txn = kNoTxn;
    ObjId obj = kNoObj;
    std::int32_t epoch = 0;
    bool operator>(const ProbeTimeout& o) const {
      return deadline > o.deadline ||
             (deadline == o.deadline && txn > o.txn) ||
             (deadline == o.deadline && txn == o.txn && obj > o.obj);
    }
  };

  /// Armed when a report is sent; retransmits until handle_report has
  /// placed the transaction (traces_[txn].reported != kNoTime).
  struct ReportRetry {
    Time deadline = kNoTime;
    TxnId txn = kNoTxn;
    std::int32_t attempt = 0;
    bool operator>(const ReportRetry& o) const {
      return deadline > o.deadline || (deadline == o.deadline && txn > o.txn);
    }
  };

  const Network& net_;
  SparseCover cover_;
  std::shared_ptr<const BatchScheduler> algo_;
  std::unique_ptr<SuffixWrapper> wrapped_;
  DistBucketOptions opts_;
  BucketInsertionCore core_;
  BatchProblem activation_scratch_;  ///< gather-shifted activation copy

  std::int32_t num_levels_ = 0;
  std::unique_ptr<MessageBus> bus_;
  FaultyBus* faulty_ = nullptr;  ///< alias into bus_ when chaos is armed
  bool resilient_ = false;  ///< message faults configured: timeouts armed
  std::priority_queue<ProbeTimeout, std::vector<ProbeTimeout>, std::greater<>>
      probe_timeouts_;
  std::priority_queue<ReportRetry, std::vector<ReportRetry>, std::greater<>>
      report_retries_;
  /// Every object a discovery has touched. The per-step pass reads only
  /// those activate() announced for a step the engine can have moved them.
  ObjectTrailDirectory trails_;
  /// Live discoveries: txn -> slot in discovery_slots_. Finished slots go
  /// to the free list and are reused, so the pool is as large as the peak
  /// number of concurrent discoveries.
  FlatMap<TxnId, std::int32_t> discovering_;
  std::vector<Discovery> discovery_slots_;
  std::vector<std::int32_t> free_discovery_slots_;
  /// Persistent pump_messages scratch: drain_into clears it but keeps its
  /// capacity, so the steady-state send → drain loop allocates nothing
  /// (the DTM_ALLOC_TRACK pins assert this).
  std::vector<Message> drain_scratch_;
  /// Recycled spill buffers for ReplyMsg user lists (the inline capacity
  /// covers typical conflict degrees; only spilled buffers are pooled).
  std::vector<ReplyUsers> reply_pool_;
  std::priority_queue<PendingReport, std::vector<PendingReport>,
                      std::greater<>>
      reports_;
  /// Partial buckets by home cluster: homes_ is append-only (stable
  /// indices), home_index_ maps each home to its index, sorted by home.
  std::vector<HomeBuckets> homes_;
  std::vector<std::pair<ClusterRef, std::int32_t>> home_index_;
  /// Per level, the homes whose bucket at that level is nonempty: an
  /// activation and the next-event hint touch only these, never the
  /// (ever-growing) set of buckets that were used once.
  std::vector<std::vector<std::int32_t>> pending_;
  BucketInsertionCore::BucketId next_bucket_id_ = 0;
  std::vector<std::int32_t> activation_order_;  ///< activate() scratch
  FlatMap<TxnId, std::size_t> trace_index_;
  std::vector<TxnTrace> traces_;
  DistStats stats_;
  std::int64_t analytic_distance_ = 0;  ///< non-bus charges (notify, 4x)
  std::int32_t max_level_used_ = -1;
};

}  // namespace dtm
