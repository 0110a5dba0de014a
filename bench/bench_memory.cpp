// Memory-discipline benchmark (docs/PERF.md §8): the before/after evidence
// for the zero-allocation messaging hot path.
//
// Three measurements, emitted as BENCH_memory.json (dtm-bench-memory-v1):
//   bus         messages/sec through the frozen pre-wheel heap bus
//               (the test-side oracle in tests/oracle/heap_bus.hpp)
//               (fresh drain vector per step, no reply-buffer pooling — the
//               old allocation profile) vs the wheel-backed MessageBus
//               (persistent drain scratch + spilled-reply pool, the shape
//               dist-bucket's pump loop uses). Both sides replay the SAME
//               seeded traffic and must agree on a delivery checksum.
//   alloc       allocs/step and bytes/step for both sides over the measured
//               window, from the DTM_ALLOC_TRACK operator-new hooks. In a
//               build without the option the hooks read zero; the JSON
//               carries "alloc_tracking" so consumers can tell "measured
//               zero" from "not measured" (regeneration recipe in
//               EXPERIMENTS.md uses the tracking build).
//   end_to_end  dist-bucket steps/sec, cluster(5,4,8) and line(96), null
//               and chaos plans — the whole-protocol guard that the wheel
//               rebuild did not trade throughput for allocation counts.
//
// Usage: bench_memory [--quick] [--out <path>] [--warmup N]
//   --quick   fewer steps/reps for CI smoke runs
//   --out     JSON output path (default: BENCH_memory.json in cwd)
//   --warmup  steps excluded from the steady-state windows (default: two
//             full timing-wheel turns)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "dist/bus.hpp"
#include "dist/dist_bucket.hpp"
#include "net/topology.hpp"
#include "sim/registry.hpp"
#include "oracle/heap_bus.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"
#include "util/alloc.hpp"
#include "util/check.hpp"
#include "util/timing_wheel.hpp"

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

constexpr int kSendsPerStep = 8;
constexpr std::size_t kSpillUsers = 12;  // > ReplyUsers inline capacity
/// The microbench network size (big diameter -> deep in-flight queue, which
/// is where heap percolation cost lives).
constexpr std::int64_t kBusNodes = 256;

/// One step's traffic: mixed probe/report sends plus one reply whose user
/// list spills past the inline capacity — the dist protocol's message mix.
/// `pool` is the spilled-buffer freelist ("after" shape); passing nullptr
/// reproduces the old allocate-per-reply behavior ("before" shape).
/// Endpoints are a deterministic period-64 pattern (64 | wheel ring size):
/// per-slot loads repeat exactly, so the wheel side's allocs/step pins to
/// zero after warmup instead of only tending there (see
/// tests/alloc_pin_test.cpp for the argument).
template <typename Bus>
void send_step_traffic(Bus& bus, Time now, std::vector<ReplyUsers>* pool) {
  int pick = 0;
  const auto node = [&] {
    return static_cast<NodeId>(((now & 63) * 37 + 11 * pick++) &
                               (kBusNodes - 1));
  };
  for (int i = 0; i < kSendsPerStep; ++i) {
    if (i % 4 == 1) {
      ReplyMsg reply;
      reply.requester = static_cast<TxnId>(now + i);
      reply.object = static_cast<ObjId>(i);
      reply.object_node = node();
      reply.object_free_at = now + 4;
      if (pool != nullptr && !pool->empty()) {
        reply.users = std::move(pool->back());
        pool->pop_back();
        reply.users.clear();
      }
      for (std::size_t u = 0; u < kSpillUsers; ++u)
        reply.users.emplace_back(static_cast<TxnId>(now + static_cast<Time>(u)),
                                 node());
      bus.send(node(), node(), now, std::move(reply));
    } else if (i % 4 == 3) {
      bus.send(node(), node(), now,
               ProbeMsg{static_cast<TxnId>(now + i), node(),
                        static_cast<ObjId>(i), 0, now, 0});
    } else {
      bus.send(node(), node(), now, ReportMsg{static_cast<TxnId>(now + i), 0});
    }
  }
}

struct BusSide {
  double msgs_per_sec = 0.0;
  double allocs_per_step = 0.0;
  double bytes_per_step = 0.0;
  std::uint64_t checksum = 0;
  std::int64_t delivered = 0;
};

/// Drives `steps` of send -> drain through `bus`. `persistent_scratch`
/// selects the after-shape drain (reused buffer + reply pool) vs the
/// before-shape (fresh vector per drain, fresh reply buffers).
template <typename Bus>
BusSide run_bus_side(Bus& bus, Time warmup, Time steps,
                     bool persistent_scratch) {
  std::vector<Message> scratch;
  std::vector<ReplyUsers> pool;
  BusSide r;
  const auto step = [&](Time now, std::vector<Message>& out) {
    send_step_traffic(bus, now, persistent_scratch ? &pool : nullptr);
    bus.drain_into(now, out);
    for (Message& m : out) {
      r.checksum =
          r.checksum * 1099511628211ULL ^
          static_cast<std::uint64_t>(m.deliver * 31 + m.seq * 7 +
                                     static_cast<Time>(m.payload.index()));
      ++r.delivered;
      if (persistent_scratch) {
        if (auto* reply = std::get_if<ReplyMsg>(&m.payload);
            reply != nullptr && reply->users.spilled() && pool.size() < 16)
          pool.push_back(std::move(reply->users));
      }
    }
  };
  Time now = 0;
  for (; now < warmup; ++now) {
    if (persistent_scratch) {
      step(now, scratch);
    } else {
      std::vector<Message> fresh;
      step(now, fresh);
    }
  }
  r.checksum = 0;
  r.delivered = 0;
  AllocScope scope;
  const auto t0 = Clock::now();
  for (; now < warmup + steps; ++now) {
    if (persistent_scratch) {
      step(now, scratch);
    } else {
      std::vector<Message> fresh;
      step(now, fresh);
    }
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const AllocCounters d = scope.delta();
  r.msgs_per_sec = static_cast<double>(r.delivered) / std::max(secs, 1e-9);
  r.allocs_per_step =
      static_cast<double>(d.allocs) / static_cast<double>(steps);
  r.bytes_per_step = static_cast<double>(d.bytes) / static_cast<double>(steps);
  return r;
}

struct EndToEnd {
  std::string topo;
  std::string plan;
  std::int64_t steps = 0;
  std::int64_t commits = 0;
  double steps_per_sec = 0.0;  // best of reps
  double allocs_per_step = 0.0;  // whole-protocol, not just the bus
};

EndToEnd run_end_to_end(const std::string& topo, const Network& net,
                        bool chaos, int reps) {
  SyntheticOptions w;
  w.num_objects = 48;
  w.k = 2;
  w.rounds = 3;
  w.arrival_prob = 0.3;
  w.seed = 4242;
  DistBucketOptions o;
  o.seed = 99;
  if (chaos) {
    o.fault.drop = 0.1;
    o.fault.jitter = 2;
    o.fault.dup = 0.05;
    o.fault.seed = 7;
  }
  EndToEnd r;
  r.topo = topo;
  r.plan = chaos ? "chaos" : "null";
  for (int rep = 0; rep < reps; ++rep) {
    SyntheticWorkload wl(net, w);
    DistributedBucketScheduler sched(
        net, Registry::make_batch_algo("auto", net), o);
    RunOptions opts;
    opts.engine.latency_factor = 2;
    opts.engine.fault = o.fault;
    AllocScope scope;
    const auto t0 = Clock::now();
    const RunResult res = run_experiment(net, wl, sched, opts);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const AllocCounters d = scope.delta();
    r.steps = res.active_steps;
    r.commits = static_cast<std::int64_t>(res.committed.size());
    const double sps =
        static_cast<double>(res.active_steps) / std::max(secs, 1e-9);
    if (sps > r.steps_per_sec) {
      r.steps_per_sec = sps;
      r.allocs_per_step = static_cast<double>(d.allocs) /
                          static_cast<double>(std::max<std::int64_t>(
                              res.active_steps, 1));
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_memory.json";
  Cli cli("bench_memory",
          "before/after memory-discipline evidence: heap vs wheel bus "
          "throughput, allocs/step, end-to-end dist-bucket steps/sec");
  cli.add_flag("quick", "fewer steps/reps for CI smoke runs", &quick);
  std::string out_arg;
  cli.add_value("out", "JSON output path (default BENCH_memory.json)",
                &out_arg);
  if (!dtm::bench::bench_init(cli, argc, argv)) return 0;
  if (!out_arg.empty()) out = out_arg;

  const Time warmup = dtm::bench::bench_cli().warmup_or(
      2 * static_cast<Time>(TimingWheel<Message>::kSlots));
  const Time bus_steps = quick ? 4000 : 40000;
  const int e2e_reps = quick ? 2 : 5;

  std::cout << "### memory — heap vs wheel bus, "
            << (alloc_tracking_enabled() ? "alloc tracking ON"
                                         : "alloc tracking OFF")
            << (quick ? " (quick)" : "") << "\n";

  const Network bus_net = make_line(kBusNodes);
  oracle::HeapBus heap(*bus_net.oracle);
  MessageBus wheel(*bus_net.oracle);
  const BusSide before = run_bus_side(heap, warmup, bus_steps, false);
  const BusSide after = run_bus_side(wheel, warmup, bus_steps, true);
  DTM_CHECK(before.checksum == after.checksum &&
                before.delivered == after.delivered,
            "heap and wheel buses diverged on identical traffic (delivered "
                << before.delivered << " vs " << after.delivered << ")");
  const double speedup = after.msgs_per_sec / std::max(before.msgs_per_sec, 1e-9);

  std::cout << std::fixed;
  std::cout << "bus (line-" << kBusNodes << ", " << kSendsPerStep
            << " sends/step, " << bus_steps << " steps after " << warmup
            << " warmup):\n"
            << "  heap   " << std::setprecision(0) << before.msgs_per_sec
            << " msgs/s, " << std::setprecision(2) << before.allocs_per_step
            << " allocs/step, " << std::setprecision(0)
            << before.bytes_per_step << " bytes/step\n"
            << "  wheel  " << after.msgs_per_sec << " msgs/s, "
            << std::setprecision(2) << after.allocs_per_step
            << " allocs/step, " << std::setprecision(0)
            << after.bytes_per_step << " bytes/step\n"
            << "  speedup " << std::setprecision(2) << speedup << "x\n";

  std::vector<EndToEnd> e2e;
  const Network cluster = make_cluster(5, 4, 8);
  const Network line = make_line(96);
  e2e.push_back(run_end_to_end("cluster(5,4,8)", cluster, false, e2e_reps));
  e2e.push_back(run_end_to_end("cluster(5,4,8)", cluster, true, e2e_reps));
  e2e.push_back(run_end_to_end("line(96)", line, false, e2e_reps));
  e2e.push_back(run_end_to_end("line(96)", line, true, e2e_reps));
  std::cout << "end-to-end dist-bucket:\n";
  for (const EndToEnd& r : e2e)
    std::cout << "  " << std::left << std::setw(15) << r.topo << std::right
              << " " << std::setw(6) << r.plan << "  steps=" << r.steps
              << " commits=" << r.commits << "  " << std::setprecision(0)
              << r.steps_per_sec << " steps/s  " << std::setprecision(1)
              << r.allocs_per_step << " allocs/step\n";

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << std::fixed;
  f << "{\n  \"schema\": \"dtm-bench-memory-v1\",\n";
  f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  f << "  \"alloc_tracking\": "
    << (alloc_tracking_enabled() ? "true" : "false") << ",\n";
  f << "  \"metric\": \"bus: messages/sec and allocs per step through the "
       "frozen pre-wheel heap bus (fresh drain vector, fresh reply buffers) "
       "vs the wheel bus (persistent scratch + reply pool) replaying "
       "identical traffic; end_to_end: dist-bucket steps/sec, best of "
    << e2e_reps << " reps\",\n";
  f << "  \"bus\": {\"network\": \"line-" << kBusNodes
    << "\", \"sends_per_step\": " << kSendsPerStep
    << ", \"steps\": " << bus_steps << ", \"warmup\": " << warmup
    << ", \"delivered\": " << after.delivered << ",\n"
    << "    \"heap_msgs_per_sec\": " << std::setprecision(1)
    << before.msgs_per_sec
    << ", \"wheel_msgs_per_sec\": " << after.msgs_per_sec
    << ", \"speedup\": " << std::setprecision(3) << speedup << ",\n"
    << "    \"heap_allocs_per_step\": " << before.allocs_per_step
    << ", \"wheel_allocs_per_step\": " << after.allocs_per_step
    << ", \"heap_bytes_per_step\": " << std::setprecision(1)
    << before.bytes_per_step
    << ", \"wheel_bytes_per_step\": " << after.bytes_per_step << "},\n";
  f << "  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const EndToEnd& r = e2e[i];
    f << "    {\"topo\": \"" << r.topo << "\", \"plan\": \"" << r.plan
      << "\", \"steps\": " << r.steps << ", \"commits\": " << r.commits
      << ", \"steps_per_sec\": " << std::setprecision(1) << r.steps_per_sec
      << ", \"allocs_per_step\": " << r.allocs_per_step << "}"
      << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "wrote " << out << "\n";
  return 0;
}
