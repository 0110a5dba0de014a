// Fast-path scheduling core benchmark: the event-calendar engine vs the
// full-scan reference engine (tests/oracle/scan_engine.hpp) on workloads
// with ~10k live transactions, plus eager-vs-lazy routing table cost.
// Emits machine-readable BENCH_fastpath.json (schema
// dtm-bench-fastpath-v1; see docs/PERF.md).
//
// The workload is built to expose the seed engine's per-step O(objects + L)
// scans: transactions arrive a few per step and are deliberately scheduled
// far in the future (coordination delay), so the live set climbs into the
// tens of thousands while the per-step useful work stays constant. Both
// engines run the byte-identical simulation (the lockstep harness proves
// it step by step; here the step and commit counts are cross-checked);
// only the internal bookkeeping differs.
//
// Usage: bench_fastpath [--quick] [--out <path>]
//   --quick  smaller sizes for CI smoke runs
//   --out    JSON output path (default: BENCH_fastpath.json in the cwd)
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/cli.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "oracle/scan_engine.hpp"

namespace {

using namespace dtm;

long peak_rss_kb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;  // KiB on Linux
}

/// One object per transaction (distinct write sets), `per_step` arrivals
/// per step. The scheduler's own work is O(1) per arrival and identical on
/// both engines; the live set is what grows.
ScriptedWorkload make_fastpath_workload(const Network& net,
                                        std::int64_t num_txns,
                                        std::int64_t per_step) {
  const NodeId n = net.num_nodes();
  std::vector<ObjectOrigin> origins;
  std::vector<Transaction> txns;
  origins.reserve(static_cast<std::size_t>(num_txns));
  txns.reserve(static_cast<std::size_t>(num_txns));
  for (std::int64_t i = 0; i < num_txns; ++i) {
    const auto obj = static_cast<ObjId>(i);
    origins.push_back({obj, static_cast<NodeId>(i % n), 0});
    Transaction t;
    t.id = i;
    t.node = static_cast<NodeId>((i * 7 + 3) % n);
    t.gen_time = i / per_step;
    t.accesses = write_set({obj});
    txns.push_back(std::move(t));
  }
  return {std::move(origins), std::move(txns)};
}

struct ModeResult {
  double seconds = 0.0;
  std::int64_t steps = 0;
  std::int64_t commits = 0;
  long rss_kb = 0;
  [[nodiscard]] double steps_per_sec() const {
    return static_cast<double>(steps) / seconds;
  }
};

/// The run_experiment loop stripped to the timed parts (no lower-bound or
/// validation post-processing, which is identical on both engines anyway).
/// `Engine` is SyncEngine or the scan reference engine.
template <typename Engine>
ModeResult run_mode(const Network& net, std::int64_t num_txns,
                    std::int64_t per_step, Time coordination_delay) {
  ScriptedWorkload wl = make_fastpath_workload(net, num_txns, per_step);
  GreedyOptions g;
  g.coordination_delay = coordination_delay;
  GreedyScheduler sched(g);

  const auto t0 = std::chrono::steady_clock::now();
  Engine engine(net.oracle, wl.objects(), EngineOptions{});
  std::int64_t steps = 0;
  while (true) {
    const auto arrivals = wl.arrivals_at(engine.now());
    engine.begin_step(arrivals);
    const auto assignments = sched.on_step(engine, arrivals);
    engine.apply(assignments);
    (void)engine.finish_step();
    ++steps;
    if (wl.finished() && engine.all_done()) break;
    const Time now = engine.now();
    const Time next = engine.clock().next_event(
        {wl.next_arrival_time(), engine.next_exec_due(),
         sched.next_event_hint(now)});
    DTM_CHECK(next != kNoTime, "bench deadlock at step " << now);
    if (next > now) engine.advance_to(next);
  }
  const auto t1 = std::chrono::steady_clock::now();

  ModeResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.steps = steps;
  r.commits = static_cast<std::int64_t>(engine.committed().size());
  r.rss_kb = peak_rss_kb();
  return r;
}

struct WorkloadCase {
  std::string name;
  Network net;
  std::int64_t num_txns;
  std::int64_t per_step;
  Time delay;
};

struct RoutingResult {
  NodeId nodes = 0;
  std::size_t queried_destinations = 0;
  double eager_seconds = 0.0;  ///< build every destination's table
  double lazy_seconds = 0.0;   ///< build only the touched ones
  std::size_t eager_bytes = 0;
  std::size_t lazy_bytes = 0;
};

void benchmark_dist(const RoutingTable& rt, NodeId dest) {
  volatile Weight sink = rt.dist(0, dest);
  (void)sink;
}

RoutingResult routing_case(NodeId n, std::size_t touched) {
  Rng rng(17);
  const Network net = make_random_connected(n, 3 * n, 6, rng);
  RoutingResult r;
  r.nodes = n;
  r.queried_destinations = touched;

  // "Before": the seed built all n destination tables at construction.
  // Reproduce that cost by touching every destination once.
  const auto e0 = std::chrono::steady_clock::now();
  const RoutingTable eager(net.graph, static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) benchmark_dist(eager, v);
  const auto e1 = std::chrono::steady_clock::now();
  r.eager_seconds = std::chrono::duration<double>(e1 - e0).count();
  r.eager_bytes = eager.memory_bytes();

  // "After": a run that routes toward only a handful of destinations pays
  // for exactly those.
  const auto l0 = std::chrono::steady_clock::now();
  const RoutingTable lazy(net.graph, static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < touched; ++i)
    benchmark_dist(lazy, static_cast<NodeId>((i * 97) % n));
  const auto l1 = std::chrono::steady_clock::now();
  r.lazy_seconds = std::chrono::duration<double>(l1 - l0).count();
  r.lazy_bytes = lazy.memory_bytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_fastpath.json";
  Cli cli("bench_fastpath",
          "calendar vs full-scan engine throughput; lazy routing cost");
  cli.add_flag("quick", "smaller sizes for CI smoke runs", &quick);
  cli.add_value("out", "JSON output path (default BENCH_fastpath.json)",
                &out);
  if (!cli.parse(argc, argv)) return 0;

  const std::int64_t txns = quick ? 2000 : 10000;
  const std::int64_t per_step = 2;
  const Time delay = quick ? 1500 : 6000;
  std::vector<WorkloadCase> cases;
  cases.push_back({"line", make_line(quick ? 128 : 512), txns, per_step, delay});
  cases.push_back(
      {"clique", make_clique(quick ? 64 : 256), txns, per_step, delay});

  std::cout << "### fastpath — calendar engine vs full-scan engine ("
            << txns << " txns, " << per_step << "/step, delay " << delay
            << ")\n";
  std::cout << std::left << std::setw(10) << "workload" << std::right
            << std::setw(10) << "steps" << std::setw(14) << "scan steps/s"
            << std::setw(14) << "cal steps/s" << std::setw(10) << "speedup"
            << "\n";

  struct CaseRow {
    WorkloadCase* c;
    ModeResult calendar, scan;
  };
  std::vector<CaseRow> rows;
  for (auto& c : cases) {
    // Calendar first: ru_maxrss is a process-wide high-water mark, so the
    // fast path's reading must be taken before the scan path runs.
    CaseRow row{&c, {}, {}};
    row.calendar =
        run_mode<SyncEngine>(c.net, c.num_txns, c.per_step, c.delay);
    row.scan = run_mode<oracle::ScanEngine>(c.net, c.num_txns, c.per_step,
                                            c.delay);
    DTM_CHECK(row.calendar.commits == c.num_txns &&
                  row.scan.commits == c.num_txns,
              "bench lost transactions");
    DTM_CHECK(row.calendar.steps == row.scan.steps,
              "engines diverged: " << row.calendar.steps << " vs "
                                   << row.scan.steps << " steps");
    const double speedup =
        row.calendar.steps_per_sec() / row.scan.steps_per_sec();
    std::cout << std::left << std::setw(10) << c.name << std::right
              << std::setw(10) << row.scan.steps << std::setw(14)
              << std::fixed << std::setprecision(0)
              << row.scan.steps_per_sec() << std::setw(14)
              << row.calendar.steps_per_sec() << std::setw(9)
              << std::setprecision(2) << speedup << "x\n";
    rows.push_back(std::move(row));
  }

  const RoutingResult routing = routing_case(quick ? 256 : 768, 16);
  std::cout << "\n### routing — lazy per-destination tables (n="
            << routing.nodes << ", " << routing.queried_destinations
            << " destinations touched)\n";
  std::cout << "  eager: " << std::setprecision(4) << routing.eager_seconds
            << " s, " << routing.eager_bytes << " bytes\n";
  std::cout << "  lazy:  " << routing.lazy_seconds << " s, "
            << routing.lazy_bytes << " bytes\n";

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << std::fixed;
  f << "{\n  \"schema\": \"dtm-bench-fastpath-v1\",\n";
  f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  f << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    f << "    {\n";
    f << "      \"name\": \"" << r.c->name << "\",\n";
    f << "      \"nodes\": " << r.c->net.num_nodes() << ",\n";
    f << "      \"txns\": " << r.c->num_txns << ",\n";
    f << "      \"active_steps\": " << r.scan.steps << ",\n";
    f << "      \"scan\": {\"seconds\": " << std::setprecision(6)
      << r.scan.seconds << ", \"steps_per_sec\": " << std::setprecision(1)
      << r.scan.steps_per_sec() << ", \"peak_rss_kb\": " << r.scan.rss_kb
      << "},\n";
    f << "      \"calendar\": {\"seconds\": " << std::setprecision(6)
      << r.calendar.seconds << ", \"steps_per_sec\": "
      << std::setprecision(1) << r.calendar.steps_per_sec()
      << ", \"peak_rss_kb\": " << r.calendar.rss_kb << "},\n";
    f << "      \"speedup\": " << std::setprecision(2)
      << r.calendar.steps_per_sec() / r.scan.steps_per_sec() << "\n";
    f << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ],\n";
  f << "  \"routing\": {\"nodes\": " << routing.nodes
    << ", \"destinations_touched\": " << routing.queried_destinations
    << ", \"eager_seconds\": " << std::setprecision(6)
    << routing.eager_seconds << ", \"eager_bytes\": " << routing.eager_bytes
    << ", \"lazy_seconds\": " << routing.lazy_seconds
    << ", \"lazy_bytes\": " << routing.lazy_bytes << "}\n";
  f << "}\n";
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
