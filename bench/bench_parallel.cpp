// Parallel surfaces benchmark: full validated runs across a thread ladder,
// median wall time and speedup against one thread, with the result hash
// cross-checked at every thread count (a divergent hash aborts the bench).
// Emits machine-readable BENCH_parallel.json (schema
// dtm-bench-parallel-v2; see docs/PERF.md §13).
//
// The simulator has two parallel surfaces (ARCHITECTURE.md §8), and the
// rows sit on each side of the one gated choice:
//   cluster       the bench/e2e batch-bucket-cluster spec: bucket over the
//                 randomized cluster order, retries=3, trials of
//                 100-200 µs, where ActivationGate measures fan-out as no
//                 cheaper and keeps activations serial
//   local-search  bucket over local search, retries=3, on 8-object
//                 transactions: its costliest trials take seconds, and the
//                 gate fans those out
//   trials        run_seeded_trials: independent seeds fan out (not gated)
// Each point records the gate's choice: the share of activations whose
// trials ran concurrently, and a label (serial below 20%, fan-out above
// 80%, mixed between).
//
// Usage: bench_parallel [--quick] [--out <path>] [--threads N]
//   --quick    smaller sizes for CI smoke runs (and the TSan job)
//   --out      JSON output path (default: BENCH_parallel.json in cwd)
//   --threads  pin the ladder to {1, N} instead of {1, 2, 4, hardware}
#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/bucket_scheduler.hpp"
#include "net/topology.hpp"
#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "sim/trials.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

/// Workload seed of every row: the bench/e2e default.
constexpr std::uint64_t kSeed = 2026;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_result(const RunResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& s : r.committed) {
    h = fnv(h, static_cast<std::uint64_t>(s.txn.id));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.node));
    h = fnv(h, static_cast<std::uint64_t>(s.txn.gen_time));
    h = fnv(h, static_cast<std::uint64_t>(s.exec));
  }
  h = fnv(h, static_cast<std::uint64_t>(r.makespan));
  h = fnv(h, static_cast<std::uint64_t>(r.active_steps));
  return h;
}

std::uint64_t hash_summary(const TrialSummary& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : {s.ratio, s.makespan, s.mean_latency, s.lb})
    h = fnv(h, std::bit_cast<std::uint64_t>(v));
  return fnv(h, static_cast<std::uint64_t>(s.txns));
}

/// One row: a spec run by run_experiment, or (trials > 0) that many seeds
/// of it through run_seeded_trials with a serial scheduler per trial.
struct Row {
  std::string name;
  std::string surface;
  std::string topology, scheduler, workload;
  std::int32_t trials = 0;
};

/// One rep at one thread count.
struct Rep {
  double seconds = 0.0;
  std::uint64_t hash = 0;
  std::int64_t txns = 0;
  std::int64_t activations = 0;
  std::int64_t fanouts = 0;
};

Rep run_rep(const Row& row, std::int32_t threads) {
  const Network net = Registry::make_network(parse_spec(row.topology));
  const Spec sched = parse_spec(row.scheduler);
  Rep rep;
  if (row.trials > 0) {
    // The trial fan-out is the surface: every trial's scheduler is serial.
    SpecArgs a(parse_spec(row.workload));
    SyntheticOptions w;
    w.num_objects = static_cast<std::int32_t>(a.integer("objects", 0));
    w.k = static_cast<std::int32_t>(a.integer("k", 2));
    w.rounds = static_cast<std::int32_t>(a.integer("rounds", 1));
    w.seed = kSeed;
    a.finish();
    TrialOptions topts;
    topts.trials = row.trials;
    topts.threads = threads;
    const auto factory = [&] {
      return Registry::make_scheduler(sched, net, nullptr, 1);
    };
    const auto t0 = Clock::now();
    const TrialSummary s = run_seeded_trials(net, w, factory, topts);
    rep.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    rep.hash = hash_summary(s);
    rep.txns = s.txns * row.trials;
    return rep;
  }
  const auto wl =
      Registry::make_workload(parse_spec(row.workload), net, kSeed);
  const auto s = Registry::make_scheduler(sched, net, nullptr, threads);
  const auto t0 = Clock::now();
  const RunResult r = run_experiment(net, *wl, *s);
  rep.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  rep.hash = hash_result(r);
  rep.txns = r.num_txns;
  const auto& stats =
      dynamic_cast<const BucketScheduler&>(*s).fastpath_stats();
  rep.activations = stats.activations;
  rep.fanouts = stats.fanouts;
  return rep;
}

struct Point {
  std::int32_t threads = 1;
  double seconds = 0.0;  ///< median over the reps
  double speedup = 1.0;
  std::int64_t activations = 0;
  std::int64_t fanouts = 0;  ///< of the median rep
  std::string gate;
};

std::string gate_choice(const Row& row, const Rep& rep, std::int32_t threads) {
  if (row.trials > 0) return "none";
  if (threads == 1) return "off";
  if (5 * rep.fanouts < rep.activations) return "serial";
  return 5 * rep.fanouts > 4 * rep.activations ? "fan-out" : "mixed";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_parallel.json";
  Cli cli("bench_parallel",
          "parallel surfaces: wall time across a thread ladder");
  cli.add_flag("quick", "smaller sizes for CI smoke runs", &quick);
  cli.add_value("out", "JSON output path (default BENCH_parallel.json)", &out);
  if (!cli.parse(argc, argv)) return 0;

  const auto hw = static_cast<std::int32_t>(ThreadPool::hardware_threads());
  std::vector<std::int32_t> ladder;
  if (cli.threads_set()) {
    // --threads N pins the ladder to {1, N}: the 1-thread rung stays as the
    // hash/speedup baseline, N is the requested measurement point.
    ladder.push_back(1);
    const std::int32_t t = cli.threads(1) == 0 ? hw : cli.threads(1);
    if (t != 1) ladder.push_back(t);
  } else {
    ladder = quick ? std::vector<std::int32_t>{1, 2}
                   : std::vector<std::int32_t>{1, 2, 4};
    if (std::find(ladder.begin(), ladder.end(), hw) == ladder.end())
      ladder.push_back(hw);
  }
  const int reps = quick ? 1 : 3;

  const std::vector<Row> rows = {
      {"cluster", "activation retries", "cluster:alpha=8,beta=8,gamma=16",
       "bucket",
       quick ? "synthetic:objects=256,k=2,rounds=7,gap=8"
             : "synthetic:objects=256,k=2,rounds=64,gap=8"},
      {"local-search", "activation retries",
       quick ? "cluster:alpha=8,beta=8,gamma=16"
             : "cluster:alpha=16,beta=16,gamma=32",
       "bucket:algo=local-search,retries=3",
       quick ? "synthetic:objects=24,k=6,rounds=1,gap=4"
             : "synthetic:objects=32,k=8,rounds=2,gap=4"},
      {"trials", "trial fan-out", "cluster:alpha=4,beta=4,gamma=8", "bucket",
       quick ? "synthetic:objects=16,k=2,rounds=2"
             : "synthetic:objects=32,k=2,rounds=8",
       quick ? 4 : 8},
  };

  std::cout << "### parallel — surfaces across a thread ladder, "
               "hardware_threads="
            << hw << (quick ? " (quick)" : "") << ", median of " << reps
            << "\n";
  std::cout << std::left << std::setw(14) << "row" << std::right
            << std::setw(9) << "threads" << std::setw(12) << "wall_s"
            << std::setw(10) << "speedup" << std::setw(13) << "fanned/acts"
            << std::setw(10) << "gate"
            << "\n";

  struct Series {
    const Row* row;
    std::int64_t txns = 0;
    std::uint64_t hash = 0;
    std::vector<Point> points;
  };
  std::vector<Series> series;
  for (const Row& row : rows) {
    Series s;
    s.row = &row;
    for (const std::int32_t t : ladder) {
      std::vector<Rep> runs;
      for (int k = 0; k < reps; ++k) {
        runs.push_back(run_rep(row, t));
        if (t == 1 && k == 0) {
          s.txns = runs.back().txns;
          s.hash = runs.back().hash;
        }
        // Byte-identity is the contract: any divergence aborts the bench.
        DTM_CHECK(runs.back().hash == s.hash,
                  "row " << row.name << ": hash at " << t
                         << " threads diverges from the 1-thread run");
      }
      std::sort(runs.begin(), runs.end(), [](const Rep& a, const Rep& b) {
        return a.seconds < b.seconds;
      });
      const Rep& mid = runs[runs.size() / 2];
      Point p;
      p.threads = t;
      p.seconds = mid.seconds;
      p.speedup = s.points.empty() ? 1.0
                                   : s.points.front().seconds /
                                         std::max(p.seconds, 1e-9);
      p.activations = mid.activations;
      p.fanouts = mid.fanouts;
      p.gate = gate_choice(row, mid, t);
      std::cout << std::left << std::setw(14) << row.name << std::right
                << std::setw(9) << t << std::setw(12) << std::fixed
                << std::setprecision(3) << p.seconds << std::setw(9)
                << std::setprecision(2) << p.speedup << "x" << std::setw(13)
                << (std::to_string(p.fanouts) + "/" +
                    std::to_string(p.activations))
                << std::setw(10) << p.gate << "\n";
      s.points.push_back(p);
    }
    series.push_back(std::move(s));
  }

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << std::fixed;
  f << "{\n  \"schema\": \"dtm-bench-parallel-v2\",\n";
  f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  f << "  \"hardware_threads\": " << hw << ",\n";
  f << "  \"reps\": " << reps << ",\n";
  f << "  \"metric\": \"median wall seconds of full validated runs; speedup "
       "against threads=1; result hash asserted identical across the "
       "ladder; fanouts/activations is the activation gate's choice\",\n";
  f << "  \"rows\": [\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    f << "    {\n";
    f << "      \"name\": \"" << s.row->name << "\",\n";
    f << "      \"surface\": \"" << s.row->surface << "\",\n";
    f << "      \"topology\": \"" << s.row->topology << "\",\n";
    f << "      \"scheduler\": \"" << s.row->scheduler << "\",\n";
    f << "      \"workload\": \"" << s.row->workload << "\",\n";
    f << "      \"trials\": " << s.row->trials << ",\n";
    f << "      \"txns\": " << s.txns << ",\n";
    f << "      \"hash\": \"0x" << std::hex << s.hash << std::dec << "\",\n";
    f << "      \"points\": [\n";
    for (std::size_t j = 0; j < s.points.size(); ++j) {
      const Point& p = s.points[j];
      f << "        {\"threads\": " << p.threads
        << ", \"seconds\": " << std::setprecision(6) << p.seconds
        << ", \"speedup\": " << std::setprecision(3) << p.speedup
        << ", \"activations\": " << p.activations
        << ", \"fanouts\": " << p.fanouts << ", \"gate\": \"" << p.gate
        << "\"}" << (j + 1 < s.points.size() ? "," : "") << "\n";
    }
    f << "      ]\n";
    f << "    }" << (i + 1 < series.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
