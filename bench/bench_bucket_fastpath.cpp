// Bucket-insertion fast path benchmark: the naive per-arrival level scan
// (rebuild + re-estimate from level 0, paper verbatim — the test-side
// reference in tests/oracle/naive_insertion.hpp) vs the incremental core
// (cached per-bucket problems, memoized F_A, level-search lower bound)
// on line / cluster / star topologies. Emits machine-readable
// BENCH_bucket_fastpath.json (schema dtm-bench-bucket-fastpath-v1; see
// docs/PERF.md §"Bucket fast path").
//
// The bench isolates the optimized subsystem: insertion-scan throughput
// (choose_level calls per second) against a realistic mid-window bucket
// state. Setup inserts piles of hot-object transactions through the real
// core — conflict chains that settle across the low levels exactly as they
// do mid-run — then times a stream of remote candidates whose single-txn
// lower bound sits above the piles. The naive scan rebuilds and re-runs A
// on every populated pile bucket for every candidate; the incremental scan
// starts at ceil(log2(LB)) and probes one cached bucket. Every candidate's
// chosen level is cross-checked between the two paths.
//
// Usage: bench_bucket_fastpath [--quick] [--out <path>]
//   --quick  smaller sizes for CI smoke runs
//   --out    JSON output path (default: BENCH_bucket_fastpath.json in cwd)
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "batch/bucket_insertion.hpp"
#include "net/topology.hpp"
#include "sim/cli.hpp"
#include "sim/engine.hpp"
#include "sim/registry.hpp"
#include "sim/workload.hpp"
#include "oracle/naive_insertion.hpp"

namespace {

using namespace dtm;

constexpr std::int32_t kTop = 14;

Transaction make_txn(TxnId id, NodeId node, ObjId obj) {
  Transaction t;
  t.id = id;
  t.node = node;
  t.gen_time = 0;
  t.accesses = write_set({obj});
  return t;
}

/// One benchmark scenario: hot objects whose conflict piles populate the
/// low bucket levels, plus remote candidates (own object, far away) whose
/// lower bound clears the piles.
struct Setup {
  std::string name;
  Network net;
  std::vector<ObjectOrigin> origins;
  std::vector<Transaction> pile;
  std::vector<Transaction> candidates;
};

Setup make_setup(const std::string& name, Network net,
                 std::vector<NodeId> hot_nodes, NodeId candidate_node,
                 std::int64_t pile_per_obj, std::int64_t num_candidates) {
  Setup s{name, std::move(net), {}, {}, {}};
  const auto num_hot = static_cast<ObjId>(hot_nodes.size());
  for (ObjId o = 0; o < num_hot; ++o)
    s.origins.push_back({o, hot_nodes[static_cast<std::size_t>(o)], 0});
  TxnId id = 0;
  // Hot piles: each transaction sits on its object's home node, so its own
  // lower bound is ~0 and the level it lands on is driven purely by the
  // conflict chain already in the bucket — the natural pile-up shape.
  for (std::int64_t i = 0; i < pile_per_obj; ++i)
    for (ObjId o = 0; o < num_hot; ++o)
      s.pile.push_back(
          make_txn(id++, hot_nodes[static_cast<std::size_t>(o)], o));
  // Remote candidates: each accesses its own object homed on a hot node,
  // from `candidate_node` across the network — LB is the full distance.
  for (std::int64_t j = 0; j < num_candidates; ++j) {
    const ObjId obj = num_hot + static_cast<ObjId>(j);
    s.origins.push_back(
        {obj, hot_nodes[static_cast<std::size_t>(j) % hot_nodes.size()], 0});
    s.candidates.push_back(make_txn(id++, candidate_node, obj));
  }
  return s;
}

struct PathResult {
  double seconds = 0.0;        ///< timed candidate-scan phase only
  std::int64_t scans = 0;      ///< candidate choose_level calls
  std::vector<std::int32_t> chosen;
  FastPathStats stats;
  [[nodiscard]] double steps_per_sec() const {
    return static_cast<double>(scans) / seconds;
  }
};

/// `naive`: insert and scan through the naive reference instead of the
/// incremental core.
PathResult run_path(const Setup& s, bool naive) {
  SyncEngine eng(s.net.oracle, s.origins, {});
  // The problem builder resolves member/candidate rows through the view, so
  // every transaction must be live: stage them all in one open step.
  std::vector<Transaction> all = s.pile;
  all.insert(all.end(), s.candidates.begin(), s.candidates.end());
  eng.begin_step(all);
  const auto algo = Registry::make_batch_algo("auto", s.net);
  BucketInsertionCore core(algo, 42);
  oracle::NaiveInsertion reference(algo, 42);
  std::vector<std::vector<TxnId>> buckets(kTop + 1);
  const ExtraAssignments extra;
  const auto levels = [&](std::int32_t i) {
    return BucketInsertionCore::LevelView{
        static_cast<BucketInsertionCore::BucketId>(i),
        buckets[static_cast<std::size_t>(i)]};
  };
  const auto choose = [&](const Transaction& t) {
    return naive ? reference.choose_level(eng, t, kTop, levels, extra)
                 : core.choose_level(eng, t, kTop, levels, extra);
  };

  // Untimed setup: insert the hot piles through the real insertion rule.
  for (const Transaction& t : s.pile) {
    const std::int32_t lvl = choose(t);
    buckets[static_cast<std::size_t>(lvl)].push_back(t.id);
    if (!naive) core.on_inserted(eng, lvl, t, extra);
  }

  // Timed: the candidate scans. Nothing is inserted, so every candidate
  // sees the identical bucket state — a pure measure of per-insertion scan
  // cost at that state.
  PathResult r;
  r.chosen.reserve(s.candidates.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (const Transaction& t : s.candidates) r.chosen.push_back(choose(t));
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.scans = static_cast<std::int64_t>(s.candidates.size());
  r.stats = naive ? reference.stats() : core.stats();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_bucket_fastpath.json";
  Cli cli("bench_bucket_fastpath",
          "naive vs incremental bucket-insertion scan throughput");
  cli.add_flag("quick", "smaller sizes for CI smoke runs", &quick);
  cli.add_value("out", "JSON output path (default BENCH_bucket_fastpath.json)",
                &out);
  if (!cli.parse(argc, argv)) return 0;

  const std::int64_t pile = quick ? 12 : 32;
  const std::int64_t cands = quick ? 2000 : 10000;
  std::vector<Setup> setups;
  // line(96): piles on the left end, candidates scanning from the right —
  // LB ~ 90 puts the incremental start at level 7, above every pile.
  setups.push_back(make_setup("line", make_line(96),
                              {0, 1, 2, 3, 4, 5, 6, 7}, 95, pile, cands));
  // cluster(4x8, gamma 256): piles in clique 0, candidates in clique 3 —
  // LB ~ 256 (inter-cluster), start level 9.
  setups.push_back(make_setup("cluster", make_cluster(4, 8, 256),
                              {0, 1, 2, 3, 4, 5, 6, 7}, 31, pile, cands));
  // star(8 rays x 24): piles around the hub, candidates at a far tip —
  // LB ~ 24-48, start level 5-6.
  setups.push_back(make_setup("star", make_star(8, 24),
                              {0, 1, 2, 3, 4, 5, 6, 7},
                              static_cast<NodeId>(8 * 24), pile, cands));

  std::cout << "### bucket_fastpath — naive vs incremental insertion scans ("
            << pile << " pile txns/object, " << cands << " candidates)\n";
  std::cout << std::left << std::setw(10) << "workload" << std::right
            << std::setw(12) << "naive st/s" << std::setw(12) << "incr st/s"
            << std::setw(10) << "speedup" << std::setw(12) << "n probes"
            << std::setw(12) << "i probes" << std::setw(10) << "skipped"
            << "\n";

  struct Row {
    Setup* s;
    PathResult naive, incr;
  };
  std::vector<Row> rows;
  for (auto& s : setups) {
    Row row{&s, run_path(s, /*naive=*/true), run_path(s, /*naive=*/false)};
    DTM_CHECK(row.naive.chosen == row.incr.chosen,
              "case " << s.name
                      << ": paths chose different levels for a candidate");
    const double speedup = row.incr.steps_per_sec() / row.naive.steps_per_sec();
    std::cout << std::left << std::setw(10) << s.name << std::right
              << std::setw(12) << std::fixed << std::setprecision(0)
              << row.naive.steps_per_sec() << std::setw(12)
              << row.incr.steps_per_sec() << std::setw(9)
              << std::setprecision(2) << speedup << "x" << std::setw(12)
              << row.naive.stats.probes << std::setw(12)
              << row.incr.stats.probes << std::setw(10)
              << row.incr.stats.levels_skipped << "\n";
    rows.push_back(std::move(row));
  }

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << std::fixed;
  f << "{\n  \"schema\": \"dtm-bench-bucket-fastpath-v1\",\n";
  f << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  f << "  \"metric\": \"insertion scans per second at a fixed mid-window "
       "bucket state\",\n";
  f << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& ns = r.naive.stats;
    const auto& is = r.incr.stats;
    f << "    {\n";
    f << "      \"name\": \"" << r.s->name << "\",\n";
    f << "      \"nodes\": " << r.s->net.num_nodes() << ",\n";
    f << "      \"pile_txns\": " << r.s->pile.size() << ",\n";
    f << "      \"insertion_scans\": " << r.naive.scans << ",\n";
    f << "      \"naive\": {\"seconds\": " << std::setprecision(6)
      << r.naive.seconds << ", \"steps_per_sec\": " << std::setprecision(1)
      << r.naive.steps_per_sec() << ", \"probes\": " << ns.probes
      << ", \"estimates\": " << ns.estimates
      << ", \"rebuilds\": " << ns.rebuilds << "},\n";
    f << "      \"incremental\": {\"seconds\": " << std::setprecision(6)
      << r.incr.seconds << ", \"steps_per_sec\": " << std::setprecision(1)
      << r.incr.steps_per_sec() << ", \"probes\": " << is.probes
      << ", \"estimates\": " << is.estimates
      << ", \"memo_hits\": " << is.memo_hits
      << ", \"levels_skipped\": " << is.levels_skipped
      << ", \"rebuilds\": " << is.rebuilds
      << ", \"appends\": " << is.appends << "},\n";
    f << "      \"speedup\": " << std::setprecision(2)
      << r.incr.steps_per_sec() / r.naive.steps_per_sec() << "\n";
    f << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
