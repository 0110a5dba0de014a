#include "sim/trials.hpp"

#include <algorithm>

#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dtm {

TrialSummary run_seeded_trials(const Network& net, const SyntheticOptions& wopts,
                        const SchedulerFactory& make_scheduler,
                        const TrialOptions& opts) {
  // Trials are fully independent (seed + t * 7919 each), so they fan out
  // across the pool; folding the per-trial results in index order afterwards
  // makes the summary byte-identical to the serial loop at any thread count.
  const auto run_one = [&](std::int64_t t) {
    SyntheticOptions o = wopts;
    o.seed = wopts.seed + static_cast<std::uint64_t>(t) * 7919;
    SyntheticWorkload wl(net, o);
    auto sched = make_scheduler();
    RunOptions ropts;
    ropts.engine.latency_factor = opts.latency_factor;
    // Engine-level parallelism composes: with one trial it gets the pool to
    // itself; with many, nested run() calls degrade to inline serial.
    ropts.engine.threads = opts.threads;
    ropts.ratio_window = opts.ratio_window;
    ropts.collect_schedule = false;  // summaries only — skip the copy
    return run_experiment(net, wl, *sched, ropts);
  };
  return summarize(parallel_map<RunResult>(opts.trials, run_one,
                                           resolve_threads(opts.threads)));
}

TrialSummary summarize(std::span<const RunResult> runs) {
  OnlineStats ratio, mk, lat, lb, wr;
  std::int64_t txns = 0;
  for (const RunResult& r : runs) {
    ratio.add(r.ratio);
    mk.add(static_cast<double>(r.makespan));
    lat.add(r.latency.mean());
    lb.add(static_cast<double>(r.lb.best()));
    wr.add(r.windowed_ratio);
    txns = r.num_txns;
  }
  return {ratio.mean(), mk.mean(), lat.mean(), lb.mean(), txns, wr.mean()};
}

std::vector<Network> small_networks() {
  Rng rng(7);
  std::vector<Network> nets;
  nets.push_back(make_clique(8));
  nets.push_back(make_line(12));
  nets.push_back(make_ring(9));
  nets.push_back(make_grid({3, 4}));
  nets.push_back(make_hypercube(3));
  nets.push_back(make_butterfly(2));
  nets.push_back(make_star(3, 3));
  nets.push_back(make_cluster(3, 3, 4));
  nets.push_back(make_torus({3, 3}));
  nets.push_back(make_random_connected(10, 12, 3, rng));
  return nets;
}

Network random_topology(Rng& rng) {
  switch (rng.uniform_int(0, 9)) {
    case 0: return make_clique(static_cast<NodeId>(rng.uniform_int(2, 24)));
    case 1: return make_line(static_cast<NodeId>(rng.uniform_int(2, 40)));
    case 2: return make_ring(static_cast<NodeId>(rng.uniform_int(3, 30)));
    case 3:
      return make_grid({static_cast<NodeId>(rng.uniform_int(2, 6)),
                        static_cast<NodeId>(rng.uniform_int(2, 6))});
    case 4: return make_hypercube(static_cast<int>(rng.uniform_int(1, 5)));
    case 5: return make_butterfly(static_cast<int>(rng.uniform_int(1, 3)));
    case 6:
      return make_star(static_cast<NodeId>(rng.uniform_int(1, 6)),
                       static_cast<NodeId>(rng.uniform_int(1, 6)));
    case 7: {
      const auto beta = static_cast<NodeId>(rng.uniform_int(1, 5));
      return make_cluster(static_cast<NodeId>(rng.uniform_int(1, 5)), beta,
                          beta + rng.uniform_int(0, 6));
    }
    case 8:
      return make_tree(static_cast<NodeId>(rng.uniform_int(2, 3)),
                       static_cast<NodeId>(rng.uniform_int(1, 4)));
    default: {
      const auto n = static_cast<NodeId>(rng.uniform_int(2, 30));
      return make_random_connected(n, rng.uniform_int(0, 2 * n), 4, rng);
    }
  }
}

SyntheticOptions random_workload(const Network& net, Rng& rng) {
  SyntheticOptions w;
  w.num_objects = static_cast<std::int32_t>(
      rng.uniform_int(1, std::max<NodeId>(net.num_nodes(), 2)));
  w.k = static_cast<std::int32_t>(
      rng.uniform_int(1, std::min<std::int32_t>(3, w.num_objects)));
  w.rounds = static_cast<std::int32_t>(rng.uniform_int(1, 3));
  w.zipf_s = rng.bernoulli(0.5) ? rng.uniform01() * 1.5 : 0.0;
  w.arrival_prob = rng.bernoulli(0.3) ? 0.2 : 0.0;
  w.node_participation = rng.bernoulli(0.3) ? 0.5 : 1.0;
  w.seed = rng();
  return w;
}

RunResult run_and_validate(const Network& net, Workload& wl,
                           OnlineScheduler& sched,
                           std::int64_t latency_factor) {
  RunOptions opts;
  opts.engine.latency_factor = latency_factor;
  opts.validate = true;
  return run_experiment(net, wl, sched, opts);
}

}  // namespace dtm
