// Service saturation harness: `dtm_sim serve`'s loop under an offered-
// load ladder. Each point runs a DtmServer (synthetic source -> admission
// -> dist-bucket engine) at a fixed offered rate until the duration horizon
// and drains to quiescence, recording sustained throughput, latency
// percentiles (p50/p95/p99/p999 from the incremental histogram), and the
// shed rate the admission gate pays to stay stable. The ladder crosses
// 2 topologies x {null, chaos} fault plans, so the curves show both where
// the scheduler saturates and what chaos does to the saturation point.
// Emits machine-readable BENCH_serve.json (schema dtm-bench-serve-v1; see
// docs/EXPERIMENTS.md).
//
// Every point asserts the serve-mode zero-loss invariant (admitted ==
// commits at quiescence), so the bench doubles as a soak test for the
// service loop.
//
// Usage: bench_serve [--quick] [--out <path>] [--seed N]
//   --quick   one topology, two rates per fault plan (CI smoke)
//   --out     JSON output path (default: BENCH_serve.json in the cwd)
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "util/json.hpp"

namespace {

using namespace dtm;

struct Point {
  std::string topo;
  std::string fault;
  double rate = 0.0;
  ServeReport r;
};

ServeReport run_point(const Network& net, const std::string& topology,
                      const std::string& fault, double rate, Time duration,
                      std::uint64_t seed, std::int32_t threads) {
  RunSpec spec;
  spec.topology = parse_spec(topology);
  spec.scheduler = parse_spec("dist-bucket");
  spec.threads = threads;
  if (!fault.empty()) spec.fault = parse_spec(fault);
  std::ostringstream serve;
  serve << "serve:rate=" << rate << ",duration=" << duration
        << ",window=256,max-inflight=96,k=2,zipf=0.8";
  spec.serve = parse_spec(serve.str());
  spec.seed = seed;
  ServeReport r = make_server(net, spec)->run();
  // The service-mode guarantee the curves rest on: admission may shed, but
  // nothing admitted is ever lost, even mid-chaos.
  DTM_CHECK(r.admitted == r.commits,
            "serve bench lost transactions: admitted " << r.admitted
                                                       << " commits "
                                                       << r.commits);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_serve.json";
  Cli cli("bench_serve",
          "service-mode saturation: throughput and latency percentiles vs "
          "offered load, with and without chaos");
  cli.add_flag("quick", "one topology, two rates per fault plan (CI smoke)",
               &quick);
  cli.add_value("out", "JSON output path (default BENCH_serve.json)", &out);
  if (!cli.parse(argc, argv)) return 0;
  const std::uint64_t seed = cli.seed(2026);
  const std::int32_t threads = cli.threads(1);
  const Time duration = quick ? 512 : 4096;

  struct Topo {
    std::string name;
    Network net;
  };
  std::vector<Topo> topos;
  topos.push_back({"line:n=12", make_line(12)});
  if (!quick)
    topos.push_back({"cluster:alpha=2,beta=3,gamma=4", make_cluster(2, 3, 4)});

  const std::vector<std::pair<std::string, std::string>> faults = {
      {"none", ""},
      {"chaos", "fault:drop=0.1,jitter=2,stall=0.1"},
  };
  // The low rungs sit below the dist-bucket schedulers' sustained capacity
  // (~0.3-0.5 commits/step on these topologies at lf=2), so the curves show
  // the knee: near-zero shed and flat latency below it, then throughput
  // saturating and shed absorbing the rest above it.
  const std::vector<double> rates =
      quick ? std::vector<double>{0.25, 2.0}
            : std::vector<double>{0.125, 0.25, 0.5, 1.0, 2.0, 4.0};

  std::vector<Point> points;
  for (const Topo& t : topos) {
    for (const auto& [fault_name, fault_spec] : faults) {
      std::cout << "### serve — " << t.name << " / " << fault_name
                << " (duration " << duration << ", seed " << seed << ")\n";
      std::cout << std::left << std::setw(7) << "rate" << std::right
                << std::setw(10) << "offered" << std::setw(10) << "commits"
                << std::setw(9) << "shed%" << std::setw(9) << "thruput"
                << std::setw(7) << "p50" << std::setw(7) << "p95"
                << std::setw(7) << "p99" << std::setw(8) << "p999"
                << "\n";
      for (const double rate : rates) {
        Point p{t.name, fault_name, rate,
                run_point(t.net, t.name, fault_spec, rate, duration, seed,
                          threads)};
        const auto& r = p.r;
        const double shed_rate =
            r.offered > 0 ? static_cast<double>(r.shed) /
                                static_cast<double>(r.offered)
                          : 0.0;
        const double throughput =
            r.end_time > 0 ? static_cast<double>(r.commits) /
                                 static_cast<double>(r.end_time)
                           : 0.0;
        std::cout << std::left << std::fixed << std::setprecision(1)
                  << std::setw(7) << rate << std::right << std::setw(10)
                  << r.offered << std::setw(10) << r.commits
                  << std::setw(8) << std::setprecision(1) << shed_rate * 100.0
                  << "%" << std::setw(9) << std::setprecision(2) << throughput
                  << std::setw(7) << r.latency.quantile(0.5) << std::setw(7)
                  << r.latency.quantile(0.95) << std::setw(7)
                  << r.latency.quantile(0.99) << std::setw(8)
                  << r.latency.quantile(0.999) << "\n";
        points.push_back(std::move(p));
      }
      std::cout << "\n";
    }
  }

  Json::Array arr;
  for (const Point& p : points) {
    const ServeReport& r = p.r;
    Json::Object o;
    o.emplace("topology", Json(p.topo));
    o.emplace("fault", Json(p.fault));
    o.emplace("offered_rate", Json(p.rate));
    o.emplace("offered", Json(r.offered));
    o.emplace("admitted", Json(r.admitted));
    o.emplace("shed", Json(r.shed));
    o.emplace("shed_rate",
              Json(r.offered > 0 ? static_cast<double>(r.shed) /
                                       static_cast<double>(r.offered)
                                 : 0.0));
    o.emplace("commits", Json(r.commits));
    o.emplace("end_time", Json(r.end_time));
    o.emplace("throughput",
              Json(r.end_time > 0 ? static_cast<double>(r.commits) /
                                        static_cast<double>(r.end_time)
                                  : 0.0));
    o.emplace("p50", Json(r.latency.quantile(0.5)));
    o.emplace("p95", Json(r.latency.quantile(0.95)));
    o.emplace("p99", Json(r.latency.quantile(0.99)));
    o.emplace("p999", Json(r.latency.quantile(0.999)));
    o.emplace("latency_max", Json(r.latency.max()));
    o.emplace("windows", Json(r.windows));
    o.emplace("peak_committed_log", Json(r.peak_committed_log));
    arr.emplace_back(std::move(o));
  }
  Json::Object root;
  root.emplace("schema", Json("dtm-bench-serve-v1"));
  root.emplace("quick", Json(quick));
  root.emplace("seed", Json(static_cast<std::int64_t>(seed)));
  root.emplace("duration", Json(duration));
  root.emplace("scheduler", Json("dist-bucket"));
  root.emplace("points", Json(std::move(arr)));

  std::ofstream f(out);
  DTM_CHECK(f.good(), "cannot open " << out << " for writing");
  f << Json(std::move(root)).dump(2) << "\n";
  std::cout << "wrote " << out << "\n";
  return 0;
}
