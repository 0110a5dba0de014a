// dtm_stream — memory-bounded streaming runs from the command line.
//
// Where dtm_serve keeps a service alive under wall-clock pacing,
// dtm_stream drives a StreamSource (zipf-hotspot / diurnal / MMPP-bursty /
// (rho,b)-adversarial arrivals) through the engine to a committed-
// transaction target with every per-transaction structure bounded: the
// committed log drains on a cadence, the execution calendar is the ring
// wheel, and competitive-ratio estimates are windowed and freed as windows
// retire. The final StreamReport JSON carries the bounded-memory evidence
// (peak log / calendar / live-set / window residency) next to the
// throughput and windowed-ratio numbers.
//
//   $ ./dtm_stream --topology clique:n=64 --scheduler greedy
//         --stream stream:profile=adversary,rate=2,burst=32,target=200000
//   $ ./dtm_stream --topology random:n=50000,extra=100000,routing=landmark
//         --scheduler greedy --stream stream:target=1000000,rate=8
//   (each command on one line)
#include <fstream>
#include <iostream>
#include <string>

#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "stream/stream_runner.hpp"
#include "util/json.hpp"

using namespace dtm;

int main(int argc, char** argv) {
  SpecFlags flags;
  std::string report_out;
  bool dump_spec = false;

  Cli cli("dtm_stream",
          "memory-bounded streaming runs: adversarial arrival profiles, "
          "drained commit log, windowed competitive-ratio estimates");
  cli.add_value("spec", "JSON RunSpec file (flags below override it)",
                &flags.spec);
  cli.add_value("topology", "topology spec (see --list)", &flags.topology);
  cli.add_value("scheduler", "scheduler spec (see --list)", &flags.scheduler);
  cli.add_value("fault", "fault plan armed at startup (default none)",
                &flags.fault);
  cli.add_value("stream",
                "run shape, e.g. stream:profile=mmpp,rate=4,target=100000",
                &flags.stream);
  cli.add_value("lf", "latency factor (steps per unit distance)", &flags.lf);
  cli.add_value("report", "write the final StreamReport JSON here (default "
                "stdout)",
                &report_out);
  cli.add_flag("dump-spec", "print the resolved RunSpec as JSON and exit",
               &dump_spec);

  try {
    if (!cli.parse(argc, argv)) return 0;

    const RunSpec spec = resolve_spec(flags, cli);

    if (dump_spec) {
      std::cout << spec.to_json().dump(2) << "\n";
      return 0;
    }

    const Network net = Registry::make_network(spec.topology);
    const StreamReport report = make_stream_runner(net, spec)->run();

    const std::string out = report.to_json().dump(2);
    if (report_out.empty()) {
      std::cout << out << "\n";
    } else {
      std::ofstream f(report_out);
      DTM_REQUIRE(f.good(), "cannot open report file '" << report_out
                                                        << "'");
      f << out << "\n";
    }
    return 0;
  } catch (const CheckError& e) {
    std::cerr << "dtm_stream: " << e.what() << "\n";
    return 1;
  }
}
