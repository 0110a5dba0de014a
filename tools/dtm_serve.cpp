// dtm_serve — run any registry-selected scheduler as a long-lived service.
//
// Where example_dtm_sim runs a closed workload to completion and reports
// afterwards, dtm_serve keeps a DtmServer alive: a rate-paced (or trace-
// replay) source offers transactions, admission control sheds or queues
// them, and latency/throughput/shed-rate metrics stream out per window
// while the run is still going. The simulation itself stays deterministic
// in simulated time; this binary adds the wall-clock skin — pacing,
// signals, metrics dumps, and a line-oriented control socket.
//
//   $ ./dtm_serve --topology cluster:alpha=3,beta=4,gamma=8
//         --scheduler dist-bucket --fault fault:drop=0.05
//         --serve serve:rate=6,duration=8192,admit-rate=8,window=256
//         (one line)
//   $ ./dtm_serve --spec service.json --socket /tmp/dtm.sock --pace 2000
//
// Control socket commands (one per line):
//   stats            one JSON metrics snapshot
//   fault <spec>     live fault toggle, e.g. fault:drop=0.2 or none
//   drain            stop admitting, run to quiescence, exit with report
//   quit             same as drain
//
// Signals: SIGINT/SIGTERM request a graceful drain (second one aborts);
// SIGUSR1 dumps a metrics snapshot to stderr.
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/control.hpp"
#include "serve/server.hpp"
#include "sim/cli.hpp"
#include "sim/registry.hpp"
#include "util/json.hpp"

namespace {

using namespace dtm;

volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_snapshot = 0;

void on_terminate(int) {
  if (g_drain != 0) std::_Exit(130);  // second signal: hard exit
  g_drain = 1;
}
void on_usr1(int) { g_snapshot = 1; }

std::string control_command(DtmServer& server, const std::string& line,
                            bool& quit) {
  std::istringstream is(line);
  std::string cmd;
  is >> cmd;
  try {
    if (cmd == "stats") return server.snapshot().dump();
    if (cmd == "fault") {
      std::string spec;
      is >> spec;
      DTM_REQUIRE(!spec.empty(), "fault needs a plan spec (or 'none')");
      server.set_fault(Registry::make_fault_plan(parse_spec(spec)));
      return "ok fault " + spec;
    }
    if (cmd == "drain" || cmd == "quit") {
      server.request_drain();
      quit = quit || cmd == "quit";
      return "ok draining";
    }
    return "err unknown command '" + cmd +
           "' (stats | fault <spec> | drain | quit)";
  } catch (const CheckError& e) {
    return std::string("err ") + e.what();
  }
}

}  // namespace

int main(int argc, char** argv) {
  SpecFlags flags;
  std::string socket_path, metrics_out, report_out, pace;
  bool dump_spec = false, print_windows = false;

  Cli cli("dtm_serve",
          "long-running DTM scheduling service with admission control, "
          "latency SLOs, and live observability");
  cli.add_value("spec", "JSON RunSpec file (flags below override it)",
                &flags.spec);
  cli.add_value("topology", "topology spec (see --list)", &flags.topology);
  cli.add_value("scheduler", "scheduler spec (see --list)", &flags.scheduler);
  cli.add_value("fault", "fault plan armed at startup (default none)",
                &flags.fault);
  cli.add_value("serve",
                "service shape, e.g. serve:rate=6,duration=8192,admit-rate=8",
                &flags.serve);
  cli.add_value("lf", "latency factor (steps per unit distance)", &flags.lf);
  cli.add_value("socket", "AF_UNIX control socket path (stats/fault/drain)",
                &socket_path);
  cli.add_value("pace",
                "simulated steps per wall-clock second (0 = unpaced)", &pace);
  cli.add_value("metrics-out",
                "append one JSON metrics snapshot per window to this file",
                &metrics_out);
  cli.add_value("report", "write the final ServeReport JSON here (default "
                "stdout)",
                &report_out);
  cli.add_flag("windows", "print one summary line per closed window",
               &print_windows);
  cli.add_flag("dump-spec", "print the resolved RunSpec as JSON and exit",
               &dump_spec);

  try {
    if (!cli.parse(argc, argv)) return 0;

    const RunSpec spec = resolve_spec(flags, cli);

    if (dump_spec) {
      std::cout << spec.to_json().dump(2) << "\n";
      return 0;
    }

    const double pace_hz =
        pace.empty() ? 0.0 : cli.number<double>("--pace", pace);
    DTM_REQUIRE(pace_hz >= 0.0, "--pace must be >= 0");

    std::ofstream metrics_file;
    if (!metrics_out.empty()) {
      metrics_file.open(metrics_out, std::ios::app);
      DTM_REQUIRE(metrics_file.good(),
                  "cannot open metrics file '" << metrics_out << "'");
    }

    const Network net = Registry::make_network(spec.topology);
    DtmServer::Hooks hooks;
    if (print_windows) {
      hooks.on_window = [](const ServeWindow& w) {
        std::cout << "window [" << w.start << "," << w.end << ") offered="
                  << w.offered << " admitted=" << w.admitted
                  << " shed=" << w.shed << " commits=" << w.commits
                  << " p50=" << w.p50 << " p99=" << w.p99
                  << " p999=" << w.p999
                  << (w.slo_violated ? " SLO-VIOLATED" : "") << "\n";
      };
    }
    auto server = make_server(net, spec, std::move(hooks));

    std::unique_ptr<ControlEndpoint> control;
    if (!socket_path.empty())
      control = std::make_unique<ControlEndpoint>(socket_path);

    std::signal(SIGINT, on_terminate);
    std::signal(SIGTERM, on_terminate);
    std::signal(SIGUSR1, on_usr1);

    // The serve spec's window length is the natural control granularity:
    // pump one window, then look at the outside world (signals, socket,
    // pacing). Everything inside pump() stays simulated-time exact.
    const Time chunk = Registry::make_serve_config(spec.serve,
                                                   spec.seed).window;
    const auto wall_start = std::chrono::steady_clock::now();
    bool quit_requested = false;
    Time horizon = chunk;
    while (true) {
      const bool alive = server->pump(horizon);

      if (g_snapshot != 0) {
        g_snapshot = 0;
        std::cerr << server->snapshot().dump() << "\n";
      }
      if (metrics_file.is_open()) {
        metrics_file << server->snapshot().dump() << "\n";
        metrics_file.flush();
      }
      if (control) {
        (void)control->poll([&](const std::string& line) {
          return control_command(*server, line, quit_requested);
        });
      }
      if (g_drain != 0) server->request_drain();
      if (!alive) break;

      if (pace_hz > 0.0) {
        const auto target =
            wall_start + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(server->now()) /
                                 pace_hz));
        std::this_thread::sleep_until(target);
      }
      horizon = server->now() + chunk;
    }

    const ServeReport report = server->report();
    const std::string out = report.to_json().dump(2);
    if (report_out.empty()) {
      std::cout << out << "\n";
    } else {
      std::ofstream f(report_out);
      DTM_REQUIRE(f.good(), "cannot open report file '" << report_out << "'");
      f << out << "\n";
    }
    return 0;
  } catch (const CheckError& e) {
    std::cerr << "dtm_serve: " << e.what() << "\n";
    return 1;
  }
}
