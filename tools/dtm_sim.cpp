// dtm_sim — runs a RunSpec end to end; the first argument picks the mode:
//
//   run     a closed workload to completion, validated, as a metrics table
//           (--trials N averages seeds; a single run can save its instance
//           and schedule, sim/io.hpp)
//   serve   a long-lived DtmServer (admission control, per-window metrics)
//           under a wall-clock skin: pacing, signals, metrics dumps and a
//           control socket around a simulated-time-exact run
//   stream  a StreamRunner to a commit target with every per-transaction
//           structure bounded; its StreamReport carries that evidence
//
// Every mode resolves its RunSpec through resolve_spec (sim/cli.hpp) and
// builds the fault plan and its serve:/stream: config before --dump-spec.
//
//   $ ./dtm_sim run --topology line:n=128 --scheduler bucket --seed 7
//   $ ./dtm_sim serve --spec service.json --socket /tmp/dtm.sock --pace 2000
//   $ ./dtm_sim stream --topology clique:n=64 --scheduler greedy
//         --stream stream:profile=adversary,rate=2,burst=32,target=200000
//   $ ./dtm_sim --list                       # what can be named
//
// serve's socket takes one command per line: `stats` (a JSON metrics
// snapshot), `fault <spec>` (e.g. fault:drop=0.2 or none), and `drain` or
// `quit` (stop admitting, run to quiescence, exit with the report).
// SIGINT/SIGTERM drain too (a second one aborts); SIGUSR1 dumps a metrics
// snapshot to stderr.
#include <chrono>
#include <csignal>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "serve/control.hpp"
#include "serve/server.hpp"
#include "sim/cli.hpp"
#include "sim/io.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "stream/stream_runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace dtm;

enum class Mode { kRun, kServe, kStream };

struct ModeInfo {
  Mode mode;
  const char* name;
  const char* about;
};

constexpr ModeInfo kModes[] = {
    {Mode::kRun, "run", "run one DTM scheduling experiment from a RunSpec"},
    {Mode::kServe, "serve",
     "long-running DTM scheduling service with admission control, latency "
     "SLOs, and live observability"},
    {Mode::kStream, "stream",
     "memory-bounded streaming runs: adversarial arrival profiles, drained "
     "commit log, windowed competitive-ratio estimates"},
};

/// Every mode's flag targets; each mode registers only its own flags.
struct Flags {
  SpecFlags spec;
  bool dump_spec = false;
  bool csv = false;                          // run
  std::string save_instance, save_schedule;  // run
  std::string socket, pace, metrics_out;     // serve
  bool windows = false;                      // serve
  std::string report;                        // serve, stream
};

void register_flags(Mode mode, Cli& cli, Flags& f) {
  cli.add_value("spec", "JSON RunSpec file (flags below override it)",
                &f.spec.spec);
  cli.add_value("topology",
                "topology spec, e.g. cluster:alpha=3,beta=4,gamma=8",
                &f.spec.topology);
  cli.add_value("scheduler", "scheduler spec, e.g. bucket:algo=cluster",
                &f.spec.scheduler);
  cli.add_value("fault",
                "fault plan, e.g. fault:drop=0.1,jitter=2 (default none)",
                &f.spec.fault);
  cli.add_value("lf", "latency factor (steps per unit distance)",
                &f.spec.lf);
  cli.add_flag("dump-spec", "print the resolved RunSpec as JSON and exit",
               &f.dump_spec);
  switch (mode) {
    case Mode::kRun:
      cli.add_value("workload", "workload spec, e.g. synthetic:objects=64,k=2",
                    &f.spec.workload);
      cli.add_value("window", "Definition-1 ratio window, 0 = off",
                    &f.spec.window);
      cli.add_flag("csv", "emit CSV instead of an aligned table", &f.csv);
      cli.add_value("save-instance",
                    "dump the generated instance (dtm-instance v1)",
                    &f.save_instance);
      cli.add_value("save-schedule",
                    "dump the committed schedule (dtm-schedule v1)",
                    &f.save_schedule);
      return;
    case Mode::kServe:
      cli.add_value(
          "serve",
          "service shape, e.g. serve:rate=6,duration=8192,admit-rate=8",
          &f.spec.serve);
      cli.add_value("socket", "AF_UNIX control socket path (stats/fault/drain)",
                    &f.socket);
      cli.add_value("pace",
                    "simulated steps per wall-clock second (0 = unpaced)",
                    &f.pace);
      cli.add_value("metrics-out",
                    "append one JSON metrics snapshot per window to this file",
                    &f.metrics_out);
      cli.add_value("report",
                    "write the final ServeReport JSON here (default stdout)",
                    &f.report);
      cli.add_flag("windows", "print one summary line per closed window",
                   &f.windows);
      return;
    case Mode::kStream:
      cli.add_value("stream",
                    "run shape, e.g. stream:profile=mmpp,rate=4,target=100000",
                    &f.spec.stream);
      cli.add_value("report",
                    "write the final StreamReport JSON here (default stdout)",
                    &f.report);
      return;
  }
}

/// The RunSpec `mode` runs. Its fault plan and its serve:/stream: config
/// are built here once, so a bad knob fails before --dump-spec prints.
RunSpec resolve_checked(Mode mode, const Flags& f, const Cli& cli) {
  const RunSpec spec = resolve_spec(f.spec, cli);
  (void)Registry::make_fault_plan(spec.fault, spec.seed);
  if (mode == Mode::kServe)
    (void)Registry::make_serve_config(spec.serve, spec.seed);
  if (mode == Mode::kStream)
    (void)Registry::make_stream_config(spec.stream, spec.seed);
  return spec;
}

/// A final report as indented JSON: to `path`, or stdout when it is empty.
void write_report(const Json& report, const std::string& path) {
  const std::string out = report.dump(2);
  if (path.empty()) {
    std::cout << out << "\n";
    return;
  }
  std::ofstream f(path);
  DTM_REQUIRE(f.good(), "cannot open report file '" << path << "'");
  f << out << "\n";
}

void print_table(const Table& t, bool csv, const char* title) {
  if (csv)
    t.print_csv(std::cout);
  else
    t.print(std::cout, title);
}

void run(const RunSpec& spec, const Flags& f) {
  if (spec.trials > 1) {
    DTM_REQUIRE(f.save_instance.empty() && f.save_schedule.empty(),
                "--save-instance/--save-schedule need a single run "
                "(--trials 1)");
    const TrialSummary s = run_spec_trials(spec);
    Table t({"network", "scheduler", "trials", "txns", "makespan",
             "mean_latency", "LB", "ratio", "windowed_ratio"});
    t.row()
        .add(to_string(spec.topology))
        .add(to_string(spec.scheduler))
        .add(spec.trials)
        .add(s.txns)
        .add(s.makespan)
        .add(s.mean_latency)
        .add(s.lb)
        .add(s.ratio)
        .add(s.windowed_ratio);
    print_table(t, f.csv, "dtm_sim (averaged)");
    return;
  }

  // Single validated run; keep the schedule for the save-* artifacts.
  const Network net = Registry::make_network(spec.topology);
  auto wl = Registry::make_workload(spec.workload, net, spec.seed);
  const FaultPlan plan = Registry::make_fault_plan(spec.fault, spec.seed);
  auto sched =
      Registry::make_scheduler(spec.scheduler, net, &plan, spec.threads);
  RunOptions ropts;
  ropts.engine = spec.engine_options(plan);
  ropts.ratio_window = spec.ratio_window;
  ropts.validate = spec.validate;
  const RunResult r = run_experiment(net, *wl, *sched, ropts);

  if (!f.save_instance.empty()) {
    Instance inst;
    inst.origins = r.origins;
    inst.txns = wl->generated();
    save_instance_file(f.save_instance, inst);
    std::cerr << "instance written to " << f.save_instance << "\n";
  }
  if (!f.save_schedule.empty()) {
    save_schedule_file(f.save_schedule, r.committed);
    std::cerr << "schedule written to " << f.save_schedule << "\n";
  }
  Table t({"network", "scheduler", "txns", "makespan", "mean_latency",
           "max_latency", "LB", "ratio", "windowed_ratio"});
  t.row()
      .add(r.network)
      .add(r.scheduler)
      .add(r.num_txns)
      .add(r.makespan)
      .add(r.latency.mean())
      .add(r.latency.max())
      .add(r.lb.best())
      .add(r.ratio)
      .add(r.windowed_ratio);
  print_table(t, f.csv, "dtm_sim");
}

volatile std::sig_atomic_t g_drain = 0;
volatile std::sig_atomic_t g_snapshot = 0;

void on_terminate(int) {
  if (g_drain != 0) std::_Exit(130);  // second signal: hard exit
  g_drain = 1;
}
void on_usr1(int) { g_snapshot = 1; }

std::string control_command(DtmServer& server, const std::string& line) {
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
      return "ok draining";
    }
    return "err unknown command '" + cmd +
           "' (stats | fault <spec> | drain | quit)";
  } catch (const CheckError& e) {
    return std::string("err ") + e.what();
  }
}

void serve(const RunSpec& spec, const Flags& f, const Cli& cli) {
  const double pace_hz =
      f.pace.empty() ? 0.0 : cli.number<double>("--pace", f.pace);
  DTM_REQUIRE(pace_hz >= 0.0, "--pace must be >= 0");

  std::ofstream metrics_file;
  if (!f.metrics_out.empty()) {
    metrics_file.open(f.metrics_out, std::ios::app);
    DTM_REQUIRE(metrics_file.good(),
                "cannot open metrics file '" << f.metrics_out << "'");
  }

  const Network net = Registry::make_network(spec.topology);
  DtmServer::Hooks hooks;
  if (f.windows) {
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
  if (!f.socket.empty()) control = std::make_unique<ControlEndpoint>(f.socket);

  std::signal(SIGINT, on_terminate);
  std::signal(SIGTERM, on_terminate);
  std::signal(SIGUSR1, on_usr1);

  // The serve spec's window length is the natural control granularity:
  // pump one window, then look at the outside world (signals, socket,
  // pacing). Everything inside pump() stays simulated-time exact.
  const Time chunk = Registry::make_serve_config(spec.serve, spec.seed).window;
  const auto wall_start = std::chrono::steady_clock::now();
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
        return control_command(*server, line);
      });
    }
    if (g_drain != 0) server->request_drain();
    if (!alive) break;

    if (pace_hz > 0.0) {
      const auto target =
          wall_start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(
                  static_cast<double>(server->now()) / pace_hz));
      std::this_thread::sleep_until(target);
    }
    horizon = server->now() + chunk;
  }
  write_report(server->report().to_json(), f.report);
}

void stream(const RunSpec& spec, const Flags& f) {
  const Network net = Registry::make_network(spec.topology);
  write_report(make_stream_runner(net, spec)->run().to_json(), f.report);
}

void print_modes() {
  std::cout << "dtm_sim — run DTM scheduling experiments from a RunSpec\n\n"
               "usage: dtm_sim run|serve|stream [flags]  (dtm_sim MODE "
               "--help lists a mode's flags)\n";
  for (const ModeInfo& m : kModes)
    std::cout << "  " << std::left << std::setw(8) << m.name << m.about
              << "\n";
  std::cout << "  --list  enumerate registered components\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string first = argc > 1 ? argv[1] : "";
  if (first == "--help" || first == "-h") {
    print_modes();
    return 0;
  }
  if (first == "--list") {
    Cli::print_registry();
    return 0;
  }
  const ModeInfo* mode = nullptr;
  for (const ModeInfo& m : kModes)
    if (first == m.name) mode = &m;
  if (mode == nullptr) {
    std::cerr << "dtm_sim: "
              << (first.empty() ? std::string("no mode given")
                                : "unknown mode '" + first + "'")
              << " (run | serve | stream)\n";
    return 1;
  }

  const std::string program = std::string("dtm_sim ") + mode->name;
  Cli cli(program, mode->about);
  Flags f;
  register_flags(mode->mode, cli, f);
  try {
    if (!cli.parse(argc - 1, argv + 1)) return 0;
    const RunSpec spec = resolve_checked(mode->mode, f, cli);
    if (f.dump_spec) {
      std::cout << spec.to_json().dump(2) << "\n";
      return 0;
    }
    switch (mode->mode) {
      case Mode::kRun:
        run(spec, f);
        break;
      case Mode::kServe:
        serve(spec, f, cli);
        break;
      case Mode::kStream:
        stream(spec, f);
        break;
    }
    return 0;
  } catch (const std::exception& e) {
    // Cli's own errors already name the program.
    const std::string what = e.what();
    std::cerr << (what.rfind(program + ": ", 0) == 0 ? "" : program + ": ")
              << what << "\n";
    return 1;
  }
}
