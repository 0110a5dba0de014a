// dtm_sim — command-line experiment runner over RunSpecs.
//
// Runs one (topology, scheduler, workload) configuration end-to-end with
// full validation and prints the metrics table; the quickest way to poke
// at the library without writing code. Every component is named through
// the registry, so anything registered there is reachable from here.
//
//   $ ./example_dtm_sim --topology line:n=128 --scheduler bucket
//         --workload synthetic:objects=64,k=2,rounds=3 --seed 7   (one line)
//   $ ./example_dtm_sim --spec run.json --trials 5
//   $ ./example_dtm_sim --dump-spec            # print the resolved spec
//   $ ./example_dtm_sim --list                 # what can be named
#include <iostream>
#include <string>

#include "sim/cli.hpp"
#include "sim/io.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace dtm;

int main(int argc, char** argv) {
  SpecFlags flags;
  std::string save_instance, save_schedule;
  bool csv = false, dump_spec = false;

  Cli cli("dtm_sim", "run one DTM scheduling experiment from a RunSpec");
  cli.add_value("spec", "JSON RunSpec file (flags below override it)",
                &flags.spec);
  cli.add_value("topology", "topology spec, e.g. cluster:alpha=3,beta=4,gamma=8",
                &flags.topology);
  cli.add_value("scheduler", "scheduler spec, e.g. bucket:algo=cluster",
                &flags.scheduler);
  cli.add_value("workload", "workload spec, e.g. synthetic:objects=64,k=2",
                &flags.workload);
  cli.add_value("fault", "fault plan, e.g. fault:drop=0.1,jitter=2 (default "
                "none)",
                &flags.fault);
  cli.add_value("lf", "latency factor (steps per unit distance)", &flags.lf);
  cli.add_value("window", "Definition-1 ratio window, 0 = off",
                &flags.window);
  cli.add_flag("dump-spec", "print the resolved RunSpec as JSON and exit",
               &dump_spec);
  cli.add_flag("csv", "emit CSV instead of an aligned table", &csv);
  cli.add_value("save-instance", "dump the generated instance (dtm-instance v1)",
                &save_instance);
  cli.add_value("save-schedule", "dump the committed schedule (dtm-schedule v1)",
                &save_schedule);

  try {
    if (!cli.parse(argc, argv)) return 0;

    const RunSpec spec = resolve_spec(flags, cli);
    (void)Registry::make_fault_plan(spec.fault, spec.seed);  // knob check

    if (dump_spec) {
      std::cout << spec.to_json().dump(2) << "\n";
      return 0;
    }

    if (spec.trials > 1) {
      DTM_REQUIRE(save_instance.empty() && save_schedule.empty(),
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
      if (csv)
        t.print_csv(std::cout);
      else
        t.print(std::cout, "dtm_sim (averaged)");
      return 0;
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

    if (!save_instance.empty()) {
      Instance inst;
      inst.origins = r.origins;
      inst.txns = wl->generated();
      save_instance_file(save_instance, inst);
      std::cerr << "instance written to " << save_instance << "\n";
    }
    if (!save_schedule.empty()) {
      save_schedule_file(save_schedule, r.committed);
      std::cerr << "schedule written to " << save_schedule << "\n";
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
    if (csv)
      t.print_csv(std::cout);
    else
      t.print(std::cout, "dtm_sim");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
