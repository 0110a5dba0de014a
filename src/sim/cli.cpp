#include "sim/cli.hpp"

#include <fstream>
#include <iostream>
#include <iterator>

#include "sim/registry.hpp"
#include "util/check.hpp"

namespace dtm {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_flag(const std::string& name, const std::string& help,
                   bool* target) {
  flags_.push_back({name, help, target, nullptr});
}

void Cli::add_value(const std::string& name, const std::string& help,
                    std::string* target) {
  flags_.push_back({name, help, nullptr, target});
}

void Cli::print_usage() const {
  std::cout << program_ << " — " << description_ << "\n\n"
            << "  --help         this message\n"
            << "  --list         enumerate registered components\n"
            << "  --seed N       base RNG seed override\n"
            << "  --trials N     trials per averaged data point\n"
            << "  --threads N    worker threads (0 = all hardware threads)\n"
            << "  --warmup N     steps excluded from steady-state "
               "measurements\n";
  for (const auto& f : flags_)
    std::cout << "  --" << f.name << (f.value ? " V" : "  ")
              << "   " << f.help << "\n";
}

void Cli::print_registry() {
  const auto section = [](const char* title,
                          const std::vector<Registry::Entry>& entries) {
    std::cout << title << ":\n";
    for (const auto& e : entries)
      std::cout << "  " << e.name << "  " << e.help << "\n";
  };
  section("topologies", Registry::topologies());
  section("schedulers", Registry::schedulers());
  section("workloads", Registry::workloads());
  section("batch algorithms (bucket/dist-bucket algo=...)",
          Registry::batch_algos());
  section("fault plans (--fault / RunSpec \"fault\")",
          Registry::fault_plans());
  section("serve configs (dtm_sim serve --serve / RunSpec \"serve\")",
          Registry::serve_configs());
  section("stream configs (dtm_sim stream --stream / RunSpec \"stream\")",
          Registry::stream_configs());
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg == "--list") {
      print_registry();
      return false;
    }
    const auto value_of = [&](const std::string& flag) -> std::string {
      DTM_REQUIRE(i + 1 < argc,
                  "" << program_ << ": " << flag << " needs a value");
      return argv[++i];
    };
    if (arg == "--seed") {
      seed_ = number<std::uint64_t>(arg, value_of(arg));
      continue;
    }
    if (arg == "--trials") {
      trials_ = number<std::int32_t>(arg, value_of(arg));
      DTM_REQUIRE(*trials_ >= 1,
                  "" << program_ << ": --trials must be >= 1");
      continue;
    }
    if (arg == "--threads") {
      threads_ = number<std::int32_t>(arg, value_of(arg));
      DTM_REQUIRE(*threads_ >= 0 && *threads_ <= 1024,
                  "" << program_ << ": --threads must be in [0, 1024], got "
                     << *threads_);
      continue;
    }
    if (arg == "--warmup") {
      warmup_ = number<std::int64_t>(arg, value_of(arg));
      DTM_REQUIRE(*warmup_ >= 0,
                  "" << program_ << ": --warmup must be >= 0");
      continue;
    }
    bool matched = false;
    for (auto& f : flags_) {
      if (arg != "--" + f.name) continue;
      if (f.flag)
        *f.flag = true;
      else
        *f.value = value_of(arg);
      matched = true;
      break;
    }
    DTM_REQUIRE(matched, "" << program_ << ": unknown flag '" << arg
                            << "' (--help lists flags)");
  }
  return true;
}

RunSpec resolve_spec(const SpecFlags& flags, const Cli& cli) {
  RunSpec spec;
  if (!flags.spec.empty()) {
    std::ifstream f(flags.spec);
    DTM_REQUIRE(f.good(), "cannot open spec file '" << flags.spec << "'");
    spec = RunSpec::from_json(Json::parse(
        std::string(std::istreambuf_iterator<char>(f), {})));
  }
  const auto set = [](Spec& target, const std::string& text) {
    if (!text.empty()) target = parse_spec(text);
  };
  set(spec.topology, flags.topology);
  set(spec.scheduler, flags.scheduler);
  set(spec.workload, flags.workload);
  set(spec.fault, flags.fault);
  set(spec.serve, flags.serve);
  set(spec.stream, flags.stream);
  if (!flags.lf.empty())
    spec.latency_factor = cli.number<std::int64_t>("--lf", flags.lf);
  if (!flags.window.empty())
    spec.ratio_window = cli.number<Time>("--window", flags.window);
  spec.seed = cli.seed(spec.seed);
  spec.trials = cli.trials(spec.trials);
  spec.threads = cli.threads(spec.threads);
  spec.latency_factor = spec.run_latency_factor();
  return spec;
}

}  // namespace dtm
