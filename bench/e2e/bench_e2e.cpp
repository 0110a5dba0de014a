// bench_e2e — runs one benchmark workload through a public driver and
// prints one JSON line per repetition (run.py turns them into metrics).
//
//   bench_e2e --driver batch|serve|stream --spec '<RunSpec JSON>'
//             [--warmup W] [--reps N] [--seconds S]   (--warmup: default 1)
//             [--traced-reps M] [--traced-seconds T] [--trace-out FILE]
//
// Order: W discarded warm-up reps, then untraced reps (at least N, more
// while the next one fits in S seconds), then traced reps (at least M, more
// while they fit in T seconds). Every rep runs every correctness check, and
// every rep, warm-up and traced ones included, must produce the same commit
// hash. The first line describes the build; a failed check prints its name
// on stderr and exits 1.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "drivers.hpp"
#include "sim/cli.hpp"
#include "trace.hpp"
#include "util/alloc.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using dtm::Json;

std::int64_t to_count(const std::string& flag, const std::string& v,
                      std::int64_t def) {
  if (v.empty()) return def;
  std::size_t used = 0;
  const std::int64_t n = std::stoll(v, &used);
  DTM_REQUIRE(used == v.size() && n >= 0, "--" << flag << " " << v);
  return n;
}

double to_seconds(const std::string& flag, const std::string& v) {
  if (v.empty()) return 0.0;
  std::size_t used = 0;
  const double s = std::stod(v, &used);
  DTM_REQUIRE(used == v.size() && s >= 0.0 && s <= 3600.0,
              "--" << flag << " " << v);
  return s;
}

/// Peak resident set of this process (VmHWM, KiB). Read here rather than
/// from the parent's wait4: the kernel carries ru_maxrss across exec, so a
/// child forked from a large parent reports at least the parent's size.
std::int64_t peak_rss_kb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  throw dtm::CheckError("peak RSS: no VmHWM line in /proc/self/status");
}

Json rep_json(const char* kind, std::int64_t index, const e2e::RepResult& r) {
  Json::Object o;
  o.emplace("peak_rss_kb", Json(peak_rss_kb()));
  o.emplace("kind", Json(kind));
  o.emplace("rep", Json(index));
  o.emplace("setup_s", Json(r.setup_s));
  o.emplace("run_s", Json(r.run_s));
  o.emplace("cpu_s", Json(r.cpu_s));
  o.emplace("offered", Json(r.offered));
  o.emplace("shed", Json(r.shed));
  o.emplace("commits", Json(r.commits));
  o.emplace("active_steps", Json(r.active_steps));
  o.emplace("allocs", Json(r.allocs));
  o.emplace("hash", Json(std::to_string(r.hash)));
  o.emplace("lat_mean", Json(r.latency.mean()));
  o.emplace("lat_p50", Json(r.latency.quantile(0.50)));
  o.emplace("lat_p99", Json(r.latency.quantile(0.99)));
  if (!r.layers.empty()) {
    Json::Object layers;
    for (const auto& [k, v] : r.layers) layers.emplace(k, Json(v));
    o.emplace("layers", Json(std::move(layers)));
  }
  return Json(std::move(o));
}

/// Runs reps of one kind: at least `min_reps`, then more while another rep
/// of the mean length still fits in `budget_s`.
void run_phase(const char* kind, std::int64_t min_reps, double budget_s,
               bool traced, e2e::Driver driver, const dtm::RunSpec& spec,
               const std::string& trace_out,
               std::optional<std::uint64_t>& hash) {
  const std::int64_t t0 = e2e::now_ns();
  for (std::int64_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(e2e::now_ns() - t0) * 1e-9;
    const double mean = i > 0 ? elapsed / static_cast<double>(i) : 0.0;
    if (i >= min_reps && (budget_s <= 0.0 || elapsed + mean > budget_s))
      break;
    std::ofstream spans;
    if (traced && i == 0 && !trace_out.empty()) {
      spans.open(trace_out);
      DTM_REQUIRE(spans.good(), "cannot write --trace-out " << trace_out);
    }
    const e2e::RepResult r =
        e2e::run_rep(driver, spec, traced, spans.is_open() ? &spans : nullptr);
    if (!hash) hash = r.hash;
    if (r.hash != *hash)
      throw dtm::CheckError(
          std::string("check 'commit hash identical across reps' failed: ") +
          kind + " rep " + std::to_string(i) + " hash " +
          std::to_string(r.hash) + " != " + std::to_string(*hash));
    std::cout << rep_json(kind, i, r).dump() << std::endl;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string driver_name, spec_text, reps, seconds, traced_reps,
      traced_seconds, trace_out;
  dtm::Cli cli("bench_e2e", "one end-to-end benchmark workload, one JSON line "
                            "per repetition");
  cli.add_value("driver", "batch | serve | stream", &driver_name);
  cli.add_value("spec", "RunSpec as JSON (seed included)", &spec_text);
  cli.add_value("reps", "minimum untraced reps (default 5)", &reps);
  cli.add_value("seconds", "keep adding untraced reps for this long",
                &seconds);
  cli.add_value("traced-reps", "minimum traced reps (default 0)",
                &traced_reps);
  cli.add_value("traced-seconds", "keep adding traced reps for this long",
                &traced_seconds);
  cli.add_value("trace-out", "raw spans of the first traced rep (JSONL)",
                &trace_out);
  try {
    if (!cli.parse(argc, argv)) return 0;
    DTM_REQUIRE(!spec_text.empty(), "--spec is required");
    const e2e::Driver driver = e2e::parse_driver(driver_name);
    const dtm::RunSpec spec = dtm::RunSpec::from_json(Json::parse(spec_text));

    Json::Object build;
    build.emplace("compiler", Json(std::string(
#if defined(__clang__)
                                      "clang "
#elif defined(__GNUC__)
                                      "gcc "
#endif
                                      __VERSION__)));
    build.emplace("alloc_tracking", Json(dtm::alloc_tracking_enabled()));
    build.emplace("hardware_threads",
                  Json(static_cast<std::int64_t>(
                      dtm::ThreadPool::hardware_threads())));
    std::cout << Json(Json::Object{{"build", Json(std::move(build))}}).dump()
              << std::endl;

    std::optional<std::uint64_t> hash;
    run_phase("warmup", cli.warmup(1), 0.0, false, driver, spec, trace_out,
              hash);
    run_phase("timed", to_count("reps", reps, 5),
              to_seconds("seconds", seconds), false, driver, spec, trace_out,
              hash);
    run_phase("traced", to_count("traced-reps", traced_reps, 0),
              to_seconds("traced-seconds", traced_seconds), true, driver, spec,
              trace_out, hash);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
