#include "sim/registry.hpp"

#include <algorithm>
#include <sstream>

#include "core/bucket_scheduler.hpp"
#include "core/fcfs_scheduler.hpp"
#include "core/greedy_scheduler.hpp"
#include "dist/dist_bucket.hpp"
#include "net/routing.hpp"
#include "sim/app_workloads.hpp"
#include "sim/io.hpp"
#include "util/parse.hpp"

namespace dtm {

namespace {

std::int64_t to_int(const std::string& key, const std::string& v) {
  return parse_number<std::int64_t>(v, "spec: bad integer for '" + key + "'");
}

double to_double(const std::string& key, const std::string& v) {
  return parse_number<double>(v, "spec: bad number for '" + key + "'");
}

/// Parses "3x4x2" into grid/torus extents.
std::vector<NodeId> parse_dims(const std::string& dims) {
  std::vector<NodeId> out;
  std::string cur;
  for (const char c : dims + "x") {
    if (c == 'x') {
      DTM_REQUIRE(!cur.empty(), "spec: bad dims '" << dims << "'");
      out.push_back(static_cast<NodeId>(to_int("dims", cur)));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  return out;
}

/// Structural parameter recorded by the topology builder (cluster beta,
/// grid dims, ...); hard error when the batch algorithm needs one the
/// network does not carry.
std::string structural_param(const Network& net, const std::string& key,
                             const std::string& algo) {
  const auto it = net.build_params.find(key);
  DTM_REQUIRE(it != net.build_params.end(),
              "batch algo '" << algo << "' needs '" << key
                             << "', which network '" << net.name
                             << "' does not carry");
  return it->second;
}

}  // namespace

Spec parse_spec(const std::string& text) {
  DTM_REQUIRE(!text.empty(), "spec: empty");
  Spec s;
  const std::size_t colon = text.find(':');
  s.kind = text.substr(0, colon);
  DTM_REQUIRE(!s.kind.empty(), "spec: missing kind in '" << text << "'");
  if (colon == std::string::npos) return s;
  std::string rest = text.substr(colon + 1);
  std::stringstream ss(rest);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const std::size_t eq = item.find('=');
    DTM_REQUIRE(eq != std::string::npos && eq > 0,
                "spec: expected key=value, got '" << item << "' in '"
                                                  << text << "'");
    const std::string key = item.substr(0, eq);
    DTM_REQUIRE(s.params.emplace(key, item.substr(eq + 1)).second,
                "spec: duplicate parameter '" << key << "' in '" << text
                                              << "'");
  }
  return s;
}

std::string to_string(const Spec& spec) {
  std::string out = spec.kind;
  bool first = true;
  for (const auto& [k, v] : spec.params) {
    out += (first ? ":" : ",") + k + "=" + v;
    first = false;
  }
  return out;
}

SpecArgs::SpecArgs(const Spec& spec)
    : kind_(spec.kind), remaining_(spec.params) {}

std::string SpecArgs::str(const std::string& key, std::string def) {
  const auto it = remaining_.find(key);
  if (it == remaining_.end()) return def;
  std::string v = it->second;
  remaining_.erase(it);
  return v;
}

std::int64_t SpecArgs::integer(const std::string& key, std::int64_t def) {
  const auto it = remaining_.find(key);
  if (it == remaining_.end()) return def;
  const std::int64_t v = to_int(key, it->second);
  remaining_.erase(it);
  return v;
}

double SpecArgs::real(const std::string& key, double def) {
  const auto it = remaining_.find(key);
  if (it == remaining_.end()) return def;
  const double v = to_double(key, it->second);
  remaining_.erase(it);
  return v;
}

bool SpecArgs::boolean(const std::string& key, bool def) {
  const auto it = remaining_.find(key);
  if (it == remaining_.end()) return def;
  const std::string v = it->second;
  remaining_.erase(it);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw CheckError("spec: bad boolean for '" + key + "': '" + v + "'");
}

void SpecArgs::finish() const {
  if (remaining_.empty()) return;
  std::string names;
  for (const auto& [k, v] : remaining_) names += (names.empty() ? "" : ", ") + k;
  throw CheckError("spec '" + kind_ + "': unknown parameter(s): " + names);
}

// ---------------------------------------------------------------------------
// RunSpec <-> JSON

namespace {

Json spec_to_json(const Spec& s) {
  Json::Object o;
  o.emplace("kind", Json(s.kind));
  for (const auto& [k, v] : s.params) o.emplace(k, Json(v));
  return Json(std::move(o));
}

std::string json_param_value(const std::string& key, const Json& v) {
  if (v.is_string()) return v.as_string();
  if (v.is_int()) return std::to_string(v.as_int());
  if (v.is_number()) {
    std::ostringstream os;
    os << v.as_double();
    return os.str();
  }
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  throw CheckError("run spec: parameter '" + key +
                   "' must be a string, number, or bool");
}

Spec spec_from_json(const Json& j, const std::string& what) {
  if (j.is_string()) return parse_spec(j.as_string());
  DTM_REQUIRE(j.is_object(),
              "run spec: '" << what << "' must be an object or spec string");
  Spec s;
  for (const auto& [k, v] : j.as_object()) {
    if (k == "kind") {
      s.kind = v.as_string();
    } else {
      s.params.emplace(k, json_param_value(k, v));
    }
  }
  DTM_REQUIRE(!s.kind.empty(), "run spec: '" << what << "' missing 'kind'");
  return s;
}

}  // namespace

Json RunSpec::to_json() const {
  Json::Object o;
  o.emplace("topology", spec_to_json(topology));
  o.emplace("workload", spec_to_json(workload));
  o.emplace("scheduler", spec_to_json(scheduler));
  o.emplace("fault", spec_to_json(fault));
  o.emplace("serve", spec_to_json(serve));
  o.emplace("stream", spec_to_json(stream));
  o.emplace("latency_factor", Json(latency_factor));
  o.emplace("seed", Json(static_cast<std::int64_t>(seed)));
  o.emplace("trials", Json(trials));
  o.emplace("threads", Json(threads));
  o.emplace("ratio_window", Json(ratio_window));
  o.emplace("validate", Json(validate));
  return Json(std::move(o));
}

RunSpec RunSpec::from_json(const Json& j) {
  DTM_REQUIRE(j.is_object(), "run spec: document must be a JSON object");
  RunSpec s;
  for (const auto& [k, v] : j.as_object()) {
    if (k == "topology") s.topology = spec_from_json(v, k);
    else if (k == "workload") s.workload = spec_from_json(v, k);
    else if (k == "scheduler") s.scheduler = spec_from_json(v, k);
    else if (k == "fault") s.fault = spec_from_json(v, k);
    else if (k == "serve") s.serve = spec_from_json(v, k);
    else if (k == "stream") s.stream = spec_from_json(v, k);
    else if (k == "latency_factor") s.latency_factor = v.as_int();
    else if (k == "seed") s.seed = static_cast<std::uint64_t>(v.as_int());
    else if (k == "trials") s.trials = static_cast<std::int32_t>(v.as_int());
    else if (k == "threads") s.threads = static_cast<std::int32_t>(v.as_int());
    else if (k == "ratio_window") s.ratio_window = v.as_int();
    else if (k == "validate") s.validate = v.as_bool();
    else
      throw CheckError("run spec: unknown key '" + k + "'");
  }
  DTM_REQUIRE(s.threads >= 0 && s.threads <= 1024,
              "run spec: threads must be in [0, 1024], got " << s.threads);
  return s;
}

// ---------------------------------------------------------------------------
// Registry

const std::vector<Registry::Entry>& Registry::topologies() {
  static const std::vector<Entry> kEntries = {
      {"clique", "n=8"},
      {"line", "n=8"},
      {"ring", "n=8"},
      {"grid", "dims=3x4 (row-major extents, 'x'-separated)"},
      {"torus", "dims=3x3"},
      {"hypercube", "d=3 (2^d nodes)"},
      {"butterfly", "d=2 ((d+1)*2^d nodes)"},
      {"star", "alpha=3,beta=3 (rays x ray length)"},
      {"cluster", "alpha=3,beta=3,gamma=4 (cliques x size, bridge weight)"},
      {"tree", "branching=2,depth=3"},
      {"random", "n=12,extra=12,maxw=3,seed=7 (connected random graph)"},
      {"(any)",
       "routing=exact|landmark,landmarks=0,routing-cache=64"
       " (landmark oracle over any topology)"},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::schedulers() {
  static const std::vector<Entry> kEntries = {
      {"greedy", "delay=0,padding=0  (Algorithm 1 weighted coloring)"},
      {"greedy-uniform",
       "beta=0,delay=0  (Lemma 2 uniform colors; beta=0 -> diameter)"},
      {"fcfs", "(distance-oblivious arrival-order baseline)"},
      {"bucket",
       "algo=auto,max-level=0,retries=3,seed=...,suffix=true,force-level=-1,"
       "threads=1  (Algorithm 2 over offline algo)"},
      {"dist-bucket",
       "algo=auto,max-level=0,retries=3,seed=...,msg=true,timeout-mult=4,"
       "threads=1  (Algorithm 3 over a sparse cover; forces latency factor "
       ">= 2)"},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::workloads() {
  static const std::vector<Entry> kEntries = {
      {"synthetic",
       "objects=0,k=2,zipf=0,rounds=1,gap=1,arrival-prob=0,participation=1,"
       "write-frac=1,seed=..."},
      {"bank", "accounts=0,transfers=3,hot-frac=0.1,hot-prob=0.5,seed=..."},
      {"social",
       "profiles=0,actions=4,write-frac=0.1,zipf=1.1,fanout=3,seed=..."},
      {"scripted", "file=PATH (dtm-instance v1 replay)"},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::batch_algos() {
  static const std::vector<Entry> kEntries = {
      {"auto", "per-topology pick (line/cluster/star/grid/hypercube), else "
               "coloring"},
      {"coloring", "greedy weighted coloring (generic)"},
      {"line", "left-to-right sweep (SPAA'17 line)"},
      {"clique", "load-weighted degree order"},
      {"cluster", "randomized clique order (needs cluster beta)"},
      {"star", "randomized ray order (needs star beta)"},
      {"grid-snake", "boustrophedon sweep (needs grid dims)"},
      {"gray", "hypercube Gray-code order"},
      {"tsp", "nearest-neighbor tour baseline (SIROCCO'14)"},
      {"sequential", "fully serial worst case"},
      {"local-search", "swap-improved chain order"},
      {"hierarchical", "sparse-cover cluster sweep (arbitrary graphs)"},
      {"exhaustive", "exact over chain orders (tiny problems only)"},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::fault_plans() {
  static const std::vector<Entry> kEntries = {
      {"none", "(no faults; the byte-identical default)"},
      {"fault",
       "drop=0,dup=0,jitter=0,degrade=0,degrade-frac=0,pauses=0,"
       "pause-len=16,pause-within=256,stall=0,stall-max=8,seed=..."},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::serve_configs() {
  static const std::vector<Entry> kEntries = {
      {"serve",
       "rate=4,duration=2048,window=256,drain-every=0,admit-rate=0,burst=16,"
       "max-inflight=256,policy=shed|queue,queue-cap=1024,source=synthetic|"
       "trace,trace=PATH,trace-loop=0,objects=0,k=2,zipf=0,write-frac=1,"
       "burst-every=0,burst-len=0,burst-mult=1,slo-p99=0,seed=...  "
       "(dtm_sim serve service shape)"},
  };
  return kEntries;
}

const std::vector<Registry::Entry>& Registry::stream_configs() {
  static const std::vector<Entry> kEntries = {
      {"stream",
       "profile=steady|diurnal|mmpp|adversary,rate=4,objects=0,k=2,zipf=0.9,"
       "write-frac=1,rotate-every=0,period=2048,duty=0.5,low-mult=0.25,"
       "dwell-on=256,dwell-off=768,hi-mult=4,burst=64,target=100000,"
       "duration=0,window=1024,drain-every=256,max-live=0,ratio-every=1,"
       "seed=...  (dtm_sim stream run shape)"},
  };
  return kEntries;
}

FaultPlan Registry::make_fault_plan(const Spec& spec,
                                    std::uint64_t default_seed) {
  SpecArgs a(spec);
  if (a.kind() == "none") {
    a.finish();
    return FaultPlan{};
  }
  DTM_REQUIRE(a.kind() == "fault", "unknown fault plan '"
                                       << a.kind()
                                       << "' (none | fault:knob=value,...)");
  FaultPlan p;
  p.drop = a.real("drop", 0.0);
  p.dup = a.real("dup", 0.0);
  p.jitter = a.integer("jitter", 0);
  p.degrade = a.integer("degrade", 0);
  p.degrade_frac = a.real("degrade-frac", 0.0);
  p.pauses = static_cast<std::int32_t>(a.integer("pauses", 0));
  p.pause_len = a.integer("pause-len", p.pause_len);
  p.pause_within = a.integer("pause-within", p.pause_within);
  p.stall = a.real("stall", 0.0);
  p.stall_max = a.integer("stall-max", p.stall_max);
  p.seed = static_cast<std::uint64_t>(
      a.integer("seed", static_cast<std::int64_t>(default_seed)));
  a.finish();
  p.validate();
  return p;
}

Spec Registry::fault_to_spec(const FaultPlan& plan) {
  if (plan.is_null()) return Spec{"none", {}};
  const FaultPlan d;
  Spec s{"fault", {}};
  const auto put_real = [&](const char* key, double v, double dv) {
    if (v == dv) return;
    std::ostringstream os;
    os << v;
    s.params.emplace(key, os.str());
  };
  const auto put_int = [&](const char* key, std::int64_t v, std::int64_t dv) {
    if (v != dv) s.params.emplace(key, std::to_string(v));
  };
  put_real("drop", plan.drop, d.drop);
  put_real("dup", plan.dup, d.dup);
  put_int("jitter", plan.jitter, d.jitter);
  put_int("degrade", plan.degrade, d.degrade);
  put_real("degrade-frac", plan.degrade_frac, d.degrade_frac);
  put_int("pauses", plan.pauses, d.pauses);
  put_int("pause-len", plan.pause_len, d.pause_len);
  put_int("pause-within", plan.pause_within, d.pause_within);
  put_real("stall", plan.stall, d.stall);
  put_int("stall-max", plan.stall_max, d.stall_max);
  put_int("seed", static_cast<std::int64_t>(plan.seed),
          static_cast<std::int64_t>(d.seed));
  return s;
}

Network Registry::make_network(const Spec& spec) {
  SpecArgs a(spec);
  // Routing knobs apply to every topology kind: routing=exact keeps the
  // builder's native oracle; landmark swaps in a LandmarkOracle (and, for
  // random graphs, skips the O(n^2) APSP build entirely — that is what
  // makes 50k+-node topologies constructible).
  const RoutingMode routing = parse_routing_mode(a.str("routing", "exact"));
  LandmarkOptions lopts;
  lopts.num_landmarks =
      static_cast<std::int32_t>(a.integer("landmarks", 0));
  lopts.intra_cache =
      static_cast<std::size_t>(a.integer("routing-cache", 64));
  if (a.kind() == "random" && routing == RoutingMode::kLandmark) {
    // Graph-only build: same construction + rng stream as
    // make_random_connected, no exact oracle.
    Rng rng(static_cast<std::uint64_t>(a.integer("seed", 7)));
    const auto n = static_cast<NodeId>(a.integer("n", 12));
    const std::int64_t extra = a.integer("extra", 12);
    const Weight maxw = a.integer("maxw", 3);
    a.finish();
    std::int64_t extra_done = 0;
    auto graph = std::make_shared<Graph>(
        make_random_connected_graph(n, extra, maxw, rng, &extra_done));
    auto oracle = std::make_shared<LandmarkOracle>(graph, lopts);
    Network net{TopologyKind::kRandom,
                "random(n=" + std::to_string(n) + ")",
                Graph(*graph),
                oracle,
                {{"n", std::to_string(n)},
                 {"extra", std::to_string(extra_done)},
                 {"maxw", std::to_string(maxw)},
                 {"routing", "landmark"}}};
    return net;
  }
  Network net = [&]() -> Network {
    if (a.kind() == "clique")
      return make_clique(static_cast<NodeId>(a.integer("n", 8)));
    if (a.kind() == "line")
      return make_line(static_cast<NodeId>(a.integer("n", 8)));
    if (a.kind() == "ring")
      return make_ring(static_cast<NodeId>(a.integer("n", 8)));
    if (a.kind() == "grid") return make_grid(parse_dims(a.str("dims", "3x4")));
    if (a.kind() == "torus")
      return make_torus(parse_dims(a.str("dims", "3x3")));
    if (a.kind() == "hypercube")
      return make_hypercube(static_cast<int>(a.integer("d", 3)));
    if (a.kind() == "butterfly")
      return make_butterfly(static_cast<int>(a.integer("d", 2)));
    if (a.kind() == "star")
      return make_star(static_cast<NodeId>(a.integer("alpha", 3)),
                       static_cast<NodeId>(a.integer("beta", 3)));
    if (a.kind() == "cluster")
      return make_cluster(static_cast<NodeId>(a.integer("alpha", 3)),
                          static_cast<NodeId>(a.integer("beta", 3)),
                          a.integer("gamma", 4));
    if (a.kind() == "tree")
      return make_tree(static_cast<NodeId>(a.integer("branching", 2)),
                       static_cast<NodeId>(a.integer("depth", 3)));
    if (a.kind() == "random") {
      Rng rng(static_cast<std::uint64_t>(a.integer("seed", 7)));
      return make_random_connected(static_cast<NodeId>(a.integer("n", 12)),
                                   a.integer("extra", 12),
                                   a.integer("maxw", 3), rng);
    }
    throw CheckError("unknown topology '" + a.kind() +
                     "' (--list shows the registry)");
  }();
  a.finish();
  if (routing != RoutingMode::kExact) {
    // The oracle must own its graph: Network moves by value, so handing the
    // router a pointer into net.graph would dangle. Copy once at build time.
    auto graph = std::make_shared<Graph>(net.graph);
    net.oracle = std::make_shared<LandmarkOracle>(std::move(graph), lopts);
    net.build_params["routing"] = to_string(routing);
  }
  return net;
}

std::unique_ptr<Workload> Registry::make_workload(const Spec& spec,
                                                  const Network& net,
                                                  std::uint64_t default_seed) {
  SpecArgs a(spec);
  std::unique_ptr<Workload> wl;
  if (a.kind() == "synthetic") {
    SyntheticOptions w;
    w.num_objects = static_cast<std::int32_t>(a.integer("objects", 0));
    w.k = static_cast<std::int32_t>(a.integer("k", 2));
    w.zipf_s = a.real("zipf", 0.0);
    w.rounds = static_cast<std::int32_t>(a.integer("rounds", 1));
    w.gap = a.integer("gap", 1);
    w.arrival_prob = a.real("arrival-prob", 0.0);
    w.node_participation = a.real("participation", 1.0);
    w.write_fraction = a.real("write-frac", 1.0);
    w.seed = static_cast<std::uint64_t>(
        a.integer("seed", static_cast<std::int64_t>(default_seed)));
    wl = std::make_unique<SyntheticWorkload>(net, w);
  } else if (a.kind() == "bank") {
    BankOptions b;
    b.accounts = static_cast<std::int32_t>(a.integer("accounts", 0));
    b.transfers_per_node = static_cast<std::int32_t>(a.integer("transfers", 3));
    b.hot_fraction = a.real("hot-frac", 0.1);
    b.hot_probability = a.real("hot-prob", 0.5);
    b.seed = static_cast<std::uint64_t>(
        a.integer("seed", static_cast<std::int64_t>(default_seed)));
    wl = make_bank_workload(net, b);
  } else if (a.kind() == "social") {
    SocialOptions s;
    s.profiles = static_cast<std::int32_t>(a.integer("profiles", 0));
    s.actions_per_node = static_cast<std::int32_t>(a.integer("actions", 4));
    s.write_fraction = a.real("write-frac", 0.1);
    s.zipf_s = a.real("zipf", 1.1);
    s.fanout = static_cast<std::int32_t>(a.integer("fanout", 3));
    s.seed = static_cast<std::uint64_t>(
        a.integer("seed", static_cast<std::int64_t>(default_seed)));
    wl = make_social_workload(net, s);
  } else if (a.kind() == "scripted") {
    const std::string file = a.str("file", "");
    DTM_REQUIRE(!file.empty(), "scripted workload needs file=PATH");
    Instance inst = load_instance_file(file);
    wl = std::make_unique<ScriptedWorkload>(std::move(inst.origins),
                                            std::move(inst.txns));
  } else {
    throw CheckError("unknown workload '" + a.kind() +
                     "' (--list shows the registry)");
  }
  a.finish();
  return wl;
}

std::shared_ptr<const BatchScheduler> Registry::make_batch_algo(
    const std::string& name, const Network& net) {
  if (name == "auto") {
    switch (net.kind) {
      case TopologyKind::kLine: return make_batch_algo("line", net);
      case TopologyKind::kCluster: return make_batch_algo("cluster", net);
      case TopologyKind::kStar: return make_batch_algo("star", net);
      case TopologyKind::kGrid: return make_batch_algo("grid-snake", net);
      case TopologyKind::kHypercube: return make_batch_algo("gray", net);
      default: return make_batch_algo("coloring", net);
    }
  }
  if (name == "coloring") return make_coloring_batch();
  if (name == "line") return make_line_batch();
  if (name == "clique") return make_clique_batch();
  if (name == "cluster")
    return make_cluster_batch(static_cast<NodeId>(
        to_int("beta", structural_param(net, "beta", name))));
  if (name == "star")
    return make_star_batch(static_cast<NodeId>(
        to_int("beta", structural_param(net, "beta", name))));
  if (name == "grid-snake")
    return make_grid_snake_batch(
        parse_dims(structural_param(net, "dims", name)));
  if (name == "gray") return make_hypercube_gray_batch();
  if (name == "tsp") return make_tsp_batch();
  if (name == "sequential") return make_sequential_batch();
  if (name == "local-search") return make_local_search_batch();
  if (name == "hierarchical") return make_hierarchical_batch(net);
  if (name == "exhaustive") return make_exhaustive_batch();
  throw CheckError("unknown batch algo '" + name +
                   "' (--list shows the registry)");
}

std::unique_ptr<OnlineScheduler> Registry::make_scheduler(
    const Spec& spec, const Network& net, const FaultPlan* fault,
    std::int32_t threads) {
  SpecArgs a(spec);
  std::unique_ptr<OnlineScheduler> s;
  if (a.kind() == "greedy" || a.kind() == "greedy-uniform") {
    GreedyOptions g;
    if (a.kind() == "greedy-uniform") {
      g.uniform_beta = a.integer("beta", 0);
      if (g.uniform_beta == 0)
        g.uniform_beta = std::max<Weight>(net.diameter(), 1);
    }
    g.coordination_delay = a.integer("delay", 0);
    g.congestion_padding = a.real("padding", 0.0);
    s = std::make_unique<GreedyScheduler>(g);
  } else if (a.kind() == "fcfs") {
    s = std::make_unique<FcfsScheduler>();
  } else if (a.kind() == "bucket") {
    BucketOptions o;
    o.max_level = static_cast<std::int32_t>(a.integer("max-level", 0));
    o.randomized_retries = static_cast<std::int32_t>(a.integer("retries", 3));
    o.seed = static_cast<std::uint64_t>(
        a.integer("seed", static_cast<std::int64_t>(o.seed)));
    o.enforce_suffix_property = a.boolean("suffix", true);
    o.force_level = static_cast<std::int32_t>(a.integer("force-level", -1));
    o.threads = static_cast<std::int32_t>(a.integer("threads", threads));
    DTM_REQUIRE(o.threads >= 0,
                "bucket: threads must be >= 0, got " << o.threads);
    s = std::make_unique<BucketScheduler>(
        make_batch_algo(a.str("algo", "auto"), net), o);
  } else if (a.kind() == "dist-bucket") {
    DistBucketOptions o;
    o.max_level = static_cast<std::int32_t>(a.integer("max-level", 0));
    o.randomized_retries = static_cast<std::int32_t>(a.integer("retries", 3));
    o.seed = static_cast<std::uint64_t>(
        a.integer("seed", static_cast<std::int64_t>(o.seed)));
    o.message_level_discovery = a.boolean("msg", true);
    o.timeout_mult = a.integer("timeout-mult", o.timeout_mult);
    o.threads = static_cast<std::int32_t>(a.integer("threads", threads));
    DTM_REQUIRE(o.threads >= 0,
                "dist-bucket: threads must be >= 0, got " << o.threads);
    if (fault != nullptr) o.fault = *fault;
    s = std::make_unique<DistributedBucketScheduler>(
        net, make_batch_algo(a.str("algo", "auto"), net), o);
  } else {
    throw CheckError("unknown scheduler '" + a.kind() +
                     "' (--list shows the registry)");
  }
  a.finish();
  return s;
}

// ---------------------------------------------------------------------------
// Spec-driven runs

std::int64_t RunSpec::run_latency_factor() const {
  return scheduler.kind == "dist-bucket"
             ? std::max<std::int64_t>(latency_factor, 2)
             : latency_factor;
}

EngineOptions RunSpec::engine_options(const FaultPlan& plan) const {
  EngineOptions e;
  e.latency_factor = run_latency_factor();
  e.fault = plan;
  return e;
}

RunResult run_spec(const RunSpec& spec, bool collect_schedule) {
  const Network net = Registry::make_network(spec.topology);
  auto wl = Registry::make_workload(spec.workload, net, spec.seed);
  const FaultPlan fault = Registry::make_fault_plan(spec.fault, spec.seed);
  auto sched =
      Registry::make_scheduler(spec.scheduler, net, &fault, spec.threads);
  RunOptions opts;
  opts.engine = spec.engine_options(fault);
  opts.ratio_window = spec.ratio_window;
  opts.validate = spec.validate;
  opts.collect_schedule = collect_schedule;
  return run_experiment(net, *wl, *sched, opts);
}

TrialSummary run_spec_trials(const RunSpec& spec) {
  std::vector<RunResult> runs;
  for (std::int32_t t = 0; t < std::max<std::int32_t>(spec.trials, 1); ++t) {
    RunSpec one = spec;
    one.seed = spec.seed + static_cast<std::uint64_t>(t) * 7919;
    runs.push_back(run_spec(one, /*collect_schedule=*/false));
  }
  return summarize(runs);
}

}  // namespace dtm
