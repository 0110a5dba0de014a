#include "batch/bucket_insertion.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dtm {

namespace {

// Stream salts: probes and activation trials must never share a stream
// even when they fingerprint the same problem.
constexpr std::uint64_t kProbeSalt = 0xB0CC37F257A11D01ULL;
constexpr std::uint64_t kTrialSalt = 0xAC71DA7E5EEDBEEFULL;

constexpr std::uint64_t kBasis = 1469598103934665603ULL;

std::uint64_t row_hash(const BatchTxn& t) {
  std::uint64_t h = hash_mix(0x517E0FULL);
  h = hash_combine(h, static_cast<std::uint64_t>(t.id));
  h = hash_combine(h, static_cast<std::uint64_t>(t.node));
  for (const ObjId o : t.objects)
    h = hash_combine(h, static_cast<std::uint64_t>(o));
  return h;
}

std::uint64_t avail_chain(std::uint64_t h, const BatchObject& o, Time now) {
  h = hash_combine(h, static_cast<std::uint64_t>(o.id));
  h = hash_combine(h, static_cast<std::uint64_t>(o.node));
  h = hash_combine(h, static_cast<std::uint64_t>(o.ready - now));
  h = hash_combine(h, o.from_txn ? 1u : 0u);
  return h;
}

std::uint64_t finish_fp(std::uint64_t txn_fp, std::uint64_t avail_fp,
                        std::int64_t latency_factor) {
  return hash_combine(hash_combine(txn_fp, avail_fp),
                      static_cast<std::uint64_t>(latency_factor));
}

/// ActivationGate size class: ⌊log2 rows⌋.
std::size_t size_class(std::size_t rows) {
  return rows <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(rows)) - 1;
}

/// Weight of a new sample in a class's running cost.
constexpr double kCostWeight = 0.25;

double running(double cost, double sample) {
  return cost == 0.0 ? sample : cost + kCostWeight * (sample - cost);
}

}  // namespace

std::uint64_t problem_fingerprint(const BatchProblem& p) {
  std::uint64_t txn_fp = kBasis;
  for (const BatchTxn& t : p.txns) txn_fp = hash_combine(txn_fp, row_hash(t));
  std::uint64_t avail_fp = kBasis;
  for (const BatchObject& o : p.objects)
    avail_fp = avail_chain(avail_fp, o, p.now);
  return finish_fp(txn_fp, avail_fp, p.latency_factor);
}

Time estimate_fa_seeded(const BatchScheduler& a, const BatchProblem& p,
                        std::uint64_t seed) {
  Rng rng(seed);
  return estimate_fa(a, p, rng);
}

std::uint64_t probe_seed(std::uint64_t seed, std::uint64_t fp) {
  return derive_seed(seed, kProbeSalt, fp);
}

BucketInsertionCore::BucketInsertionCore(
    std::shared_ptr<const BatchScheduler> algo, std::uint64_t seed,
    std::int32_t threads)
    : algo_(std::move(algo)), seed_(seed) {
  DTM_REQUIRE(algo_ != nullptr, "bucket insertion core needs a batch algo");
  DTM_REQUIRE(threads >= 0, "bucket insertion threads " << threads);
  par_ = resolve_threads(threads);
}

void BucketInsertionCore::make_candidate(const SystemView& view,
                                         const Transaction& t,
                                         const ExtraAssignments& extra,
                                         Candidate& out) {
  out.id = t.id;
  out.row.id = t.id;
  out.row.node = t.node;
  out.row.objects = t.object_ids();
  std::sort(out.row.objects.begin(), out.row.objects.end());
  out.row.objects.erase(
      std::unique(out.row.objects.begin(), out.row.objects.end()),
      out.row.objects.end());
  out.row_hash = row_hash(out.row);

  out.avail.clear();
  lb_pts_.clear();
  const Time now = view.now();
  for (const ObjId o : out.row.objects) {
    const BatchObject bo = object_availability(view, o, extra);
    out.avail.push_back(bo);
    lb_pts_.push_back({bo.node, bo.ready - now, bo.from_txn});
  }
  out.lb = single_txn_lower_bound(t.node, lb_pts_, view.oracle(),
                                  view.latency_factor());
}

void BucketInsertionCore::ensure_fresh(const SystemView& view,
                                       CachedBucket& cb,
                                       const ExtraAssignments& extra) {
  if (cb.at_now == view.now() && cb.at_world == world_) return;
  ++stats_.refreshes;
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  cb.p.now = view.now();
  // Membership (and thus the object id set) is unchanged; only the
  // availability snapshot behind it can have moved.
  for (BatchObject& o : cb.p.objects)
    o = object_availability(view, o.id, extra);
  cb.at_now = view.now();
  cb.at_world = world_;
}

Time BucketInsertionCore::estimate(const BatchProblem& p, std::uint64_t fp) {
  ++stats_.probes;
  ++stats_.estimates;
  return estimate_fa_seeded(*algo_, p, probe_seed(seed_, fp));
}

Time BucketInsertionCore::probe_cached(const SystemView& view,
                                       CachedBucket& cb,
                                       const Candidate& cand,
                                       const ExtraAssignments& extra) {
  ensure_fresh(view, cb, extra);

  // Append the candidate in place: one transaction row plus its
  // not-yet-present objects, merged at their sorted positions. Rolled back
  // after the estimate; a successful insertion replays this permanently in
  // on_inserted.
  cb.p.txns.push_back(cand.row);
  probe_inserted_.clear();
  for (const BatchObject& bo : cand.avail) {
    const auto it = std::lower_bound(
        cb.p.objects.begin(), cb.p.objects.end(), bo.id,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    if (it != cb.p.objects.end() && it->id == bo.id) continue;
    probe_inserted_.push_back(
        static_cast<std::size_t>(it - cb.p.objects.begin()));
    cb.p.objects.insert(it, bo);
  }

  std::uint64_t avail_fp = kBasis;
  for (const BatchObject& o : cb.p.objects)
    avail_fp = avail_chain(avail_fp, o, cb.p.now);
  const std::uint64_t fp = finish_fp(hash_combine(cb.txn_fp, cand.row_hash),
                                     avail_fp, cb.p.latency_factor);
  const Time f = estimate(cb.p, fp);

  // Rollback, highest position first (recorded positions are strictly
  // increasing, so later erases cannot shift earlier ones).
  for (std::size_t k = probe_inserted_.size(); k-- > 0;)
    cb.p.objects.erase(cb.p.objects.begin() +
                       static_cast<std::ptrdiff_t>(probe_inserted_[k]));
  cb.p.txns.pop_back();
  return f;
}

std::int32_t BucketInsertionCore::choose_level(const SystemView& view,
                                               const Transaction& t,
                                               std::int32_t top,
                                               const LevelFn& levels,
                                               const ExtraAssignments& extra) {
  ++stats_.inserts;
  last_scan_.clear();
  make_candidate(view, t, extra, cand_);
  last_lb_ = cand_.lb;

  // Every feasible schedule of B_i ∪ {t} executes t no earlier than LB,
  // and estimate_fa majorizes the availability horizon, so all levels with
  // 2^i < LB fail the F_A test — skipping them is exact, not a heuristic
  // (the naive-insertion differential test asserts it on randomized
  // workloads).
  const std::int32_t start =
      std::min(cand_.lb <= 1 ? 0 : ceil_log2_i64(cand_.lb), top);
  stats_.levels_skipped += start;

  for (std::int32_t i = start; i <= top; ++i) {
    const LevelView lv = levels(i);
    CachedBucket& cb = cache_[lv.id];
    DTM_CHECK(cb.p.txns.size() == lv.members.size(),
              "bucket cache out of sync at level "
                  << i << ": " << cb.p.txns.size() << " cached vs "
                  << lv.members.size() << " members");
    const Time f = probe_cached(view, cb, cand_, extra);
    last_scan_.push_back({i, f});
    if (f <= (Time{1} << i)) return i;
  }
  return top;  // over-horizon tail parks in the top bucket
}

void BucketInsertionCore::on_inserted(const SystemView& view, BucketId id,
                                      const Transaction& t,
                                      const ExtraAssignments& extra) {
  if (cand_.id != t.id) make_candidate(view, t, extra, cand_);
  CachedBucket& cb = cache_[id];
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  ensure_fresh(view, cb, extra);
  ++stats_.appends;
  cb.p.txns.push_back(cand_.row);
  cb.txn_fp = hash_combine(cb.txn_fp, cand_.row_hash);
  for (const BatchObject& bo : cand_.avail) {
    const auto it = std::lower_bound(
        cb.p.objects.begin(), cb.p.objects.end(), bo.id,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    if (it != cb.p.objects.end() && it->id == bo.id) continue;
    cb.p.objects.insert(it, bo);
  }
}

const BatchProblem& BucketInsertionCore::activation_problem(
    const SystemView& view, BucketId id, std::span<const TxnId> members,
    const ExtraAssignments& extra) {
  ++stats_.activations;
  CachedBucket& cb = cache_[id];
  DTM_CHECK(cb.p.txns.size() == members.size(),
            "activation cache out of sync: " << cb.p.txns.size()
                                             << " cached vs "
                                             << members.size() << " members");
  cb.p.oracle = &view.oracle();
  cb.p.latency_factor = view.latency_factor();
  ensure_fresh(view, cb, extra);
  return cb.p;
}

bool ActivationGate::fan_out(std::size_t rows) const {
  const std::size_t k = size_class(rows);
  if (k >= classes_.size()) return true;  // a new class fans out first
  const SizeClass& c = classes_[k];
  if (c.serial == 0.0) return c.fanned == 0.0;  // then runs serially once
  if (c.fanned_run >= kSerialEvery - 1) return false;  // re-measure serial
  return c.lost_at == 0.0 || c.serial >= 2.0 * c.lost_at;
}

void ActivationGate::record(std::size_t rows, bool fanned,
                            double seconds_per_trial) {
  const std::size_t k = size_class(rows);
  if (k >= classes_.size()) classes_.resize(k + 1);
  SizeClass& c = classes_[k];
  // A clock tick of 0 would read as "unmeasured".
  const double sample = std::max(seconds_per_trial, 1e-9);
  if (fanned) {
    // A retry after a loss measures afresh: the old figure is from
    // problems half as costly.
    c.fanned = c.lost_at > 0.0 ? sample : running(c.fanned, sample);
    ++c.fanned_run;
  } else {
    // A re-measure while fan-out wins replaces the serial figure, as a
    // retry after a loss replaces the fanned one: one inflated cold sample
    // must not outlive it by more than one re-measure. After a loss the
    // samples fold, so one costly problem does not start a retry.
    const bool re_measure = c.fanned_run > 0 && c.lost_at == 0.0;
    c.serial = re_measure ? sample : running(c.serial, sample);
    c.fanned_run = 0;
    if (c.lost_at > 0.0) return;  // a loss stands until serial cost doubles
  }
  c.lost_at = c.fanned >= c.serial ? c.serial : 0.0;
}

BatchResult BucketInsertionCore::run_activation(const BatchProblem& p,
                                                const BatchScheduler& runner,
                                                std::int32_t retries) {
  const std::uint64_t fp = problem_fingerprint(p);
  const auto trial = [&](std::int64_t r) {
    Rng rng(derive_seed(seed_, kTrialSalt, fp, static_cast<std::uint64_t>(r)));
    return runner.schedule(p, rng);
  };
  const std::int32_t trials = runner.randomized() ? std::max(retries, 1) : 1;
  const auto serial = [&] {
    BatchResult best = trial(0);
    for (std::int32_t r = 1; r < trials; ++r) {
      BatchResult alt = trial(r);
      if (alt.makespan < best.makespan) best = std::move(alt);
    }
    return best;
  };
  // Without a choice to make (one trial, one thread, or already inside a
  // pool task, where a nested fan-out would run inline) no clock is read.
  if (trials == 1 || par_ <= 1 || ThreadPool::inside_pool()) return serial();

  const bool fan = gate_.fan_out(p.txns.size());
  const auto t0 = std::chrono::steady_clock::now();
  BatchResult best;
  if (fan) {
    // Trial r's schedule depends only on (seed_, fp, r) — batch schedulers
    // are const with thread-local scratch — so the trials run concurrently.
    // Keeping the FIRST index achieving the minimum makespan reproduces the
    // serial strict-< scan's winner exactly.
    ++stats_.fanouts;
    std::vector<BatchResult> all =
        parallel_map<BatchResult>(trials, trial, par_);
    std::size_t win = 0;
    for (std::size_t r = 1; r < all.size(); ++r)
      if (all[r].makespan < all[win].makespan) win = r;
    best = std::move(all[win]);
  } else {
    best = serial();
  }
  const std::chrono::duration<double> spent =
      std::chrono::steady_clock::now() - t0;
  gate_.record(p.txns.size(), fan, spent.count() / trials);
  return best;
}

void BucketInsertionCore::on_drained(BucketId id) { cache_.erase(id); }

}  // namespace dtm
