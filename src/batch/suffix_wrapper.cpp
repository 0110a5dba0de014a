#include "batch/suffix_wrapper.hpp"

#include <algorithm>
#include <optional>

namespace dtm {

namespace {

/// Runs transaction `t` (executing at `exec`) on the sorted availability
/// table: each of its objects is now free at t's node from `exec` on.
void run_on(const BatchTxn& t, Time exec, std::vector<BatchObject>& avail) {
  for (const ObjId o : t.objects) {
    const auto it = std::lower_bound(
        avail.begin(), avail.end(), o,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    const BatchObject row{o, t.node, exec, true};
    if (it != avail.end() && it->id == o)
      *it = row;
    else
      avail.insert(it, row);
  }
}

/// The earliest step `t` can execute at in any feasible schedule that
/// starts from the sorted availability `avail`: each of its objects needs
/// at least the direct trip from where it is free, and one step more than
/// a commit there, the chain walk's arrival rule. A detour through other
/// users only adds, by the triangle inequality of the metric.
Time earliest_exec(const BatchProblem& p, const BatchTxn& t,
                   const std::vector<BatchObject>& avail) {
  Time e = p.now;
  for (const ObjId o : t.objects) {
    const auto it = std::lower_bound(
        avail.begin(), avail.end(), o,
        [](const BatchObject& a, ObjId b) { return a.id < b; });
    DTM_CHECK(it != avail.end() && it->id == o,
              "object " << o << " missing from problem");
    e = std::max(e, p.arrival(*it, t.node));
  }
  return e;
}

}  // namespace

std::vector<BatchObject> SuffixWrapper::availability_after_prefix(
    const BatchProblem& p, const BatchResult& r, std::size_t prefix_len) {
  std::vector<Time> exec;
  exec_in_problem_order(p, r, exec);
  std::vector<std::size_t> order;
  order_by_exec(p, exec, order);
  DTM_REQUIRE(prefix_len <= order.size(), "prefix " << prefix_len);
  std::vector<BatchObject> avail;
  sorted_objects(p.objects, avail);
  for (std::size_t i = 0; i < prefix_len; ++i)
    run_on(p.txns[order[i]], exec[order[i]], avail);
  return avail;
}

BatchResult SuffixWrapper::schedule(const BatchProblem& p, Rng& rng) const {
  BatchResult cur = inner_->schedule(p, rng);
  const std::size_t n = p.txns.size();
  // A suffix-tight inner reproduces every suffix exactly, so no candidate
  // can be strictly shorter: the pass would only burn budget.
  if (n <= 1 || inner_->suffix_tight()) return cur;
  std::int32_t budget = opts_.max_inner_calls > 0
                            ? opts_.max_inner_calls
                            : static_cast<std::int32_t>(4 * n + 8);

  // Per pass: execution times aligned with p.txns, the execution order,
  // and the availability after the prefix, advanced by one transaction per
  // suffix start.
  std::vector<Time> exec;
  std::vector<std::size_t> order;
  std::vector<BatchObject> avail;
  std::vector<Time> redo_exec;
  BatchProblem sub;
  sub.oracle = p.oracle;
  sub.latency_factor = p.latency_factor;
  sub.now = p.now;

  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    exec_in_problem_order(p, cur, exec);
    order_by_exec(p, exec, order);
    // The last transaction z in execution order ends every suffix, so each
    // suffix spans the current makespan.
    const BatchTxn& z = p.txns[order[n - 1]];
    const Time span_now = exec[order[n - 1]] - p.now;
    // If some object of z has a chain bound that reaches the makespan, no
    // candidate of this pass is strictly shorter: a suffix keeps z, and the
    // object's chain cannot finish before its bound from the prefix's
    // availability either. Asked only once a candidate passes z's arrival
    // test, so a pass that never gets there pays nothing.
    std::optional<bool> moot;
    const auto pass_is_moot = [&] {
      if (!moot) {
        moot = std::any_of(z.objects.begin(), z.objects.end(),
                           [&](ObjId o) {
                             return object_chain_bound(p, o) >= span_now;
                           });
      }
      return *moot;
    };
    sorted_objects(p.objects, avail);
    // Longest proper suffix first, as in the paper.
    for (std::size_t start = 1; start < n && budget > 0; ++start) {
      run_on(p.txns[order[start - 1]], exec[order[start - 1]], avail);
      sub.objects = avail;
      sub.txns.resize(n - start);
      for (std::size_t i = start; i < n; ++i)
        sub.txns[i - start] = p.txns[order[i]];
      --budget;
      // If z cannot execute earlier than it does, or the pass is moot, no
      // schedule of this suffix is strictly shorter: the candidate costs
      // only its draws.
      if (earliest_exec(p, z, avail) - p.now >= span_now || pass_is_moot()) {
        (void)inner_->makespan(sub, rng, 0);
        continue;
      }
      // Candidates are compared by makespan alone, walked only until they
      // reach the current one; only an adopted one is built, re-run from
      // the same draws so the stream stays unchanged.
      const Rng before = rng;
      const Time span = inner_->makespan(sub, rng, span_now);
      if (span < span_now) {
        rng = before;
        const BatchResult redo = inner_->schedule(sub, rng);
        DTM_CHECK(redo.makespan == span,
                  "suffix candidate of " << inner_->name() << ": schedule() "
                                         << redo.makespan << " != makespan() "
                                         << span);
        // Adopt the tighter suffix schedule; prefix stays untouched.
        exec_in_problem_order(sub, redo, redo_exec);
        for (std::size_t i = start; i < n; ++i)
          exec[order[i]] = redo_exec[i - start];
        cur.assignments.clear();
        cur.makespan = 0;
        for (std::size_t i = 0; i < n; ++i) {
          cur.assignments.push_back({p.txns[i].id, exec[i]});
          cur.makespan = std::max(cur.makespan, exec[i] - p.now);
        }
        check_batch_result(p, cur);
        changed = true;
        break;  // exec order changed: restart from the longest suffix
      }
    }
  }
  check_batch_result(p, cur);
  return cur;
}

}  // namespace dtm
