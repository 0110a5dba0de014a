#include "batch/batch_problem.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace dtm {

const BatchObject& BatchProblem::object(ObjId id) const {
  const auto it =
      std::find_if(objects.rbegin(), objects.rend(),
                   [id](const BatchObject& o) { return o.id == id; });
  DTM_CHECK(it != objects.rend(), "batch problem missing object " << id);
  return *it;
}

void sorted_objects(std::span<const BatchObject> objects,
                    std::vector<BatchObject>& out) {
  out.assign(objects.begin(), objects.end());
  const auto not_ascending = [](const BatchObject& a, const BatchObject& b) {
    return a.id >= b.id;
  };
  if (std::adjacent_find(out.begin(), out.end(), not_ascending) == out.end())
    return;
  std::stable_sort(out.begin(), out.end(),
                   [](const BatchObject& a, const BatchObject& b) {
                     return a.id < b.id;
                   });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (kept > 0 && out[kept - 1].id == out[i].id)
      out[kept - 1] = out[i];
    else
      out[kept++] = out[i];
  }
  out.resize(kept);
}

void check_permutation(std::span<const std::size_t> order, std::size_t n) {
  DTM_CHECK(order.size() == n,
            "order visits " << order.size() << " of " << n << " txns");
  static thread_local std::vector<std::uint8_t> seen;
  seen.assign(n, 0);
  for (const std::size_t i : order) {
    DTM_CHECK(i < n && seen[i] == 0, "order repeats or overruns txn " << i);
    seen[i] = 1;
  }
}

Time BatchResult::exec_of(TxnId id) const {
  const auto it =
      std::find_if(assignments.begin(), assignments.end(),
                   [id](const Assignment& a) { return a.txn == id; });
  DTM_CHECK(it != assignments.end(), "batch result missing txn " << id);
  return it->exec;
}

void exec_in_problem_order(const BatchProblem& p, const BatchResult& r,
                           std::vector<Time>& out) {
  // One sort of the assignments by id, then a binary search per row.
  static thread_local std::vector<Assignment> by_id;
  by_id.assign(r.assignments.begin(), r.assignments.end());
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const Assignment& a, const Assignment& b) {
                     return a.txn < b.txn;
                   });
  out.resize(p.txns.size());
  for (std::size_t i = 0; i < p.txns.size(); ++i) {
    const TxnId id = p.txns[i].id;
    // Last among equal ids: a later assignment overrides an earlier one.
    const auto it = std::upper_bound(
        by_id.begin(), by_id.end(), id,
        [](TxnId v, const Assignment& a) { return v < a.txn; });
    DTM_CHECK(it != by_id.begin() && std::prev(it)->txn == id,
              "txn " << id << " not assigned");
    out[i] = std::prev(it)->exec;
  }
}

void order_by_exec(const BatchProblem& p, std::span<const Time> exec,
                   std::vector<std::size_t>& out) {
  DTM_REQUIRE(exec.size() == p.txns.size(),
              "exec has " << exec.size() << " rows for " << p.txns.size()
                          << " txns");
  struct Key {
    Time exec;
    TxnId id;
    std::size_t index;
  };
  static thread_local std::vector<Key> keys;
  keys.resize(exec.size());
  for (std::size_t i = 0; i < exec.size(); ++i)
    keys[i] = {exec[i], p.txns[i].id, i};
  // (exec, id, index) is a total order, so an unstable sort yields exactly
  // the stable (exec, id) order.
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.exec != b.exec) return a.exec < b.exec;
    if (a.id != b.id) return a.id < b.id;
    return a.index < b.index;
  });
  out.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = keys[i].index;
}

void check_batch_result(const BatchProblem& p, const BatchResult& r) {
  DTM_CHECK(r.assignments.size() == p.txns.size(),
            "batch result has " << r.assignments.size() << " assignments for "
                                << p.txns.size() << " txns");
  // Sorted flat scratch tables, reused per thread: every schedule a batch
  // algorithm returns is validated here.
  struct Scratch {
    std::vector<Assignment> exec;  ///< sorted by txn id
    std::vector<BatchObject> cur;  ///< per-object chain cursor, by id
    struct User {
      ObjId obj;
      Time exec;
      TxnId id;
      NodeId node;
    };
    std::vector<User> users;  ///< sorted by (object, exec, id)
  };
  static thread_local Scratch s;

  s.exec.clear();
  for (const auto& a : r.assignments) {
    DTM_CHECK(a.exec >= p.now,
              "txn " << a.txn << " scheduled at " << a.exec << " < now "
                     << p.now);
    s.exec.push_back(a);
  }
  std::sort(s.exec.begin(), s.exec.end(),
            [](const Assignment& a, const Assignment& b) {
              return a.txn < b.txn;
            });
  for (std::size_t i = 1; i < s.exec.size(); ++i)
    DTM_CHECK(s.exec[i - 1].txn != s.exec[i].txn,
              "duplicate assignment for txn " << s.exec[i].txn);

  // Per-object chain feasibility from the availability point.
  sorted_objects(p.objects, s.cur);

  // One row per (transaction, object) use, sorted by object and then
  // execution order: each object's chain is one contiguous run.
  Time max_exec = p.now;
  s.users.clear();
  for (const auto& t : p.txns) {
    const auto it = std::lower_bound(
        s.exec.begin(), s.exec.end(), t.id,
        [](const Assignment& a, TxnId v) { return a.txn < v; });
    DTM_CHECK(it != s.exec.end() && it->txn == t.id,
              "txn " << t.id << " not assigned");
    max_exec = std::max(max_exec, it->exec);
    for (const ObjId o : t.objects)
      s.users.push_back({o, it->exec, t.id, t.node});
  }
  std::sort(s.users.begin(), s.users.end(),
            [](const Scratch::User& a, const Scratch::User& b) {
              if (a.obj != b.obj) return a.obj < b.obj;
              if (a.exec != b.exec) return a.exec < b.exec;
              return a.id < b.id;
            });
  auto cit = s.cur.begin();
  for (std::size_t i = 0; i < s.users.size();) {
    const ObjId obj = s.users[i].obj;
    while (cit != s.cur.end() && cit->id < obj) ++cit;
    DTM_CHECK(cit != s.cur.end() && cit->id == obj,
              "object " << obj << " not in problem");
    NodeId node = cit->node;
    Time free_at = cit->ready;
    bool from_txn = cit->from_txn;
    for (; i < s.users.size() && s.users[i].obj == obj; ++i) {
      const auto& u = s.users[i];
      Time needed = free_at + p.travel(node, u.node);
      if (from_txn) needed = std::max(needed, free_at + 1);
      DTM_CHECK(u.exec >= needed,
                "object " << obj << ": txn " << u.id << " at " << u.exec
                          << " unreachable before " << needed);
      node = u.node;
      free_at = u.exec;
      from_txn = true;
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now,
            "makespan " << r.makespan << " != " << max_exec - p.now);
}

}  // namespace dtm
