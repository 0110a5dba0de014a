#include "batch/batch_problem.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <string>

namespace dtm {

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

void CursorTable::load(std::span<const BatchObject> objects) {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // no objects: an empty span
  if (!objects.empty()) lo = hi = objects.front().id;
  for (const BatchObject& o : objects) {
    lo = std::min<std::int64_t>(lo, o.id);
    hi = std::max<std::int64_t>(hi, o.id);
  }
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  dense_ = span <= kDenseSpan;
  if (!dense_) {
    sorted_objects(objects, sorted_);
    return;
  }
  if (++stamp_ == 0) {  // stamps wrapped: forget every old one
    for (Slot& s : slots_) s.stamp = 0;
    stamp_ = 1;
  }
  if (slots_.size() < span) slots_.resize(span);
  base_ = lo;
  // In row order, so a repeated id's last row overwrites the earlier ones.
  for (const BatchObject& o : objects) {
    Slot& s = slots_[static_cast<std::size_t>(o.id - lo)];
    s.cursor = o;
    s.stamp = stamp_;
  }
}

BatchObject& CursorTable::find_sorted(ObjId id) {
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const BatchObject& c, ObjId v) { return c.id < v; });
  if (it == sorted_.end() || it->id != id) missing(id);
  return *it;
}

void CursorTable::missing(ObjId id) {
  detail::check_fail("find(id)", __FILE__, __LINE__,
                     "object " + std::to_string(id) + " missing from problem");
}

CursorTable& CursorTable::local() {
  static thread_local CursorTable t;
  return t;
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
  // Flat scratch, reused per thread: every schedule a batch algorithm
  // returns is validated here.
  struct Scratch {
    std::vector<Assignment> by_id;  ///< the assignments sorted by txn id
    std::vector<Time> exec;         ///< per p.txns row
    std::vector<std::size_t> order;  ///< p.txns rows by (exec, id)
  };
  static thread_local Scratch s;

  s.by_id.clear();
  for (const auto& a : r.assignments) {
    DTM_CHECK(a.exec >= p.now,
              "txn " << a.txn << " scheduled at " << a.exec << " < now "
                     << p.now);
    s.by_id.push_back(a);
  }
  std::sort(s.by_id.begin(), s.by_id.end(),
            [](const Assignment& a, const Assignment& b) {
              return a.txn < b.txn;
            });
  for (std::size_t i = 1; i < s.by_id.size(); ++i)
    DTM_CHECK(s.by_id[i - 1].txn != s.by_id[i].txn,
              "duplicate assignment for txn " << s.by_id[i].txn);

  Time max_exec = p.now;
  s.exec.resize(p.txns.size());
  for (std::size_t i = 0; i < p.txns.size(); ++i) {
    const TxnId id = p.txns[i].id;
    const auto it = std::lower_bound(
        s.by_id.begin(), s.by_id.end(), id,
        [](const Assignment& a, TxnId v) { return a.txn < v; });
    DTM_CHECK(it != s.by_id.end() && it->txn == id,
              "txn " << id << " not assigned");
    s.exec[i] = it->exec;
    max_exec = std::max(max_exec, it->exec);
  }

  // Per-object chain feasibility from the availability point: walking the
  // transactions in (exec, id) order visits each object's users in that
  // order, each checked against the object's cursor and then advancing it.
  order_by_exec(p, s.exec, s.order);
  CursorTable& cur = CursorTable::local();
  cur.load(p.objects);
  for (const std::size_t i : s.order) {
    const BatchTxn& t = p.txns[i];
    const Time exec = s.exec[i];
    for (const ObjId o : t.objects) {
      BatchObject& c = cur.find(o);
      const Time needed = p.arrival(c, t.node);
      DTM_CHECK(exec >= needed, "object " << o << ": txn " << t.id << " at "
                                          << exec << " unreachable before "
                                          << needed);
      c = {o, t.node, exec, true};
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now,
            "makespan " << r.makespan << " != " << max_exec - p.now);
}

namespace {

/// The most users of one object whose orders the chain bound enumerates.
constexpr std::size_t kChainBoundExact = 4;

/// The chain bound of the object whose availability is `c`, used by
/// transactions at `nodes` (one entry per user).
Time chain_bound_of(const BatchProblem& p, const BatchObject& c,
                    std::span<const NodeId> nodes) {
  const std::size_t k = nodes.size();
  if (k == 0) return 0;
  if (k > kChainBoundExact) {
    // Every order starts at some user's arrival; each later user runs at
    // least one step after the one before it.
    Time first = kNoCutoff;
    for (const NodeId u : nodes)
      first = std::min(first, std::max(p.now, p.arrival(c, u)));
    return first + static_cast<Time>(k - 1) - p.now;
  }
  // The earliest schedule along a fixed order runs each user at its chain
  // arrival; the bound is the least last exec over every order.
  std::array<std::size_t, kChainBoundExact> ix{};
  std::iota(ix.begin(), ix.begin() + static_cast<std::ptrdiff_t>(k), 0);
  Time best = kNoCutoff;
  do {
    BatchObject cur = c;
    for (std::size_t j = 0; j < k && cur.ready < best; ++j) {
      const NodeId u = nodes[ix[j]];
      cur = {c.id, u, std::max(p.now, p.arrival(cur, u)), true};
    }
    best = std::min(best, cur.ready);
  } while (std::next_permutation(
      ix.begin(), ix.begin() + static_cast<std::ptrdiff_t>(k)));
  return best - p.now;
}

}  // namespace

Time object_chain_bound(const BatchProblem& p, ObjId o) {
  // A repeated object row: the last one counts, as in the cursor table.
  const auto row =
      std::find_if(p.objects.rbegin(), p.objects.rend(),
                   [o](const BatchObject& c) { return c.id == o; });
  static thread_local std::vector<NodeId> nodes;
  nodes.clear();
  for (const BatchTxn& t : p.txns)
    if (std::find(t.objects.begin(), t.objects.end(), o) != t.objects.end())
      nodes.push_back(t.node);
  if (nodes.empty()) return 0;
  DTM_CHECK(row != p.objects.rend(), "object " << o << " missing from problem");
  return chain_bound_of(p, *row, nodes);
}

Time chain_lower_bound(const BatchProblem& p) {
  struct Use {
    ObjId obj;
    std::size_t txn;
    bool operator<(const Use& b) const {
      return obj != b.obj ? obj < b.obj : txn < b.txn;
    }
    bool operator==(const Use& b) const = default;
  };
  struct Scratch {
    std::vector<Use> uses;
    std::vector<NodeId> nodes;
  };
  static thread_local Scratch s;
  s.uses.clear();
  for (std::size_t i = 0; i < p.txns.size(); ++i)
    for (const ObjId o : p.txns[i].objects) s.uses.push_back({o, i});
  std::sort(s.uses.begin(), s.uses.end());
  // A transaction listing an object twice is one user of it.
  s.uses.erase(std::unique(s.uses.begin(), s.uses.end()), s.uses.end());

  CursorTable& cur = CursorTable::local();
  cur.load(p.objects);
  Time bound = 0;
  for (std::size_t a = 0; a < s.uses.size();) {
    const ObjId o = s.uses[a].obj;
    s.nodes.clear();
    for (; a < s.uses.size() && s.uses[a].obj == o; ++a)
      s.nodes.push_back(p.txns[s.uses[a].txn].node);
    bound = std::max(bound, chain_bound_of(p, cur.find(o), s.nodes));
  }
  return bound;
}

}  // namespace dtm
