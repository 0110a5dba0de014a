#include "core/schedule.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

namespace dtm {

ValidationError validate_schedule(const std::vector<ScheduledTxn>& scheduled,
                                  const std::vector<ObjectOrigin>& origins,
                                  const DistanceOracle& oracle,
                                  std::int64_t latency_factor) {
  // Origins sorted by object id; a repeated id keeps its last entry.
  std::vector<ObjectOrigin> origin_of(origins.begin(), origins.end());
  std::stable_sort(origin_of.begin(), origin_of.end(),
                   [](const ObjectOrigin& a, const ObjectOrigin& b) {
                     return a.id < b.id;
                   });

  // One (object, txn) row per access, sorted by object and then execution
  // time: each object's user chain is one contiguous run.
  struct Use {
    ObjId obj;
    const ScheduledTxn* s;
  };
  std::vector<Use> uses;
  for (const auto& s : scheduled) {
    if (s.exec == kNoTime) {
      std::ostringstream os;
      os << "txn " << s.txn.id << " was never assigned an execution time";
      return os.str();
    }
    if (s.exec < s.txn.gen_time) {
      std::ostringstream os;
      os << "txn " << s.txn.id << " executes at " << s.exec
         << " before its generation time " << s.txn.gen_time;
      return os.str();
    }
    for (const auto& a : s.txn.accesses) uses.push_back({a.obj, &s});
  }
  std::sort(uses.begin(), uses.end(), [](const Use& a, const Use& b) {
    if (a.obj != b.obj) return a.obj < b.obj;
    if (a.s->exec != b.s->exec) return a.s->exec < b.s->exec;
    return a.s->txn.id < b.s->txn.id;
  });

  for (std::size_t i = 0; i < uses.size();) {
    const ObjId obj = uses[i].obj;
    const auto it = std::upper_bound(
        origin_of.begin(), origin_of.end(), obj,
        [](ObjId v, const ObjectOrigin& o) { return v < o.id; });
    if (it == origin_of.begin() || std::prev(it)->id != obj) {
      std::ostringstream os;
      os << "object " << obj << " is used but has no origin";
      return os.str();
    }
    // Origin -> first user: pure travel (the object is free at creation).
    NodeId pos = std::prev(it)->node;
    Time free_at = std::prev(it)->created;
    bool from_txn = false;
    for (; i < uses.size() && uses[i].obj == obj; ++i) {
      const ScheduledTxn* s = uses[i].s;
      const Weight d = oracle.dist(pos, s->txn.node);
      Time needed = free_at + latency_factor * d;
      // Between two distinct commits of the same object at least one step
      // must pass even at distance zero (same node).
      if (from_txn) needed = std::max(needed, free_at + 1);
      if (s->exec < needed) {
        std::ostringstream os;
        os << "object " << obj << ": txn " << s->txn.id << " at node "
           << s->txn.node << " executes at " << s->exec
           << " but the object cannot arrive before " << needed
           << " (coming from node " << pos << ", free at " << free_at << ")";
        return os.str();
      }
      pos = s->txn.node;
      free_at = s->exec;
      from_txn = true;
    }
  }
  return std::nullopt;
}

Time makespan(const std::vector<ScheduledTxn>& scheduled, Time start) {
  Time end = start;
  for (const auto& s : scheduled) end = std::max(end, s.exec);
  return end - start;
}

}  // namespace dtm
