// Reference (map-based) implementations of the batch validation/ordering
// kernels, the schedule validator and the object trail directory, kept as
// test oracles for their flat production versions: the flat kernels must
// accept, reject, order and answer exactly as these do.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "batch/batch_scheduler.hpp"
#include "core/object_state.hpp"
#include "core/schedule.hpp"

namespace dtm::oracle {

inline void check_batch_result(const BatchProblem& p, const BatchResult& r) {
  DTM_CHECK(r.assignments.size() == p.txns.size(), "assignment count");
  std::map<TxnId, Time> exec;
  for (const auto& a : r.assignments) {
    DTM_CHECK(a.exec >= p.now, "txn scheduled before now");
    DTM_CHECK(exec.emplace(a.txn, a.exec).second, "duplicate assignment");
  }
  Time max_exec = p.now;
  struct Cursor {
    NodeId node;
    Time free_at;
    bool from_txn;
  };
  std::map<ObjId, Cursor> cur;
  for (const auto& o : p.objects) cur[o.id] = {o.node, o.ready, o.from_txn};
  struct User {
    Time exec;
    TxnId id;
    NodeId node;
  };
  std::map<ObjId, std::vector<User>> users;
  for (const auto& t : p.txns) {
    const auto it = exec.find(t.id);
    DTM_CHECK(it != exec.end(), "txn not assigned");
    max_exec = std::max(max_exec, it->second);
    for (const ObjId o : t.objects) users[o].push_back({it->second, t.id, t.node});
  }
  for (auto& [obj, list] : users) {
    const auto cit = cur.find(obj);
    DTM_CHECK(cit != cur.end(), "object not in problem");
    std::sort(list.begin(), list.end(), [](const User& a, const User& b) {
      return a.exec < b.exec || (a.exec == b.exec && a.id < b.id);
    });
    Cursor c = cit->second;
    for (const auto& u : list) {
      Time needed = c.free_at + p.travel(c.node, u.node);
      if (c.from_txn) needed = std::max(needed, c.free_at + 1);
      DTM_CHECK(u.exec >= needed, "object unreachable");
      c = {u.node, u.exec, true};
    }
  }
  DTM_CHECK(r.makespan == max_exec - p.now, "makespan mismatch");
}

/// The chain walk of chain_evaluate over a std::map cursor per object:
/// each transaction of `order` executes once every one of its objects can
/// reach it, and the next user of an object a commit left executes at
/// least one step after that commit (+1), even at distance zero. A
/// repeated object row: the last one wins. Assignments in visiting order,
/// unvalidated.
inline BatchResult chain_evaluate(const BatchProblem& p,
                                  const std::vector<std::size_t>& order) {
  std::map<ObjId, BatchObject> cur;
  for (const auto& o : p.objects) cur[o.id] = o;
  BatchResult r;
  for (const std::size_t i : order) {
    const BatchTxn& t = p.txns.at(i);
    Time e = p.now;
    for (const ObjId o : t.objects) {
      const BatchObject& c = cur.at(o);
      Time arrive = c.ready + p.travel(c.node, t.node);
      if (c.from_txn) arrive = std::max(arrive, c.ready + 1);
      e = std::max(e, arrive);
    }
    for (const ObjId o : t.objects) cur[o] = {o, t.node, e, true};
    r.assignments.push_back({t.id, e});
    r.makespan = std::max(r.makespan, e - p.now);
  }
  return r;
}

/// Indices into p.txns ordered by (exec, id), exec read through a map.
inline std::vector<std::size_t> exec_order(const BatchProblem& p,
                                           const BatchResult& r) {
  std::map<TxnId, Time> exec;
  for (const auto& a : r.assignments) exec[a.txn] = a.exec;
  std::vector<std::size_t> order(p.txns.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const Time ea = exec.at(p.txns[a].id);
                     const Time eb = exec.at(p.txns[b].id);
                     if (ea != eb) return ea < eb;
                     return p.txns[a].id < p.txns[b].id;
                   });
  return order;
}

inline std::vector<BatchObject> availability_after_prefix(
    const BatchProblem& p, const BatchResult& r, std::size_t prefix_len) {
  const auto order = oracle::exec_order(p, r);
  std::map<ObjId, BatchObject> avail;
  for (const auto& o : p.objects) avail[o.id] = o;
  for (std::size_t i = 0; i < prefix_len; ++i) {
    const BatchTxn& t = p.txns[order[i]];
    const Time e = r.exec_of(t.id);
    for (const ObjId o : t.objects) avail[o] = {o, t.node, e, true};
  }
  std::vector<BatchObject> out;
  for (const auto& [_, o] : avail) out.push_back(o);
  return out;
}

/// The suffix-property wrapper, replaying every prefix from scratch.
class SuffixWrapper final : public BatchScheduler {
 public:
  explicit SuffixWrapper(std::shared_ptr<const BatchScheduler> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] BatchResult schedule(const BatchProblem& p,
                                     Rng& rng) const override {
    BatchResult cur = inner_->schedule(p, rng);
    const std::size_t n = p.txns.size();
    if (n <= 1) return cur;
    auto budget = static_cast<std::int32_t>(4 * n + 8);
    bool changed = true;
    while (changed && budget > 0) {
      changed = false;
      const auto order = oracle::exec_order(p, cur);
      for (std::size_t start = 1; start < n && budget > 0; ++start) {
        BatchProblem sub;
        sub.oracle = p.oracle;
        sub.latency_factor = p.latency_factor;
        sub.now = p.now;
        sub.objects = oracle::availability_after_prefix(p, cur, start);
        for (std::size_t i = start; i < n; ++i)
          sub.txns.push_back(p.txns[order[i]]);
        --budget;
        const BatchResult redo = inner_->schedule(sub, rng);
        Time span = 0;
        for (std::size_t i = start; i < n; ++i)
          span = std::max(span, cur.exec_of(p.txns[order[i]].id) - p.now);
        if (redo.makespan < span) {
          std::map<TxnId, Time> exec;
          for (const auto& a : cur.assignments) exec[a.txn] = a.exec;
          for (const auto& a : redo.assignments) exec[a.txn] = a.exec;
          cur.assignments.clear();
          cur.makespan = 0;
          for (const auto& t : p.txns) {
            cur.assignments.push_back({t.id, exec.at(t.id)});
            cur.makespan = std::max(cur.makespan, exec.at(t.id) - p.now);
          }
          oracle::check_batch_result(p, cur);
          changed = true;
          break;
        }
      }
    }
    oracle::check_batch_result(p, cur);
    return cur;
  }
  [[nodiscard]] std::string name() const override { return "ref-suffix"; }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }

 private:
  std::shared_ptr<const BatchScheduler> inner_;
};

/// Stable sort by a key functor evaluated inside the comparator.
template <typename KeyFn>
std::vector<std::size_t> order_by_key(const BatchProblem& p, KeyFn key) {
  std::vector<std::size_t> order(p.txns.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto ka = key(p.txns[a]);
                     const auto kb = key(p.txns[b]);
                     if (ka != kb) return ka < kb;
                     return p.txns[a].id < p.txns[b].id;
                   });
  return order;
}

inline std::unique_ptr<BatchScheduler> make_clique_batch() {
  return std::make_unique<OrderedChainBatch>(
      "ref-clique-load",
      [](const BatchProblem& p, Rng&, std::vector<std::size_t>& out) {
        std::map<ObjId, std::int64_t> load;
        for (const auto& t : p.txns)
          for (const ObjId o : t.objects) ++load[o];
        out = oracle::order_by_key(p, [&](const BatchTxn& t) {
          std::int64_t w = 0;
          for (const ObjId o : t.objects) w += load[o];
          return -w;
        });
      });
}

inline std::unique_ptr<BatchScheduler> make_cluster_batch(NodeId beta) {
  return std::make_unique<OrderedChainBatch>(
      "ref-cluster-random",
      [beta](const BatchProblem& p, Rng& rng, std::vector<std::size_t>& out) {
        std::map<NodeId, NodeId> clique_rank;
        for (const auto& t : p.txns) clique_rank.emplace(t.node / beta, 0);
        std::vector<NodeId> cliques;
        for (const auto& [c, _] : clique_rank) cliques.push_back(c);
        rng.shuffle(cliques);
        for (std::size_t i = 0; i < cliques.size(); ++i)
          clique_rank[cliques[i]] = static_cast<NodeId>(i);
        out = oracle::order_by_key(p, [&](const BatchTxn& t) {
          return std::pair(clique_rank[t.node / beta], t.node % beta);
        });
      },
      /*is_randomized=*/true);
}

inline std::unique_ptr<BatchScheduler> make_star_batch(NodeId beta) {
  return std::make_unique<OrderedChainBatch>(
      "ref-star-random",
      [beta](const BatchProblem& p, Rng& rng, std::vector<std::size_t>& out) {
        std::map<NodeId, NodeId> ray_rank;
        for (const auto& t : p.txns)
          if (t.node != 0) ray_rank.emplace((t.node - 1) / beta, 0);
        std::vector<NodeId> rays;
        for (const auto& [r, _] : ray_rank) rays.push_back(r);
        rng.shuffle(rays);
        for (std::size_t i = 0; i < rays.size(); ++i)
          ray_rank[rays[i]] = static_cast<NodeId>(i);
        out = oracle::order_by_key(p, [&](const BatchTxn& t) {
          if (t.node == 0) return std::pair<NodeId, NodeId>(-1, 0);
          return std::pair(ray_rank[(t.node - 1) / beta], (t.node - 1) % beta);
        });
      },
      /*is_randomized=*/true);
}

inline ValidationError validate_schedule(
    const std::vector<ScheduledTxn>& scheduled,
    const std::vector<ObjectOrigin>& origins, const DistanceOracle& oracle,
    std::int64_t latency_factor) {
  std::map<ObjId, ObjectOrigin> origin_of;
  for (const auto& o : origins) origin_of[o.id] = o;
  std::map<ObjId, std::vector<const ScheduledTxn*>> users;
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
    for (const auto& a : s.txn.accesses) users[a.obj].push_back(&s);
  }
  for (auto& [obj, list] : users) {
    const auto it = origin_of.find(obj);
    if (it == origin_of.end()) {
      std::ostringstream os;
      os << "object " << obj << " is used but has no origin";
      return os.str();
    }
    std::sort(list.begin(), list.end(),
              [](const ScheduledTxn* a, const ScheduledTxn* b) {
                return a->exec < b->exec ||
                       (a->exec == b->exec && a->txn.id < b->txn.id);
              });
    NodeId pos = it->second.node;
    Time free_at = it->second.created;
    bool from_txn = false;
    for (const ScheduledTxn* s : list) {
      const Weight d = oracle.dist(pos, s->txn.node);
      Time needed = free_at + latency_factor * d;
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

/// Trail directory over node-based maps, observed object by object.
class TrailDirectory {
 public:
  void register_object(ObjId id, NodeId birth) {
    Trail t;
    t.birth = birth;
    t.terminus = birth;
    trails_.emplace(id, std::move(t));
  }
  void observe(const ObjectState& obj) {
    Trail& t = trails_.at(obj.id());
    if (obj.in_transit()) {
      if (!t.was_in_transit || t.leg_from != obj.leg_from() ||
          t.leg_to != obj.dest() || t.leg_depart != obj.depart_time()) {
        t.pointer[obj.leg_from()] = {obj.dest(), obj.depart_time()};
        t.leg_from = obj.leg_from();
        t.leg_to = obj.dest();
        t.leg_depart = obj.depart_time();
        t.was_in_transit = true;
        t.terminus = obj.dest();
      }
    } else {
      t.was_in_transit = false;
      t.terminus = obj.at();
    }
  }
  /// (departed, next, depart_time) as ObjectTrailDirectory::lookup.
  [[nodiscard]] std::tuple<bool, NodeId, Time> lookup(ObjId id, NodeId node,
                                                      Time now,
                                                      Time min_depart) const {
    const Trail& t = trails_.at(id);
    const auto pit = t.pointer.find(node);
    if (pit != t.pointer.end() && pit->second.second <= now &&
        (min_depart == kNoTime || pit->second.second >= min_depart))
      return {true, pit->second.first, pit->second.second};
    return {false, kNoNode, kNoTime};
  }
  [[nodiscard]] NodeId birth_node(ObjId id) const {
    return trails_.at(id).birth;
  }
  [[nodiscard]] NodeId current_terminus(ObjId id) const {
    return trails_.at(id).terminus;
  }

 private:
  struct Trail {
    NodeId birth = kNoNode;
    std::map<NodeId, std::pair<NodeId, Time>> pointer;
    NodeId terminus = kNoNode;
    bool was_in_transit = false;
    NodeId leg_from = kNoNode;
    NodeId leg_to = kNoNode;
    Time leg_depart = kNoTime;
  };
  std::map<ObjId, Trail> trails_;
};

}  // namespace dtm::oracle
