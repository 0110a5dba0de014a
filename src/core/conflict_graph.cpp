#include "core/conflict_graph.hpp"

#include <algorithm>

#include "core/coloring.hpp"

namespace dtm {

namespace {

/// Conflict pairs: enumerate user pairs per object, pack as
/// (lo << 32 | hi), sort + unique. Reproduces the original all-pairs
/// (i, j) emission order exactly.
void conflict_pairs(const SystemView& view, const DependencyGraph& g,
                    const std::vector<ObjId>& objects,
                    std::vector<std::uint64_t>& pairs) {
  pairs.clear();
  for (const ObjId o : objects) {
    const auto users = view.live_users_of(o);
    for (std::size_t i = 0; i < users.size(); ++i) {
      const auto a = static_cast<std::uint32_t>(g.index_of(users[i]));
      for (std::size_t j = i + 1; j < users.size(); ++j) {
        const auto b = static_cast<std::uint32_t>(g.index_of(users[j]));
        const auto lo = std::min(a, b);
        const auto hi = std::max(a, b);
        pairs.push_back((static_cast<std::uint64_t>(lo) << 32) | hi);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

}  // namespace

DependencyGraph DependencyGraph::build(const SystemView& view) {
  DependencyGraph g;
  const Time now = view.now();

  const auto live = view.live_txns();  // id-ordered
  std::vector<ObjId> objects;
  g.nodes_.reserve(live.size());
  g.txn_index_.reserve(live.size());
  for (const TxnId id : live) {
    const Transaction& t = view.txn(id);
    g.txn_index_.emplace_back(id, static_cast<std::int32_t>(g.nodes_.size()));
    DependencyNode n;
    n.kind = DependencyNode::Kind::kLiveTxn;
    n.txn = id;
    const Time exec = view.assigned_exec(id);
    n.color = exec == kNoTime ? kNoTime : exec - now;
    g.nodes_.push_back(n);
    for (const auto& a : t.accesses) objects.push_back(a.obj);
  }
  std::sort(objects.begin(), objects.end());
  objects.erase(std::unique(objects.begin(), objects.end()), objects.end());
  // Holder nodes Z_t(o) for every object in play, in object-id order right
  // after the transaction nodes — a holder's index is holder_base + its
  // rank among the sorted object ids.
  const auto holder_base = static_cast<std::int32_t>(g.nodes_.size());
  for (const ObjId o : objects) {
    DependencyNode n;
    n.kind = DependencyNode::Kind::kHolder;
    n.holder_of = o;
    n.color = 0;  // the holder "executes at time t" (paper §III-B)
    g.nodes_.push_back(n);
  }
  const auto holder_index = [&](ObjId o) {
    const auto it = std::lower_bound(objects.begin(), objects.end(), o);
    return holder_base + static_cast<std::int32_t>(it - objects.begin());
  };

  // Conflict edges (H_t) from the object -> live-users inverted index: the
  // users of one object pairwise conflict, and a pair sharing several
  // objects gets one edge.
  std::vector<std::uint64_t> pairs;
  conflict_pairs(view, g, objects, pairs);
  for (const std::uint64_t key : pairs) {
    const auto i = static_cast<std::int32_t>(key >> 32);
    const auto j = static_cast<std::int32_t>(key & 0xffffffffu);
    const Transaction& a = view.txn(g.nodes_[static_cast<std::size_t>(i)].txn);
    const Transaction& b = view.txn(g.nodes_[static_cast<std::size_t>(j)].txn);
    g.edges_.push_back({i, j, std::max<Weight>(1, view.travel(a.node, b.node))});
  }
  // Holder edges (the H'_t extension): each user of o depends on Z_t(o)
  // with weight = the object's current travel time to the user.
  for (const ObjId o : objects) {
    for (const TxnId uid : view.live_users_of(o)) {
      const Transaction& u = view.txn(uid);
      const Weight w = view.object(o).time_to(u.node, now, view.oracle(),
                                              view.latency_factor());
      g.edges_.push_back({g.index_of(uid), holder_index(o), w});
    }
  }
  g.build_incidence();
  return g;
}

void DependencyGraph::build_incidence() {
  const std::size_t n = nodes_.size();
  inc_off_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++inc_off_[static_cast<std::size_t>(e.a) + 1];
    ++inc_off_[static_cast<std::size_t>(e.b) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) inc_off_[i + 1] += inc_off_[i];
  inc_edge_.resize(edges_.empty() ? 0 : static_cast<std::size_t>(inc_off_[n]));
  std::vector<std::int32_t> cursor(inc_off_.begin(), inc_off_.end() - 1);
  for (std::size_t ei = 0; ei < edges_.size(); ++ei) {
    const auto& e = edges_[ei];
    inc_edge_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.a)]++)] =
        static_cast<std::int32_t>(ei);
    inc_edge_[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(e.b)]++)] =
        static_cast<std::int32_t>(ei);
  }
}

std::int32_t DependencyGraph::degree(std::int32_t node) const {
  return static_cast<std::int32_t>(incident(node).size());
}

Weight DependencyGraph::weighted_degree(std::int32_t node) const {
  Weight g = 0;
  for (const auto e : incident(node))
    g += edges_[static_cast<std::size_t>(e)].weight;
  return g;
}

std::int32_t DependencyGraph::txn_degree(std::int32_t node) const {
  std::int32_t d = 0;
  for (const auto ei : incident(node)) {
    const auto& e = edges_[static_cast<std::size_t>(ei)];
    const auto other = e.a == node ? e.b : e.a;
    if (nodes_[static_cast<std::size_t>(other)].kind ==
        DependencyNode::Kind::kLiveTxn)
      ++d;
  }
  return d;
}

Weight DependencyGraph::txn_weighted_degree(std::int32_t node) const {
  Weight g = 0;
  for (const auto ei : incident(node)) {
    const auto& e = edges_[static_cast<std::size_t>(ei)];
    const auto other = e.a == node ? e.b : e.a;
    if (nodes_[static_cast<std::size_t>(other)].kind ==
        DependencyNode::Kind::kLiveTxn)
      g += e.weight;
  }
  return g;
}

std::int32_t DependencyGraph::index_of(TxnId t) const {
  const auto it = std::lower_bound(
      txn_index_.begin(), txn_index_.end(), t,
      [](const std::pair<TxnId, std::int32_t>& e, TxnId id) {
        return e.first < id;
      });
  return it == txn_index_.end() || it->first != t ? -1 : it->second;
}

bool DependencyGraph::valid_partial_coloring() const {
  for (const auto& e : edges_) {
    const Time ca = nodes_[static_cast<std::size_t>(e.a)].color;
    const Time cb = nodes_[static_cast<std::size_t>(e.b)].color;
    if (ca == kNoTime || cb == kNoTime) continue;
    if (std::abs(ca - cb) < e.weight) return false;
  }
  return true;
}

DependencyGraph::Stats DependencyGraph::stats() const {
  Stats s;
  s.edges = static_cast<std::int64_t>(edges_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == DependencyNode::Kind::kLiveTxn)
      ++s.live_txns;
    else
      ++s.holders;
    s.max_degree =
        std::max(s.max_degree, degree(static_cast<std::int32_t>(i)));
    s.max_weighted_degree = std::max(
        s.max_weighted_degree, weighted_degree(static_cast<std::int32_t>(i)));
  }
  return s;
}

}  // namespace dtm
