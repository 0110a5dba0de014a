#include "batch/soa_problem.hpp"

#include <algorithm>

namespace dtm {

void BatchProblemSoA::build(const BatchProblem& p) {
  // Object arrays in sorted-id order, a repeated id keeping its last row.
  static thread_local std::vector<BatchObject> objs;
  sorted_objects(p.objects, objs);
  n_ = p.txns.size();
  m_ = objs.size();
  rows_ = p.objects.size();

  obj_id_.resize(m_);
  obj_node_.resize(m_);
  obj_ready_.resize(m_);
  obj_from_.resize(m_);
  for (std::size_t j = 0; j < m_; ++j) {
    obj_id_[j] = objs[j].id;
    obj_node_[j] = objs[j].node;
    obj_ready_[j] = objs[j].ready;
    obj_from_[j] = objs[j].from_txn ? 1 : 0;
  }

  txn_id_.resize(n_);
  txn_node_.resize(n_);

  // CSR txn → object, preserving each row's access order.
  txn_off_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i)
    txn_off_[i + 1] = txn_off_[i] + p.txns[i].objects.size();
  txn_obj_.resize(txn_off_[n_]);
  for (std::size_t i = 0; i < n_; ++i) {
    txn_id_[i] = p.txns[i].id;
    txn_node_[i] = p.txns[i].node;
    std::size_t k = txn_off_[i];
    for (const ObjId o : p.txns[i].objects) txn_obj_[k++] = obj_index(o);
  }

  // CSR object → txn by counting sort over the flat txn→object array;
  // filling in ascending txn order makes every user row ascending.
  obj_off_.assign(m_ + 1, 0);
  for (const std::size_t j : txn_obj_) ++obj_off_[j + 1];
  for (std::size_t j = 0; j < m_; ++j) obj_off_[j + 1] += obj_off_[j];
  obj_txn_.resize(txn_obj_.size());
  static thread_local std::vector<std::size_t> cursor;
  cursor.assign(obj_off_.begin(), obj_off_.end() - 1);
  for (std::size_t i = 0; i < n_; ++i)
    for (const std::size_t j : txn_objects(i)) obj_txn_[cursor[j]++] = i;

  // Conflict rows: for each object, OR its user mask into every user's row
  // (word-parallel), then clear the diagonal. Built eagerly so a shared
  // view is read-only during parallel evaluation.
  row_words_ = bit_words_for(n_);
  conflict_.assign(n_ * row_words_, 0);
  user_scratch_.assign(row_words_, 0);
  for (std::size_t j = 0; j < m_; ++j) {
    const auto users = object_users(j);
    if (users.size() < 2) continue;
    for (const std::size_t i : users)
      user_scratch_[i / kBitWordBits] |= BitWord{1} << (i % kBitWordBits);
    for (const std::size_t i : users) {
      BitWord* row = conflict_.data() + i * row_words_;
      for (std::size_t w = 0; w < row_words_; ++w) row[w] |= user_scratch_[w];
    }
    for (const std::size_t i : users)
      user_scratch_[i / kBitWordBits] = 0;
  }
  for (std::size_t i = 0; i < n_; ++i)
    conflict_[i * row_words_ + i / kBitWordBits] &=
        ~(BitWord{1} << (i % kBitWordBits));
}

std::size_t BatchProblemSoA::obj_index(ObjId id) const {
  const auto it = std::lower_bound(obj_id_.begin(), obj_id_.end(), id);
  DTM_CHECK(it != obj_id_.end() && *it == id,
            "object " << id << " missing from SoA view");
  return static_cast<std::size_t>(it - obj_id_.begin());
}

bool BatchProblemSoA::matches(const BatchProblem& p) const {
  if (n_ != p.txns.size() || rows_ != p.objects.size()) return false;
  if (n_ > 0 &&
      (txn_id_[0] != p.txns[0].id || txn_id_[n_ - 1] != p.txns[n_ - 1].id))
    return false;
  return true;
}

namespace {

/// The SoA twin of the scalar chain walk (batch_scheduler.cpp): the same
/// visit, hands each (txn index, exec) to `emit`, returns the makespan or
/// the running makespan once it reaches `cutoff`.
template <typename Emit>
Time walk_soa(const BatchProblem& p, const BatchProblemSoA& s,
              const std::vector<std::size_t>& order, Time cutoff, Emit emit) {
  check_permutation(order, s.num_txns());
  // Dense cursor arrays indexed by the SoA object index — the SoA analogue
  // of the scalar path's sorted cursor table, with O(1) lookups.
  static thread_local std::vector<NodeId> cur_node;
  static thread_local std::vector<Time> cur_free;
  static thread_local std::vector<std::uint8_t> cur_from;
  cur_node.assign(s.obj_node().begin(), s.obj_node().end());
  cur_free.assign(s.obj_ready().begin(), s.obj_ready().end());
  cur_from.assign(s.obj_from_txn().begin(), s.obj_from_txn().end());

  const auto node = s.txn_node();
  Time makespan = 0;
  for (const std::size_t idx : order) {
    const NodeId tn = node[idx];
    Time e = p.now;
    for (const std::size_t j : s.txn_objects(idx)) {
      Time arrive = cur_free[j] + p.travel(cur_node[j], tn);
      if (cur_from[j]) arrive = std::max(arrive, cur_free[j] + 1);
      e = std::max(e, arrive);
    }
    for (const std::size_t j : s.txn_objects(idx)) {
      cur_node[j] = tn;
      cur_free[j] = e;
      cur_from[j] = 1;
    }
    emit(idx, e);
    makespan = std::max(makespan, e - p.now);
    if (makespan >= cutoff) break;
  }
  return makespan;
}

}  // namespace

BatchResult chain_evaluate_soa(const BatchProblem& p,
                               const BatchProblemSoA& s,
                               const std::vector<std::size_t>& order) {
  const auto ids = s.txn_ids();
  BatchResult r;
  r.assignments.reserve(order.size());
  r.makespan = walk_soa(p, s, order, kNoCutoff, [&](std::size_t idx, Time e) {
    r.assignments.push_back({ids[idx], e});
  });
  return r;
}

Time chain_makespan_soa(const BatchProblem& p, const BatchProblemSoA& s,
                        const std::vector<std::size_t>& order, Time cutoff) {
  return walk_soa(p, s, order, cutoff, [](std::size_t, Time) {});
}

}  // namespace dtm
