// FlatMap — a sorted-vector map for the per-id bookkeeping of the bucket
// schedulers (txn id -> trace row, txn id -> discovery slot).
//
// Ids reach these tables in (almost always) ascending order, so inserting
// is an append and a lookup is a binary search over contiguous pairs: no
// node per entry, no rebalancing, and erasing a small-value entry is a
// short memmove. Only the operations the schedulers use are provided.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace dtm {

template <typename K, typename V>
class FlatMap {
 public:
  /// Inserts or overwrites the value for `key`.
  void insert_or_assign(K key, V value) {
    if (v_.empty() || v_.back().first < key) {
      v_.emplace_back(key, std::move(value));
      return;
    }
    const auto it = lower_bound(v_, key);
    if (it != v_.end() && it->first == key) {
      it->second = std::move(value);
      return;
    }
    v_.insert(it, {key, std::move(value)});
  }

  /// The value for `key`, or nullptr.
  [[nodiscard]] V* find(K key) { return find(v_, key); }
  [[nodiscard]] const V* find(K key) const { return find(v_, key); }

  /// Removes `key`; returns whether it was present.
  bool erase(K key) {
    const auto it = lower_bound(v_, key);
    if (it == v_.end() || it->first != key) return false;
    v_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }

 private:
  template <typename Vec>
  static auto lower_bound(Vec& v, K key) {
    return std::lower_bound(
        v.begin(), v.end(), key,
        [](const std::pair<K, V>& a, K b) { return a.first < b; });
  }
  template <typename Vec>
  static auto find(Vec& v, K key) {
    const auto it = lower_bound(v, key);
    return it != v.end() && it->first == key ? &it->second : nullptr;
  }

  std::vector<std::pair<K, V>> v_;
};

}  // namespace dtm
