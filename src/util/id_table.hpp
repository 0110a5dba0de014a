// IdTable — position lookup for a fixed set of integer ids.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace dtm {

/// Maps each id of a set fixed at construction to its position, -1 for an
/// id outside the set. A dense set (id span at most 2·count + 64, what every
/// generator produces) resolves through a direct table over [min id, max
/// id]; a sparse one (only trace files carry them) through a sorted search.
/// A repeated id resolves to its last position.
class IdTable {
 public:
  IdTable() = default;

  /// Position i holds the id `id_of(items[i])`.
  template <typename Items, typename IdOf>
  IdTable(const Items& items, IdOf id_of) {
    if (items.empty()) return;
    std::int64_t lo = id_of(items.front());
    std::int64_t hi = lo;
    for (const auto& x : items) {
      lo = std::min<std::int64_t>(lo, id_of(x));
      hi = std::max<std::int64_t>(hi, id_of(x));
    }
    base_ = lo;
    const auto span = static_cast<std::uint64_t>(hi) -
                      static_cast<std::uint64_t>(lo) + 1;
    std::int32_t pos = 0;
    if (span <= 2 * items.size() + 64) {
      table_.assign(span, -1);
      for (const auto& x : items)
        table_[static_cast<std::size_t>(id_of(x) - lo)] = pos++;
      return;
    }
    sorted_.reserve(items.size());
    for (const auto& x : items) sorted_.emplace_back(id_of(x), pos++);
    std::sort(sorted_.begin(), sorted_.end());
  }

  [[nodiscard]] std::int32_t find(std::int64_t id) const {
    if (sorted_.empty()) {
      const std::uint64_t off = static_cast<std::uint64_t>(id) -
                                static_cast<std::uint64_t>(base_);
      return off < table_.size() ? table_[off] : -1;
    }
    // The last position of id's run precedes the first larger id.
    const auto next = std::upper_bound(
        sorted_.begin(), sorted_.end(), id,
        [](std::int64_t x, const std::pair<std::int64_t, std::int32_t>& e) {
          return x < e.first;
        });
    if (next == sorted_.begin() || std::prev(next)->first != id) return -1;
    return std::prev(next)->second;
  }

  /// False when the ids were too sparse for the direct table.
  [[nodiscard]] bool dense() const { return sorted_.empty(); }

 private:
  std::int64_t base_ = 0;
  std::vector<std::int32_t> table_;
  std::vector<std::pair<std::int64_t, std::int32_t>> sorted_;
};

}  // namespace dtm
