// Reference message bus: the pre-wheel MessageBus, frozen — an allocating
// (deliver, seq) std::priority_queue popped one message at a time. Kept as
// the oracle for the wheel-equivalence fuzz suite (the wheel-backed
// dist/bus.hpp MessageBus must drain the exact same stream) and as the
// "before" side of bench_memory's bus microbench.
#pragma once

#include <queue>
#include <vector>

#include "dist/bus.hpp"

namespace dtm::oracle {

class HeapBus {
 public:
  explicit HeapBus(const DistanceOracle& oracle) : oracle_(&oracle) {}

  void send(NodeId from, NodeId to, Time now, Payload payload);
  void drain_into(Time now, std::vector<Message>& out);
  [[nodiscard]] Time next_delivery() const {
    return queue_.empty() ? kNoTime : queue_.top().deliver;
  }
  [[nodiscard]] std::int64_t messages_sent() const { return sent_; }

 protected:
  void deliver_at(NodeId from, NodeId to, Time sent, Time deliver,
                  Payload payload);

 private:
  struct Later {
    bool operator()(const Message& a, const Message& b) const {
      if (a.deliver != b.deliver) return a.deliver > b.deliver;
      return a.seq > b.seq;
    }
  };

  const DistanceOracle* oracle_;
  std::priority_queue<Message, std::vector<Message>, Later> queue_;
  std::int64_t seq_ = 0;
  std::int64_t sent_ = 0;
};

}  // namespace dtm::oracle
