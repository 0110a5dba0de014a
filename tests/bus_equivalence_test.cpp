// Wheel-vs-heap bus equivalence fuzz (PERF.md §8).
//
// The wheel-backed MessageBus claims byte-identical (deliver, seq) pop
// order with the frozen heap bus (tests/oracle/heap_bus.hpp). These tests
// drive both with the same random monotone send/drain schedule — mixed
// payload kinds, equal delivery times forcing seq tie-breaks, and explicit
// far-future deliveries that overflow the wheel's ring horizon — and
// assert the drained streams match field-for-field.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "dist/bus.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"
#include "util/timing_wheel.hpp"
#include "oracle/heap_bus.hpp"

namespace dtm {
namespace {

// deliver_at is protected (only the fault decorator schedules explicit
// times in production); the fuzz needs it to craft horizon-overflowing
// deliveries.
class WheelProbe : public MessageBus {
 public:
  using MessageBus::deliver_at;
  using MessageBus::MessageBus;
};

class HeapProbe : public oracle::HeapBus {
 public:
  using oracle::HeapBus::deliver_at;
  using oracle::HeapBus::HeapBus;
};

void expect_same_message(const Message& a, const Message& b,
                         const char* what, int step) {
  ASSERT_EQ(a.from, b.from) << what << " step " << step;
  ASSERT_EQ(a.to, b.to) << what << " step " << step;
  ASSERT_EQ(a.sent, b.sent) << what << " step " << step;
  ASSERT_EQ(a.deliver, b.deliver) << what << " step " << step;
  ASSERT_EQ(a.seq, b.seq) << what << " step " << step;
  ASSERT_EQ(a.payload.index(), b.payload.index()) << what << " step " << step;
  if (const auto* pa = std::get_if<ProbeMsg>(&a.payload)) {
    const auto& pb = std::get<ProbeMsg>(b.payload);
    EXPECT_EQ(pa->requester, pb.requester);
    EXPECT_EQ(pa->object, pb.object);
    EXPECT_EQ(pa->epoch, pb.epoch);
  } else if (const auto* ra = std::get_if<ReplyMsg>(&a.payload)) {
    const auto& rb = std::get<ReplyMsg>(b.payload);
    EXPECT_EQ(ra->requester, rb.requester);
    EXPECT_EQ(ra->object, rb.object);
    EXPECT_EQ(ra->object_free_at, rb.object_free_at);
    ASSERT_EQ(ra->users.size(), rb.users.size());
    for (std::size_t i = 0; i < ra->users.size(); ++i) {
      EXPECT_EQ(ra->users[i].first, rb.users[i].first);
      EXPECT_EQ(ra->users[i].second, rb.users[i].second);
    }
  } else {
    EXPECT_EQ(std::get<ReportMsg>(a.payload).txn,
              std::get<ReportMsg>(b.payload).txn);
  }
}

Payload random_payload(Rng& rng, std::int64_t tag) {
  switch (rng.uniform_int(0, 2)) {
    case 0: {
      ProbeMsg p;
      p.requester = static_cast<TxnId>(tag);
      p.object = static_cast<ObjId>(tag % 7);
      p.epoch = static_cast<std::int32_t>(tag % 3);
      return p;
    }
    case 1: {
      ReplyMsg r;
      r.requester = static_cast<TxnId>(tag);
      r.object = static_cast<ObjId>(tag % 5);
      r.object_free_at = tag * 2;
      // Sometimes spill past the inline capacity: equivalence must hold
      // for heap-backed user lists too.
      const std::int64_t users =
          rng.uniform_int(0, 2 * static_cast<std::int64_t>(
                                     ReplyUsers::inline_capacity()));
      for (std::int64_t u = 0; u < users; ++u)
        r.users.emplace_back(static_cast<TxnId>(tag + u),
                             static_cast<NodeId>(u % 4));
      return r;
    }
    default:
      return ReportMsg{static_cast<TxnId>(tag),
                       static_cast<std::int32_t>(tag % 2)};
  }
}

TEST(BusEquivalence, FuzzedMonotoneSchedulesMatchByteForByte) {
  const Network net = make_line(12);
  Rng rng(0xbeefULL);
  for (int round = 0; round < 12; ++round) {
    WheelProbe wheel(*net.oracle);
    HeapProbe heap(*net.oracle);
    std::vector<Message> got_w;
    std::vector<Message> got_h;
    Time now = 0;
    std::int64_t tag = 0;
    for (int op = 0; op < 600; ++op) {
      const double r = rng.uniform01();
      if (r < 0.55) {
        const auto from = static_cast<NodeId>(rng.uniform_int(0, 11));
        const auto to = static_cast<NodeId>(rng.uniform_int(0, 11));
        const Payload p = random_payload(rng, tag++);
        wheel.send(from, to, now, p);
        heap.send(from, to, now, p);
      } else if (r < 0.7) {
        // Far-future delivery, often beyond the wheel's ring horizon.
        const Time deliver =
            now + rng.uniform_int(
                      0, 4 * static_cast<Time>(TimingWheel<Message>::kSlots));
        const Payload p = random_payload(rng, tag++);
        wheel.deliver_at(2, 9, now, deliver, p);
        heap.deliver_at(2, 9, now, deliver, p);
      } else {
        now += rng.uniform_int(0, 300);
        wheel.drain_into(now, got_w);
        heap.drain_into(now, got_h);
        ASSERT_EQ(got_w.size(), got_h.size())
            << "round " << round << " op " << op;
        for (std::size_t i = 0; i < got_w.size(); ++i)
          expect_same_message(got_w[i], got_h[i], "drain", op);
      }
    }
    // Flush: both must report the same horizon and empty out together.
    ASSERT_EQ(wheel.next_delivery(), heap.next_delivery()) << "round " << round;
    now += 8 * static_cast<Time>(TimingWheel<Message>::kSlots);
    wheel.drain_into(now, got_w);
    heap.drain_into(now, got_h);
    ASSERT_EQ(got_w.size(), got_h.size()) << "round " << round << " flush";
    for (std::size_t i = 0; i < got_w.size(); ++i)
      expect_same_message(got_w[i], got_h[i], "flush", round);
    EXPECT_EQ(wheel.next_delivery(), kNoTime);
    EXPECT_EQ(heap.next_delivery(), kNoTime);
    EXPECT_EQ(wheel.messages_sent(), heap.messages_sent());
  }
}

TEST(BusEquivalence, EqualDeliveryTimesPreserveSendOrder) {
  // All sends land at the same delivery step: pop order must be exactly
  // send order (the seq tie-break), on both implementations.
  const Network net = make_line(4);
  MessageBus wheel(*net.oracle);
  oracle::HeapBus heap(*net.oracle);
  for (int i = 0; i < 50; ++i) {
    wheel.send(0, 1, 10, ReportMsg{i});
    heap.send(0, 1, 10, ReportMsg{i});
  }
  std::vector<Message> got_w;
  std::vector<Message> got_h;
  wheel.drain_into(11, got_w);
  heap.drain_into(11, got_h);
  ASSERT_EQ(got_w.size(), 50u);
  ASSERT_EQ(got_h.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(std::get<ReportMsg>(got_w[i].payload).txn, i);
    EXPECT_EQ(std::get<ReportMsg>(got_h[i].payload).txn, i);
  }
}

}  // namespace
}  // namespace dtm
