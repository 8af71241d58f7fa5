#include "sim/fifo_queue.hpp"

#include <utility>

#include <gtest/gtest.h>

namespace emcast::sim {
namespace {

Packet make_packet(std::uint64_t id, Bits size) {
  Packet p;
  p.id = id;
  p.size = size;
  return p;
}

// A ring entry is a Packet plus its enqueue stamp, with no padding.
static_assert(sizeof(Packet) % alignof(Time) == 0);
constexpr std::size_t kEntryBytes = sizeof(Packet) + sizeof(Time);

TEST(FifoQueue, StartsEmpty) {
  FifoQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
  EXPECT_EQ(q.front(), nullptr);
}

TEST(FifoQueue, FifoOrder) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 100));
  q.push(make_packet(3, 100));
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_EQ(q.pop().id, 3u);
}

TEST(FifoQueue, BacklogAccountsBits) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 250));
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 350.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 250.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
}

TEST(FifoQueue, PeakBacklogIsHighWaterMark) {
  FifoQueue q;
  q.push(make_packet(1, 100));
  q.push(make_packet(2, 200));
  q.pop();
  q.push(make_packet(3, 50));
  EXPECT_DOUBLE_EQ(q.peak_backlog_bits(), 300.0);
}

TEST(FifoQueue, FrontPeeksWithoutRemoving) {
  FifoQueue q;
  q.push(make_packet(7, 64));
  ASSERT_NE(q.front(), nullptr);
  EXPECT_EQ(q.front()->id, 7u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(FifoQueue, TotalEnqueuedIsCumulative) {
  FifoQueue q;
  for (int i = 0; i < 5; ++i) q.push(make_packet(static_cast<std::uint64_t>(i), 10));
  while (!q.empty()) q.pop();
  q.push(make_packet(99, 10));
  EXPECT_EQ(q.total_enqueued(), 6u);
}

TEST(FifoQueue, ClearResetsBacklogButNotPeak) {
  FifoQueue q;
  q.push(make_packet(1, 500));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 0.0);
  EXPECT_DOUBLE_EQ(q.peak_backlog_bits(), 500.0);
}

TEST(FifoQueueRing, NeverPushedQueueHoldsNoHeap) {
  FifoQueue q;
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.heap_bytes(), 0u);
  EXPECT_FALSE(q.has_entry_before(1.0));
}

TEST(FifoQueueRing, HeapBytesCountTheWholeRing) {
  FifoQueue q;
  q.push(make_packet(1, 10));
  ASSERT_GT(q.capacity(), 0u);
  EXPECT_EQ(q.heap_bytes(), q.capacity() * kEntryBytes);
  while (q.size() <= q.capacity() / 2) q.push(make_packet(2, 10));
  EXPECT_EQ(q.heap_bytes(), q.capacity() * kEntryBytes)
      << "unoccupied slots are held too";
  const std::size_t cap = q.capacity();
  while (q.size() < cap + 1) q.push(make_packet(3, 10));
  EXPECT_EQ(q.capacity(), 2 * cap) << "a full ring doubles";
  EXPECT_EQ(q.heap_bytes(), q.capacity() * kEntryBytes);
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.heap_bytes(), 2 * cap * kEntryBytes) << "pops keep the ring";
}

TEST(FifoQueueRing, GrowthWhileWrappedKeepsFifoOrder) {
  // Fill the first ring, pop 3 and push 3: the front sits 3 slots in and
  // the back has wrapped to slot 2.  The next push grows a full, wrapped
  // ring and must copy the entries over in FIFO order.
  FifoQueue q;
  std::uint64_t next = 0;
  q.push(make_packet(next++, 10));
  const std::size_t cap = q.capacity();
  ASSERT_GT(cap, 3u);
  while (q.size() < cap) q.push(make_packet(next++, 10));
  for (int i = 0; i < 3; ++i) q.pop();
  for (int i = 0; i < 3; ++i) q.push(make_packet(next++, 10));
  ASSERT_EQ(q.capacity(), cap) << "the wrapped ring is full, not grown";
  q.push(make_packet(next++, 10));
  EXPECT_EQ(q.capacity(), 2 * cap);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 10.0 * static_cast<double>(cap + 1));
  for (std::uint64_t id = 3; id < next; ++id) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().id, id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueRing, PopNewestBeforeRemovesAcrossTheWrapPoint) {
  // A ring of 8 with its front at slot 5: entries 5..12 sit in slots
  // 5, 6, 7, 0, .., 4.  Entries 7 on are stamped at the decision instant
  // t = 7, so the pick is entry 6 (slot 6), and the newer entries behind
  // it shift down one slot across the wrap point.
  const auto stamp = [](std::uint64_t id) {
    return id >= 7 ? 7.0 : static_cast<Time>(id);
  };
  FifoQueue q;
  for (std::uint64_t id = 0; id < 8; ++id) {
    q.push(make_packet(id, 10), stamp(id));
  }
  ASSERT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 5; ++i) q.pop();
  for (std::uint64_t id = 8; id < 13; ++id) {
    q.push(make_packet(id, 10), stamp(id));
  }
  ASSERT_EQ(q.capacity(), 8u);
  EXPECT_EQ(q.pop_newest_before(7.0).id, 6u);
  EXPECT_DOUBLE_EQ(q.backlog_bits(), 70.0);
  EXPECT_TRUE(q.has_entry_before(7.0));
  for (const std::uint64_t want : {5u, 7u, 8u, 9u, 10u, 11u, 12u}) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.pop().id, want);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoQueueRing, ClearKeepsCapacityAndRefillDoesNotMove) {
  FifoQueue q;
  q.push(make_packet(0, 10));
  while (q.size() < q.capacity()) q.push(make_packet(1, 10));
  q.push(make_packet(2, 10));  // grow once
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.heap_bytes(), cap * kEntryBytes);
  q.push(make_packet(10, 10));
  const Packet* first = q.front();
  for (std::uint64_t id = 11; q.size() < cap; ++id) q.push(make_packet(id, 10));
  EXPECT_EQ(q.capacity(), cap) << "a refill up to capacity must not grow";
  EXPECT_EQ(q.front(), first) << "a refill up to capacity must not move";
  EXPECT_EQ(q.front()->id, 10u);
}

TEST(FifoQueueRing, MovedFromQueueIsEmptyAndUsable) {
  FifoQueue a;
  a.push(make_packet(1, 100), 1.0);
  a.push(make_packet(2, 200), 2.0);
  FifoQueue b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.backlog_bits(), 300.0);
  EXPECT_EQ(b.front()->id, 1u);
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the
  // subject of this test.
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.front(), nullptr);
  EXPECT_EQ(a.heap_bytes(), 0u);
  EXPECT_DOUBLE_EQ(a.backlog_bits(), 0.0);
  a.push(make_packet(3, 50));
  EXPECT_EQ(a.pop().id, 3u);

  FifoQueue c;
  c.push(make_packet(4, 10));
  c = std::move(b);
  EXPECT_EQ(c.pop().id, 1u);
  EXPECT_EQ(c.pop().id, 2u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.heap_bytes(), 0u);
  b.push(make_packet(5, 10));
  EXPECT_EQ(b.pop().id, 5u);
  // NOLINTEND(bugprone-use-after-move)
}

}  // namespace
}  // namespace emcast::sim
