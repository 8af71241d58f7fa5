// Engine-internal semantics of the slot-based event queue: handle
// generations across slot reuse, cancel-after-fire, sequence-space
// exhaustion, dead-entry compaction, the ordering bit-tricks, and firing
// a callable in place in its slot.

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace emcast::sim {

/// White-box access for the generation/compaction tests.
class EventQueueTestPeer {
 public:
  static void set_next_seq(EventQueue& q, std::uint64_t s) {
    q.next_seq_ = s;
  }
  static std::uint64_t seq_limit() { return EventQueue::kSeqLimit; }
  static std::uint32_t slot_of(const EventHandle& h) { return h.slot_; }
  static std::uint64_t generation_of(const EventHandle& h) { return h.seq_; }
  static std::size_t dead_pending(const EventQueue& q) {
    return q.dead_pending_;
  }
};

namespace {

/// Fire the earliest live event; returns its time.
Time fire_one(EventQueue& q) {
  Time now = 0.0;
  q.fire_next(now);
  return now;
}

/// Fire every live event in order.
void drain(EventQueue& q) {
  while (!q.empty()) fire_one(q);
}

TEST(EventEngine, FiredSlotIsReusedWithFreshGeneration) {
  EventQueue q;
  auto h1 = q.push(1.0, [] {});
  fire_one(q);
  auto h2 = q.push(2.0, [] {});
  // Same storage slot, different generation.
  EXPECT_EQ(EventQueueTestPeer::slot_of(h1), EventQueueTestPeer::slot_of(h2));
  EXPECT_NE(EventQueueTestPeer::generation_of(h1),
            EventQueueTestPeer::generation_of(h2));
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
}

TEST(EventEngine, StaleHandleCannotCancelSlotsNewOccupant) {
  EventQueue q;
  auto stale = q.push(1.0, [] {});
  fire_one(q);  // slot freed
  bool fired = false;
  auto live = q.push(2.0, [&] { fired = true; });
  stale.cancel();  // must be a no-op against the recycled slot
  EXPECT_TRUE(live.pending());
  ASSERT_FALSE(q.empty());
  fire_one(q);
  EXPECT_TRUE(fired);
}

TEST(EventEngine, CancelAfterFireThenReuseManyTimes) {
  EventQueue q;
  std::vector<EventHandle> stale;
  for (int round = 0; round < 100; ++round) {
    auto h = q.push(static_cast<double>(round), [] {});
    stale.push_back(h);
    fire_one(q);
    // Every retired handle stays inert no matter how often its slot
    // cycles.
    for (auto& s : stale) {
      s.cancel();
      EXPECT_FALSE(s.pending());
    }
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventEngine, GenerationSpaceNearLimitStillOrdersCorrectly) {
  EventQueue q;
  EventQueueTestPeer::set_next_seq(q, EventQueueTestPeer::seq_limit() - 3);
  std::vector<int> order;
  q.push(5.0, [&] { order.push_back(0); });
  q.push(5.0, [&] { order.push_back(1); });
  auto h = q.push(5.0, [&] { order.push_back(2); });
  h.cancel();
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventEngine, GenerationSpaceExhaustionThrowsInsteadOfWrapping) {
  EventQueue q;
  EventQueueTestPeer::set_next_seq(q, EventQueueTestPeer::seq_limit() - 1);
  q.push(1.0, [] {});  // the last representable sequence number
  EXPECT_THROW(q.push(2.0, [] {}), std::length_error);
}

TEST(EventEngine, MassCancelTriggersCompaction) {
  EventQueue q;
  std::vector<EventHandle> handles;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    handles.push_back(q.push(1.0 + i, [] {}));
  }
  for (int i = 0; i < n; ++i) {
    if (i % 10 != 0) handles[static_cast<std::size_t>(i)].cancel();
  }
  // Compaction must have reclaimed dead records: far fewer than the 900
  // cancellations can remain.
  EXPECT_LT(q.size_including_dead(), 300u);
  EXPECT_EQ(q.live_count(), 100u);
  double prev = 0.0;
  int popped = 0;
  while (!q.empty()) {
    const Time t = fire_one(q);
    EXPECT_GT(t, prev);
    prev = t;
    ++popped;
  }
  EXPECT_EQ(popped, 100);
}

TEST(EventEngine, SignedZerosAreATieBrokenBySchedulingOrder) {
  // -0.0 == +0.0, so the documented (time, seq) contract makes scheduling
  // order decide — the integer time key must not order them apart.
  EventQueue q;
  std::vector<int> order;
  q.push(+0.0, [&] { order.push_back(0); });
  q.push(-0.0, [&] { order.push_back(1); });
  q.push(+0.0, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventEngine, NegativeTimesOrderCorrectly) {
  // The order-preserving double→uint64 key must handle negatives.
  EventQueue q;
  std::vector<double> order;
  for (double t : {3.5, -2.0, 0.0, -7.25, 1.0, -0.5}) {
    q.push(t, [&order, t] { order.push_back(t); });
  }
  drain(q);
  EXPECT_EQ(order, (std::vector<double>{-7.25, -2.0, -0.5, 0.0, 1.0, 3.5}));
}

TEST(EventEngine, InterleavedCancelKeepsDeterministicTieBreak) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  // Scramble slot assignment: cancel odd pushes so their slots recycle.
  for (int i = 0; i < 50; ++i) {
    handles.push_back(q.push(10.0, [&order, i] { order.push_back(i); }));
    if (i % 2 == 1) handles.back().cancel();
  }
  drain(q);
  ASSERT_EQ(order.size(), 25u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);  // scheduling order, despite reuse
  }
}

TEST(EventEngine, CaptureDestructorMayCancelItsOwnHandle) {
  // RAII-guard pattern: the capture cancels its own handle on
  // destruction.  cancel() must vacate the slot before running the
  // destructor, so the reentrant cancel is a stale-handle no-op.
  EventQueue q;
  EventHandle handle;
  struct SelfCancel {
    EventHandle* h;
    ~SelfCancel() {
      if (h != nullptr) h->cancel();
    }
    SelfCancel(EventHandle* handle) : h(handle) {}
    SelfCancel(SelfCancel&& o) noexcept : h(o.h) { o.h = nullptr; }
    void operator()() const {}
  };
  handle = q.push(1.0, SelfCancel{&handle});
  handle.cancel();  // must not recurse
  EXPECT_FALSE(handle.pending());
  EXPECT_TRUE(q.empty());
  // The slot must be cleanly reusable afterwards.
  bool fired = false;
  q.push(2.0, [&] { fired = true; });
  drain(q);
  EXPECT_TRUE(fired);
}

TEST(EventEngine, DefaultedMoveGuardMayCancelDuringRelocation) {
  // The harder reentrancy case: a guard whose move constructor is
  // DEFAULTED, so the moved-from source still holds the handle pointer
  // and its destructor — which runs inside cancel()'s teardown and after
  // fire_next()'s call — calls cancel() mid-teardown.
  struct Guard {
    EventHandle* h;
    ~Guard() {
      if (h != nullptr) h->cancel();
    }
    explicit Guard(EventHandle* handle) : h(handle) {}
    Guard(Guard&&) = default;
    void operator()() const {}
  };
  {
    // The argument temporary also keeps `h` (defaulted move), so it
    // cancels the event as the push expression ends — the engine must
    // survive that storm of cancels without recursion or corruption.
    EventQueue q;
    EventHandle handle;
    handle = q.push(1.0, Guard{&handle});
    EXPECT_FALSE(handle.pending());  // cancelled by the temp's destructor
    handle.cancel();                 // and again explicitly: still a no-op
    EXPECT_TRUE(q.empty());
  }
  {
    // Mid-fire reentrancy: disarm the local after the move, so only the
    // stored capture holds the handle — its destructor then runs when
    // fire_next() destroys the fired capture and cancels that event.
    EventQueue q;
    EventHandle handle;
    Guard local{&handle};
    handle = q.push(1.0, std::move(local));
    local.h = nullptr;  // defaulted move left it armed; disarm
    ASSERT_TRUE(handle.pending());
    int popped = 0;
    while (!q.empty()) {
      fire_one(q);
      ++popped;
    }
    EXPECT_EQ(popped, 1);
    EXPECT_FALSE(handle.pending());
    // Slot was freed exactly once: two new events must get distinct slots.
    auto a = q.push(2.0, [] {});
    auto b = q.push(3.0, [] {});
    EXPECT_NE(EventQueueTestPeer::slot_of(a), EventQueueTestPeer::slot_of(b));
    EXPECT_EQ(q.live_count(), 2u);
  }
}

TEST(EventEngine, QueueDestructionWithCrossCancellingCapturesIsSafe) {
  // RAII-guard captures that cancel OTHER handles on destruction: during
  // queue teardown every capture destructor runs, and each cancel must
  // find the occupant words alive and already vacated (stale-handle
  // no-op) — not freed memory, and never a compaction of a
  // half-destroyed pending set.  Enough events to cross the compaction
  // floor if the cancels were (wrongly) honoured.
  struct CrossCancel {
    std::vector<EventHandle>* all = nullptr;
    std::size_t other = 0;
    CrossCancel(std::vector<EventHandle>* a, std::size_t o)
        : all(a), other(o) {}
    CrossCancel(CrossCancel&& o) noexcept : all(o.all), other(o.other) {
      o.all = nullptr;
    }
    ~CrossCancel() {
      if (all != nullptr) (*all)[other].cancel();
    }
    void operator()() const {}
  };
  std::vector<EventHandle> handles(300);
  auto queue = std::make_unique<EventQueue>();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i] = queue->push(1.0 + static_cast<double>(i),
                             CrossCancel{&handles, (i + 7) % 300});
  }
  queue.reset();  // must not touch freed occupants or the pending set
}

TEST(EventEngine, ThrowingCopyDuringPushLeaksNoSlot) {
  struct ThrowingCopy {
    bool armed;
    explicit ThrowingCopy(bool a) : armed(a) {}
    ThrowingCopy(const ThrowingCopy& o) : armed(o.armed) {
      if (armed) throw std::runtime_error("copy refused");
    }
    ThrowingCopy(ThrowingCopy&&) noexcept = default;
    void operator()() const {}
  };
  EventQueue q;
  ThrowingCopy armed(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(q.push(1.0, armed), std::runtime_error);  // lvalue → copy
  }
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
  // The failed pushes must have returned their slot: the next push reuses
  // slot 0 rather than walking the slot space.
  auto h = q.push(1.0, [] {});
  EXPECT_EQ(EventQueueTestPeer::slot_of(h), 0u);
  fire_one(q);
}

TEST(EventEngine, DiscardableReturnValuesAreAccepted) {
  EventQueue q;
  int calls = 0;
  q.push(1.0, [&calls] { return ++calls; });  // non-void return, discarded
  drain(q);
  EXPECT_EQ(calls, 1);
}

TEST(EventEngine, LiveCountTracksPushPopCancel) {
  EventQueue q;
  EXPECT_EQ(q.live_count(), 0u);
  auto a = q.push(1.0, [] {});
  auto b = q.push(2.0, [] {});
  EXPECT_EQ(q.live_count(), 2u);
  a.cancel();
  EXPECT_EQ(q.live_count(), 1u);
  fire_one(q);
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_TRUE(q.empty());
  (void)b;
}

// ---- firing in place ---------------------------------------------------

TEST(EventEngine, FatCallbackGrowingTheSlabsKeepsItsOwnCapture) {
  // The firing callable runs in its slab slot.  Pushing 1100 fat events
  // from inside it crosses two 512-slot block boundaries (the slab table
  // reallocates); the blocks themselves never move, so the running
  // capture's address and bytes must be unchanged afterwards.
  struct Filler {
    std::uint64_t words[9];  // 72 bytes: a fat event
    void operator()() const {}
  };
  struct Grower {
    EventQueue* q;
    const Grower** seen_at;
    bool* intact;
    unsigned char pattern[96];
    void operator()() const {
      const Grower* before = this;
      unsigned char copy[sizeof(pattern)];
      std::memcpy(copy, pattern, sizeof(pattern));
      for (int i = 0; i < 1100; ++i) q->push(2.0 + i, Filler{});
      *seen_at = before;
      *intact = this == before &&
                std::memcmp(copy, pattern, sizeof(pattern)) == 0;
    }
  };
  static_assert(sizeof(Grower) > kCompactFnCapacity);
  EventQueue q;
  const Grower* seen_at = nullptr;
  bool intact = false;
  Grower g{&q, &seen_at, &intact, {}};
  for (std::size_t i = 0; i < sizeof(g.pattern); ++i) {
    g.pattern[i] = static_cast<unsigned char>(i * 7 + 1);
  }
  q.push(1.0, g);
  EXPECT_EQ(fire_one(q), 1.0);
  EXPECT_NE(seen_at, nullptr);
  EXPECT_TRUE(intact);
  EXPECT_EQ(q.live_count(), 1100u);
  drain(q);
}

TEST(EventEngine, CallbackCancellingItsOwnHandleFiresOnceAndFreesOnce) {
  EventQueue q;
  EventHandle self;
  int calls = 0;
  bool pending_inside = true;
  self = q.push(1.0, [&] {
    ++calls;
    pending_inside = self.pending();
    self.cancel();  // already vacated: a no-op
  });
  drain(q);
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(q.live_count(), 0u);
  EXPECT_EQ(EventQueueTestPeer::dead_pending(q), 0u);
  // Freed exactly once: two new events get distinct slots.
  auto a = q.push(2.0, [] {});
  auto b = q.push(3.0, [] {});
  EXPECT_NE(EventQueueTestPeer::slot_of(a), EventQueueTestPeer::slot_of(b));
  EXPECT_EQ(q.live_count(), 2u);
  drain(q);
}

TEST(EventEngine, ThrowingCallbackReleasesItsSlotAndRunResumes) {
  Simulator sim;
  std::vector<int> order;
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  sim.schedule_at(1.0, [&order] { order.push_back(1); });
  const EventHandle thrower = sim.schedule_at(2.0, [token] {
    throw std::runtime_error("callback failed");
  });
  sim.schedule_at(3.0, [&order] { order.push_back(3); });
  sim.schedule_at(4.0, [&order] { order.push_back(4); });
  token.reset();  // the capture holds the last reference now
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_FALSE(thrower.pending());
  EXPECT_TRUE(watch.expired()) << "the thrower's capture was not destroyed";
  // The thrower's slot was released last, so the free list hands it out
  // next: the slot was freed on the way out.
  const EventHandle next =
      sim.schedule_at(5.0, [&order] { order.push_back(5); });
  EXPECT_EQ(EventQueueTestPeer::slot_of(next),
            EventQueueTestPeer::slot_of(thrower));
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 5}));
}

TEST(EventEngine, CaptureDestructorCancellingManyCompactsAfterTheCall) {
  // The fired capture's destructor runs after the call and cancels 75
  // pending events: past the 64-record floor, so the pending set is
  // compacted while the fired slot is still being torn down.
  struct CancelOnDestroy {
    std::vector<EventHandle>* victims;
    explicit CancelOnDestroy(std::vector<EventHandle>* v) : victims(v) {}
    CancelOnDestroy(CancelOnDestroy&& o) noexcept : victims(o.victims) {
      o.victims = nullptr;
    }
    ~CancelOnDestroy() {
      if (victims == nullptr) return;
      for (EventHandle& h : *victims) h.cancel();
    }
    void operator()() const {}
  };
  EventQueue q;
  std::vector<EventHandle> victims;
  std::vector<int> order;
  std::vector<int> survivors;
  q.push(0.5, CancelOnDestroy{&victims});
  for (int i = 0; i < 100; ++i) {
    auto h = q.push(1.0 + i, [&order, i] { order.push_back(i); });
    if (i % 4 == 0) {
      survivors.push_back(i);
    } else {
      victims.push_back(h);
    }
  }
  EXPECT_EQ(fire_one(q), 0.5);
  EXPECT_EQ(q.live_count(), 25u);
  EXPECT_LT(q.size_including_dead(), 100u) << "no compaction ran";
  drain(q);
  EXPECT_EQ(order, survivors);
}

}  // namespace
}  // namespace emcast::sim
