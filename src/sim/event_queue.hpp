#pragma once
// Pending-event set for the discrete-event engine, built for zero
// steady-state heap allocations and minimal cache traffic.
//
// EventQueue owns two things:
//
//   - the *callback storage* and the handle semantics: the compact/fat
//     callback slabs, the occupant words, the free lists, the sequence
//     counter and lazy cancellation.  EventHandle only ever talks to this
//     part;
//   - the *pending set*: a PendingHeap (sim/pending_heap.hpp), the
//     cache-line-aligned 4-ary min-heap over 16-byte PendingEntry records
//     (sim/pending_entry.hpp).
//
// Storage layout of the callback layer (no per-event allocation):
//   - compact callback slab: captures up to 56 bytes — the overwhelming
//     majority of engine events capture a `this` pointer plus an index or
//     two — live in 64-byte slots, one cache line each, in 64-byte-aligned
//     512-slot blocks that are never relocated;
//   - fat callback slab: the big captures (SimContext::deliver's backend
//     pointer, host and Packet by value — every local delivery) get full
//     EventFn slots in their own 512-slot blocks, allocated only if ever
//     used;
//   - occupant arrays: one 64-bit word per slot — the sequence number of
//     the event currently holding the slot, or a vacancy tag carrying the
//     free-list link.  Liveness checks touch only these dense arrays,
//     never the slabs.
//
// Ordering.  Events fire in (time, sequence) order; the sequence number
// makes simultaneous events fire in scheduling order, which keeps
// simulations deterministic.
//
// Firing.  fire_next() is the one way an event runs: it pops the pending
// record, vacates the occupant, sets the clock and invokes the callable
// where it lies in its slab slot — never relocated — then destroys it and
// frees the slot (from an RAII guard, so a throwing callback frees it
// too).  Right after the deletion it prefetches the slot the new heap
// minimum names, so that fetch overlaps the current callback.
//
// Handles.  push() returns an EventHandle addressing {slot index,
// generation}, where the generation is the event's unique sequence
// number.  A slot's occupant changes on every fire/cancel, so a stale
// handle — kept after its event fired, or pointing at a recycled slot —
// simply mismatches, and cancel()/pending() are safe no-ops.  No
// shared_ptr control block is ever allocated.  Sequence numbers are
// packed to 40 bits (≈10^12 events per queue); the slot field is 24 bits
// — bit 23 selects the pool, leaving 8.4M concurrently pending events
// per pool.  Exceeding either limit throws rather than wrapping.
// Handles must not outlive the EventQueue.
//
// Cancellation is lazy: cancel() destroys the callback, frees the slot
// and leaves the dead pending record to be skipped when it surfaces.
// When dead records outnumber live ones (past a fixed floor) the pending
// set is compacted in place, so mass-cancel workloads cannot strand
// unbounded dead memory.

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/pending_entry.hpp"
#include "sim/pending_heap.hpp"
#include "util/inline_fn.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// Non-allocating event callback.  Captures past kCompactFnCapacity land
/// here: SimContext::deliver's local capture (backend pointer, host and a
/// 56-byte Packet, 72 bytes in all — every local delivery is a fat event)
/// and test captures of a CrossShardMsg plus references (up to 104
/// bytes).  Bigger captures are a compile error — capture a pointer to
/// named state instead.
inline constexpr std::size_t kEventFnCapacity = 128;
using EventFn = util::InlineFn<void(), kEventFnCapacity>;

/// Storage type of the compact slab: a capture up to this size (plus the
/// vtable pointer) fills exactly one cache line.
inline constexpr std::size_t kCompactFnCapacity = 56;
using CompactFn = util::InlineFn<void(), kCompactFnCapacity>;

class EventQueue;

/// Handle returned by push(); cancel() is idempotent and safe after fire.
/// Copyable and trivially destructible; valid only while the queue that
/// issued it is alive.
class EventHandle {
 public:
  EventHandle() = default;

  /// True while the event is scheduled and not cancelled/fired.
  bool pending() const;

  /// Prevent the event from firing.  No-op if already fired/cancelled.
  void cancel();

 private:
  friend class EventQueue;
  friend class EventQueueTestPeer;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t seq)
      : queue_(q), seq_(seq), slot_(slot) {}

  EventQueue* queue_ = nullptr;
  std::uint64_t seq_ = 0;  ///< the event's generation: its sequence number
  std::uint32_t slot_ = 0;  ///< packed pool bit + pool-local index
};

/// The engine's event queue: callback slabs and handles over one
/// PendingHeap.  The hot push/fire path is inline, with no virtual dispatch.
class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue() { teardown_slots(); }
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// True if no live events remain.
  bool empty() const { return live_count_ == 0; }
  std::size_t live_count() const { return live_count_; }

  /// Schedule a callable at absolute time t (finite).  The callable is
  /// placement-constructed straight into its slot — no temporaries, no
  /// allocation.
  template <typename F>
  EventHandle push(Time t, F&& fn);

  /// Time of the earliest live event; kTimeInfinity when empty.
  Time next_time();

  /// Fire the earliest live event where it lies: pop its pending record,
  /// vacate its occupant, set `now` to its time and invoke the callable in
  /// its slab slot.  The callable is then destroyed and the slot freed,
  /// also when the call throws.  The callback may push, cancel (its own
  /// handle included: a no-op) and fire nested events, but must not
  /// clear() the queue.  Caller checks empty() first.
  void fire_next(Time& now);

  /// Discard every pending event (captures destroyed, slots recycled) and
  /// rewind to the fresh logical state while keeping every arena warm —
  /// callback slabs, occupant arrays, the pending heap's buffer.
  /// Outstanding handles go permanently stale (sequence numbers stay
  /// monotone across clears — the pre-clear epoch can never be confused
  /// with the new one), so stray cancel()/pending() calls remain safe
  /// no-ops.  Never allocates; the warm-reuse entry point of the engine.
  void clear() noexcept;

  std::size_t size_including_dead() const { return pending_.size(); }

  /// Read-only view of the pending heap (tests, telemetry).
  const PendingHeap& pending_set() const { return pending_; }

 private:
  friend class EventHandle;
  friend class EventQueueTestPeer;

  // -- slot slabs ---------------------------------------------------------
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kBlockShift = 9;  ///< 512 slots per block
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  /// Vacant-slot tag for occupants: top bit set, low 32 bits = next free.
  static constexpr std::uint64_t kVacantTag = std::uint64_t{1} << 63;
  /// Dead pending records are tolerated until they both exceed this floor
  /// and outnumber the live ones; then the pending set is compacted.
  static constexpr std::size_t kCompactFloor = 64;

  /// One cache line per compact event: vtable pointer + 56-byte capture.
  struct alignas(64) CompactSlot {
    CompactFn fn;
  };
  static_assert(sizeof(CompactSlot) == 64);

  CompactFn& compact_fn(std::uint32_t i) {
    return compact_slabs_[i >> kBlockShift][i & (kBlockSize - 1)].fn;
  }
  EventFn& fat_fn(std::uint32_t i) {
    return fat_slabs_[i >> kBlockShift][i & (kBlockSize - 1)];
  }
  std::uint64_t& occupant(std::uint32_t slot) {
    return occupant_[slot >> 23][slot & kPoolMask];
  }
  const std::uint64_t& occupant(std::uint32_t slot) const {
    return occupant_[slot >> 23][slot & kPoolMask];
  }
  bool entry_dead(const PendingEntry& e) const {
    // Vacant slots carry kVacantTag, which no 40-bit seq can equal.
    return occupant(entry_slot(e)) != entry_seq(e);
  }

  template <bool Fat>
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);  ///< link a vacated slot
  /// Destroy a slot's callable in place.  InlineFn's reset detaches the
  /// vtable before running the destructor, so the capture's teardown code
  /// sees an empty slot and may reenter cancel()/push() safely.
  void destroy_fn(std::uint32_t slot) {
    if (slot & kPoolBit) {
      fat_fn(slot & kPoolMask) = nullptr;
    } else {
      compact_fn(slot & kPoolMask) = nullptr;
    }
  }
  /// Destroys a fired callable and frees its slot when the call returns
  /// or throws.
  struct FiredSlot {
    EventQueue* queue;
    std::uint32_t slot;
    ~FiredSlot() {
      queue->destroy_fn(slot);
      queue->release_slot(slot);
    }
  };
  /// Start fetching every cache line of a slot's callable.
  void prefetch_slot(std::uint32_t slot);
  void cancel_handle(const EventHandle& h);
  /// Invalidate every occupant, then destroy all captures — while the
  /// occupant arrays are still alive.  The destructor calls this: a
  /// capture destructor that cancels another handle (RAII-guard pattern)
  /// then sees a vacant occupant and no-ops instead of reading freed
  /// occupant words or compacting a half-destroyed pending set.
  /// Idempotent.
  void teardown_slots() noexcept;
  /// Warm-reuse variant of teardown: destroy every capture exactly like
  /// teardown_slots, then relink ALL slots (ascending, so a reused queue
  /// hands slots out in the same order a fresh one grows them) into the
  /// free lists instead of leaving the arrays behind for the destructor.
  /// The slabs and occupant arrays are retained — no memory is freed —
  /// and next_seq_ is NOT rewound: generations stay monotone across
  /// resets, so a handle from a pre-reset epoch can never match a
  /// post-reset occupant (pending() is false, cancel() a no-op) even when
  /// its slot is reoccupied.  Never allocates.
  void reset_slots() noexcept;
  [[noreturn]] static void throw_nonfinite_time();
  [[noreturn]] static void throw_capacity_exhausted(const char* what);

  void skim_dead();  ///< pop dead records off the pending-set front

  // Callback slabs: stable blocks, never relocated.  Index 0 of
  // occupant_/free_head_ is the compact pool, 1 the fat pool.
  std::vector<std::unique_ptr<CompactSlot[]>> compact_slabs_;
  std::vector<std::unique_ptr<EventFn[]>> fat_slabs_;
  std::vector<std::uint64_t> occupant_[2];
  std::uint32_t free_head_[2] = {kNoSlot, kNoSlot};

  std::size_t live_count_ = 0;
  std::size_t dead_pending_ = 0;
  std::uint64_t next_seq_ = 0;

  PendingHeap pending_;
};

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->occupant(slot_) == seq_;
}

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel_handle(*this);
}

// ---- hot path, kept inline so Simulator::run sees through the calls -----

template <bool Fat>
inline std::uint32_t EventQueue::acquire_slot() {
  constexpr std::size_t pool = Fat ? 1 : 0;
  auto& occupants = occupant_[pool];
  if (free_head_[pool] != kNoSlot) {
    const std::uint32_t index = free_head_[pool];
    free_head_[pool] = static_cast<std::uint32_t>(occupants[index]);
    return index | (Fat ? kPoolBit : 0u);
  }
  const std::size_t index = occupants.size();
  if (index >= kPoolMask) throw_capacity_exhausted("pending events");
  if ((index & (kBlockSize - 1)) == 0) {
    // New block boundary.  make_unique, so the block cannot leak if the
    // slab vector's own growth throws.
    if constexpr (Fat) {
      fat_slabs_.push_back(std::make_unique<EventFn[]>(kBlockSize));
    } else {
      compact_slabs_.push_back(std::make_unique<CompactSlot[]>(kBlockSize));
    }
  }
  occupants.push_back(kVacantTag | kNoSlot);  // vacant until published
  return static_cast<std::uint32_t>(index) | (Fat ? kPoolBit : 0u);
}

inline void EventQueue::release_slot(std::uint32_t slot) {
  const std::size_t pool = slot >> 23;
  occupant(slot) = kVacantTag | free_head_[pool];
  free_head_[pool] = slot & kPoolMask;
}

template <typename F>
inline EventHandle EventQueue::push(Time t, F&& fn) {
  static_assert(EventFn::template fits<F>,
                "EventQueue::push: callable violates the EventFn contract "
                "(see util::InlineFn)");
  constexpr bool kFat = sizeof(std::decay_t<F>) > kCompactFnCapacity;
  if (!std::isfinite(t)) throw_nonfinite_time();
  if (next_seq_ >= kSeqLimit) throw_capacity_exhausted("event sequence");
  const std::uint32_t slot = acquire_slot<kFat>();
  const std::uint32_t index = slot & kPoolMask;
  const std::uint64_t seq = next_seq_;
  try {
    if constexpr (kFat) {
      fat_fn(index) = std::forward<F>(fn);  // constructed in place, no temp
    } else {
      compact_fn(index) = std::forward<F>(fn);
    }
    pending_.push(
        PendingEntry{time_key(t), (seq << kSlotShift) | slot});  // may grow
  } catch (...) {
    // The slot was never published (occupant still vacant-tagged), so a
    // capture destructor cancelling its own handle no-ops; destroy the
    // capture, then return the slot to the free list.
    destroy_fn(slot);
    release_slot(slot);
    throw;
  }
  next_seq_ = seq + 1;
  occupant(slot) = seq;
  ++live_count_;
  return EventHandle(this, slot, seq);
}

inline void EventQueue::skim_dead() {
  while (pending_.size() != 0 && entry_dead(pending_.min())) {
    pending_.pop_min();
    assert(dead_pending_ != 0 &&
           "dead pending record that cancel_handle never counted");
    --dead_pending_;
  }
}

inline Time EventQueue::next_time() {
  skim_dead();
  return pending_.size() == 0 ? kTimeInfinity
                              : key_time(pending_.min().time_key);
}

inline void EventQueue::prefetch_slot(std::uint32_t slot) {
#if defined(__GNUC__) || defined(__clang__)
  const std::uint32_t index = slot & kPoolMask;
  if (slot & kPoolBit) {
    // A fat slot spans several lines; stepping 64 bytes from its start
    // touches each of them for any pointer-aligned start.
    constexpr std::size_t kLines = (sizeof(EventFn) + 63) / 64;
    static_assert(64 - alignof(EventFn) + sizeof(EventFn) <= kLines * 64);
    const auto* p = reinterpret_cast<const char*>(&fat_fn(index));
    for (std::size_t line = 0; line < kLines; ++line) {
      __builtin_prefetch(p + 64 * line, /*rw=*/1);
    }
  } else {
    __builtin_prefetch(&compact_fn(index), /*rw=*/1);  // one line
  }
#else
  (void)slot;
#endif
}

inline void EventQueue::fire_next(Time& now) {
  skim_dead();
  assert(pending_.size() != 0 && "fire_next on empty EventQueue");
  const PendingEntry top = pending_.pop_min();
  if (pending_.size() != 0) prefetch_slot(entry_slot(pending_.min()));
  const std::uint32_t slot = entry_slot(top);
  // Vacate the occupant before the call: a callback or capture destructor
  // that cancels this very event then no-ops.  The slot joins the free
  // list only in ~FiredSlot, after the capture is destroyed, so nothing
  // pushed meanwhile can land on it; slab blocks are never relocated, so
  // pushes that grow the slabs cannot move the running capture.
  occupant(slot) = kVacantTag | kNoSlot;
  --live_count_;
  now = key_time(top.time_key);
  const FiredSlot fired{this, slot};
  if (slot & kPoolBit) {
    fat_fn(slot & kPoolMask)();
  } else {
    compact_fn(slot & kPoolMask)();
  }
}

}  // namespace emcast::sim
