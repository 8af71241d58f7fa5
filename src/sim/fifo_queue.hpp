#pragma once
// Byte-accounted FIFO of packets.  Used as the backlog store inside
// regulators and multiplexers.  Tracks the peak backlog, which the tests
// compare against the σ-based backlog bounds from the paper's lemmas.
//
// Entries carry an optional enqueue timestamp so LIFO-style service
// disciplines can make their pick a pure function of (decision time,
// queue content) rather than of event interleaving — see
// pop_newest_before() and core::Mux.  Plain FIFO users ignore the stamp.
//
// Storage is a power-of-two ring that is allocated on the first push and
// doubles when a push finds it full.  Pops and clear() keep the capacity,
// so a queue that has seen its working set never allocates again, and a
// queue that never holds a packet (most MUX classes, the idle side of an
// adaptive host) costs only sizeof(FifoQueue).  Move-only: the ring owns
// its buffer.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/packet.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class FifoQueue {
 public:
  FifoQueue() = default;
  /// The moved-from queue is empty, holds no buffer and stays usable.
  FifoQueue(FifoQueue&& other) noexcept;
  FifoQueue& operator=(FifoQueue&& other) noexcept;
  FifoQueue(const FifoQueue&) = delete;
  FifoQueue& operator=(const FifoQueue&) = delete;

  /// `enqueued_at` stamps the entry for pop_newest_before(); plain FIFO
  /// users may omit it.  May grow the ring, which invalidates any pointer
  /// front() returned earlier.
  void push(Packet p, Time enqueued_at = 0.0);

  /// Front packet without removing it; nullptr when empty.  The pointer is
  /// valid until the next push or pop on this queue: a push that grows the
  /// ring moves every entry.
  const Packet* front() const {
    return count_ == 0 ? nullptr : &buf_[head_].packet;
  }

  /// Remove and return the front packet.  Undefined when empty.
  Packet pop();

  /// Remove and return the *newest* packet (LIFO service).  Used by the
  /// adversarial general-MUX discipline, where a tagged packet can be
  /// overtaken even by later packets of its own flow.  Undefined when
  /// empty.
  Packet pop_newest();

  /// Remove and return the newest packet enqueued strictly *before* `t`;
  /// when every entry was enqueued at (or after) `t`, fall back to the
  /// front.  This is the tie-robust LIFO pick: a packet whose arrival
  /// shares the exact timestamp of the service decision is treated as not
  /// yet visible, so the choice is identical whether the tied arrival
  /// event executed before or after the decision event — the property the
  /// sharded engine's differential determinism relies on (a cross-shard
  /// arrival cannot reproduce the single-kernel tie order).  Undefined
  /// when empty.
  ///
  /// Residual limitation: if TWO packets from *distinct events* are
  /// enqueued at the same bit-exact instant, their relative queue order
  /// still follows event order.  Unlike the structural
  /// arrival-vs-completion grid tie (one upstream chain, shared C), that
  /// needs two independent float chains to collide exactly — accepted as
  /// out of scope; the differential suites pin the structural cases.
  Packet pop_newest_before(Time t);

  /// True when some entry was enqueued strictly before `t` — the
  /// "visible backlog" test service decisions at `t` use (stamps are
  /// non-decreasing, so the front holds the minimum).
  bool has_entry_before(Time t) const {
    return count_ != 0 && buf_[head_].enqueued_at < t;
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  /// Entries the ring holds without growing (0 before the first push).
  std::size_t capacity() const { return capacity_; }

  Bits backlog_bits() const { return backlog_bits_; }
  Bits peak_backlog_bits() const { return peak_backlog_bits_; }
  std::uint64_t total_enqueued() const { return total_enqueued_; }

  /// Heap bytes behind this queue: the whole ring, occupied or not (0
  /// before the first push).  Feeds the per-host memory budget report.
  std::size_t heap_bytes() const { return capacity() * sizeof(Entry); }

  /// Drop every entry and reset the backlog; the ring keeps its capacity.
  void clear();

 private:
  struct Entry {
    Packet packet;
    Time enqueued_at = 0.0;
  };
  /// The i-th entry from the front (i < count_).
  Entry& at(std::uint32_t i) { return buf_[(head_ + i) & (capacity_ - 1)]; }
  void grow();
  void account_pop(const Packet& p);

  std::unique_ptr<Entry[]> buf_;
  std::uint32_t capacity_ = 0;  ///< 0 or a power of two
  std::uint32_t head_ = 0;      ///< ring index of the front entry
  std::uint32_t count_ = 0;
  Bits backlog_bits_ = 0;
  Bits peak_backlog_bits_ = 0;
  std::uint64_t total_enqueued_ = 0;
};

}  // namespace emcast::sim
