#include "sim/fifo_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace emcast::sim {

namespace {
/// First ring size: a burst of a few packets fits without a regrow.
constexpr std::uint32_t kInitialCapacity = 4;
}  // namespace

FifoQueue::FifoQueue(FifoQueue&& other) noexcept
    : buf_(std::move(other.buf_)),
      capacity_(std::exchange(other.capacity_, 0)),
      head_(std::exchange(other.head_, 0)),
      count_(std::exchange(other.count_, 0)),
      backlog_bits_(std::exchange(other.backlog_bits_, 0)),
      peak_backlog_bits_(std::exchange(other.peak_backlog_bits_, 0)),
      total_enqueued_(std::exchange(other.total_enqueued_, 0)) {}

FifoQueue& FifoQueue::operator=(FifoQueue&& other) noexcept {
  if (this != &other) {
    buf_ = std::move(other.buf_);
    capacity_ = std::exchange(other.capacity_, 0);
    head_ = std::exchange(other.head_, 0);
    count_ = std::exchange(other.count_, 0);
    backlog_bits_ = std::exchange(other.backlog_bits_, 0);
    peak_backlog_bits_ = std::exchange(other.peak_backlog_bits_, 0);
    total_enqueued_ = std::exchange(other.total_enqueued_, 0);
  }
  return *this;
}

void FifoQueue::grow() {
  if (capacity_ > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("FifoQueue: ring capacity overflow");
  }
  const std::uint32_t grown =
      capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
  auto next = std::make_unique<Entry[]>(grown);
  for (std::uint32_t i = 0; i < count_; ++i) next[i] = std::move(at(i));
  buf_ = std::move(next);
  capacity_ = grown;
  head_ = 0;
}

void FifoQueue::push(Packet p, Time enqueued_at) {
  if (count_ == capacity_) grow();
  backlog_bits_ += p.size;
  peak_backlog_bits_ = std::max(peak_backlog_bits_, backlog_bits_);
  ++total_enqueued_;
  at(count_) = Entry{std::move(p), enqueued_at};
  ++count_;
}

void FifoQueue::account_pop(const Packet& p) {
  backlog_bits_ -= p.size;
  if (backlog_bits_ < 0) backlog_bits_ = 0;  // guard float drift
}

Packet FifoQueue::pop() {
  assert(count_ != 0);
  Packet p = std::move(buf_[head_].packet);
  head_ = (head_ + 1) & (capacity_ - 1);
  --count_;
  account_pop(p);
  return p;
}

Packet FifoQueue::pop_newest() {
  assert(count_ != 0);
  Packet p = std::move(at(count_ - 1).packet);
  --count_;
  account_pop(p);
  return p;
}

Packet FifoQueue::pop_newest_before(Time t) {
  assert(count_ != 0);
  // Enqueue stamps are non-decreasing, so the newest qualifying entry is
  // the last one with stamp < t; entries at (or past) `t` cluster at the
  // back.  The common case (no tie in flight) is the back entry — a plain
  // pop_newest; only a tie walks inward and shifts the newer entries
  // behind the pick down one slot (usually one or two of them).
  if (at(count_ - 1).enqueued_at < t) return pop_newest();
  for (std::uint32_t i = count_ - 1; i > 0;) {
    --i;
    if (at(i).enqueued_at < t) {
      Packet p = std::move(at(i).packet);
      for (std::uint32_t j = i; j + 1 < count_; ++j) {
        at(j) = std::move(at(j + 1));
      }
      --count_;
      account_pop(p);
      return p;
    }
  }
  return pop();  // everything tied: serve in FIFO order
}

void FifoQueue::clear() {
  head_ = 0;
  count_ = 0;
  backlog_bits_ = 0;
}

}  // namespace emcast::sim
