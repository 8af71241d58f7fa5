#include "sim/transport.hpp"

#include <sched.h>
#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <limits>
#include <new>
#include <utility>

namespace emcast::sim {

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void FrameAssembler::append(const std::uint8_t* p, std::size_t n) {
  buf_.insert(buf_.end(), p, p + n);
}

bool FrameAssembler::extract(std::vector<std::uint8_t>& out) {
  const std::size_t have = buf_.size() - off_;
  if (have < 4) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + off_, 4);
  if (have < 4 + static_cast<std::size_t>(len)) return false;
  out.assign(buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 4),
             buf_.begin() + static_cast<std::ptrdiff_t>(off_ + 4 + len));
  off_ += 4 + len;
  if (off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
  return true;
}

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "cross-process rings need lock-free 64-bit atomics");

/// Producer/consumer cursors of one SPSC byte ring, each on its own cache
/// line (they live in shared pages; false sharing here is cross-process).
struct Channel::Cursors {
  alignas(64) std::atomic<std::uint64_t> head{0};  ///< bytes produced
  alignas(64) std::atomic<std::uint64_t> tail{0};  ///< bytes consumed
};

/// One anonymous shared mapping holding both directions' cursors and
/// buffers.  Shared between the two Channel ends of a pair; each process
/// unmaps once its last end is destroyed.
struct Channel::Mapping {
  void* base = nullptr;
  std::size_t bytes = 0;
  ~Mapping() {
    if (base != nullptr) ::munmap(base, bytes);
  }
};

Channel::Channel(std::shared_ptr<Mapping> map, Cursors* tx,
                 std::uint8_t* tx_buf, Cursors* rx, std::uint8_t* rx_buf,
                 std::size_t ring_bytes)
    : map_(std::move(map)),
      tx_(tx),
      tx_buf_(tx_buf),
      rx_(rx),
      rx_buf_(rx_buf),
      cap_(ring_bytes) {}

void Channel::check_blocked(double elapsed, const char* op) const {
  if (probe_) {
    const std::string dead = probe_();
    if (!dead.empty()) {
      throw TransportError(std::string("transport: peer died while ") + op +
                           ": " + dead);
    }
  }
  if (elapsed > timeout_seconds_) {
    throw TransportError(std::string("transport: ") + op + " timeout after " +
                         std::to_string(timeout_seconds_) + " s");
  }
  sched_yield();
}

void Channel::send_frame(const std::uint8_t* data, std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw TransportError("transport: frame exceeds 4 GiB length prefix");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(n);
  std::uint8_t prefix[4];
  std::memcpy(prefix, &len, 4);
  write_bytes(prefix, 4);
  write_bytes(data, n);
}

bool Channel::try_recv_frame(std::vector<std::uint8_t>& out) {
  read_available();
  return assembler_.extract(out);
}

void Channel::recv_frame(std::vector<std::uint8_t>& out) {
  const double start = monotonic_seconds();
  while (!try_recv_frame(out)) {
    try {
      check_blocked(monotonic_seconds() - start, "recv");
    } catch (const TransportError&) {
      // The peer may have written its last frame (a worker's Bye) and
      // exited between the empty poll above and the probe: the frame is
      // complete in the ring, so deliver it rather than report a death
      // that lost nothing.
      if (try_recv_frame(out)) return;
      throw;
    }
  }
}

/// The deadline clock restarts on every chunk of progress, so a frame
/// larger than the ring only times out when the peer stops draining, not
/// merely because it is large.
void Channel::write_bytes(const std::uint8_t* p, std::size_t n) {
  std::size_t done = 0;
  double blocked_since = -1.0;
  while (done < n) {
    const std::uint64_t head = tx_->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = tx_->tail.load(std::memory_order_acquire);
    const std::size_t free = cap_ - static_cast<std::size_t>(head - tail);
    if (free == 0) {
      const double now = monotonic_seconds();
      if (blocked_since < 0.0) blocked_since = now;
      check_blocked(now - blocked_since, "send");
      continue;
    }
    blocked_since = -1.0;
    const std::size_t chunk = free < (n - done) ? free : (n - done);
    const std::size_t pos = static_cast<std::size_t>(head % cap_);
    const std::size_t first = chunk < (cap_ - pos) ? chunk : (cap_ - pos);
    std::memcpy(tx_buf_ + pos, p + done, first);
    std::memcpy(tx_buf_, p + done + first, chunk - first);
    tx_->head.store(head + chunk, std::memory_order_release);
    done += chunk;
  }
}

void Channel::read_available() {
  const std::uint64_t tail = rx_->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = rx_->head.load(std::memory_order_acquire);
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  if (avail == 0) return;
  const std::size_t pos = static_cast<std::size_t>(tail % cap_);
  const std::size_t first = avail < (cap_ - pos) ? avail : (cap_ - pos);
  assembler_.append(rx_buf_ + pos, first);
  assembler_.append(rx_buf_, avail - first);
  rx_->tail.store(tail + avail, std::memory_order_release);
}

ChannelPair make_shm_pair(std::size_t ring_bytes) {
  if (ring_bytes == 0) {
    throw TransportError("transport: shm ring capacity must be > 0");
  }
  using Cursors = Channel::Cursors;
  const std::size_t meta = 2 * sizeof(Cursors);
  const std::size_t total = meta + 2 * ring_bytes;
  void* base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) {
    throw TransportError(std::string("transport: mmap(MAP_SHARED): ") +
                         std::strerror(errno));
  }
  auto map = std::make_shared<Channel::Mapping>();
  map->base = base;
  map->bytes = total;

  auto* cursors = static_cast<Cursors*>(base);
  Cursors* a = new (&cursors[0]) Cursors();  // hub -> worker
  Cursors* b = new (&cursors[1]) Cursors();  // worker -> hub
  auto* bufs = static_cast<std::uint8_t*>(base) + meta;
  std::uint8_t* buf_a = bufs;
  std::uint8_t* buf_b = bufs + ring_bytes;

  ChannelPair pair;
  pair.hub_end.reset(new Channel(map, a, buf_a, b, buf_b, ring_bytes));
  pair.worker_end.reset(new Channel(map, b, buf_b, a, buf_a, ring_bytes));
  return pair;
}

}  // namespace emcast::sim
