#pragma once
// Byte transport of the process-per-shard backend: a frame-oriented duplex
// Channel between the hub (parent) process and one worker process, built
// on a pair of lock-free SPSC byte rings in one MAP_SHARED | MAP_ANONYMOUS
// mapping created BEFORE fork(), so both processes address the same
// pages.  No syscalls per frame; blocked waits spin and yield.
//
// Framing: [u32 length][payload bytes], payload being one complete
// wire-codec frame (sim/wire_codec.hpp).  Frames may exceed the ring:
// send_frame() streams the bytes as space frees and try_recv_frame()
// reassembles across reads, so a 10-MB handoff batch moves through a
// 256-KB ring correctly (just with more wakeups).
//
// Failure semantics — the part the robustness tests pin:
//   - every blocking operation (send against a full ring, recv_frame)
//     carries a deadline; exceeding it throws TransportError ("timeout
//     after N s"), never hangs;
//   - an installed peer probe (waitpid on the hub side, parent-pid watch
//     on the worker side) is polled while waiting: a dead peer turns the
//     wait into an immediate TransportError carrying the probe's
//     diagnostic (exit status / signal), which is how a killed worker
//     mid-window surfaces as a clean abort instead of a hang.  A frame
//     the peer completed before it died is still delivered: recv_frame
//     polls once more after the probe reports death, because a worker
//     that sends its last frame and exits can otherwise be seen dead
//     before its frame is read.
//
// The two ends of a pair share the mapping; each process unmaps it when
// its last end is destroyed — the no-leak-across-resets regression test
// counts the mapped rings on exactly that.

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace emcast::sim {

/// Unread; kept until the next benchmark change (perfbench.cpp sets it).
enum class TransportKind { Shm };

class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Reassembles [u32 length][payload] frames from a byte stream that
/// arrives in arbitrary chunks.  `off_` defers the O(n) compaction until
/// the buffer fully drains (the common case between rounds).
class FrameAssembler {
 public:
  void append(const std::uint8_t* p, std::size_t n);
  bool extract(std::vector<std::uint8_t>& out);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;
};

struct ChannelPair;

/// One duplex frame channel between two processes.  NOT thread-safe: one
/// thread per direction per end (the process backend is single-threaded
/// in each process, so one thread total per end).
class Channel {
 public:
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deadline for every blocking operation (default 30 s).
  void set_timeout(double seconds) { timeout_seconds_ = seconds; }
  double timeout() const { return timeout_seconds_; }

  /// Liveness probe polled while blocked: return "" while the peer lives,
  /// or a human-readable cause of death ("killed by signal 9") to fail
  /// the wait immediately with that diagnostic.
  void set_peer_probe(std::function<std::string()> probe) {
    probe_ = std::move(probe);
  }

  /// Send one frame (length prefix + payload).  Blocks while the ring is
  /// full; TransportError on deadline or peer death.
  void send_frame(const std::uint8_t* data, std::size_t n);
  void send_frame(const std::vector<std::uint8_t>& buf) {
    send_frame(buf.data(), buf.size());
  }

  /// Non-blocking poll: complete frame available -> fill `out`, true.
  /// Partial bytes are buffered internally across calls.
  bool try_recv_frame(std::vector<std::uint8_t>& out);

  /// Blocking receive with the channel deadline; TransportError on
  /// timeout or peer death (after one last poll, so a frame the peer
  /// finished sending before it died is returned, not lost).
  void recv_frame(std::vector<std::uint8_t>& out);

 private:
  struct Cursors;  ///< one ring's head/tail, in the shared pages
  struct Mapping;  ///< the shared mapping; unmapped with its last end

  friend ChannelPair make_shm_pair(std::size_t ring_bytes);
  Channel(std::shared_ptr<Mapping> map, Cursors* tx, std::uint8_t* tx_buf,
          Cursors* rx, std::uint8_t* rx_buf, std::size_t ring_bytes);

  /// One bounded wait step while blocked (yield); throws on a dead peer
  /// or the deadline.  `elapsed` is seconds since the wait started.
  void check_blocked(double elapsed, const char* op) const;
  /// Streams `n` bytes into the tx ring, waiting while it is full.
  void write_bytes(const std::uint8_t* p, std::size_t n);
  /// Moves every byte the peer has published into the assembler.
  void read_available();

  std::function<std::string()> probe_;
  double timeout_seconds_ = 30.0;
  std::shared_ptr<Mapping> map_;
  Cursors* tx_;
  std::uint8_t* tx_buf_;
  Cursors* rx_;
  std::uint8_t* rx_buf_;
  std::size_t cap_;
  FrameAssembler assembler_;
};

/// Monotonic seconds (CLOCK_MONOTONIC) — deadline bookkeeping.
double monotonic_seconds();

/// Both ends of a freshly created channel.  After fork(), each process
/// keeps exactly one end and destroys the other.
struct ChannelPair {
  std::unique_ptr<Channel> hub_end;
  std::unique_ptr<Channel> worker_end;
};

/// MUST be created before fork() (the mapping is inherited; a pair
/// created after fork would not be shared).  `ring_bytes` is the
/// per-direction ring capacity.
ChannelPair make_shm_pair(std::size_t ring_bytes = 1u << 18);

}  // namespace emcast::sim
