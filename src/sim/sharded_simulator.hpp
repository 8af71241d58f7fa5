#pragma once
// Sharded parallel simulation: N shards — each a full single-threaded
// discrete-event kernel over its own pending set — advanced
// in lockstep rounds under conservative time-window synchronisation.
//
// The classic conservative-PDES argument (cf. UNISON-for-ns-3): if every
// cross-shard interaction takes at least `lookahead` of simulated time,
// then during the window [T, T + lookahead) — T the global minimum next
// event time — no shard can affect another *within* the window, so all
// shards may execute their window events concurrently with no rollback.
// Cross-shard handoffs are staged in per-(source, destination) SPSC
// mailboxes and drained at the window barrier, sorted into deterministic
// (deliver_at, source shard, seq) order before local scheduling.
//
// A round is two spin-barrier phases:
//
//   drain:    each shard merges its incoming mailboxes into its kernel,
//             then contributes its next-event time to a shared atomic
//             min-reduction (over the order-preserving integer time image)
//   barrier   -- all drains complete; the reduction is final
//   process:  every thread reads the same reduced minimum T, derives the
//             same window end W = min(T + lookahead, horizon), and runs
//             its shards' kernels over events strictly before W
//   barrier   -- all windows complete; mailboxes quiescent again
//
// Shards and worker threads are independent axes: S shards multiplex over
// T <= S workers in fixed contiguous blocks.  The schedule — windows,
// drain order, local event order — is a pure function of the model and
// the partition, so the same sharding produces byte-identical traces for
// ANY worker count, including T = 1.  That is the property the
// differential tests pin: single-threaded reference == 1 shard == K
// shards, for every thread count.
//
// The shards, their mailbox graph, the lookahead structure and the
// per-shard window end live in ShardGroup (sim/shard.hpp), shared with
// the process backend; this class adds only the threads, the spin
// barriers, the atomic min-reduction and the abort vote.
//
// Determinism vs. the unsharded Simulator holds at the model level: event
// *times* are computed identically (same float operands in the same
// order), so the set of (time, payload) tuples matches bit-for-bit;
// within-shard tie order at equal times follows local scheduling order,
// which model-level canonical trace ordering (sort by time image + stable
// payload key) makes irrelevant — see experiments/multigroup_sim.

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/shard.hpp"
#include "util/barrier.hpp"
#include "util/types.hpp"

namespace emcast::sim {

struct ShardedConfig {
  std::size_t shards = 2;
  /// Worker threads; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value.
  std::size_t threads = 0;
  /// Conservative lookahead: a strict lower bound on the simulated-time
  /// delay of any cross-shard interaction (derive it from the minimum
  /// cross-shard link latency).  Must be > 0.
  Time lookahead = 0;
  /// Per-(source, destination) mailbox ring capacity (messages staged in
  /// one window beyond this spill into a vector — correct but amortised).
  std::size_t mailbox_capacity = 4096;
  /// Pin worker t to core t (best-effort; Linux only).
  bool pin_threads = false;
  /// Optional per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]): a strict lower bound on the simulated-time
  /// delay of any cross-shard interaction from src into dst.  +infinity
  /// declares the ordered pair edge-free (no src->dst messages ever).
  /// Empty = the uniform scalar above bounds every pair.  See
  /// ShardGroup::set_lookahead_matrix for the full contract.
  std::vector<Time> lookahead_matrix;
};

class ShardedSimulator {
 public:
  explicit ShardedSimulator(const ShardedConfig& config);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// The shards, their mailboxes and the lookahead structure (plan,
  /// matrix, floors) — shared with the process backend.
  ShardGroup& group() { return group_; }
  const ShardGroup& group() const { return group_; }
  std::size_t shard_count() const { return group_.shard_count(); }
  std::size_t thread_count() const { return threads_; }
  Time lookahead() const { return group_.lookahead(); }
  Shard& shard(std::size_t i) { return group_.shard(i); }
  const Shard& shard(std::size_t i) const { return group_.shard(i); }

  /// Install the model's cross-shard message handler (required before
  /// run() whenever shard_count() > 1 and any post() can happen).
  void set_message_handler(ShardMsgHandler handler) {
    group_.set_message_handler(std::move(handler));
  }

  /// Advance every shard until all queues drain or the global clock
  /// passes `until` (events at exactly `until` are executed, matching
  /// Simulator::run).  Returns the number of events executed this call.
  std::uint64_t run(Time until = kTimeInfinity);

  /// ShardGroup::reset (shards, mailboxes, lookahead structure) plus the
  /// telemetry (rounds, events, messages restart at zero).  The worker
  /// count is a construction-time choice.  Never allocates.
  void reset(Time lookahead = 0.0);

  // -- telemetry ----------------------------------------------------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t events_executed() const;
  std::uint64_t messages_posted() const;
  std::uint64_t messages_spilled() const;

 private:
  void worker(std::size_t t, Time until);
  void worker_rounds(std::size_t t, Time until);
  void record_error() noexcept;

  /// One cache line per shard: its next-event time key, published by the
  /// owning worker during the drain phase and read by every worker at the
  /// window decision.  A SINGLE buffer suffices (unlike min_key_'s round
  /// parity): round r's writes and reads are separated by the drain
  /// barrier, and the next writes (round r+1's drain) sit behind the
  /// process barrier — two barrier edges bracket every read.
  struct alignas(64) PaddedKey {
    std::atomic<std::uint64_t> key{0};
  };

  ShardGroup group_;
  bool pin_threads_ = false;
  std::size_t threads_ = 1;
  std::unique_ptr<PaddedKey[]> shard_key_;  ///< per-shard time image
  util::SpinBarrier barrier_;

  /// Double-buffered min-reduction over next-event time keys, indexed by
  /// round parity: while round r reduces into slot r&1, every thread
  /// resets slot (r+1)&1 — reads of a slot are separated from the next
  /// writes by two barrier edges.  A worker that caught a model exception
  /// votes the reserved kAbortKey (below every real key) instead, so the
  /// abort decision is read at the same aligned point as the window.
  alignas(64) std::atomic<std::uint64_t> min_key_[2];
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::uint64_t rounds_ = 0;
  std::uint64_t events_before_run_ = 0;
};

}  // namespace emcast::sim
