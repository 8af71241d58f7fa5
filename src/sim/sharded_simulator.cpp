#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "sim/pending_entry.hpp"

namespace emcast::sim {

namespace {

/// Sentinels shared with the process backend (sim/window_policy.hpp):
/// kInfKey = no pending events, kAbortKey = a failed worker's vote riding
/// the min-reduction below every real time key, so every thread observes
/// an abort at the same aligned decision point it reads the window from.
const std::uint64_t kInfKey = kInfTimeKey;
constexpr std::uint64_t kAbortKey = kAbortTimeKey;

void fetch_min(std::atomic<std::uint64_t>& slot, std::uint64_t value) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

ShardedSimulator::ShardedSimulator(const ShardedConfig& config)
    : group_(config.shards, config.lookahead, config.mailbox_capacity,
             config.lookahead_matrix),
      pin_threads_(config.pin_threads),
      threads_([&] {
        std::size_t t = config.threads != 0
                            ? config.threads
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency());
        return std::min(group_.shard_count(), std::max<std::size_t>(1, t));
      }()),
      barrier_(threads_) {
  const std::size_t n = group_.shard_count();
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
  shard_key_ = std::make_unique<PaddedKey[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard_key_[i].key.store(kInfKey, std::memory_order_relaxed);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

std::uint64_t ShardedSimulator::run(Time until) {
  events_before_run_ = events_executed();
  first_error_ = nullptr;
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
  for (std::size_t i = 0; i < group_.shard_count(); ++i) {
    shard_key_[i].key.store(kInfKey, std::memory_order_relaxed);
  }

  std::vector<std::thread> workers;
  workers.reserve(threads_ - 1);
  for (std::size_t t = 1; t < threads_; ++t) {
    workers.emplace_back([this, t, until] { worker(t, until); });
  }
  worker(0, until);
  for (auto& w : workers) w.join();

  if (first_error_) std::rethrow_exception(first_error_);
  return events_executed() - events_before_run_;
}

void ShardedSimulator::reset(Time lookahead) {
  group_.reset(lookahead);
  rounds_ = 0;
  events_before_run_ = 0;
  first_error_ = nullptr;
  min_key_[0].store(kInfKey, std::memory_order_relaxed);
  min_key_[1].store(kInfKey, std::memory_order_relaxed);
}

void ShardedSimulator::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

void ShardedSimulator::worker(std::size_t t, Time until) {
  if (pin_threads_) util::pin_thread_to_core(t);
  worker_rounds(t, until);
}

void ShardedSimulator::worker_rounds(std::size_t t, Time until) {
  const std::size_t n = group_.shard_count();
  const std::size_t begin = t * n / threads_;
  const std::size_t end = (t + 1) * n / threads_;
  // Events at exactly `until` execute (Simulator::run parity); the
  // window bound is exclusive, so cap it one ulp past the horizon.
  const Time horizon_bound = std::nextafter(until, kTimeInfinity);
  const ShardGroup::KeyReader keys{
      [](const void* ctx, std::size_t j) {
        return static_cast<const PaddedKey*>(ctx)[j].key.load(
            std::memory_order_relaxed);
      },
      shard_key_.get()};

  // A model exception anywhere must not strand the other workers at a
  // barrier.  The failed thread keeps walking the barrier protocol but
  // stops doing work and votes kAbortKey into every subsequent round's
  // reduction; all threads see the abort at the aligned window-decision
  // point — never split across barrier indices — and exit together.
  // (An asynchronous abort *flag* deadlocks here: a thread parked at the
  // mid barrier can observe a flag set by a thread already past its
  // process phase, leave early, and strand the others one barrier later.)
  bool failed = false;

  for (std::uint64_t round = 0;; ++round) {
    // ---- drain phase: merge mailboxes, contribute to the reduction.
    std::uint64_t local_min = kAbortKey;
    if (!failed) {
      try {
        local_min = kInfKey;
        for (std::size_t s = begin; s < end; ++s) {
          const std::uint64_t key = group_.drain(s);
          // Publish this shard's time image for the per-pair window
          // decision; the drain barrier below sequences it before any
          // reader (see PaddedKey for the single-buffer argument).
          shard_key_[s].key.store(key, std::memory_order_relaxed);
          local_min = std::min(local_min, key);
        }
      } catch (...) {
        record_error();
        failed = true;
        local_min = kAbortKey;
      }
    }
    fetch_min(min_key_[round & 1], local_min);
    // Reset the other parity slot for round + 1: its round-(r-1) readers
    // are two barrier edges behind us, its round-(r+1) writers one ahead.
    min_key_[(round + 1) & 1].store(kInfKey, std::memory_order_relaxed);
    barrier_.arrive_and_wait();

    // ---- window decision: every thread derives the identical verdict.
    const std::uint64_t kmin =
        min_key_[round & 1].load(std::memory_order_relaxed);
    if (kmin == kAbortKey) return;  // someone failed: exit, aligned
    if (kmin == kInfKey) break;  // all shards drained, nothing in flight
    const Time tmin = key_time(kmin);
    if (tmin > until) break;  // horizon reached; beyond-horizon events stay

    // ---- process phase: run the window on this worker's shard block.
    if (!failed) {
      try {
        for (std::size_t s = begin; s < end; ++s) {
          group_.shard(s).sim().run_before(
              group_.window_end(s, tmin, horizon_bound, keys));
        }
      } catch (...) {
        record_error();
        failed = true;  // voted into round r+1's reduction above
      }
    }
    if (t == 0) ++rounds_;
    barrier_.arrive_and_wait();
  }

  // Epilogue: drained shards advance their clock to the horizon exactly
  // as a lone Simulator::run(until) would.  No events can execute here
  // (every remaining event is beyond the horizon), so this cannot throw.
  for (std::size_t s = begin; s < end; ++s) {
    group_.shard(s).sim().run(until);
  }
}

std::uint64_t ShardedSimulator::events_executed() const {
  return group_.counters(0, group_.shard_count()).events;
}

std::uint64_t ShardedSimulator::messages_posted() const {
  return group_.counters(0, group_.shard_count()).posted;
}

std::uint64_t ShardedSimulator::messages_spilled() const {
  return group_.counters(0, group_.shard_count()).spilled;
}

}  // namespace emcast::sim
