#pragma once
// Process-per-shard-group backend: the conservative-rounds protocol of
// ShardedSimulator executed by OS processes instead of threads, with the
// shared-memory primitives (atomic min-reduction, spin barriers, SPSC
// mailbox rings) replaced by a hub-and-spoke message protocol over a
// transport Channel (sim/transport.hpp) carrying versioned wire frames
// (sim/wire_codec.hpp).
//
// Topology.  The constructing (parent) process is a PURE HUB: it owns no
// shards and executes no model events.  run() forks P workers — each
// inheriting the fully built model via copy-on-write — and worker w runs
// the contiguous shard block [w*S/P, (w+1)*S/P), exactly the block thread
// w would own on the in-process backend.
//
// One round, hub protocol (mirrors worker_rounds step for step):
//
//   1. each worker drains its shards' incoming mailboxes (native posts
//      from same-process shards + injected cross-process handoffs, merged
//      into the SAME (deliver_at, source shard, seq) sort), then sends
//      Keys{round, per-shard next-event time keys};
//   2. the hub assembles the full key image, takes the min, and
//      broadcasts Window{verdict, keys}: kAbort if any key is the abort
//      vote, kDone if the min is the empty sentinel or past the horizon,
//      else kRun;
//   3. every worker derives its shards' windows from the broadcast image
//      through the SAME ShardGroup::window_end (scalar + epoch plan +
//      closed pair matrix) the in-process backend uses — identical math,
//      identical windows — and runs each kernel over events strictly
//      before w_i;
//   4. cross-PROCESS posts were staged in this process's copy-on-write
//      copies of the destinations' mailboxes; the worker drains those
//      copies into Handoff frames (seq stamps intact), sends them plus
//      RoundDone; the hub forwards each Handoff to the destination's
//      owner and, once every RoundDone is in, broadcasts DrainGo.
//
// Same-process cross-shard posts go through the real destination mailbox
// exactly as on the in-process backend; only pairs that straddle a
// process boundary ride the wire.  Because windows, drain order and seq
// stamps are all preserved, the canonical traces and merged summaries are
// byte-identical to Single and Sharded — the property the cross-engine
// conformance suite pins.
//
// Completion.  On kDone every worker advances its shards' clocks to the
// horizon (the no-events epilogue), serialises each shard's model results
// through the installed ShardResultWriter into Result frames, sends
// Bye{telemetry} and _exit(0)s; the hub reaps, replays the blobs through
// the ShardResultReader in ascending shard order, and returns.  _exit —
// never a normal return from run()'s child branch — so a worker never
// runs the parent's static destructors or flushes inherited stdio.
//
// Failure semantics (what the robustness tests pin):
//   - a model exception in a worker sends Error{what()} and votes the
//     abort key in its next Keys frame; the hub broadcasts kAbort and
//     run() throws std::runtime_error carrying the worker's message (the
//     original exception TYPE cannot cross a process boundary — the one
//     documented difference from the in-process backend's rethrow);
//   - a worker that DIES mid-protocol (crash, SIGKILL) is detected by the
//     hub's waitpid probe while blocked on its channel: run() kills the
//     remaining workers, reaps everything, and throws std::runtime_error
//     with the wait-status diagnostic — a clean abort, never a hang
//     (every blocking channel operation also carries timeout_seconds);
//   - a worker whose hub vanishes sees getppid() change and exits.
//
// Lifecycle: channels and child processes exist only inside run(); a
// returned (or thrown) run leaves no mapping or zombie behind, which
// the 100-reset leak test counts.  reset() is ShardGroup::reset plus the
// aggregated telemetry, exactly like ShardedSimulator::reset.
//
// The shards, their mailbox graph, the lookahead structure and the
// per-shard window end are the ShardGroup (sim/shard.hpp) the threaded
// backend uses too; this class adds only fork, the hub relay, the wire
// frames and reaping.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/shard.hpp"
#include "sim/transport.hpp"
#include "util/types.hpp"

namespace emcast::sim {

struct ProcessConfig {
  std::size_t shards = 2;
  /// Worker processes; 0 = min(shards, hardware_concurrency).  Purely a
  /// throughput knob — results are identical for every value (same
  /// S-over-P contiguous blocks as the in-process backend's threads).
  std::size_t processes = 0;
  /// Conservative lookahead (same contract as ShardedConfig::lookahead).
  Time lookahead = 0;
  std::size_t mailbox_capacity = 4096;
  /// Deadline for every blocking channel operation; a protocol stall
  /// (peer wedged, not dead) surfaces as a runtime_error after this long.
  double timeout_seconds = 30.0;
  /// Optional per-shard-pair lookahead matrix (see ShardedConfig).
  std::vector<Time> lookahead_matrix;
};

/// Serialise shard `shard`'s model-side results (tracer state, summary
/// sketches, counters) into `blob` — runs IN THE WORKER at the end of a
/// run.  The blob format is the model's own (util/bytes.hpp writers).
using ShardResultWriter =
    std::function<void(std::size_t shard, std::vector<std::uint8_t>& blob)>;

/// Replay one worker-produced blob into the parent's model state — runs
/// IN THE HUB after all workers completed, in ascending shard order.
using ShardResultReader = std::function<void(
    std::size_t shard, const std::uint8_t* data, std::size_t size)>;

class ProcessSimulator {
 public:
  explicit ProcessSimulator(const ProcessConfig& config);
  ~ProcessSimulator();
  ProcessSimulator(const ProcessSimulator&) = delete;
  ProcessSimulator& operator=(const ProcessSimulator&) = delete;

  /// The shards, their mailboxes and the lookahead structure — the same
  /// ShardGroup class the threaded backend owns.  The message handler is
  /// captured by the workers at fork time, so install it before run().
  ShardGroup& group() { return group_; }
  const ShardGroup& group() const { return group_; }
  std::size_t process_count() const { return processes_; }

  /// Install the result marshalling hooks (both may be empty: results are
  /// then simply not carried back — telemetry still is, via Bye frames).
  void set_result_hooks(ShardResultWriter writer, ShardResultReader reader);

  /// Fork the workers, run the round protocol to `until` (events at
  /// exactly `until` execute), reap, and return the number of model
  /// events executed across all workers.  Single-shot per model build:
  /// the hub's copy of the model still holds the INITIAL events (it never
  /// executes), so reset() + a model rebuild precede the next run.
  std::uint64_t run(Time until = kTimeInfinity);

  /// ShardGroup::reset plus the aggregated telemetry (never allocates).
  /// No channels or children exist between runs.
  void reset(Time lookahead = 0.0);

  // -- telemetry (aggregated from the workers' Bye frames) ----------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t events_executed() const { return events_agg_; }
  std::uint64_t messages_posted() const { return posted_agg_; }
  std::uint64_t messages_spilled() const { return spilled_agg_; }

 private:
  struct WorkerProc;  // pid + channel + reap bookkeeping (in the .cpp)

  /// Collect every child, bounded: WNOHANG-poll up to `timeout` seconds,
  /// then SIGKILL and wait for real.  `kill_first` short-circuits
  /// straight to SIGKILL (the error-unwind path).
  static void reap_all(std::vector<WorkerProc>& workers, bool kill_first,
                       double timeout);

  std::size_t shard_begin(std::size_t w) const {
    return w * group_.shard_count() / processes_;
  }
  std::size_t shard_end(std::size_t w) const {
    return (w + 1) * group_.shard_count() / processes_;
  }
  std::size_t owner_of(std::size_t shard) const;

  /// Child-side round loop; never returns (ends in _exit).
  [[noreturn]] void worker_main(std::size_t w, Channel& ch, Time until);
  /// Hub-side protocol; returns aggregate events executed.
  std::uint64_t hub_main(std::vector<WorkerProc>& workers, Time until);

  ShardGroup group_;
  std::size_t processes_ = 1;
  double timeout_seconds_ = 30.0;
  ShardResultWriter result_writer_;
  ShardResultReader result_reader_;
  std::uint64_t rounds_ = 0;
  std::uint64_t events_agg_ = 0;
  std::uint64_t posted_agg_ = 0;
  std::uint64_t spilled_agg_ = 0;
};

}  // namespace emcast::sim
