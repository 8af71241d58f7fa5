#pragma once
// One shard of a sharded simulation: a partition of the model owning its
// own discrete-event kernel (a full Simulator over its own EventQueue),
// plus the outgoing side of the cross-shard mailboxes — and the
// ShardGroup, the set of shards both rounds backends (threaded
// ShardedSimulator, forked ProcessSimulator) run their windows over.
//
// Model code running inside a shard schedules local events through sim()
// exactly as in a single-threaded simulation; a handoff whose destination
// lives in another shard goes through post(), which stages the packet in
// the per-pair mailbox for the destination's next window.  post() is only
// legal with deliver_at >= (current window end), i.e. at least `lookahead`
// ahead of the shard clock — the conservative-synchronisation contract
// the window scheduler derives from the minimum cross-shard link latency.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/window_policy.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class ShardGroup;
class Shard;

/// Invoked once per drained cross-shard message, in deterministic
/// (deliver_at, source shard, seq) order, while the shard is between
/// windows; the handler schedules the model's local reaction via
/// shard.sim().schedule_at(msg.deliver_at, ...).  Handlers must ONLY
/// schedule locally — calling Shard::post from a handler is forbidden
/// (and asserted): drain phases run concurrently across workers, so a
/// post issued mid-drain could race the destination's own drain of the
/// same mailbox.  Posting is legal exactly where models do it anyway —
/// from events executing inside a window.
using ShardMsgHandler = std::function<void(Shard&, const CrossShardMsg&)>;

class Shard {
 public:
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// The shard-local kernel.  Scheduling through it is exactly the
  /// single-threaded API; components need not know they are sharded.
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }

  std::size_t index() const { return index_; }
  std::size_t shard_count() const { return outgoing_.size(); }
  Time now() const { return sim_.now(); }

  /// The conservative lookahead the window scheduler runs under.
  Time lookahead() const { return lookahead_; }

  /// Hand `p` to `dest_shard`, arriving at `deliver_at`.  The arrival
  /// must respect the lookahead contract: deliver_at >= now + lookahead.
  /// (Violations would let a message land inside an already-executing
  /// window; the destination kernel's schedule_at also rejects any time
  /// in its past, so a broken model fails loudly, not silently.)
  void post(std::size_t dest_shard, const Packet& p, std::int32_t dest_host,
            Time deliver_at) {
    assert(dest_shard != index_ && "post to self: schedule locally instead");
    assert(!in_drain_ &&
           "post from a message handler: handlers may only schedule "
           "locally (see ShardMsgHandler)");
    assert(deliver_at >= sim_.now() + post_floor(dest_shard) &&
           "cross-shard post violates the lookahead contract");
    outgoing_[dest_shard]->post(p, dest_host, deliver_at);
  }

  /// The effective lower bound on (deliver_at - now) for posts to
  /// `dest_shard`: the scalar lookahead floor, or the pair-specific floor
  /// when a lookahead matrix is installed (+inf for a pair the matrix
  /// declares edge-free — any post to it is a contract violation).
  Time post_floor(std::size_t dest_shard) const {
    return post_floor_.empty() ? lookahead_ : post_floor_[dest_shard];
  }

  std::uint64_t events_executed() const { return sim_.events_executed(); }
  std::uint64_t messages_received() const { return messages_received_; }

  /// Arena introspection for the zero-allocation steady-state proofs.
  std::size_t drain_buffer_capacity() const { return drain_buf_.capacity(); }
  const ShardMailbox* incoming(std::size_t source) const {
    return incoming_[source].get();
  }

 private:
  friend class ShardGroup;
  Shard() = default;

  /// Warm rewind for a new run (ShardGroup::reset): discard the
  /// kernel's pending events with its arenas kept warm, rewind the
  /// incoming mailboxes (rings, spill vectors and sequence counters —
  /// producers are quiescent between runs by the round protocol), keep
  /// the drain-buffer arena, restart telemetry, and take the (possibly
  /// re-derived) lookahead for the next run.  Never allocates.
  void reset(Time lookahead);

  /// Between-windows step (destination's worker): drain every
  /// incoming mailbox, sort the round's messages into the deterministic
  /// (deliver_at, source shard, seq) order, and hand each to the model's
  /// message handler for local scheduling.  Returns the message count.
  std::size_t drain_and_schedule();

  Simulator sim_;
  std::size_t index_ = 0;
  Time lookahead_ = 0;
  /// Outgoing mailboxes indexed by destination shard (self = nullptr).
  /// The pointers target the destination shard's incoming array, so the
  /// producer side is this shard's worker thread by construction.
  std::vector<ShardMailbox*> outgoing_;
  /// Incoming mailboxes indexed by source shard (self = nullptr).
  std::vector<std::unique_ptr<ShardMailbox>> incoming_;
  std::vector<CrossShardMsg> drain_buf_;  ///< per-round merge staging
  /// Per-destination lookahead floors when a pair matrix is installed
  /// (min of the pair entry and every plan epoch's scalar); empty means
  /// the scalar lookahead_ bounds every pair.  Debug-assert data only —
  /// the window protocol's safety derives from the scheduler's bound.
  std::vector<Time> post_floor_;
  const ShardMsgHandler* handler_ = nullptr;
  std::uint64_t messages_received_ = 0;
  /// True while drain_and_schedule runs its handlers (assert-only guard
  /// for the no-post-from-handler contract above).
  bool in_drain_ = false;
};

/// The shards of one rounds simulation and everything both rounds
/// backends do with them the same way: the S² mailbox graph, the model's
/// message handler, the WindowPolicy with the per-shard lookahead floors
/// derived from it, the warm rewind with its keep-current vs. rebind
/// rule, and the per-shard window end.  ShardedSimulator (threads) and
/// ProcessSimulator (forked processes) each own one and keep only what
/// really differs between them: how a round's per-shard time keys are
/// published and reduced, and how cross-shard posts reach their
/// destination.  Given the same published keys, both therefore run every
/// kernel over the same windows — the property the cross-engine
/// conformance suite pins byte for byte.
class ShardGroup {
 public:
  /// `shards` (at least 1) kernels, every ordered pair wired through a
  /// mailbox of `mailbox_capacity` ring slots.  The scalar lookahead must
  /// be finite and > 0, and the S·(S−1) rings, allocated up front, must
  /// fit a 1 GiB budget (std::invalid_argument otherwise); a non-empty
  /// `lookahead_matrix` installs exactly like set_lookahead_matrix.
  ShardGroup(std::size_t shards, Time lookahead, std::size_t mailbox_capacity,
             std::vector<Time> lookahead_matrix);
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  const Shard& shard(std::size_t i) const { return *shards_[i]; }
  /// The scalar lookahead in force: the construction value, or the last
  /// explicit reset's.
  Time lookahead() const { return policy_.scalar(); }

  /// Install the model's cross-shard message handler (required before a
  /// run whenever shard_count() > 1 and any post() can happen).
  void set_message_handler(ShardMsgHandler handler);

  /// Rewind every shard for another simulation, keeping all arenas warm:
  /// per-shard kernels (reset_discarding — beyond-horizon leftovers are
  /// expected after a bounded run), mailbox rings/spill vectors, drain
  /// buffers.  The message handler and the shard topology are retained.
  /// `lookahead` <= 0 keeps the current value; a positive value
  /// re-derives the conservative window width for the next run (it must
  /// be finite, or std::invalid_argument).  Only callable between runs
  /// (a reset issued from inside a model event lands on a mid-run kernel
  /// and throws std::logic_error).  Never allocates.
  void reset(Time lookahead);

  /// Install a piecewise-constant lookahead plan for subsequent runs —
  /// the epoch-based remap used by churn experiments whose cross-shard
  /// edge set changes mid-run (tree repairs add and remove edges, so the
  /// minimum cross-shard delay is a step function of simulated time).
  ///
  /// Contract: during epoch e (from plan[e].from until plan[e+1].from),
  /// every cross-shard post() issued at time u has deliver_at >=
  /// u + plan[e].lookahead; before plan.front().from the construction
  /// lookahead applies.  The window scheduler then derives each window as
  ///
  ///   w = min(tmin + L(tmin),  min over epoch starts b in (tmin, w) of
  ///                            b + L(b))
  ///
  /// — a pure function of (tmin, plan), so the remap happens at a window
  /// boundary, identically on every worker, and determinism across
  /// shard/worker counts is untouched.  Safety: any post at u < w
  /// satisfies deliver_at >= u + L(u) >= w by the clamping above.
  ///
  /// Epochs must be sorted by strictly increasing `from`, with every
  /// lookahead finite and > 0.  Each shard's post()-assert floor becomes
  /// min(construction lookahead, min over plan) while the plan is
  /// installed.  An empty plan restores uniform-lookahead behaviour.
  /// reset() with an explicit (positive) lookahead — the rebind seam the
  /// Engine's remap overload drives — clears the plan, since it was
  /// derived for the old routing; a keep-current reset(0) retains it, so
  /// warm re-runs of the same schedule re-install nothing.
  void set_lookahead_plan(std::vector<LookaheadEpoch> plan);
  const std::vector<LookaheadEpoch>& lookahead_plan() const {
    return policy_.plan();
  }

  /// Install a per-shard-pair lookahead matrix, flattened row-major
  /// ([src * shards + dst]; shards² entries): matrix[src][dst] is a strict
  /// lower bound on (deliver_at − post time) for every src→dst post, with
  /// +infinity declaring the ordered pair edge-free (the scheduler then
  /// derives no bound from it, and any src→dst post is a contract
  /// violation).  The window scheduler widens each shard's window from
  /// the uniform  w = tmin + L  to the per-shard
  ///
  ///   w_i = min over src j with a finite next-event time t_j of
  ///         pair_window_end(t_j, j, i)
  ///
  /// — still conservative (any post from j at u >= t_j arrives at
  /// >= u + L_eff[j][i] >= w_i; a drained shard executes nothing this
  /// round, so it posts nothing and contributes no bound), still a pure
  /// function of the shard time image + plan + matrix, so byte-identical
  /// determinism across worker counts is untouched.  Composition with an
  /// installed lookahead plan is by min: the effective src→dst bound at
  /// time u is min(matrix[src][dst], L_plan(u)) — always safe, because
  /// the plan's epoch scalar is itself a valid global bound even where
  /// churn has invalidated the static matrix.  Without a plan the matrix
  /// entry applies alone (that is the whole widening).
  ///
  /// Off-diagonal entries must be > 0 (finite or +infinity); diagonal
  /// entries are ignored.  The stored matrix is the min-plus closure
  /// (WindowPolicy::set_matrix).  An empty matrix restores the uniform
  /// scalar.  reset() with an explicit (positive) lookahead — the rebind
  /// seam — clears the matrix along with the plan: both were derived for
  /// the previous routing, and the explicit scalar rebuilds the uniform
  /// bound (equivalent to a uniform matrix of that scalar).  A
  /// keep-current reset(0) retains it.
  void set_lookahead_matrix(std::vector<Time> matrix);
  const std::vector<Time>& lookahead_matrix() const {
    return policy_.matrix();
  }

  /// Drain phase for shard `s`: merge its incoming mailboxes into its
  /// kernel (Shard::drain_and_schedule) and return its next-event time
  /// key — the value the backend publishes for the window decision
  /// (kInfTimeKey once the shard has drained).
  std::uint64_t drain(std::size_t s);

  /// Reads shard j's published next-event time key for the current round
  /// (kInfTimeKey = drained).  A plain function pointer + context, so the
  /// scan in window_end stays out of line: the threaded backend reads its
  /// per-shard atomics, the process backend the hub's broadcast image.
  struct KeyReader {
    std::uint64_t (*read)(const void* ctx, std::size_t shard);
    const void* ctx;
  };

  /// Exclusive window end for shard `s` in the round whose global minimum
  /// next-event time is `tmin`: the uniform policy end, or with a pair
  /// matrix the min over every published source of its pair bound into
  /// `s`; then floored just past tmin (progress) and capped at
  /// `horizon_bound`.  A pure function of the published keys, so every
  /// worker of either backend derives the same end.
  Time window_end(std::size_t s, Time tmin, Time horizon_bound,
                  KeyReader keys) const;

  /// The (src -> dst) mailbox, src != dst: the process backend ships a
  /// cross-process pair's posts out of its own copy and injects arriving
  /// ones into the destination's.
  ShardMailbox& mailbox(std::size_t src, std::size_t dst) {
    assert(src != dst && "no mailbox from a shard to itself");
    return *shards_[dst]->incoming_[src];
  }

  /// Telemetry of the shard block [begin, end): events its kernels
  /// executed, and messages its shards posted / spilled past the ring.
  /// Post counters live in the PRODUCER's view of each mailbox, so
  /// disjoint blocks never double-count.
  struct Counters {
    std::uint64_t events = 0;
    std::uint64_t posted = 0;
    std::uint64_t spilled = 0;
  };
  Counters counters(std::size_t begin, std::size_t end) const;

 private:
  void apply_shard_floor();

  /// The window math (scalar + epoch plan + closed pair matrix).
  /// Immutable while a run is in flight; workers only read it.
  WindowPolicy policy_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardMsgHandler handler_;
};

}  // namespace emcast::sim
