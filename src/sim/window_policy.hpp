#pragma once
// The window math of the conservative-rounds protocol, extracted so every
// backend that runs rounds — the in-process ShardedSimulator and the
// process-per-shard ProcessSimulator — derives windows from the SAME pure
// functions of (tmin, scalar lookahead, epoch plan, pair matrix).  That
// identity is what keeps the two backends byte-identical: given the same
// published per-shard time keys, both compute the same per-shard window
// end, so every kernel executes the same events in the same rounds.
//
// The policy is plain data + const queries; it owns no threads and does no
// synchronisation.  Validation and the min-plus transitive closure of the
// pair matrix (Floyd-Warshall including the diagonal — see set_matrix)
// happen at install time, once, so the per-round queries are read-only.

#include <cstdint>
#include <vector>

#include "sim/pending_entry.hpp"
#include "util/types.hpp"

namespace emcast::sim {

/// One epoch of a piecewise-constant lookahead plan (see
/// WindowPolicy::set_plan / ShardGroup::set_lookahead_plan): from
/// simulated time `from` onwards — until the next epoch — every
/// cross-shard interaction takes at least `lookahead` of simulated time.
struct LookaheadEpoch {
  Time from = 0;
  Time lookahead = 0;

  friend bool operator==(const LookaheadEpoch& a, const LookaheadEpoch& b) {
    return a.from == b.from && a.lookahead == b.lookahead;
  }
};

/// All pending times are finite (push rejects non-finite), so the key of
/// +infinity is a safe "empty" sentinel for the min-reduction.
inline const std::uint64_t kInfTimeKey = time_key(kTimeInfinity);

/// Abort vote: rides the min-reduction below every real time key (keys of
/// finite times are never 0 — non-negative times set the sign bit and the
/// all-ones pattern that complements to 0 is a NaN, which push rejects).
/// A failed worker votes this instead of a next-event time; every
/// participant then observes the abort at the same aligned decision point
/// it reads the window from.
inline constexpr std::uint64_t kAbortTimeKey = 0;

class WindowPolicy {
 public:
  /// Shard count is fixed at init; the scalar must be finite and > 0
  /// (std::invalid_argument otherwise).
  void init(std::size_t shards, Time lookahead);

  std::size_t shards() const { return shards_; }
  Time scalar() const { return scalar_; }

  /// Replace the uniform scalar (finite, > 0) — the reset/rebind seam.
  void set_scalar(Time lookahead);

  /// Install a piecewise-constant lookahead plan.  Epochs must be sorted
  /// by strictly increasing finite `from`, every lookahead finite and
  /// > 0; an empty plan restores uniform behaviour.  Contract and the
  /// window-boundary remap rule: ShardGroup::set_lookahead_plan.
  void set_plan(std::vector<LookaheadEpoch> plan);
  const std::vector<LookaheadEpoch>& plan() const { return plan_; }

  /// Install a per-shard-pair lookahead matrix (shards² entries,
  /// flattened [src * shards + dst]; empty restores the uniform scalar).
  /// Off-diagonal entries must be > 0 (finite or +infinity = edge-free).
  /// The stored matrix is the min-plus TRANSITIVE CLOSURE of the input,
  /// including the diagonal (minimum feedback-cycle cost): the caller's
  /// entries bound DIRECT posts only, but a message can reach dst through
  /// an intermediary after just L[src][k] + L[k][dst], and a shard's own
  /// executions can reflect off a neighbour and return — windows derived
  /// from unclosed entries would let a shard run ahead of relayed or
  /// reflected traffic.  Full contract:
  /// ShardGroup::set_lookahead_matrix.
  void set_matrix(std::vector<Time> matrix);
  const std::vector<Time>& matrix() const { return matrix_; }

  /// The rebind seam: an explicit new scalar invalidates both the plan
  /// and the matrix (they were derived for the previous routing).
  void clear_plan_and_matrix();

  /// Uniform window end for the round anchored at tmin: tmin + L(tmin),
  /// clamped at every epoch boundary b inside the window to b + L(b)
  /// (the remap-at-window-boundary rule).
  Time window_end(Time tmin) const;

  /// Per-pair window bound from source shard `src` (next-event time t)
  /// into `dst`: t + the effective src→dst lookahead, with the same
  /// epoch-boundary clamping; the effective bound at time u is
  /// min(matrix[src][dst], L_plan(u)) while a plan is installed.  Only
  /// meaningful with a matrix installed.
  Time pair_window_end(Time t, std::size_t src, std::size_t dst) const;

  /// The weakest lookahead guarantee currently in force: the scalar
  /// floored by every plan epoch.  This is each shard's post-assert
  /// floor while no matrix narrows it per pair.
  Time floor() const;

  /// Per-destination post-assert floor for posts src→dst: exactly the
  /// bound the window scheduler derives (the CLOSED pair entry, floored
  /// by the plan when one is installed), so a model post that would
  /// narrow a committed window fails loudly.  Matrix must be installed.
  Time pair_floor(std::size_t src, std::size_t dst) const;

 private:
  std::size_t shards_ = 1;
  Time scalar_ = 0;
  std::vector<LookaheadEpoch> plan_;   ///< empty = uniform scalar
  std::vector<Time> matrix_;           ///< closed; empty = uniform scalar
};

}  // namespace emcast::sim
