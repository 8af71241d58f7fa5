#pragma once
// Capacity-aware tree construction — the baseline the paper argues against
// (Fig. 1, [5, 12-13]).  Instead of regulating traffic, these schemes bound
// each host's forwarding fan-out by its output capacity: a host carrying K̂
// flows of aggregate normalised rate ρ̄ can feed at most
//      f(ρ̄) = ⌊C_host / (ρ̄ · C)⌋
// children.  As the load ρ̄ rises, the fan-out bound shrinks, clusters get
// smaller and the tree gets taller — the height growth of Tables I–III and
// the delay growth of Fig. 6.
//
// C_host/C (host output capacity relative to the normalising link
// capacity) is the one free parameter; 1.75 reproduces the paper's height
// range 5→9 for n = 665 (see DESIGN.md, "Capacity-aware fanout").

#include <cstdint>

#include "overlay/dsct.hpp"
#include "overlay/nice.hpp"

namespace emcast::overlay {

struct CapacityAwareConfig {
  double utilization = 0.5;        ///< ρ̄: total normalised input rate
  double host_capacity_factor = 1.75;  ///< C_host / C
  std::size_t min_fanout = 2;      ///< floor (a chain would be degenerate)
  std::size_t max_fanout = 8;      ///< cap (matches 3k−1 with k = 3)
  std::uint64_t seed = 7;
  /// Shared per-member *total* child budget across all K trees,
  /// ⌊C_host/ρ_flow⌋ slots per host (Fig. 1's bound).  When building K
  /// group trees, pass the same vector to every build so cores that spent
  /// their capacity in one tree stop being elected in the next.
  std::vector<std::size_t>* budget = nullptr;
  /// Fraction of C_host the budget may commit.  Packing children up to
  /// exactly C_host would run hot hosts at utilisation 1 (unstable queues);
  /// real capacity-aware schemes leave slack for burstiness.
  double budget_safety = 0.85;
};

/// Initial per-host child budget: ⌊C_host/ρ_flow⌋ = ⌊factor·K/ρ̄⌋ slots
/// (ρ_flow approximated by the mean per-flow rate ρ̄·C/K; heterogeneous
/// mixes use the same average — see DESIGN.md).  Throws
/// std::invalid_argument for K < 1 or ρ̄ outside (0, 1], NaN included.
std::size_t capacity_child_budget(const CapacityAwareConfig& config,
                                  int groups);

/// Fan-out bound f(ρ̄) with clamping.  Throws std::invalid_argument for
/// ρ̄ outside (0, 1], NaN included.
std::size_t capacity_fanout(const CapacityAwareConfig& config);

/// Capacity-aware DSCT: domain-aware clustering with cluster sizes driven
/// by f(ρ̄) (range [f, 2f−1]) instead of [k, 3k−1].
MulticastTree build_capacity_aware_dsct(std::vector<Member> members,
                                        const std::vector<int>& domain,
                                        const RttFn& rtt, std::size_t source,
                                        const CapacityAwareConfig& config);

/// Capacity-aware NICE: global clustering with the same size rule.
MulticastTree build_capacity_aware_nice(std::vector<Member> members,
                                        const RttFn& rtt, std::size_t source,
                                        const CapacityAwareConfig& config);

}  // namespace emcast::overlay
