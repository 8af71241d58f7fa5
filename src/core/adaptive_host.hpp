#pragma once
// The regulated end host — the operational unit the paper's Adaptive
// Control Algorithm runs on.  A host terminates K̂ input flows (one per
// group it joined), regulates them, multiplexes them onto its output link
// of capacity C, and hands the result to a sink (the next overlay hop or
// the local application).
//
// Control models (Section III's algorithm):
//   SigmaRho       — every flow through its own (σᵢ, ρᵢ) token bucket,
//                    then the shared work-conserving MUX.
//   SigmaRhoLambda — the (σ, ρ, λ) regulator bank (TDMA turn-taking),
//                    then the MUX (which it never congests).
//   Adaptive       — measure ρ̄ = Σ input rates / C each control interval;
//                    use SigmaRho while ρ̄ < ρ*, switch to SigmaRhoLambda
//                    when ρ̄ ≥ ρ* (with a small hysteresis band to avoid
//                    flapping on VBR noise).

#include <memory>
#include <optional>
#include <vector>

#include "core/lambda_regulator.hpp"
#include "core/mux.hpp"
#include "core/rate_estimator.hpp"
#include "core/token_bucket_regulator.hpp"
#include "sim/context.hpp"
#include "traffic/flow_spec.hpp"
#include "util/types.hpp"

namespace emcast::core {

enum class ControlMode { SigmaRho, SigmaRhoLambda, Adaptive };

struct AdaptiveHostConfig {
  std::vector<traffic::FlowSpec> flows;
  Rate capacity = 0;
  ControlMode mode = ControlMode::Adaptive;

  /// Total-utilisation switch point ρ*·K (in (0,1)).  0 = derive from the
  /// closed forms of Theorems 3/4 based on flow homogeneity.
  double threshold_utilization = 0.0;

  /// Seconds between adaptive-control decisions.  0 = auto (max of the
  /// regulator period and 100 ms).
  Time control_interval = 0.0;

  /// Rate-measurement window.  Long enough to span several burst cycles of
  /// the paper's VBR sources, so the adaptive decision does not flap on
  /// talkspurt/GoP noise.
  Time estimator_window = 2.0;
  double hysteresis = 0.02;      ///< relative dead band around the threshold

  /// Service discipline of the general MUX.  The experiments use
  /// PriorityLifoLowest to realise the adversarial overtaking the paper's
  /// Dg bound describes; PriorityFifo gives the per-class (milder) bound.
  MuxDiscipline mux_discipline = MuxDiscipline::PriorityFifo;

  /// σ inflation for the (σ, ρ, λ) schedule.  Sizing the working periods
  /// for exactly the declared σ leaves the TDMA frame with zero margin: a
  /// burst that grazes σ then drains only at the rate headroom, taking
  /// many periods.  A 25% longer slot clears it within one turn at the
  /// cost of a proportionally longer vacation (Lemma 1's bound scales the
  /// same way, so the theory still applies with σ' = margin·σ).
  double lambda_sigma_margin = 1.25;

  /// Phase offset of the (σ, ρ, λ) schedule (see LambdaRegulatorBank).
  Time lambda_epoch_offset = 0.0;
};

class AdaptiveHost {
 public:
  using Sink = sim::PacketFn;

  /// `ctx` is the engine-agnostic kernel handle (a plain Simulator
  /// converts implicitly).  The whole pipeline — regulators, bank, MUX,
  /// control ticks — schedules only on this kernel, which is what lets a
  /// sharded experiment own each host's pipeline on exactly one shard.
  AdaptiveHost(sim::SimContext ctx, AdaptiveHostConfig config, Sink sink);

  /// Submit a packet of one of the configured flows.  Stamps
  /// `hop_arrival`, so a sink measures the per-hop delay (arrival at host
  /// → departure from MUX) as `now - p.hop_arrival`.
  void offer(sim::Packet p);

  /// Regulation model currently in force (never Adaptive).
  ControlMode active_model() const { return active_; }

  /// Measured total utilisation Σ rates / C over the estimator window,
  /// evaluated now (available in every mode, not just Adaptive).
  double measured_utilization() const;

  /// The switch threshold in force (total utilisation).
  double threshold() const { return threshold_; }

  std::uint64_t mode_switches() const { return mode_switches_; }

  /// Simulated time of the most recent mode switch, -infinity if the host
  /// never switched.  The churn experiments read this after each repair
  /// to measure how long the adaptive controller takes to re-converge on
  /// the post-repair traffic mix.
  Time last_mode_switch_time() const { return last_mode_switch_; }

  /// Whole-pipeline footprint: self, regulators, bank, estimators and
  /// queue contents.  Feeds the per-host memory budget of the scale
  /// experiments (approximate: allocator overhead is not priced).
  std::size_t memory_bytes() const;

  const AdaptiveHostConfig& config() const { return config_; }

 private:
  void on_mux_output(sim::Packet p);
  void control_tick();
  void activate(ControlMode m);
  std::size_t flow_index(FlowId id) const;

  sim::SimContext ctx_;
  AdaptiveHostConfig config_;
  Sink sink_;
  double threshold_;
  Time control_interval_;

  Mux mux_;
  std::vector<std::unique_ptr<TokenBucketRegulator>> buckets_;
  std::unique_ptr<LambdaRegulatorBank> bank_;
  std::vector<RateEstimator> estimators_;

  ControlMode active_ = ControlMode::SigmaRho;
  double last_utilization_ = 0.0;
  std::uint64_t mode_switches_ = 0;
  Time last_mode_switch_ = -kTimeInfinity;
};

}  // namespace emcast::core
