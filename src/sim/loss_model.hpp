#pragma once
// Packet-loss model for failure injection.  The paper's future work
// (Section VII) names error control and packet loss as the next QoS
// dimensions; this model lets the experiments measure how the regulated
// schemes degrade when the underlay drops packets.
//
// GilbertElliottLoss is the classic two-state Markov bursty loss
// (good/bad channel), parameterised by the stationary loss rate and the
// mean burst length.  run_multigroup holds one by value per receiving
// host.

#include <cstdint>

#include "util/rng.hpp"

namespace emcast::sim {

class GilbertElliottLoss {
 public:
  /// `loss_rate` is the long-run fraction of packets dropped; `mean_burst`
  /// the expected number of consecutive drops once the channel turns bad.
  /// Good-state transmissions are loss-free; bad-state ones all drop
  /// (the classic simplified Gilbert model).
  GilbertElliottLoss(double loss_rate, double mean_burst, std::uint64_t seed);

  /// True if the next packet should be dropped.
  bool drop();

  bool in_bad_state() const { return bad_; }
  double p_good_to_bad() const { return p_gb_; }
  double p_bad_to_good() const { return p_bg_; }

 private:
  double p_gb_;  ///< P(good -> bad)
  double p_bg_;  ///< P(bad -> good)
  bool bad_ = false;
  util::Rng rng_;
};

}  // namespace emcast::sim
