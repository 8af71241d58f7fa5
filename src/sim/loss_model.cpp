#include "sim/loss_model.hpp"

#include <stdexcept>

namespace emcast::sim {

GilbertElliottLoss::GilbertElliottLoss(double loss_rate, double mean_burst,
                                       std::uint64_t seed)
    : rng_(seed) {
  if (loss_rate <= 0.0 || loss_rate >= 1.0) {
    throw std::invalid_argument("GilbertElliott: loss_rate ∉ (0,1)");
  }
  if (mean_burst < 1.0) {
    throw std::invalid_argument("GilbertElliott: mean_burst < 1");
  }
  // Stationary bad probability π_B = p_gb/(p_gb+p_bg) = loss_rate, and the
  // mean bad sojourn is 1/p_bg = mean_burst.
  p_bg_ = 1.0 / mean_burst;
  p_gb_ = loss_rate * p_bg_ / (1.0 - loss_rate);
  if (p_gb_ >= 1.0) {
    throw std::invalid_argument(
        "GilbertElliott: loss_rate/mean_burst combination infeasible");
  }
}

bool GilbertElliottLoss::drop() {
  if (bad_) {
    if (rng_.uniform() < p_bg_) bad_ = false;
  } else {
    if (rng_.uniform() < p_gb_) bad_ = true;
  }
  return bad_;
}

}  // namespace emcast::sim
