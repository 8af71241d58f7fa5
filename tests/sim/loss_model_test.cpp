#include "sim/loss_model.hpp"

#include <gtest/gtest.h>

namespace emcast::sim {
namespace {

TEST(GilbertElliott, StationaryLossRateConverges) {
  GilbertElliottLoss m(0.05, 4.0, 13);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (m.drop()) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.05, 0.01);
}

TEST(GilbertElliott, LossesComeInBursts) {
  GilbertElliottLoss m(0.05, 8.0, 17);
  // Mean run length of consecutive drops ~ mean_burst.
  int bursts = 0, dropped = 0;
  bool prev = false;
  for (int i = 0; i < 300000; ++i) {
    const bool d = m.drop();
    if (d) {
      ++dropped;
      if (!prev) ++bursts;
    }
    prev = d;
  }
  ASSERT_GT(bursts, 0);
  EXPECT_NEAR(static_cast<double>(dropped) / bursts, 8.0, 1.5);
}

TEST(GilbertElliott, TransitionProbabilitiesMatchParameters) {
  GilbertElliottLoss m(0.2, 5.0, 1);
  EXPECT_NEAR(m.p_bad_to_good(), 0.2, 1e-12);
  EXPECT_NEAR(m.p_good_to_bad(), 0.2 * 0.2 / 0.8, 1e-12);
}

TEST(GilbertElliott, RejectsBadParameters) {
  EXPECT_THROW(GilbertElliottLoss(0.0, 4.0, 1), std::invalid_argument);
  EXPECT_THROW(GilbertElliottLoss(1.0, 4.0, 1), std::invalid_argument);
  EXPECT_THROW(GilbertElliottLoss(0.1, 0.5, 1), std::invalid_argument);
  // Infeasible: loss rate too high for short bursts.
  EXPECT_THROW(GilbertElliottLoss(0.95, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace emcast::sim
