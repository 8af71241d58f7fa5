#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

namespace emcast::util {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook dataset
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(OnlineStats, ResetClears) {
  OnlineStats s;
  s.add(10.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(LogHistogram, QuantileWithinRelativeError) {
  LogHistogram h(1e-6, 100.0, 0.02);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.total(), 1000u);
  // Median of 1..1000 ms is ~0.5 s; 2% bins mean ~2% answer error.
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.5 * 0.05);
  EXPECT_NEAR(h.quantile(0.99), 0.99, 0.99 * 0.05);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.0);  // exact max
}

TEST(LogHistogram, ClampsWithoutDroppingMass) {
  LogHistogram h(1e-3, 1.0, 0.05);
  h.add(0.0);     // non-positive clamps into bin 0
  h.add(-2.0);
  h.add(1e-9);    // below lo clamps into bin 0
  h.add(50.0);    // above hi clamps into the last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bins().front(), 3u);
  EXPECT_EQ(h.bins().back(), 1u);
  EXPECT_DOUBLE_EQ(h.stats().max(), 50.0);  // exact extrema survive
  // Quantiles are clamped to the exact extrema despite bin clamping.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(LogHistogram, MergeIsOrderIndependentAndExact) {
  // Partition one sample stream across three sketches, merge in two
  // different orders: both must equal the single-sketch result exactly
  // (integer bin counts — no float drift).
  LogHistogram whole;
  LogHistogram parts[3];
  for (int i = 0; i < 3000; ++i) {
    const double x = 1e-4 * static_cast<double>(1 + (i * 37) % 9973);
    whole.add(x);
    parts[i % 3].add(x);
  }
  LogHistogram ab;
  ab.merge(parts[0]);
  ab.merge(parts[1]);
  ab.merge(parts[2]);
  LogHistogram ba;
  ba.merge(parts[2]);
  ba.merge(parts[0]);
  ba.merge(parts[1]);
  EXPECT_EQ(ab.bins(), whole.bins());
  EXPECT_EQ(ba.bins(), whole.bins());
  EXPECT_EQ(ab.quantile(0.5), whole.quantile(0.5));
  EXPECT_EQ(ba.quantile(0.99), whole.quantile(0.99));
}

TEST(LogHistogram, MergeRejectsOtherLoOrRatioAtEqualBinCount) {
  LogHistogram base;  // 1 us .. 100 s at 2%
  LogHistogram shifted(2e-6, 200.0, 0.02);      // same ratio, other lo
  LogHistogram finer(1e-6, 100.0, 0.0200001);   // same lo, other ratio
  ASSERT_EQ(shifted.bin_count(), base.bin_count());
  ASSERT_EQ(finer.bin_count(), base.bin_count());
  EXPECT_THROW(base.merge(shifted), std::invalid_argument);
  EXPECT_THROW(base.merge(finer), std::invalid_argument);
  EXPECT_THROW(base.merge(LogHistogram(1e-6, 10.0, 0.02)),
               std::invalid_argument);  // fewer bins
  EXPECT_NO_THROW(base.merge(LogHistogram{}));
}

TEST(LogHistogram, MemoryIsBinsNotSamples) {
  LogHistogram h;
  const std::size_t before = h.memory_bytes();
  for (int i = 0; i < 100000; ++i) h.add(0.001 * (1 + i % 97));
  EXPECT_EQ(h.memory_bytes(), before);  // O(bins), sample-count free
}

TEST(KMinSample, KeepsSmallestHashesDeterministically) {
  KMinSample<int> s(4);
  for (int i = 0; i < 100; ++i) {
    s.offer(static_cast<std::uint64_t>(i), i);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.offered(), 100u);
  // Winning set is a pure function of the key set: re-offering in any
  // other order reproduces it.
  KMinSample<int> r(4);
  for (int i = 99; i >= 0; --i) {
    r.offer(static_cast<std::uint64_t>(i), i);
  }
  EXPECT_EQ(s.records(), r.records());
}

TEST(KMinSample, MergeEqualsGlobalSample) {
  KMinSample<int> global(8);
  KMinSample<int> shard0(8), shard1(8), shard2(8);
  for (int i = 0; i < 500; ++i) {
    const auto key = static_cast<std::uint64_t>(i * 1000003);
    global.offer(key, i);
    (i % 3 == 0 ? shard0 : i % 3 == 1 ? shard1 : shard2).offer(key, i);
  }
  KMinSample<int> merged(8);
  merged.merge(shard2);
  merged.merge(shard0);
  merged.merge(shard1);
  EXPECT_EQ(merged.records(), global.records());
  EXPECT_EQ(merged.offered(), global.offered());
}

TEST(KMinSample, DisabledSampleCountsOffersOnly) {
  KMinSample<int> s(0);
  s.offer(1, 10);
  s.offer(2, 20);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.offered(), 2u);
  KMinSample<int> other(0);
  other.offer(3, 30);
  s.merge(other);
  EXPECT_EQ(s.offered(), 3u);
  EXPECT_TRUE(s.records().empty());
}

TEST(KMinSample, BoundedMemory) {
  KMinSample<std::uint64_t> s(16);
  for (std::uint64_t i = 0; i < 10000; ++i) s.offer(i, i);
  EXPECT_EQ(s.size(), 16u);
  // Capacity can exceed k by the transient insert slot, not by the
  // offered count.
  EXPECT_LT(s.memory_bytes(), sizeof(s) + 64 * sizeof(std::uint64_t) * 3);
}

}  // namespace
}  // namespace emcast::util
