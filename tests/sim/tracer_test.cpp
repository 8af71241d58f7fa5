#include "sim/tracer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"

namespace emcast::sim {
namespace {

Packet make_packet(FlowId flow, Time created) {
  Packet p;
  p.flow = flow;
  p.created = created;
  return p;
}

TEST(DelayTracer, RecordsAge) {
  DelayTracer t;
  t.record(make_packet(0, 1.0), 1.5);
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.5);
}

TEST(DelayTracer, WorstCaseIsMaximum) {
  DelayTracer t;
  t.record(make_packet(0, 0.0), 0.3);
  t.record(make_packet(0, 0.0), 0.9);
  t.record(make_packet(0, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.9);
}

TEST(DelayTracer, WarmupSamplesDropped) {
  DelayTracer t(2.0);
  t.record(make_packet(0, 0.0), 1.0);   // inside warm-up
  t.record(make_packet(0, 2.5), 3.0);   // after warm-up
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_EQ(t.dropped_warmup(), 1u);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.5);
}

TEST(DelayTracer, EmptyWorstCaseIsZero) {
  DelayTracer t;
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.0);
}

TEST(DelayTracer, SetWarmupTakesEffect) {
  DelayTracer t;
  t.set_warmup(10.0);
  EXPECT_DOUBLE_EQ(t.warmup(), 10.0);
  t.record(make_packet(0, 0.0), 5.0);
  EXPECT_EQ(t.all().count(), 0u);
}

TEST(DelayTracer, RecordDelayExplicitValue) {
  DelayTracer t;
  t.record_delay(0.125, 1.0);
  EXPECT_DOUBLE_EQ(t.worst_case(), 0.125);
}

TEST(DelayTracer, QuantileSketchTracksDelays) {
  DelayTracer t;
  for (int i = 1; i <= 100; ++i) {
    t.record_delay(1e-3 * static_cast<double>(i), 1.0);
  }
  EXPECT_NEAR(t.quantile(0.5), 0.050, 0.050 * 0.05);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.100);  // exact max from the stats
}

TEST(DelayTracer, QuantileSketchRespectsWarmup) {
  DelayTracer t(2.0);
  t.record_delay(9.0, 1.0);   // inside warm-up: sketch must skip it
  EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);  // nothing survived warm-up yet
  t.record_delay(0.5, 3.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.5);
}

TEST(DelayTracer, QuantileSketchMergesExactly) {
  // Per-shard tracers merged in any order equal the single tracer: the
  // determinism contract for scale-run summaries.
  DelayTracer whole;
  DelayTracer a, b;
  for (int i = 1; i <= 200; ++i) {
    const double d = 1e-3 * static_cast<double>(1 + (i * 61) % 199);
    whole.record_delay(d, 1.0);
    (i % 2 ? a : b).record_delay(d, 1.0);
  }
  DelayTracer merged_ab;
  merged_ab.merge(a);
  merged_ab.merge(b);
  DelayTracer merged_ba;
  merged_ba.merge(b);
  merged_ba.merge(a);
  EXPECT_EQ(merged_ab.quantile(0.5), whole.quantile(0.5));
  EXPECT_EQ(merged_ba.quantile(0.5), whole.quantile(0.5));
  EXPECT_EQ(merged_ab.quantile(0.99), whole.quantile(0.99));
  EXPECT_EQ(merged_ba.quantile(0.99), whole.quantile(0.99));
}

TEST(DelayTracer, CopyPreservesSketch) {
  DelayTracer t;
  t.record_delay(0.25, 1.0);
  DelayTracer copy = t;            // deep copy of the sketch
  copy.record_delay(0.75, 1.0);
  EXPECT_DOUBLE_EQ(t.quantile(1.0), 0.25);
  EXPECT_DOUBLE_EQ(copy.quantile(1.0), 0.75);
}

TEST(DelayTracer, SaveLoadIsExactAndTruncatedBlobThrows) {
  DelayTracer t(1.0);
  t.record_delay(0.5, 0.5);  // warm-up drop travels too
  for (int i = 1; i <= 50; ++i) {
    t.record_delay(1e-3 * static_cast<double>(i), 2.0);
  }
  std::vector<std::uint8_t> blob;
  util::ByteWriter w(blob);
  t.save(w);

  DelayTracer loaded(1.0);
  util::ByteReader r(blob);
  loaded.load(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(loaded.all().count(), t.all().count());
  EXPECT_EQ(loaded.all().mean(), t.all().mean());
  EXPECT_EQ(loaded.worst_case(), t.worst_case());
  EXPECT_EQ(loaded.dropped_warmup(), 1u);
  EXPECT_EQ(loaded.quantile(0.5), t.quantile(0.5));
  EXPECT_EQ(loaded.quantile(0.99), t.quantile(0.99));

  for (const std::size_t keep : {std::size_t{0}, std::size_t{30},
                                 blob.size() / 2, blob.size() - 1}) {
    DelayTracer victim;
    util::ByteReader cut(blob.data(), keep);
    EXPECT_THROW(victim.load(cut), util::ByteRangeError) << keep;
  }
}

TEST(DelayTracer, MergingASketchOfOtherGeometryThrows) {
  // A blob whose sketch has 73 bins (the default has hundreds): bins of
  // ratio 1.04 from 1 us up to 1.04^72.5 us.
  const util::LogHistogram narrow(1e-6, 1e-6 * std::pow(1.04, 72.5), 0.02);
  ASSERT_EQ(narrow.bin_count(), 73u);
  std::vector<std::uint8_t> blob;
  util::ByteWriter w(blob);
  util::OnlineStats{}.save(w);  // DelayTracer::save's layout
  w.u64(0);
  narrow.save(w);

  DelayTracer loaded;
  util::ByteReader r(blob);
  loaded.load(r);
  ASSERT_TRUE(r.done());
  DelayTracer t;
  t.record_delay(0.25, 1.0);
  EXPECT_THROW(t.merge(loaded), std::invalid_argument);
  EXPECT_THROW(loaded.merge(t), std::invalid_argument);
  // The failed merge left the target as it was.
  EXPECT_EQ(t.all().count(), 1u);
  EXPECT_EQ(t.quantile(1.0), 0.25);
}

}  // namespace
}  // namespace emcast::sim
