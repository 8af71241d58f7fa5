#pragma once
// Delay measurement.  A DelayTracer sits at a measurement point (a
// multicast receiver, or a single host's output sink) and records each
// packet's delay.  Samples inside the warm-up window are discarded so
// transient start-up behaviour does not pollute the worst-case statistic,
// mirroring standard ns-2 methodology.

#include "sim/packet.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace emcast::sim {

class DelayTracer {
 public:
  explicit DelayTracer(Time warmup = 0.0) : warmup_(warmup) {}

  /// Adjust the warm-up horizon (samples before it are discarded).
  void set_warmup(Time t) { warmup_ = t; }
  Time warmup() const { return warmup_; }

  /// Record the end-to-end delay of `p` observed at time `now`.
  void record(const Packet& p, Time now);

  /// Record an explicit delay value observed at time `now` (a host's
  /// per-hop delay, `now - p.hop_arrival`, taken at its sink).
  void record_delay(Time delay, Time now);

  /// Fold another tracer's samples into this one (shard-aware tracing:
  /// each shard of a sharded simulation records into its own tracer with
  /// no cross-thread traffic, and the harness merges at the end).  Count,
  /// min/max — and therefore worst_case() — are exact; mean/variance are
  /// Welford-merged (Chan), so they can differ from a sequential
  /// accumulation by float rounding only.  The quantile sketch merges
  /// exactly (bin counts add).  Throws std::invalid_argument, leaving
  /// this tracer unchanged, when the sketches' bin geometries differ (a
  /// loaded blob carries its own).
  void merge(const DelayTracer& other);

  /// Marshal the measurement state — aggregate stats, warm-up drop
  /// counter and the quantile sketch — into a process-backend result
  /// blob.  load() replaces this tracer's samples with the saved ones
  /// (the warm-up horizon is config, not state, and is left untouched);
  /// save -> load is bit-exact, so a tracer carried across a process
  /// boundary merges identically to the original.
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

  Time worst_case() const { return all_.count() ? all_.max() : 0.0; }
  const util::OnlineStats& all() const { return all_; }

  std::uint64_t dropped_warmup() const { return dropped_warmup_; }

  /// Inverse-CDF estimate from the log-binned sketch (default
  /// LogHistogram geometry); 0 when no samples survived warm-up.  q=1 is
  /// the exact maximum.  The sketch is what stands in for the full
  /// delivery trace at scale: it merges exactly, so quantiles are
  /// identical across shard counts and merge orders.
  double quantile(double q) const { return quantiles_.quantile(q); }

  /// Bytes held by this tracer (self + sketch bins).
  std::size_t memory_bytes() const;

 private:
  Time warmup_;
  util::OnlineStats all_;
  std::uint64_t dropped_warmup_ = 0;
  util::LogHistogram quantiles_;
};

}  // namespace emcast::sim
