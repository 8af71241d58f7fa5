#pragma once
// Online statistics used by the tracer and the experiment harness:
// Welford mean/variance plus min/max in one pass, and two streaming
// mergeable summaries for runs too large to trace in full — a
// log-spaced-bin histogram (the quantile sketch for delay distributions)
// and a deterministic k-min record sample.  Both merge
// order-independently, so per-shard instances combined in any order give
// the same result as one global instance: the property that lets
// 10^6-host runs keep the byte-identical-across-shard-counts contract on
// their summaries after the full canonical trace has become infeasible.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace emcast::util {

class ByteReader;
class ByteWriter;

/// Single-pass mean / variance / extrema accumulator (Welford).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  /// Marshal the exact accumulator state (process-backend result blobs).
  /// Doubles travel as bit patterns, so save -> load is identity.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-spaced-bin histogram over (0, +inf): bin i covers
/// [lo * ratio^i, lo * ratio^(i+1)), so relative resolution is constant
/// across orders of magnitude — the right shape for delay distributions
/// whose tail matters.  Samples below `lo` (including non-positive ones)
/// clamp into bin 0; samples past the top clamp into the last bin.  Mass
/// is never dropped, and the exact extrema/mean survive in the embedded
/// OnlineStats.
///
/// Merging adds bin counts elementwise, which commutes and associates:
/// per-shard sketches merged in any order equal the single-kernel sketch
/// over the same samples.  Memory is O(bins), independent of sample count
/// — this is what replaces the full canonical trace at scale.
class LogHistogram {
 public:
  /// Default geometry: 1 microsecond .. ~100 seconds at 2% relative
  /// resolution (rounded up to whole bins).
  explicit LogHistogram(double lo = 1e-6, double hi = 100.0,
                        double relative_error = 0.02);

  void add(double x);
  /// Add `other`'s bins and stats.  Throws std::invalid_argument unless
  /// both sketches have the same bin count, `lo` and bin ratio.
  void merge(const LogHistogram& other);
  void reset();

  /// Marshal the full sketch — geometry, bins and embedded stats — so a
  /// loaded sketch merges exactly with the live sketches it left behind.
  void save(ByteWriter& w) const;
  void load(ByteReader& r);

  std::size_t total() const { return stats_.count(); }
  const OnlineStats& stats() const { return stats_; }
  std::size_t bin_count() const { return counts_.size(); }
  const std::vector<std::uint64_t>& bins() const { return counts_; }

  /// Inverse-CDF estimate; q in [0,1].  q=1 returns the exact maximum
  /// (from the embedded stats), interior quantiles return the geometric
  /// midpoint of the covering bin — error bounded by the bin ratio.
  double quantile(double q) const;

  std::size_t memory_bytes() const {
    return sizeof(*this) + counts_.capacity() * sizeof(counts_[0]);
  }

 private:
  std::size_t bin_of(double x) const;

  double lo_ = 0;
  double log_lo_ = 0;
  double inv_log_ratio_ = 0;  ///< 1 / ln(ratio)
  double log_ratio_ = 0;
  std::vector<std::uint64_t> counts_;
  OnlineStats stats_;
};

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Used to rank records for KMinSample — purely a function of the key, so
/// the ranking is identical in every process, shard layout and merge
/// order.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic bounded sample: keep the k records whose mix64(key) hash
/// is smallest.  Unlike a classic reservoir (which depends on arrival
/// order and RNG stream), the winning set is a pure function of the key
/// multiset — offering the same records to any number of per-shard
/// samples and merging them in any order yields byte-identical contents.
/// That makes it the scale-mode stand-in for the canonical delivery
/// trace: a fixed-size, cross-shard-stable spot-check of individual
/// deliveries.  Ties on the hash break by smaller key, so duplicate-free
/// keys give a unique winning set.
template <typename Record>
class KMinSample {
 public:
  explicit KMinSample(std::size_t k = 256) : k_(k) {}

  void offer(std::uint64_t key, const Record& r) {
    ++offered_;
    if (k_ == 0) return;  // disabled sample: count offers, keep nothing
    const std::uint64_t h = mix64(key);
    if (entries_.size() == k_ && !worse(entries_.back(), h, key)) return;
    Entry e{h, key, r};
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), e,
        [](const Entry& a, const Entry& b) { return !worse(a, b.hash, b.key); });
    entries_.insert(it, e);
    if (entries_.size() > k_) entries_.pop_back();
  }

  void merge(const KMinSample& other) {
    offered_ += other.offered_;
    if (k_ == 0) return;
    for (const Entry& e : other.entries_) {
      if (entries_.size() == k_ && !worse(entries_.back(), e.hash, e.key)) {
        continue;
      }
      auto it = std::lower_bound(entries_.begin(), entries_.end(), e,
                                 [](const Entry& a, const Entry& b) {
                                   return !worse(a, b.hash, b.key);
                                 });
      entries_.insert(it, e);
      if (entries_.size() > k_) entries_.pop_back();
    }
  }

  void reset() {
    entries_.clear();
    offered_ = 0;
  }

  std::size_t k() const { return k_; }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t offered() const { return offered_; }

  /// Records in ascending (hash, key) order — a canonical order, so two
  /// equal samples compare equal elementwise.
  std::vector<Record> records() const {
    std::vector<Record> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(e.record);
    return out;
  }

  std::size_t memory_bytes() const {
    return sizeof(*this) + entries_.capacity() * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::uint64_t key;
    Record record;
  };
  /// True when `e` ranks strictly after (hash, key) — i.e. is worse.
  static bool worse(const Entry& e, std::uint64_t hash, std::uint64_t key) {
    return e.hash != hash ? e.hash > hash : e.key > key;
  }

  std::size_t k_;
  std::uint64_t offered_ = 0;
  std::vector<Entry> entries_;  ///< sorted ascending by (hash, key)
};

}  // namespace emcast::util
