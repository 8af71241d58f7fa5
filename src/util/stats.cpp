#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/bytes.hpp"

namespace emcast::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

void OnlineStats::reset() { *this = OnlineStats{}; }

void OnlineStats::save(ByteWriter& w) const {
  w.u64(static_cast<std::uint64_t>(n_));
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
}

void OnlineStats::load(ByteReader& r) {
  n_ = static_cast<std::size_t>(r.u64());
  mean_ = r.f64();
  m2_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

LogHistogram::LogHistogram(double lo, double hi, double relative_error) {
  assert(lo > 0 && hi > lo && relative_error > 0);
  lo_ = lo;
  log_lo_ = std::log(lo);
  // Bin ratio (1 + 2e) keeps the geometric-midpoint estimate within
  // ~relative_error of any sample in the bin.
  log_ratio_ = std::log1p(2.0 * relative_error);
  inv_log_ratio_ = 1.0 / log_ratio_;
  const auto bins = static_cast<std::size_t>(
      std::ceil((std::log(hi) - log_lo_) * inv_log_ratio_));
  counts_.assign(std::max<std::size_t>(bins, 1), 0);
}

std::size_t LogHistogram::bin_of(double x) const {
  if (!(x > lo_)) return 0;
  const auto idx =
      static_cast<long long>((std::log(x) - log_lo_) * inv_log_ratio_);
  return static_cast<std::size_t>(std::clamp<long long>(
      idx, 0, static_cast<long long>(counts_.size()) - 1));
}

void LogHistogram::add(double x) {
  stats_.add(x);
  ++counts_[bin_of(x)];
}

void LogHistogram::merge(const LogHistogram& other) {
  // Bins only add up when they cover the same ranges; a sketch loaded
  // from a blob can carry any geometry, so this is checked in every build.
  if (counts_.size() != other.counts_.size() || lo_ != other.lo_ ||
      log_ratio_ != other.log_ratio_) {
    throw std::invalid_argument(
        "LogHistogram::merge: bin geometry differs (bin count, lo or ratio)");
  }
  stats_.merge(other.stats_);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

void LogHistogram::reset() {
  stats_.reset();
  std::fill(counts_.begin(), counts_.end(), 0);
}

void LogHistogram::save(ByteWriter& w) const {
  w.f64(lo_);
  w.f64(log_lo_);
  w.f64(inv_log_ratio_);
  w.f64(log_ratio_);
  w.u32(static_cast<std::uint32_t>(counts_.size()));
  for (const std::uint64_t c : counts_) w.u64(c);
  stats_.save(w);
}

void LogHistogram::load(ByteReader& r) {
  lo_ = r.f64();
  log_lo_ = r.f64();
  inv_log_ratio_ = r.f64();
  log_ratio_ = r.f64();
  const std::uint32_t bins = r.u32();
  // Size check before the allocation: a corrupt count must surface as the
  // reader's range error, not as a multi-gigabyte assign.
  if (r.remaining() < static_cast<std::size_t>(bins) * sizeof(std::uint64_t)) {
    throw ByteRangeError("LogHistogram::load: truncated bins");
  }
  counts_.assign(bins, 0);
  for (std::uint64_t& c : counts_) c = r.u64();
  stats_.load(r);
}

double LogHistogram::quantile(double q) const {
  if (stats_.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q >= 1.0) return stats_.max();
  const auto target = static_cast<double>(stats_.count()) * q;
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += static_cast<double>(counts_[i]);
    if (cum >= target) {
      // Geometric midpoint of the covering bin, clamped to the exact
      // extrema so clamped-mass bins cannot report impossible values.
      const double mid = std::exp(
          log_lo_ + (static_cast<double>(i) + 0.5) * log_ratio_);
      return std::clamp(mid, stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

}  // namespace emcast::util
