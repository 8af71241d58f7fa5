#include "sim/tracer.hpp"

#include "util/bytes.hpp"

namespace emcast::sim {

void DelayTracer::record(const Packet& p, Time now) {
  record_delay(p.age(now), now);
}

void DelayTracer::record_delay(Time delay, Time now) {
  if (now < warmup_) {
    ++dropped_warmup_;
    return;
  }
  all_.add(delay);
  quantiles_.add(delay);
}

void DelayTracer::merge(const DelayTracer& other) {
  quantiles_.merge(other.quantiles_);  // may throw: before any change
  all_.merge(other.all_);
  dropped_warmup_ += other.dropped_warmup_;
}

void DelayTracer::save(util::ByteWriter& w) const {
  all_.save(w);
  w.u64(dropped_warmup_);
  quantiles_.save(w);
}

void DelayTracer::load(util::ByteReader& r) {
  all_.load(r);
  dropped_warmup_ = r.u64();
  quantiles_.load(r);
}

std::size_t DelayTracer::memory_bytes() const {
  return sizeof(*this) + quantiles_.memory_bytes() - sizeof(quantiles_);
}

}  // namespace emcast::sim
