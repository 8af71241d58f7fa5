#include "experiments/delivery_trace.hpp"

#include <algorithm>
#include <tuple>

#include "traffic/trace_format.hpp"

namespace emcast::experiments {

void canonicalize(DeliveryTrace& trace) {
  std::sort(trace.begin(), trace.end(),
            [](const DeliveryRecord& a, const DeliveryRecord& b) {
              return std::tie(a.time_key, a.group, a.packet_id, a.host) <
                     std::tie(b.time_key, b.group, b.packet_id, b.host);
            });
}

std::uint64_t trace_hash(const DeliveryTrace& trace) {
  std::uint64_t h = traffic::trace_fingerprint_seed();
  for (const DeliveryRecord& r : trace) {
    h = traffic::trace_fingerprint_mix(h, r.time_key);
    h = traffic::trace_fingerprint_mix(h, r.packet_id);
    h = traffic::trace_fingerprint_mix(h, static_cast<std::uint32_t>(r.group));
    h = traffic::trace_fingerprint_mix(h, static_cast<std::uint32_t>(r.host));
  }
  return h;
}

}  // namespace emcast::experiments
