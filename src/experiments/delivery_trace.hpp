#pragma once
// Canonical delivery traces — the currency of the differential engine
// tests.  A delivery is recorded exact to the bit (the order-preserving
// integer image of its time plus stable payload keys); canonicalize()
// sorts a trace into an order that is a pure function of the delivery
// *set*, so traces captured on different engines (single-threaded vs.
// sharded), different shard counts and different worker-thread counts
// compare byte-for-byte when — and only when — the model dynamics agree.

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace emcast::experiments {

/// One delivery: time_key is sim::time_key(delivery time).
struct DeliveryRecord {
  std::uint64_t time_key = 0;
  std::uint64_t packet_id = 0;
  std::int32_t group = -1;
  std::int32_t host = -1;
  bool operator==(const DeliveryRecord&) const = default;
};

using DeliveryTrace = std::vector<DeliveryRecord>;

/// Sort into the canonical (time_key, group, packet_id, host) order.
void canonicalize(DeliveryTrace& trace);

/// FNV-1a over every record's (time_key, packet_id, group, host) in
/// trace order: a 64-bit fingerprint that lets a test pin a canonical
/// trace as a literal.
std::uint64_t trace_hash(const DeliveryTrace& trace);

/// Key for the bounded k-min delivery sample (util::KMinSample): a pure
/// function of the record, so the winning set cannot depend on shard
/// layout, thread count or event order — only on the delivered multiset.
inline std::uint64_t delivery_sample_key(const DeliveryRecord& rec) {
  std::uint64_t k = rec.time_key;
  k += 0x9e3779b97f4a7c15ULL * rec.packet_id;
  k += 0xbf58476d1ce4e5b9ULL *
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(rec.host));
  k += 0x94d049bb133111ebULL *
       static_cast<std::uint64_t>(static_cast<std::uint32_t>(rec.group));
  return k;
}

}  // namespace emcast::experiments
