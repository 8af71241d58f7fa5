#include "overlay/cluster_builder.hpp"

#include <algorithm>
#include <stdexcept>

namespace emcast::overlay {

namespace {

/// RTT medoid: the member minimising the sum of RTTs to the others.  With
/// a budget, only members that can still adopt (size−1) children qualify;
/// if none qualifies, fall back to the member with the most budget left
/// (a deliberate, observable overload — the scheme's failure mode).
std::size_t elect_core(const std::vector<std::size_t>& members,
                       const RttFn& rtt,
                       const std::vector<std::size_t>* budget) {
  const std::size_t need = members.size() - 1;
  std::size_t best = members.front();
  Time best_cost = kTimeInfinity;
  bool found = false;
  for (std::size_t candidate : members) {
    if (budget != nullptr && (*budget)[candidate] < need) continue;
    Time cost = 0;
    for (std::size_t other : members) {
      if (other != candidate) cost += rtt(candidate, other);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
      found = true;
    }
  }
  if (!found && budget != nullptr) {
    best = *std::max_element(members.begin(), members.end(),
                             [&](std::size_t a, std::size_t b) {
                               return (*budget)[a] < (*budget)[b];
                             });
  }
  return best;
}

}  // namespace

std::vector<Cluster> cluster_once(const std::vector<std::size_t>& ids,
                                  const RttFn& rtt, const ClusterConfig& cfg,
                                  util::Rng& rng) {
  if (cfg.min_size < 2 || cfg.max_size < cfg.min_size) {
    throw std::invalid_argument("cluster_once: bad size range");
  }
  // One buffer: the unassigned members are its suffix [first, end), in
  // the order the cluster-by-cluster greedy pass leaves them.  Each
  // cluster keys every remaining member once by its RTT to the seed, so
  // the sort compares plain numbers instead of calling the oracle twice
  // per comparison.  key == rtt(seed, id) exactly, so every comparison —
  // and therefore every move partial_sort makes — is what sorting the
  // ids through the oracle would give.
  struct Keyed {
    Time key;
    std::size_t id;
  };
  std::vector<Keyed> buf(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) buf[i] = Keyed{0.0, ids[i]};
  std::vector<Cluster> clusters;
  auto first = buf.begin();
  while (first != buf.end()) {
    const auto remaining = static_cast<std::size_t>(buf.end() - first);
    // Paper rule: if fewer than max_size+1 members remain they form one
    // final cluster; otherwise draw a size from [min_size, max_size].
    std::size_t want;
    if (remaining <= cfg.max_size) {
      want = remaining;
    } else {
      want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_size),
          static_cast<std::int64_t>(cfg.max_size)));
      // Never leave a single orphan behind (it could not form a cluster).
      if (remaining - want == 1) ++want;
    }
    // Seed selection: rotate the drawn seed to the front of the suffix,
    // keeping the others in order.
    if (cfg.random_seeds && remaining > 1) {
      const auto seed_pos = static_cast<std::ptrdiff_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(remaining) - 1));
      std::rotate(first, first + seed_pos, first + seed_pos + 1);
    }
    const std::size_t seed = first->id;
    // Sort the rest by RTT to the seed and take the closest (want−1).
    const auto rest = first + 1;
    for (auto it = rest; it != buf.end(); ++it) it->key = rtt(seed, it->id);
    const auto take =
        static_cast<std::ptrdiff_t>(std::min(want - 1, remaining - 1));
    std::partial_sort(rest, rest + take, buf.end(),
                      [](const Keyed& a, const Keyed& b) {
                        return a.key < b.key;
                      });
    Cluster c;
    c.members.reserve(static_cast<std::size_t>(take) + 1);
    for (auto it = first; it != rest + take; ++it) c.members.push_back(it->id);
    c.core = elect_core(c.members, rtt, cfg.budget);
    if (cfg.budget != nullptr) {
      auto& left = (*cfg.budget)[c.core];
      left -= std::min(left, c.members.size() - 1);
    }
    clusters.push_back(std::move(c));
    first = rest + take;
  }
  return clusters;
}

Hierarchy build_hierarchy(const std::vector<std::size_t>& ids,
                          const RttFn& rtt, const ClusterConfig& cfg,
                          util::Rng& rng) {
  if (ids.empty()) throw std::invalid_argument("build_hierarchy: no members");
  Hierarchy h;
  std::vector<std::size_t> layer_ids = ids;
  if (layer_ids.size() == 1) {
    h.top = layer_ids.front();
    return h;
  }
  while (layer_ids.size() > 1) {
    auto clusters = cluster_once(layer_ids, rtt, cfg, rng);
    layer_ids.clear();
    for (const auto& c : clusters) layer_ids.push_back(c.core);
    h.layers.push_back(std::move(clusters));
  }
  h.top = layer_ids.front();
  return h;
}

void hierarchy_to_parents(const Hierarchy& h,
                          std::vector<std::size_t>& parent) {
  // Walk bottom-up: at each layer, every non-core member's parent is the
  // cluster core.  A member that is also a core keeps climbing; its parent
  // is assigned at the layer where it stops being a core.
  for (const auto& layer : h.layers) {
    for (const auto& c : layer) {
      for (std::size_t m : c.members) {
        if (m != c.core) parent[m] = c.core;
      }
    }
  }
  parent[h.top] = MulticastTree::npos;
}

}  // namespace emcast::overlay
