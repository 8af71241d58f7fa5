#include "overlay/capacity_aware.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emcast::overlay {

std::size_t capacity_fanout(const CapacityAwareConfig& config) {
  if (!(config.utilization > 0.0 && config.utilization <= 1.0)) {
    throw std::invalid_argument("capacity_fanout: ρ̄ must be in (0,1]");
  }
  const double raw = config.host_capacity_factor / config.utilization;
  const auto f = static_cast<std::size_t>(std::max(1.0, std::floor(raw)));
  return std::clamp(f, config.min_fanout, config.max_fanout);
}

std::size_t capacity_child_budget(const CapacityAwareConfig& config,
                                  int groups) {
  if (groups < 1) throw std::invalid_argument("capacity_child_budget: K < 1");
  if (!(config.utilization > 0.0 && config.utilization <= 1.0)) {
    throw std::invalid_argument("capacity_child_budget: ρ̄ must be in (0,1]");
  }
  const double slots = config.budget_safety * config.host_capacity_factor *
                       static_cast<double>(groups) / config.utilization;
  return static_cast<std::size_t>(std::max(1.0, std::floor(slots)));
}

MulticastTree build_capacity_aware_dsct(std::vector<Member> members,
                                        const std::vector<int>& domain,
                                        const RttFn& rtt, std::size_t source,
                                        const CapacityAwareConfig& config) {
  const std::size_t f = capacity_fanout(config);
  DsctConfig dsct;
  dsct.seed = config.seed;
  dsct.min_size_override = std::max<std::size_t>(2, f);
  dsct.max_size_override = f + 2;
  dsct.budget = config.budget;
  return build_dsct(std::move(members), domain, rtt, source, dsct);
}

MulticastTree build_capacity_aware_nice(std::vector<Member> members,
                                        const RttFn& rtt, std::size_t source,
                                        const CapacityAwareConfig& config) {
  const std::size_t f = capacity_fanout(config);
  NiceConfig nice;
  nice.seed = config.seed;
  nice.min_size_override = std::max<std::size_t>(2, f);
  nice.max_size_override = f + 2;
  nice.budget = config.budget;
  return build_nice(std::move(members), rtt, source, nice);
}

}  // namespace emcast::overlay
