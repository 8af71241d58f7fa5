#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "overlay/capacity_aware.hpp"
#include "overlay/dsct.hpp"
#include "overlay/nice.hpp"

namespace emcast::overlay {
namespace {

// Synthetic geography: members live in `domains` clusters on a line;
// intra-domain RTT is small, inter-domain RTT large.
struct Geo {
  std::vector<Member> members;
  std::vector<int> domain;
  RttFn rtt;
};

Geo make_geo(std::size_t n, int domains) {
  Geo g;
  g.members.resize(n);
  g.domain.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.members[i] = Member{i, static_cast<NodeId>(i)};
    g.domain[i] = static_cast<int>(i % static_cast<std::size_t>(domains));
  }
  auto domain = g.domain;
  g.rtt = [domain](std::size_t a, std::size_t b) {
    const double base = (domain[a] == domain[b]) ? 0.002 : 0.040;
    // small deterministic wobble so medoids are unique
    return base + 1e-6 * static_cast<double>((a * 31 + b * 17) % 97);
  };
  return g;
}

TEST(Dsct, BuildsSpanningTreeRootedAtSource) {
  auto g = make_geo(200, 5);
  DsctConfig cfg;
  const auto t = build_dsct(g.members, g.domain, g.rtt, 42, cfg);
  EXPECT_EQ(t.size(), 200u);
  EXPECT_EQ(t.root(), 42u);
  EXPECT_EQ(t.bfs_order().size(), 200u);
}

TEST(Dsct, LayerCountNearLemma2Bound) {
  auto g = make_geo(665, 19);
  DsctConfig cfg;
  const auto t = build_dsct(g.members, g.domain, g.rtt, 0, cfg);
  // Lemma 2 bound for n=665, k=3 is 7; the domain split adds the inter
  // hierarchy, so allow bound+2; must be at least 3 (two-level hierarchy).
  EXPECT_GE(t.hierarchy_layers(), 3);
  EXPECT_LE(t.hierarchy_layers(), 9);
}

TEST(Dsct, DeterministicForSeed) {
  auto g = make_geo(100, 4);
  DsctConfig cfg;
  cfg.seed = 77;
  const auto a = build_dsct(g.members, g.domain, g.rtt, 3, cfg);
  const auto b = build_dsct(g.members, g.domain, g.rtt, 3, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.parent(i), b.parent(i));
  }
}

TEST(Dsct, MostEdgesStayInsideDomains) {
  // Location awareness: the fraction of tree edges crossing domains must
  // be small (roughly one uplink per domain plus the inter hierarchy).
  auto g = make_geo(300, 6);
  DsctConfig cfg;
  const auto t = build_dsct(g.members, g.domain, g.rtt, 0, cfg);
  std::size_t cross = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i == t.root()) continue;
    if (g.domain[i] != g.domain[t.parent(i)]) ++cross;
  }
  EXPECT_LT(cross, 40u);  // 299 edges total
}

TEST(Dsct, RejectsBadInput) {
  auto g = make_geo(10, 2);
  DsctConfig cfg;
  EXPECT_THROW(build_dsct({}, {}, g.rtt, 0, cfg), std::invalid_argument);
  EXPECT_THROW(build_dsct(g.members, {1, 2}, g.rtt, 0, cfg),
               std::invalid_argument);
  EXPECT_THROW(build_dsct(g.members, g.domain, g.rtt, 99, cfg),
               std::invalid_argument);
}

TEST(Nice, BuildsSpanningTreeRootedAtSource) {
  auto g = make_geo(150, 5);
  NiceConfig cfg;
  const auto t = build_nice(g.members, g.rtt, 7, cfg);
  EXPECT_EQ(t.size(), 150u);
  EXPECT_EQ(t.root(), 7u);
  EXPECT_EQ(t.bfs_order().size(), 150u);
}

TEST(Nice, CrossesDomainsMoreThanDsct) {
  auto g = make_geo(300, 6);
  DsctConfig dc;
  NiceConfig nc;
  const auto dsct = build_dsct(g.members, g.domain, g.rtt, 0, dc);
  const auto nice = build_nice(g.members, g.rtt, 0, nc);
  auto cross_count = [&](const MulticastTree& t) {
    std::size_t cross = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i == t.root()) continue;
      if (g.domain[i] != g.domain[t.parent(i)]) ++cross;
    }
    return cross;
  };
  // Random-seeded global clustering produces at least as many cross-domain
  // edges as the domain-partitioned construction.
  EXPECT_GE(cross_count(nice) + 5, cross_count(dsct));
}

TEST(Nice, LayerCountReasonable) {
  auto g = make_geo(665, 19);
  NiceConfig cfg;
  const auto t = build_nice(g.members, g.rtt, 0, cfg);
  EXPECT_GE(t.hierarchy_layers(), 3);
  EXPECT_LE(t.hierarchy_layers(), 8);
}

TEST(CapacityAware, FanoutShrinksWithLoad) {
  CapacityAwareConfig lo, hi;
  lo.utilization = 0.35;
  hi.utilization = 0.95;
  EXPECT_GT(capacity_fanout(lo), capacity_fanout(hi));
  EXPECT_GE(capacity_fanout(hi), 2u);
}

TEST(CapacityAware, FanoutMatchesFormula) {
  CapacityAwareConfig c;
  c.utilization = 0.5;
  c.host_capacity_factor = 1.75;
  EXPECT_EQ(capacity_fanout(c), 3u);  // floor(1.75/0.5) = 3
  c.utilization = 0.35;
  EXPECT_EQ(capacity_fanout(c), 5u);  // floor(5.0)
}

TEST(CapacityAware, TreeGetsTallerUnderLoad) {
  auto g = make_geo(665, 19);
  CapacityAwareConfig lo, hi;
  lo.utilization = 0.35;
  hi.utilization = 0.95;
  lo.seed = hi.seed = 5;
  const auto t_lo = build_capacity_aware_dsct(g.members, g.domain, g.rtt, 0, lo);
  const auto t_hi = build_capacity_aware_dsct(g.members, g.domain, g.rtt, 0, hi);
  EXPECT_GT(t_hi.hierarchy_layers(), t_lo.hierarchy_layers());
}

TEST(CapacityAware, NiceVariantAlsoSpans) {
  auto g = make_geo(120, 4);
  CapacityAwareConfig c;
  c.utilization = 0.7;
  const auto t = build_capacity_aware_nice(g.members, g.rtt, 2, c);
  EXPECT_EQ(t.bfs_order().size(), 120u);
  EXPECT_EQ(t.root(), 2u);
}

TEST(CapacityAware, RejectsBadUtilization) {
  CapacityAwareConfig c;
  for (const double u :
       {0.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    c.utilization = u;
    EXPECT_THROW(capacity_fanout(c), std::invalid_argument) << u;
    EXPECT_THROW(capacity_child_budget(c, 3), std::invalid_argument) << u;
  }
}

TEST(Reroot, PreservesTreeAndMovesRoot) {
  constexpr auto npos = MulticastTree::npos;
  // Chain 0 <- 1 <- 2 <- 3, reroot at 3 flips all pointers.
  std::vector<std::size_t> parent{npos, 0, 1, 2};
  reroot(parent, 3);
  EXPECT_EQ(parent[3], npos);
  EXPECT_EQ(parent[2], 3u);
  EXPECT_EQ(parent[1], 2u);
  EXPECT_EQ(parent[0], 1u);
}

TEST(Reroot, RootToItselfIsNoop) {
  constexpr auto npos = MulticastTree::npos;
  std::vector<std::size_t> parent{npos, 0, 0};
  reroot(parent, 0);
  EXPECT_EQ(parent[0], npos);
  EXPECT_EQ(parent[1], 0u);
  EXPECT_EQ(parent[2], 0u);
}

}  // namespace
}  // namespace emcast::overlay
