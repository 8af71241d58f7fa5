// Unit tests for the churn subsystem's offline half: config validation,
// schedule resolution (determinism, protected hosts, repair pricing,
// deferral) and the lookahead-epoch plan handed to the sharded engine.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "experiments/churn_schedule.hpp"
#include "experiments/multigroup_sim.hpp"
#include "overlay/multigroup.hpp"

namespace emcast::experiments {
namespace {

ChurnConfig live_config() {
  ChurnConfig c;
  c.enabled = true;
  c.leave_rate = 0.4;
  c.crash_fraction = 0.6;
  c.rejoin_rate = 2.0;
  c.detection_timeout = 0.05;
  c.domain_failure_rate = 0.5;
  c.flash_join_at = 1.0;
  c.flash_join_count = 8;
  c.seed = 5;
  return c;
}

const overlay::MultiGroupNetwork& test_network() {
  static const overlay::MultiGroupNetwork mg = [] {
    overlay::MultiGroupConfig mc;
    mc.groups = 2;
    mc.scheme = overlay::TreeScheme::Dsct;
    mc.seed = 5;
    return overlay::MultiGroupNetwork(default_network(64, 42), mc);
  }();
  return mg;
}

std::vector<std::size_t> sources(const overlay::MultiGroupNetwork& mg) {
  std::vector<std::size_t> s;
  for (int g = 0; g < mg.groups(); ++g) s.push_back(mg.source(g));
  return s;
}

TEST(ChurnConfigValidate, RejectsOutOfRangeKnobs) {
  const auto check_throws = [](auto&& mutate) {
    ChurnConfig c;
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  check_throws([](ChurnConfig& c) { c.leave_rate = -0.1; });
  check_throws([](ChurnConfig& c) { c.crash_fraction = -0.01; });
  check_throws([](ChurnConfig& c) { c.crash_fraction = 1.01; });
  check_throws([](ChurnConfig& c) { c.rejoin_rate = -1.0; });
  check_throws([](ChurnConfig& c) { c.detection_timeout = -0.5; });
  check_throws([](ChurnConfig& c) {
    c.detection_timeout = std::numeric_limits<double>::infinity();
  });
  check_throws([](ChurnConfig& c) { c.domain_failure_rate = -2.0; });
  check_throws([](ChurnConfig& c) {
    c.flash_join_at = std::numeric_limits<double>::infinity();
  });
  check_throws([](ChurnConfig& c) { c.repair_fanout = 0; });
  check_throws([](ChurnConfig& c) { c.control_bits = -1.0; });
  check_throws([](ChurnConfig& c) { c.settle_window = -0.1; });
  check_throws([](ChurnConfig& c) { c.delay_bound = -1e-9; });
  ChurnConfig ok = live_config();
  EXPECT_NO_THROW(ok.validate());
}

TEST(ChurnSchedule, DeterministicAndSorted) {
  const auto& mg = test_network();
  const ChurnCostModel cost;
  const auto a = make_churn_schedule(live_config(), mg, sources(mg), cost, 4.0);
  const auto b = make_churn_schedule(live_config(), mg, sources(mg), cost, 4.0);
  ASSERT_FALSE(a.actions.empty());
  ASSERT_EQ(a.actions.size(), b.actions.size());
  for (std::size_t i = 0; i < a.actions.size(); ++i) {
    EXPECT_TRUE(a.actions[i] == b.actions[i]) << "action " << i;
  }
  EXPECT_TRUE(std::is_sorted(a.actions.begin(), a.actions.end(),
                             [](const sim::FaultEvent& x,
                                const sim::FaultEvent& y) {
                               return x.at < y.at;
                             }));
  EXPECT_EQ(a.raw_events, a.crashes + a.leaves + a.rejoins);
  EXPECT_GT(a.crashes, 0u);
  EXPECT_GT(a.rejoins, 0u);
}

TEST(ChurnSchedule, SeedChangesTheTimeline) {
  const auto& mg = test_network();
  auto cfg = live_config();
  const auto a = make_churn_schedule(cfg, mg, sources(mg), {}, 4.0);
  cfg.seed = 6;
  const auto b = make_churn_schedule(cfg, mg, sources(mg), {}, 4.0);
  const bool differ =
      a.actions.size() != b.actions.size() ||
      !std::equal(a.actions.begin(), a.actions.end(), b.actions.begin(),
                  [](const sim::FaultEvent& x, const sim::FaultEvent& y) {
                    return x == y;
                  });
  EXPECT_TRUE(differ);
}

TEST(ChurnSchedule, ProtectedHostsNeverChurn) {
  const auto& mg = test_network();
  const auto protected_hosts = sources(mg);
  const auto s =
      make_churn_schedule(live_config(), mg, protected_hosts, {}, 6.0);
  const std::set<std::int32_t> prot(protected_hosts.begin(),
                                    protected_hosts.end());
  for (const auto& ev : s.actions) {
    EXPECT_EQ(prot.count(ev.subject), 0u)
        << "protected host " << ev.subject << " appears in the timeline";
  }
}

TEST(ChurnSchedule, CrashRepairPaysDetectionPlusPerOrphanCost) {
  const auto& mg = test_network();
  ChurnConfig cfg;
  cfg.enabled = true;
  cfg.leave_rate = 0.05;
  cfg.crash_fraction = 1.0;  // crashes only
  cfg.rejoin_rate = 0.0;     // no rejoins: isolate the crash path
  cfg.detection_timeout = 0.1;
  cfg.seed = 11;
  const ChurnCostModel cost{1e-3, 1e6};  // unit = 1ms + 2048/1e6 s
  const Time unit = cost.fwd_overhead + cfg.control_bits / cost.fwd_cpu_rate;
  const auto s = make_churn_schedule(cfg, mg, sources(mg), cost, 8.0);
  ASSERT_GT(s.crashes, 0u);
  // Every crash contributes a HostDown and, detection_timeout later plus
  // at least one control-message unit, its splice.
  std::size_t downs = 0;
  for (std::size_t i = 0; i < s.actions.size(); ++i) {
    if (static_cast<ChurnAction>(s.actions[i].kind) != ChurnAction::HostDown) {
      continue;
    }
    ++downs;
    const auto subject = s.actions[i].subject;
    const Time down_at = s.actions[i].at;
    const auto splice = std::find_if(
        s.actions.begin(), s.actions.end(), [&](const sim::FaultEvent& ev) {
          return ev.subject == subject &&
                 static_cast<ChurnAction>(ev.kind) == ChurnAction::Splice &&
                 ev.at > down_at;
        });
    ASSERT_NE(splice, s.actions.end()) << "crash without splice";
    EXPECT_GE(splice->at, down_at + cfg.detection_timeout + unit - 1e-12);
  }
  EXPECT_EQ(downs, s.crashes);
  EXPECT_EQ(s.repairs, s.crashes);
}

TEST(ChurnSchedule, FlashJoinCohortRejoinsAtTheFlashInstant) {
  const auto& mg = test_network();
  ChurnConfig cfg;
  cfg.enabled = true;
  cfg.flash_join_at = 2.0;
  cfg.flash_join_count = 10;
  cfg.seed = 3;
  const auto s = make_churn_schedule(cfg, mg, sources(mg), {}, 4.0);
  std::size_t joins_near_flash = 0;
  for (const auto& ev : s.actions) {
    if (static_cast<ChurnAction>(ev.kind) == ChurnAction::JoinComplete &&
        ev.at >= cfg.flash_join_at && ev.at <= cfg.flash_join_at + 0.01) {
      ++joins_near_flash;
    }
  }
  EXPECT_EQ(joins_near_flash, cfg.flash_join_count);
  EXPECT_EQ(s.leaves, cfg.flash_join_count);
}

TEST(ChurnSchedule, ReplicaReplayMatchesOfflineResolution) {
  // The runtime handler applies the same actions the resolver emitted;
  // replaying them here must keep every tree valid and end with the same
  // number of applied events.
  const auto& mg = test_network();
  const auto cfg = live_config();
  const auto s = make_churn_schedule(cfg, mg, sources(mg), {}, 6.0);
  ChurnState rep;
  rep.reset(mg, cfg);
  for (const auto& ev : s.actions) {
    rep.apply(ev, ev.at);
    for (int g = 0; g < mg.groups(); ++g) {
      ASSERT_TRUE(rep.tree(g).valid()) << "group " << g << " at t=" << ev.at;
    }
  }
  EXPECT_EQ(rep.applied(), s.actions.size());
}

TEST(ChurnLookaheadPlan, EpochsAreValidAndConservative) {
  const auto& mg = test_network();
  const auto cfg = live_config();
  const auto s = make_churn_schedule(cfg, mg, sources(mg), {}, 6.0);
  // A 2-shard split by host parity guarantees plenty of cross edges.
  std::vector<std::uint32_t> shard_of(mg.host_count());
  for (std::size_t h = 0; h < shard_of.size(); ++h) {
    shard_of[h] = static_cast<std::uint32_t>(h % 2);
  }
  const Time fwd = 250e-6;
  const auto plan = churn_lookahead_plan(s, mg, cfg, shard_of, fwd, 1e-4);
  for (std::size_t e = 0; e < plan.size(); ++e) {
    EXPECT_GE(plan[e].lookahead, fwd) << "epoch " << e;
    if (e > 0) {
      EXPECT_GT(plan[e].from, plan[e - 1].from) << "epoch " << e;
      EXPECT_NE(plan[e].lookahead, plan[e - 1].lookahead)
          << "adjacent equal epochs must be merged";
    }
  }
  // No churn -> no plan: the uniform lookahead covers a static tree.
  const ChurnSchedule empty;
  EXPECT_TRUE(churn_lookahead_plan(empty, mg, cfg, shard_of, fwd, 1e-4)
                  .empty());
}

TEST(MultiGroupConfigValidation, RejectsBadFailureKnobs) {
  MultiGroupSimConfig c;
  c.hosts = 48;
  c.duration = 0.1;
  c.warmup = 0.0;
  c.loss_rate = -0.1;  // silently disabled loss before the fix
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.loss_rate = 1.5;
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.loss_rate = 0.0;
  c.loss_burst = 0.5;  // mean burst below one packet is meaningless
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.loss_burst = 3.0;
  c.churn.enabled = true;
  c.churn.crash_fraction = 2.0;
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.churn = ChurnConfig{};
  // Run window: each of these used to exit 0 with zero deliveries.
  c.duration = 0.0;
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.duration = -1.0;
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.duration = 0.1;
  c.warmup = -0.05;
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.warmup = 0.1;  // == duration: nothing left to measure
  EXPECT_THROW(run_multigroup(c), std::invalid_argument);
  c.warmup = 0.0;
  // More shards than hosts used to die in bad_alloc on the shards²
  // lookahead matrix, on both rounds engines.
  for (const sim::EngineKind kind :
       {sim::EngineKind::Sharded, sim::EngineKind::Process}) {
    c.engine = kind;
    c.shards = 100000;
    EXPECT_THROW(run_multigroup(c), std::invalid_argument)
        << sim::to_string(kind);
    c.shards = c.hosts + 1;
    EXPECT_THROW(run_multigroup(c), std::invalid_argument)
        << sim::to_string(kind);
  }
  // The rows below also pin WHICH check fires: each used to fail later
  // with some other error, or not at all.
  const auto expect_rejected_for = [&c](const char* knob) {
    try {
      run_multigroup(c);
      ADD_FAILURE() << knob << " must be rejected";
    } catch (const std::exception& e) {
      EXPECT_NE(dynamic_cast<const std::invalid_argument*>(&e), nullptr)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << e.what();
    }
  };
  // 120 shards on 120 hosts passes the rule above, but its 14280 mailbox
  // rings would take ~4.7 GB: the mailbox budget rejects it before any
  // ring is allocated (it used to die in bad_alloc).
  const std::size_t hosts = c.hosts;
  c.hosts = 120;
  c.shards = 120;
  for (const sim::EngineKind kind :
       {sim::EngineKind::Sharded, sim::EngineKind::Process}) {
    SCOPED_TRACE(sim::to_string(kind));
    c.engine = kind;
    expect_rejected_for("mailbox");
  }
  c.hosts = hosts;
  c.engine = sim::EngineKind::Single;
  c.shards = 1;
  // rho-bar outside (0, 1] used to run: 0 divided total rate by zero,
  // 1.5 overloaded every uplink, NaN failed deep in the kernel.
  c.regulation = RegulationScheme::Unregulated;
  for (const double rho : {0.0, 1.5, std::nan("")}) {
    SCOPED_TRACE(rho);
    c.utilization = rho;
    expect_rejected_for("utilization");
  }
}

}  // namespace
}  // namespace emcast::experiments
