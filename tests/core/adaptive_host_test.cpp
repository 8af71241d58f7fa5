#include "core/adaptive_host.hpp"

#include <gtest/gtest.h>

#include "netcalc/threshold.hpp"
#include "sim/tracer.hpp"
#include "traffic/cbr_source.hpp"

namespace emcast::core {
namespace {

std::vector<traffic::FlowSpec> three_flows(Bits sigma, Rate rho) {
  return {{0, sigma, rho}, {1, sigma, rho}, {2, sigma, rho}};
}

sim::Packet make_packet(FlowId flow, Bits size) {
  sim::Packet p;
  p.flow = flow;
  p.size = size;
  return p;
}

TEST(AdaptiveHost, ForcedSigmaRhoModeStays) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(1000, 200);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::SigmaRho;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRho);
  sim.run(10.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRho);
  EXPECT_EQ(host.mode_switches(), 0u);
}

TEST(AdaptiveHost, ForcedLambdaModeStays) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(1000, 200);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::SigmaRhoLambda;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRhoLambda);
  sim.run(10.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRhoLambda);
}

TEST(AdaptiveHost, PacketsFlowThroughInBothModes) {
  for (auto mode : {ControlMode::SigmaRho, ControlMode::SigmaRhoLambda}) {
    sim::Simulator sim;
    AdaptiveHostConfig cfg;
    cfg.flows = three_flows(2000, 200);
    cfg.capacity = 1000;
    cfg.mode = mode;
    int delivered = 0;
    AdaptiveHost host(sim, cfg, [&](sim::Packet) { ++delivered; });
    for (int f = 0; f < 3; ++f) {
      for (int i = 0; i < 4; ++i) {
        host.offer(make_packet(static_cast<FlowId>(f), 200.0));
      }
    }
    sim.run(60.0);
    EXPECT_EQ(delivered, 12) << "mode " << static_cast<int>(mode);
  }
}

TEST(AdaptiveHost, RecordsPerHopDelay) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(1000, 200);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::SigmaRho;
  // The host stamps hop_arrival; its sink reads the per-hop delay.
  sim::DelayTracer delay;
  AdaptiveHost host(sim, cfg, [&delay, &sim](sim::Packet p) {
    delay.record_delay(sim.now() - p.hop_arrival, sim.now());
  });
  host.offer(make_packet(0, 500.0));
  sim.run(10.0);
  EXPECT_EQ(delay.all().count(), 1u);
  // Service time 0.5 s at C=1000.
  EXPECT_NEAR(delay.worst_case(), 0.5, 1e-9);
}

TEST(AdaptiveHost, DerivesThresholdFromTheorems) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(1000, 200);  // homogeneous
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_NEAR(host.threshold(),
              netcalc::utilization_threshold_homogeneous(3), 1e-12);
}

TEST(AdaptiveHost, HeterogeneousThresholdHigher) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = {{0, 1000, 200}, {1, 500, 100}, {2, 800, 150}};
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_NEAR(host.threshold(),
              netcalc::utilization_threshold_heterogeneous(3), 1e-12);
}

TEST(AdaptiveHost, SwitchesToLambdaUnderHeavyLoad) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  const Rate flow_rate = 300.0;     // 3 flows -> utilisation 0.9 > 0.79
  cfg.flows = three_flows(600, flow_rate);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  cfg.control_interval = 0.5;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  // Drive each flow at its full rate: 300 bit/s as 30-bit packets (dense
  // enough that the windowed estimator's bin granularity is negligible).
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 300; ++i) {
      sim.schedule_at(i * 0.1 + 0.01, [&host, f] {
        host.offer(make_packet(static_cast<FlowId>(f), 30.0));
      });
    }
  }
  sim.run(30.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRhoLambda);
  EXPECT_GE(host.mode_switches(), 1u);
  EXPECT_GT(host.measured_utilization(), host.threshold());
}

TEST(AdaptiveHost, StaysInSigmaRhoUnderLightLoad) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(600, 300.0);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  cfg.control_interval = 0.5;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  // Only 10% load.
  for (int i = 0; i < 30; ++i) {
    sim.schedule_at(i * 1.0 + 0.01, [&host] {
      host.offer(make_packet(0, 100.0));
    });
  }
  sim.run(30.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRho);
  EXPECT_EQ(host.mode_switches(), 0u);
}

TEST(AdaptiveHost, SwitchesBackWhenLoadDrops) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(600, 300.0);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  cfg.control_interval = 0.5;
  cfg.estimator_window = 1.0;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  // Heavy load for 10 s, then silence.
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 100; ++i) {
      sim.schedule_at(i * 0.1 + 0.01, [&host, f] {
        host.offer(make_packet(static_cast<FlowId>(f), 30.0));
      });
    }
  }
  sim.run(30.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRho);
  EXPECT_GE(host.mode_switches(), 2u);  // up and back down
}

TEST(AdaptiveHost, NoPacketStrandedAcrossModeSwitch) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(600, 300.0);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  cfg.control_interval = 0.5;
  int delivered = 0;
  AdaptiveHost host(sim, cfg, [&](sim::Packet) { ++delivered; });
  int offered = 0;
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(i * 0.5 + 0.013 * f, [&host, &offered, f] {
        host.offer(make_packet(static_cast<FlowId>(f), 150.0));
        ++offered;
      });
    }
  }
  sim.run(120.0);
  EXPECT_EQ(delivered, offered);
}

TEST(AdaptiveHost, RejectsUnstableFlows) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(600, 400.0);  // 1200 > 1000
  cfg.capacity = 1000;
  EXPECT_THROW(AdaptiveHost(sim, cfg, [](sim::Packet) {}),
               std::invalid_argument);
}

TEST(AdaptiveHost, RejectsEmptyFlows) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.capacity = 1000;
  EXPECT_THROW(AdaptiveHost(sim, cfg, [](sim::Packet) {}),
               std::invalid_argument);
}

TEST(AdaptiveHost, RejectsUnknownFlowPacket) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = three_flows(600, 200.0);
  cfg.capacity = 1000;
  cfg.mode = ControlMode::SigmaRho;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_THROW(host.offer(make_packet(77, 100.0)), std::invalid_argument);
}

TEST(AdaptiveHost, SingleFlowNeverUsesLambda) {
  sim::Simulator sim;
  AdaptiveHostConfig cfg;
  cfg.flows = {{0, 600, 900.0}};  // 90% load but K=1
  cfg.capacity = 1000;
  cfg.mode = ControlMode::Adaptive;
  cfg.control_interval = 0.5;
  AdaptiveHost host(sim, cfg, [](sim::Packet) {});
  EXPECT_DOUBLE_EQ(host.threshold(), 1.0);
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i * 0.1, [&host] { host.offer(make_packet(0, 90.0)); });
  }
  sim.run(20.0);
  EXPECT_EQ(host.active_model(), ControlMode::SigmaRho);
}

}  // namespace
}  // namespace emcast::core
