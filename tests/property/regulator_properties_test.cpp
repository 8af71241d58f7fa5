// Property-style parameterized sweeps over the regulator implementations:
// for every (sigma, rho, packet-size, load) combination the structural
// invariants of Section III must hold — output envelopes, work
// conservation, FIFO order and loss-freedom.

#include <vector>

#include <gtest/gtest.h>

#include "core/lambda_regulator.hpp"
#include "core/token_bucket_regulator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace emcast::core {
namespace {

struct RegulatorCase {
  Bits sigma;
  Rate rho;
  Bits packet;
  double overload;  ///< input rate as a multiple of rho
};

std::string case_name(const testing::TestParamInfo<RegulatorCase>& info) {
  const auto& c = info.param;
  return "sigma" + std::to_string(static_cast<int>(c.sigma)) + "_rho" +
         std::to_string(static_cast<int>(c.rho)) + "_pkt" +
         std::to_string(static_cast<int>(c.packet)) + "_x" +
         std::to_string(static_cast<int>(c.overload * 100));
}

class TokenBucketProperty : public testing::TestWithParam<RegulatorCase> {};

TEST_P(TokenBucketProperty, OutputConformsAndLosesNothing) {
  const auto c = GetParam();
  sim::Simulator sim;
  std::vector<std::pair<Time, Bits>> out;
  TokenBucketRegulator reg(
      sim, traffic::FlowSpec{0, c.sigma, c.rho},
      [&](sim::Packet p) { out.emplace_back(sim.now(), p.size); });

  // Poisson-ish arrivals at overload x rho for 50 s.
  util::Rng rng(42);
  const double pps = c.overload * c.rho / c.packet;
  Time t = 0;
  std::uint64_t offered = 0;
  while (t < 50.0) {
    t += rng.exponential(1.0 / pps);
    sim.schedule_at(t, [&reg, &offered, c] {
      sim::Packet p;
      p.flow = 0;
      p.size = c.packet;
      reg.offer(std::move(p));
      ++offered;
    });
  }
  sim.run(50.0 + 3.0 * c.sigma / c.rho + 60.0);

  // Loss-freedom: everything offered eventually leaves (the run grace
  // covers the worst drain time for overload <= 1; for overload > 1 the
  // residue must equal the backlog).
  EXPECT_EQ(offered, out.size() + reg.forwarded() - out.size() +
                         (offered - out.size()));
  if (c.overload <= 1.0) {
    EXPECT_EQ(out.size(), offered);
  } else {
    EXPECT_EQ(out.size() + static_cast<std::uint64_t>(
                               reg.backlog_bits() / c.packet + 0.5),
              offered);
  }

  // Envelope: cumulative output over any window <= sigma + rho dt + one
  // packet of release granularity.
  for (std::size_t i = 0; i < out.size(); i += 7) {
    Bits acc = 0;
    for (std::size_t j = i; j < out.size(); ++j) {
      acc += out[j].second;
      const Time dt = out[j].first - out[i].first;
      ASSERT_LE(acc, c.sigma + c.rho * dt + c.packet + 1e-6)
          << "window " << i << ".." << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TokenBucketProperty,
    testing::Values(RegulatorCase{1000, 100, 100, 0.5},
                    RegulatorCase{1000, 100, 100, 0.95},
                    RegulatorCase{1000, 100, 100, 1.5},
                    RegulatorCase{500, 1000, 250, 0.8},
                    RegulatorCase{500, 1000, 250, 2.0},
                    RegulatorCase{20000, 5000, 1052, 0.9},
                    RegulatorCase{20000, 5000, 1052, 1.2},
                    RegulatorCase{100, 50, 100, 0.7}),
    case_name);

struct BankCase {
  int flows;
  Bits sigma;
  double flow_util;  ///< rho-hat per flow
  Bits packet;
};

std::string bank_name(const testing::TestParamInfo<BankCase>& info) {
  const auto& c = info.param;
  return "K" + std::to_string(c.flows) + "_s" +
         std::to_string(static_cast<int>(c.sigma)) + "_u" +
         std::to_string(static_cast<int>(c.flow_util * 1000)) + "_p" +
         std::to_string(static_cast<int>(c.packet));
}

class LambdaBankProperty : public testing::TestWithParam<BankCase> {};

TEST_P(LambdaBankProperty, TurnTakingAndThroughputInvariants) {
  const auto c = GetParam();
  const Rate capacity = 1e5;
  const Rate rho = c.flow_util * capacity;
  std::vector<traffic::FlowSpec> flows;
  for (int i = 0; i < c.flows; ++i) {
    flows.push_back({static_cast<FlowId>(i), c.sigma, rho});
  }
  sim::Simulator sim;
  struct Out {
    Time start, end;
    FlowId flow;
  };
  std::vector<Out> outs;
  LambdaRegulatorBank bank(sim, flows, capacity, [&](sim::Packet p) {
    outs.push_back({sim.now() - p.size / capacity, sim.now(), p.flow});
  });

  // Drive every flow at ~90% of its declared rho with jittered arrivals.
  util::Rng rng(7);
  for (int f = 0; f < c.flows; ++f) {
    Time t = rng.uniform(0.0, 0.05);
    while (t < 40.0) {
      sim.schedule_at(t, [&bank, f, c] {
        sim::Packet p;
        p.flow = static_cast<FlowId>(f);
        p.size = c.packet;
        bank.offer(std::move(p));
      });
      t += c.packet / (0.9 * rho) * rng.uniform(0.8, 1.2);
    }
  }
  sim.run(40.0 + 5.0 * bank.schedule().period() + 10.0);

  // 1. No two transmissions overlap (single output wire).
  for (std::size_t i = 1; i < outs.size(); ++i) {
    ASSERT_GE(outs[i].start + 1e-9, outs[i - 1].end) << i;
  }
  // 2. Everything drains (input rate < service share).
  EXPECT_LT(bank.total_backlog_bits(), 2.0 * c.packet + 1.0);
  // 3. Every flow got service.
  std::vector<int> counts(static_cast<std::size_t>(c.flows), 0);
  for (const auto& o : outs) ++counts[static_cast<std::size_t>(o.flow)];
  for (int f = 0; f < c.flows; ++f) {
    EXPECT_GT(counts[static_cast<std::size_t>(f)], 10) << "flow " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LambdaBankProperty,
    testing::Values(BankCase{2, 5000, 0.45, 500},
                    BankCase{3, 5000, 0.30, 500},
                    BankCase{3, 2000, 0.10, 250},
                    BankCase{4, 8000, 0.20, 1000},
                    BankCase{5, 3000, 0.15, 400},
                    BankCase{8, 3000, 0.11, 300}),
    bank_name);

}  // namespace
}  // namespace emcast::core
