// Quickstart: regulate three real-time flows through one end host with the
// paper's adaptive control algorithm and watch it pick the right model.
//
//   build/examples/quickstart
//
// What it shows:
//   1. declare (σ, ρ) flow specs,
//   2. stand up an AdaptiveHost (K regulators + general MUX) against a
//      sim::SimContext — the engine-agnostic kernel handle every
//      component takes (a plain Simulator converts implicitly; the same
//      component code also runs inside one shard of a sharded engine,
//      see docs/engine.md and examples/sharded_multigroup.cpp),
//   3. drive it with VBR traffic at a low and a high utilisation,
//   4. read back the worst-case delay and the model the algorithm chose.

#include <cstdio>

#include "core/adaptive_host.hpp"
#include "netcalc/threshold.hpp"
#include "sim/context.hpp"
#include "sim/tracer.hpp"
#include "traffic/mpeg_video_source.hpp"

using namespace emcast;

namespace {

void run_at_utilization(double utilization) {
  // One kernel, one context.  Components only ever see the context, so
  // swapping the backend never touches model code.
  sim::Simulator sim;
  const sim::SimContext ctx(sim);

  // Three 1.5 Mbit/s MPEG video flows, one per multicast group.
  std::vector<std::unique_ptr<traffic::MpegVideoSource>> sources;
  std::vector<traffic::FlowSpec> specs;
  Rate total_rate = 0;
  for (FlowId id = 0; id < 3; ++id) {
    traffic::MpegVideoConfig cfg;
    cfg.flow = id;
    cfg.group = id;
    cfg.seed = 100 + static_cast<std::uint64_t>(id);
    sources.push_back(std::make_unique<traffic::MpegVideoSource>(cfg));
    auto spec = sources.back()->spec(id);
    spec.rho *= 1.04;  // regulator headroom over the mean rate
    specs.push_back(spec);
    total_rate += sources.back()->mean_rate();
  }

  // Capacity chosen so Σρ/C equals the requested utilisation.
  core::AdaptiveHostConfig cfg;
  cfg.flows = specs;
  cfg.capacity = total_rate / utilization;
  cfg.mode = core::ControlMode::Adaptive;  // the paper's algorithm

  // The sink sees each packet as it leaves the MUX: the host's per-hop
  // delay is now - hop_arrival, recorded after a 5 s warm-up.
  std::uint64_t delivered = 0;
  sim::DelayTracer delay(5.0);
  core::AdaptiveHost host(ctx, cfg, [&delivered, &delay, ctx](sim::Packet p) {
    ++delivered;
    delay.record_delay(ctx.now() - p.hop_arrival, ctx.now());
  });

  for (auto& src : sources) {
    src->start(ctx, [&host](sim::Packet p) { host.offer(std::move(p)); },
               60.0);
  }
  // Snapshot the controller while traffic still flows (after the sources
  // stop, the measured rate decays and the controller reverts).
  auto model = core::ControlMode::SigmaRho;
  ctx.schedule_at(59.9, [&] { model = host.active_model(); });
  sim.run(65.0);

  std::printf(
      "utilisation %.2f: model=%s  switches=%llu  worst-case delay=%.3fs  "
      "mean=%.4fs  packets=%llu\n",
      utilization,
      model == core::ControlMode::SigmaRhoLambda ? "(sigma,rho,lambda)"
                                                 : "(sigma,rho)",
      static_cast<unsigned long long>(host.mode_switches()),
      delay.worst_case(), delay.all().mean(),
      static_cast<unsigned long long>(delivered));
}

}  // namespace

int main() {
  std::printf("Adaptive worst-case delay control (Tu/Sreenan/Jia 2007)\n");
  std::printf("threshold for 3 homogeneous flows: rho* = %.3f of capacity\n\n",
              netcalc::utilization_threshold_homogeneous(3));
  run_at_utilization(0.40);  // below threshold: stays with (sigma,rho)
  run_at_utilization(0.92);  // above threshold: switches to (sigma,rho,lambda)
  return 0;
}
