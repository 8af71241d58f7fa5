// Multi-party audio conferencing: an end host subscribed to several
// conference rooms (groups) at once — the bottleneck scenario of the
// paper's Section I.  The host's load ramps up as rooms go active; watch
// the adaptive controller's live decisions through the control trace.
//
//   build/examples/conference_audio

#include <cstdio>
#include <vector>

#include "core/adaptive_host.hpp"
#include "netcalc/threshold.hpp"
#include "sim/simulator.hpp"
#include "sim/tracer.hpp"
#include "traffic/onoff_audio_source.hpp"

using namespace emcast;

int main() {
  constexpr int kRooms = 4;
  sim::Simulator sim;

  std::vector<std::unique_ptr<traffic::OnOffAudioSource>> rooms;
  std::vector<traffic::FlowSpec> specs;
  Rate total = 0;
  for (FlowId id = 0; id < kRooms; ++id) {
    traffic::OnOffAudioConfig cfg;
    cfg.flow = id;
    cfg.group = id;
    cfg.seed = 500 + static_cast<std::uint64_t>(id);
    rooms.push_back(std::make_unique<traffic::OnOffAudioSource>(cfg));
    auto spec = rooms.back()->spec(id);
    spec.rho *= 1.04;
    specs.push_back(spec);
    total += rooms.back()->mean_rate();
  }

  // Capacity sized so that all four rooms together hit 0.92 utilisation —
  // past the K = 4 threshold, so the controller must react when the last
  // rooms join.
  core::AdaptiveHostConfig cfg;
  cfg.flows = specs;
  cfg.capacity = total / 0.92;
  cfg.mode = core::ControlMode::Adaptive;
  cfg.control_interval = 0.5;

  // Per-hop delay (arrival at the host to departure from its MUX),
  // measured where packets leave: the host's sink.
  sim::DelayTracer delay;
  core::AdaptiveHost host(sim, cfg, [&delay, &sim](sim::Packet p) {
    delay.record_delay(sim.now() - p.hop_arrival, sim.now());
  });
  std::printf("conference host: %d rooms, threshold rho* = %.3f (K = %d)\n\n",
              kRooms, host.threshold(), kRooms);

  // Rooms go live 20 s apart.
  for (int i = 0; i < kRooms; ++i) {
    const Time start = 20.0 * i;
    sim.schedule_at(start, [&, i] {
      std::printf("t=%5.1fs room %d goes live\n", sim.now(), i);
      rooms[static_cast<std::size_t>(i)]->start(
          sim, [&host](sim::Packet p) { host.offer(std::move(p)); }, 200.0);
    });
  }

  // Periodic control-state trace.
  for (int t = 10; t <= 200; t += 10) {
    sim.schedule_at(t, [&host, &delay, &sim] {
      std::printf("t=%5.1fs model=%-18s measured rho=%.2f worst=%.3fs\n",
                  sim.now(),
                  host.active_model() == core::ControlMode::SigmaRhoLambda
                      ? "(sigma,rho,lambda)"
                      : "(sigma,rho)",
                  host.measured_utilization(), delay.worst_case());
    });
  }

  sim.run(205.0);
  std::printf("\ntotal model switches: %llu\n",
              static_cast<unsigned long long>(host.mode_switches()));
  return 0;
}
