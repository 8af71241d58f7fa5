// One point of a multigroup sweep, engine-selectable, JSON out.
//
// This is both the smallest end-to-end demo of EngineKind selection
// (single / sharded / process behind one config field) and the worker
// program `tools/orchestrate.py` fans out: the orchestrator appends
// point flags to this command line, reads the single JSON object this
// prints, and checkpoints it into the sweep manifest.
//
//   ./example_sweep_point --engine process --shards 4 --processes 2
//       --scheme adaptive --utilization 0.9        (one command line)
//
// Every flag has a deterministic default, so a bare invocation is a
// valid (and reproducible) point.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "experiments/multigroup_sim.hpp"

namespace {

using namespace emcast;
using namespace emcast::experiments;

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "sweep_point: %s\n"
               "usage: example_sweep_point [--utilization R] [--scheme S] "
               "[--engine single|sharded|process] [--shards N] [--threads N] "
               "[--processes N] [--hosts N] [--routers N] [--groups N] "
               "[--duration T] [--warmup T] [--seed N]\n"
               "  schemes: capacity-aware sigma-rho sigma-rho-lambda "
               "adaptive unregulated\n",
               what.c_str());
  std::exit(2);
}

RegulationScheme parse_scheme(const std::string& s) {
  if (s == "capacity-aware") return RegulationScheme::CapacityAware;
  if (s == "sigma-rho") return RegulationScheme::SigmaRho;
  if (s == "sigma-rho-lambda") return RegulationScheme::SigmaRhoLambda;
  if (s == "adaptive") return RegulationScheme::Adaptive;
  if (s == "unregulated") return RegulationScheme::Unregulated;
  usage_error("unknown --scheme " + s);
}

const char* scheme_slug(RegulationScheme s) {
  switch (s) {
    case RegulationScheme::CapacityAware: return "capacity-aware";
    case RegulationScheme::SigmaRho: return "sigma-rho";
    case RegulationScheme::SigmaRhoLambda: return "sigma-rho-lambda";
    case RegulationScheme::Adaptive: return "adaptive";
    case RegulationScheme::Unregulated: return "unregulated";
  }
  return "?";
}

sim::EngineKind parse_engine(const std::string& s) {
  if (s == "single") return sim::EngineKind::Single;
  if (s == "sharded") return sim::EngineKind::Sharded;
  if (s == "process") return sim::EngineKind::Process;
  usage_error("unknown --engine " + s);
}

}  // namespace

int main(int argc, char** argv) {
  MultiGroupSimConfig cfg;
  cfg.kind = TrafficKind::Audio;
  cfg.regulation = RegulationScheme::Adaptive;
  cfg.utilization = 0.5;
  cfg.hosts = 120;
  cfg.groups = 3;
  cfg.duration = 2.0;
  cfg.warmup = 0.5;
  cfg.seed = 11;
  cfg.sample_deliveries = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--utilization") cfg.utilization = std::stod(next());
      else if (flag == "--scheme") cfg.regulation = parse_scheme(next());
      else if (flag == "--engine") cfg.engine = parse_engine(next());
      else if (flag == "--shards") cfg.shards = std::stoul(next());
      else if (flag == "--threads") cfg.threads = std::stoul(next());
      else if (flag == "--processes") cfg.processes = std::stoul(next());
      else if (flag == "--hosts") cfg.hosts = std::stoul(next());
      else if (flag == "--routers") cfg.routers = std::stoul(next());
      else if (flag == "--groups") cfg.groups = std::stoi(next());
      else if (flag == "--duration") cfg.duration = std::stod(next());
      else if (flag == "--warmup") cfg.warmup = std::stod(next());
      else if (flag == "--seed") cfg.seed = std::stoull(next());
      else usage_error("unknown flag " + flag);
    } catch (const std::invalid_argument&) {
      usage_error("bad value for " + flag);
    } catch (const std::out_of_range&) {
      usage_error("bad value for " + flag);
    }
  }

  MultiGroupSimResult r;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    r = run_multigroup(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_point: run failed: %s\n", e.what());
    return 1;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // One JSON object, keys sorted, %.17g so doubles round-trip exactly —
  // the orchestrator stores this verbatim as the point's checkpoint.
  std::printf(
      "{\"deliveries\": %llu, \"delay_p50\": %.17g, \"delay_p99\": %.17g, "
      "\"engine\": \"%s\", \"groups\": %d, \"hosts\": %zu, "
      "\"losses\": %llu, \"mean_delay\": %.17g, \"mode_switches\": %llu, "
      "\"processes\": %zu, \"rounds\": %llu, \"scheme\": \"%s\", "
      "\"seed\": %llu, \"shards\": %zu, \"utilization\": %.17g, "
      "\"wall_seconds\": %.6f, \"worst_case_delay\": %.17g, "
      "\"xshard_messages\": %llu}\n",
      static_cast<unsigned long long>(r.deliveries), r.delay_p50, r.delay_p99,
      to_string(cfg.engine), cfg.groups, cfg.hosts,
      static_cast<unsigned long long>(r.losses), r.mean_delay,
      static_cast<unsigned long long>(r.mode_switches), r.processes,
      static_cast<unsigned long long>(r.rounds), scheme_slug(cfg.regulation),
      static_cast<unsigned long long>(cfg.seed), r.shards, r.utilization, wall,
      r.worst_case_delay, static_cast<unsigned long long>(r.messages));
  return 0;
}
