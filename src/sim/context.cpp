#include "sim/context.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emcast::sim {

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::Single:
      return "single";
    case EngineKind::Sharded:
      return "sharded";
    case EngineKind::Process:
      return "process";
  }
  return "?";
}

namespace {

/// Shared by the constructor and the rebinding reset: a sharded backend
/// with shards > 1 needs a map, and every entry must name a real shard.
void validate_shard_map(const std::vector<std::uint32_t>& shard_of,
                        std::size_t shards) {
  if (shards > 1 && shard_of.empty()) {
    throw std::invalid_argument(
        "Engine: sharded backend with shards > 1 needs a host->shard map");
  }
  for (const std::uint32_t s : shard_of) {
    if (s >= std::max<std::size_t>(1, shards)) {
      throw std::invalid_argument(
          "Engine: shard_of entry out of range (>= shards)");
    }
  }
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.kind == EngineKind::Single) {
    if (config_.shards > 1) {
      throw std::invalid_argument("Engine: EngineKind::Single with shards > 1");
    }
    // A leftover map would make context_for_host index past the single
    // backend; everything is local, so drop it rather than honour it.
    config_.shard_of.clear();
    single_ = std::make_unique<Simulator>();
    backends_.push_back(detail::ContextBackend{
        single_.get(), nullptr, 0, nullptr, 0, &deliver_});
    return;
  }

  validate_shard_map(config_.shard_of, config_.shards);
  if (config_.kind == EngineKind::Sharded) {
    ShardedConfig shc;
    shc.shards = config_.shards;
    shc.threads = config_.threads;
    shc.lookahead = config_.lookahead;
    shc.mailbox_capacity = config_.mailbox_capacity;
    shc.pin_threads = config_.pin_threads;
    shc.lookahead_matrix = config_.lookahead_matrix;
    sharded_ = std::make_unique<ShardedSimulator>(shc);
    group_ = &sharded_->group();
  } else {
    ProcessConfig pc;
    pc.shards = config_.shards;
    pc.processes = config_.processes;
    pc.lookahead = config_.lookahead;
    pc.mailbox_capacity = config_.mailbox_capacity;
    pc.timeout_seconds = config_.timeout_seconds;
    pc.lookahead_matrix = config_.lookahead_matrix;
    process_ = std::make_unique<ProcessSimulator>(pc);
    group_ = &process_->group();
  }

  // Both rounds backends own the SAME ShardGroup class, so the context
  // records — and with them every model-visible behaviour of SimContext —
  // are identical; on the process backend the workers simply inherit
  // them (and the handler below) through fork.
  const std::uint32_t* shard_of =
      config_.shard_of.empty() ? nullptr : config_.shard_of.data();
  backends_.reserve(group_->shard_count());
  for (std::size_t i = 0; i < group_->shard_count(); ++i) {
    Shard& shard = group_->shard(i);
    backends_.push_back(detail::ContextBackend{
        &shard.sim(), &shard, static_cast<std::uint32_t>(i), shard_of,
        config_.shard_of.size(), &deliver_});
  }
  // Cross-shard arrivals: the drain handler only schedules locally (the
  // ShardMsgHandler contract); the model's DeliverFn then fires at the
  // stamped arrival time exactly like a local deliver() would.  Messages
  // arrive in the drain's sorted (deliver_at, source shard, seq) order, so
  // their local sequence numbers do too.
  ShardMsgHandler on_msg = [this](Shard& shard, const CrossShardMsg& m) {
    const detail::ContextBackend* b = &backends_[shard.index()];
    b->sim->schedule_at(m.deliver_at, [b, host = m.dest_host, p = m.packet] {
      (*b->on_deliver)(SimContext(b), host, p);
    });
  };
  group_->set_message_handler(std::move(on_msg));
}

void Engine::reset() {
  if (single_ != nullptr) {
    single_->reset_discarding(0.0);
  } else if (sharded_ != nullptr) {
    sharded_->reset();
  } else {
    process_->reset();
  }
}

void Engine::reset(std::vector<std::uint32_t> shard_of, Time lookahead) {
  reset(std::move(shard_of), lookahead, {});
}

void Engine::reset(std::vector<std::uint32_t> shard_of, Time lookahead,
                   std::vector<Time> lookahead_matrix) {
  if (single_ != nullptr) {
    throw std::invalid_argument(
        "Engine::reset: cannot rebind a host->shard map on a Single engine");
  }
  validate_shard_map(shard_of, config_.shards);
  if (!(lookahead > 0) || !std::isfinite(lookahead)) {
    throw std::invalid_argument("Engine::reset: lookahead must be > 0");
  }
  // Rewind the backend BEFORE rebinding: a mid-run reset throws out of
  // the kernel guard with the old routing still intact.  The explicit
  // scalar clears the backend's old matrix; the new one (when given)
  // installs after, so a validation throw leaves the engine reset on the
  // uniform scalar rather than on a half-committed matrix.
  if (sharded_ != nullptr) {
    sharded_->reset(lookahead);
  } else {
    process_->reset(lookahead);
  }
  config_.lookahead = lookahead;
  config_.lookahead_matrix.clear();
  config_.shard_of = std::move(shard_of);
  // The map's storage moved: re-point every backend record at it.
  const std::uint32_t* map =
      config_.shard_of.empty() ? nullptr : config_.shard_of.data();
  for (auto& b : backends_) {
    b.shard_of = map;
    b.shard_of_size = config_.shard_of.size();
  }
  if (!lookahead_matrix.empty()) {
    group_->set_lookahead_matrix(lookahead_matrix);  // validates
    config_.lookahead_matrix = std::move(lookahead_matrix);
  }
}

std::uint64_t Engine::run(Time until) {
  if (single_ != nullptr) return single_->run(until);
  if (sharded_ != nullptr) return sharded_->run(until);
  return process_->run(until);
}

std::uint64_t Engine::events_executed() const {
  if (single_ != nullptr) return single_->events_executed();
  if (sharded_ != nullptr) return sharded_->events_executed();
  return process_->events_executed();
}

}  // namespace emcast::sim
