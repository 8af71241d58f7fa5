#include "sim/shard.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace emcast::sim {
namespace {

/// Ceiling on the ring slots of a whole mailbox graph.
constexpr double kMailboxBudgetBytes = 1024.0 * 1024.0 * 1024.0;

}  // namespace

void Shard::reset(Time lookahead) {
  sim_.reset_discarding(0.0);
  lookahead_ = lookahead;
  for (auto& mailbox : incoming_) {
    if (mailbox) mailbox->reset();
  }
  drain_buf_.clear();  // capacity retained
  post_floor_.clear();  // re-derived by apply_shard_floor when a matrix
                        // or plan survives the reset (capacity retained)
  messages_received_ = 0;
  in_drain_ = false;
}

std::size_t Shard::drain_and_schedule() {
  drain_buf_.clear();
  for (auto& mailbox : incoming_) {
    if (mailbox) mailbox->drain_into(drain_buf_);
  }
  if (drain_buf_.empty()) return 0;
  // Deterministic merge: thread timing decided nothing about this order,
  // so the local sequence numbers the handler's schedule_at calls assign
  // — and with them the (time, seq) fire order — replay identically on
  // every run, for every worker-thread count.
  std::sort(drain_buf_.begin(), drain_buf_.end(), msg_before);
  assert(handler_ != nullptr && "sharded run without a message handler");
  in_drain_ = true;
  try {
    for (const CrossShardMsg& m : drain_buf_) (*handler_)(*this, m);
  } catch (...) {
    in_drain_ = false;  // the run aborts, but keep the guard consistent
    throw;
  }
  in_drain_ = false;
  messages_received_ += drain_buf_.size();
  return drain_buf_.size();
}

ShardGroup::ShardGroup(std::size_t shards, Time lookahead,
                       std::size_t mailbox_capacity,
                       std::vector<Time> lookahead_matrix) {
  const std::size_t n = std::max<std::size_t>(1, shards);
  // Every ordered pair owns a ring of the power-of-two-rounded capacity;
  // 120 shards at 4096 slots would ask for 4.7 GB before the first event.
  double slots = 1.0;
  while (slots < static_cast<double>(mailbox_capacity)) slots *= 2.0;
  const double ring_bytes = static_cast<double>(n) *
                            static_cast<double>(n - 1) * slots *
                            static_cast<double>(sizeof(CrossShardMsg));
  if (ring_bytes > kMailboxBudgetBytes) {
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "ShardGroup: mailbox rings need %.0f bytes, over the "
                  "%.0f-byte budget (fewer shards or a smaller "
                  "mailbox_capacity)",
                  ring_bytes, kMailboxBudgetBytes);
    throw std::invalid_argument(msg);
  }
  policy_.init(n, lookahead);  // validates the scalar
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.emplace_back(std::unique_ptr<Shard>(new Shard()));
    Shard& s = *shards_.back();
    s.index_ = i;
    s.lookahead_ = lookahead;
    s.incoming_.resize(n);
    s.drain_buf_.reserve(64);
  }
  // Mailbox wiring: shard i's outgoing_[j] is the (i -> j) mailbox owned
  // by shard j's incoming side, so the producer is i's worker and the
  // consumer j's worker by construction.  Forked workers inherit the
  // whole graph through copy-on-write.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == j) continue;
      auto box = std::make_unique<ShardMailbox>();
      box->init(static_cast<std::uint32_t>(i), mailbox_capacity);
      shards_[j]->incoming_[i] = std::move(box);
    }
    shards_[j]->outgoing_.resize(n, nullptr);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      shards_[i]->outgoing_[j] = shards_[j]->incoming_[i].get();
    }
  }
  if (!lookahead_matrix.empty()) {
    set_lookahead_matrix(std::move(lookahead_matrix));
  }
}

void ShardGroup::set_message_handler(ShardMsgHandler handler) {
  handler_ = std::move(handler);
  for (auto& s : shards_) s->handler_ = &handler_;
}

void ShardGroup::reset(Time lookahead) {
  // lookahead <= 0 keeps the current value.  Negated comparison so NaN
  // falls into the update branch and reaches the finiteness throw (the
  // kernel guard convention) instead of silently keeping a stale value.
  const bool rebind = !(lookahead <= 0.0);
  Time next_lookahead = policy_.scalar();
  if (rebind) {
    if (!std::isfinite(lookahead)) {
      throw std::invalid_argument("ShardGroup::reset: lookahead not finite");
    }
    next_lookahead = lookahead;
  }
  // A reset issued from inside a model event reaches a mid-run kernel,
  // whose reset_discarding throws (best-effort misuse guard; the group's
  // state is unspecified after such a throw, exactly like after a model
  // exception aborting a run).  The policy commits only after every
  // kernel guard passed, so a failed mid-run rebind never leaves a
  // lookahead that a later keep-current reset would silently propagate.
  for (auto& s : shards_) s->reset(next_lookahead);
  policy_.set_scalar(next_lookahead);
  if (rebind) {
    // Explicit rebind: the installed plan AND pair matrix were derived
    // for the previous routing/schedule, so they die with it — the
    // explicit scalar rebuilds the uniform bound (an empty matrix is a
    // uniform matrix of that scalar).  A keep-current reset(0) retains
    // both (warm re-runs of the same schedule), but the shard floors
    // were just rewound by Shard::reset — re-derive them.
    policy_.clear_plan_and_matrix();
  } else if (!policy_.plan().empty() || !policy_.matrix().empty()) {
    apply_shard_floor();
  }
}

void ShardGroup::set_lookahead_plan(std::vector<LookaheadEpoch> plan) {
  policy_.set_plan(std::move(plan));  // validates
  apply_shard_floor();
}

void ShardGroup::set_lookahead_matrix(std::vector<Time> matrix) {
  // Validation AND the min-plus transitive closure (Floyd-Warshall
  // including the diagonal — the minimum feedback-cycle cost) live in
  // WindowPolicy::set_matrix.
  policy_.set_matrix(std::move(matrix));
  apply_shard_floor();
}

void ShardGroup::apply_shard_floor() {
  // While a plan is installed, Shard::post's assert floor (and
  // SimContext::lookahead()) is the weakest epoch guarantee; the per-epoch
  // contract itself is the model's (documented in set_lookahead_plan).
  const Time floor = policy_.floor();
  const std::size_t n = shards_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Shard& s = *shards_[i];
    s.lookahead_ = floor;
    if (policy_.matrix().empty()) {
      s.post_floor_.clear();
      continue;
    }
    // Per-destination assert floors: exactly the bound the window
    // scheduler derives from (pair_window_end's effective L over the
    // CLOSED matrix), so a model that would narrow a window the
    // scheduler already committed to fails the post assert loudly.
    // Without a plan the closed pair entry applies alone — a post on a
    // pair with no route at all (+inf even after closure) can never be
    // legal.
    s.post_floor_.assign(n, floor);
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst == i) continue;
      s.post_floor_[dst] = policy_.pair_floor(i, dst);
    }
  }
}

std::uint64_t ShardGroup::drain(std::size_t s) {
  Shard& shard = *shards_[s];
  shard.drain_and_schedule();
  return time_key(shard.sim_.next_event_time());
}

Time ShardGroup::window_end(std::size_t s, Time tmin, Time horizon_bound,
                            KeyReader keys) const {
  Time w;
  if (policy_.matrix().empty()) {
    w = policy_.window_end(tmin);
  } else {
    // Per-shard window: bounded only by sources that can reach this
    // shard — INCLUDING itself through the closed matrix's diagonal (the
    // minimum feedback-cycle cost: this shard's own executions can
    // reflect off a neighbour and return).  A shard with an infinite
    // next-event time executes nothing this round — it posts nothing, so
    // it contributes no bound; a shard no finite source constrains runs
    // clear to the horizon.
    w = kTimeInfinity;
    for (std::size_t j = 0; j < shards_.size(); ++j) {
      const std::uint64_t kj = keys.read(keys.ctx, j);
      if (kj == kInfTimeKey) continue;
      w = std::min(w, policy_.pair_window_end(key_time(kj), j, s));
    }
  }
  // Progress floor: arrivals from any source land strictly after tmin
  // (t_j >= tmin, effective L > 0), so events at <= tmin are always
  // safe — and the global-min shard always advances.
  if (!(w > tmin)) w = std::nextafter(tmin, kTimeInfinity);
  return std::min(w, horizon_bound);
}

ShardGroup::Counters ShardGroup::counters(std::size_t begin,
                                          std::size_t end) const {
  Counters c;
  for (std::size_t src = begin; src < end; ++src) {
    c.events += shards_[src]->events_executed();
    for (const auto& dst : shards_) {
      const ShardMailbox* box = dst->incoming_[src].get();
      if (box == nullptr) continue;  // self
      c.posted += box->posted();
      c.spilled += box->spilled();
    }
  }
  return c;
}

}  // namespace emcast::sim
