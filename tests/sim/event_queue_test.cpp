#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace emcast::sim {
namespace {

/// Fire every live event in order.
void drain(EventQueue& q) {
  Time now = 0.0;
  while (!q.empty()) q.fire_next(now);
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&order, i] { order.push_back(i); });
  }
  drain(q);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto h = q.push(1.0, [&] { fired = true; });
  h.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  h.cancel();
  h.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  drain(q);
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingReflectsState) {
  EventQueue q;
  EventHandle none;
  EXPECT_FALSE(none.pending());
  auto h = q.push(1.0, [] {});
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(EventQueue, CancelInMiddleSkipsOnlyThatEvent) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  auto h = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  h.cancel();
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  auto h = q.push(1.0, [] {});
  q.push(2.0, [] {});
  h.cancel();
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.push(kTimeInfinity, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(std::nan(""), [] {}), std::invalid_argument);
}

TEST(EventQueue, LargeVolumeStaysSorted) {
  EventQueue q;
  // Deterministic pseudo-random times.
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    q.push(static_cast<double>(x % 100000) / 1000.0, [] {});
  }
  double prev = -1.0;
  while (!q.empty()) {
    Time now = 0.0;
    q.fire_next(now);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

// ---- ordering contract against an independent reference ----------------
//
// Scripted push/pop/cancel workloads run through the queue and through a
// plain reference model that orders live events with std::sort on
// (time, seq) — double compares and push indices, none of the queue's
// integer time keys or heap layout.  The fired (time, id) traces must be
// identical for every workload shape.

struct TraceEvent {
  Time time;
  int id;
  bool operator==(const TraceEvent&) const = default;
};

/// One scripted operation, pre-generated so the queue and the reference
/// see exactly the same sequence.
struct Op {
  enum Kind { kPush, kPop, kCancel } kind;
  double time = 0.0;       // kPush
  std::size_t victim = 0;  // kCancel: index into the handle log
};

/// Run the earliest event; it appends its id to `trace`, and the fired
/// time is patched in here.
void fire_traced(EventQueue& q, std::vector<TraceEvent>& trace) {
  const std::size_t at = trace.size();
  Time now = 0.0;
  q.fire_next(now);
  EXPECT_EQ(trace.size(), at + 1) << "event did not record itself";
  trace.back().time = now;
}

std::vector<TraceEvent> run_queue(const std::vector<Op>& ops) {
  EventQueue q;
  std::vector<TraceEvent> trace;
  std::vector<EventHandle> handles;
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush: {
        const int id = next_id++;
        handles.push_back(q.push(op.time, [&trace, id] {
          trace.push_back(TraceEvent{0.0, id});  // time patched by fire_traced
        }));
        break;
      }
      case Op::kPop:
        if (!q.empty()) fire_traced(q, trace);
        break;
      case Op::kCancel:
        if (!handles.empty()) handles[op.victim % handles.size()].cancel();
        break;
    }
  }
  while (!q.empty()) fire_traced(q, trace);
  return trace;
}

std::vector<TraceEvent> run_reference(const std::vector<Op>& ops) {
  // Live events as (time, id); the id is the push index, i.e. the
  // scheduling order the sequence tie-break follows.
  std::vector<TraceEvent> live;
  std::vector<TraceEvent> trace;
  const auto before = [](const TraceEvent& a, const TraceEvent& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  };
  const auto fire_earliest = [&] {
    std::sort(live.begin(), live.end(), before);
    // Report +0.0 for a -0.0 push, as the queue canonicalises zeros.
    trace.push_back(TraceEvent{live.front().time + 0.0, live.front().id});
    live.erase(live.begin());
  };
  int next_id = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kPush:
        live.push_back(TraceEvent{op.time, next_id++});
        break;
      case Op::kPop:
        if (!live.empty()) fire_earliest();
        break;
      case Op::kCancel: {
        if (next_id == 0) break;
        const int victim =
            static_cast<int>(op.victim % static_cast<std::size_t>(next_id));
        std::erase_if(live, [victim](const TraceEvent& e) {
          return e.id == victim;  // no-op once fired or cancelled
        });
        break;
      }
    }
  }
  std::sort(live.begin(), live.end(), before);
  for (const TraceEvent& e : live) trace.push_back({e.time + 0.0, e.id});
  return trace;
}

std::vector<Op> random_workload(std::uint64_t seed, int n, double pop_bias,
                                double cancel_bias, auto&& time_of) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform();
    if (r < pop_bias) {
      ops.push_back(Op{Op::kPop, 0.0, 0});
    } else if (r < pop_bias + cancel_bias) {
      ops.push_back(Op{Op::kCancel, 0.0,
                       static_cast<std::size_t>(rng.uniform_int(0, 1 << 20))});
    } else {
      ops.push_back(Op{Op::kPush, time_of(rng), 0});
    }
  }
  return ops;
}

std::vector<Op> descending_pushes() {
  // Every push is a new global minimum.
  std::vector<Op> ops;
  for (int i = 0; i < 3000; ++i) ops.push_back(Op{Op::kPush, 3000.0 - i, 0});
  return ops;
}

std::vector<Op> drain_refill_cycles() {
  // Repeated full drains, each refill far past the previous horizon.
  std::vector<Op> ops;
  util::Rng rng(16);
  double base = 0.0;
  for (int round = 0; round < 20; ++round) {
    const int burst = 5 + static_cast<int>(rng.uniform_int(0, 200));
    for (int i = 0; i < burst; ++i) {
      ops.push_back(Op{Op::kPush, base + rng.uniform(0.0, 50.0), 0});
    }
    for (int i = 0; i < burst + 5; ++i) ops.push_back(Op{Op::kPop, 0.0, 0});
    base += 1e4;
  }
  return ops;
}

TEST(EventQueueOrder, MatchesSortedReference) {
  struct Workload {
    std::string name;
    std::vector<Op> ops;
  };
  const std::vector<Workload> workloads = {
      {"uniform push/pop/cancel",
       random_workload(11, 6000, 0.3, 0.15,
                       [](util::Rng& r) { return r.uniform(0.0, 1e3); })},
      {"heavy simultaneity",  // few distinct timestamps: ties everywhere
       random_workload(12, 4000, 0.25, 0.1,
                       [](util::Rng& r) {
                         return static_cast<double>(r.uniform_int(0, 7)) *
                                2.5;
                       })},
      {"bursty",  // tight clusters spaced far apart
       random_workload(13, 6000, 0.3, 0.1,
                       [](util::Rng& r) {
                         return static_cast<double>(r.uniform_int(0, 31)) *
                                    1e3 +
                                r.uniform(0.0, 1e-3);
                       })},
      {"far horizon",
       random_workload(14, 6000, 0.3, 0.1,
                       [](util::Rng& r) {
                         return r.uniform() < 0.8 ? r.uniform(0.0, 10.0)
                                                  : r.uniform(1e6, 1e9);
                       })},
      {"negative times and signed zeros",
       random_workload(15, 3000, 0.25, 0.1,
                       [](util::Rng& r) {
                         const double t = r.uniform(-500.0, 500.0);
                         return t < 1.0 && t > -1.0 ? (t < 0 ? -0.0 : +0.0)
                                                    : t;
                       })},
      {"descending pushes", descending_pushes()},
      {"drain/refill cycles", drain_refill_cycles()},
  };
  for (const Workload& w : workloads) {
    SCOPED_TRACE(w.name);
    const auto got = run_queue(w.ops);
    const auto want = run_reference(w.ops);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "divergence at event " << i;
    }
  }
}

}  // namespace
}  // namespace emcast::sim
