#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>

#include "netsim/link.hpp"
#include "netsim/topology.hpp"
#include "netsim/tracer.hpp"
#include "proptest/property.hpp"

namespace difane {
namespace {

TEST(Engine, ExecutesInTimestampOrder) {
  Engine e;
  std::vector<int> order;
  e.at(3.0, [&] { order.push_back(3); });
  e.at(1.0, [&] { order.push_back(1); });
  e.at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.executed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, SchedulingInPastThrows) {
  Engine e;
  e.at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.at(1.0, [] {}), contract_violation);
}

TEST(Engine, ReentrantSchedulingWorks) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.after(1.0, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RunUntilStopsEarly) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] { ++fired; });
  e.at(10.0, [&] { ++fired; });
  e.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, MaxEventsBoundsRunawayLoops) {
  Engine e;
  std::function<void()> self = [&] { e.after(0.001, self); };
  e.at(0.0, self);
  const auto executed = e.run(1e18, 100);
  EXPECT_EQ(executed, 100u);
  e.clear();
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ZeroDelaySelfReschedulingMakesProgress) {
  // Events that reschedule themselves with zero delay must not starve other
  // events at the same timestamp (FIFO tie-break) and must keep now() fixed.
  Engine e;
  int self_fires = 0;
  int other_fires = 0;
  std::function<void()> self = [&] {
    if (++self_fires < 10) e.after(0.0, self);
  };
  e.at(1.0, self);
  e.at(1.0, [&] { ++other_fires; });
  e.run();
  EXPECT_EQ(self_fires, 10);
  EXPECT_EQ(other_fires, 1);
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

TEST(Engine, FifoTieBreakIsStableAcrossInterleavedScheduling) {
  // Two identical runs where same-timestamp events are scheduled from
  // different call sites (including reentrantly) must execute identically.
  const auto trace = [] {
    Engine e;
    std::vector<int> order;
    e.at(1.0, [&] {
      order.push_back(0);
      e.at(1.0, [&] { order.push_back(3); });  // reentrant, same timestamp
    });
    e.at(1.0, [&] { order.push_back(1); });
    e.at(1.0, [&] { order.push_back(2); });
    e.run();
    return order;
  };
  const auto first = trace();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(trace(), first);
}

TEST(Engine, ClearMidRunDropsPendingButKeepsClock) {
  Engine e;
  int fired = 0;
  e.at(1.0, [&] {
    ++fired;
    e.clear();  // cancels everything below, from inside a handler
  });
  e.at(2.0, [&] { ++fired; });
  e.at(3.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
  // The engine stays usable: scheduling resumes from the current clock.
  e.at(5.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, ReservedSeqsAreTheOnlyOnesAtWithSeqAccepts) {
  Engine e;
  EXPECT_THROW(e.at(1.0, 0, [] {}), contract_violation);  // nothing reserved
  e.at(1.0, [] {});                                        // takes seq 0
  const std::uint64_t base = e.reserve_seqs(3);
  EXPECT_EQ(base, 1u);
  EXPECT_THROW(e.at(1.0, base - 1, [] {}), contract_violation);
  EXPECT_THROW(e.at(1.0, base + 3, [] {}), contract_violation);
  EXPECT_NO_THROW(e.at(1.0, base + 2, [] {}));
  // A new block retires the old one.
  const std::uint64_t next = e.reserve_seqs(1);
  EXPECT_EQ(next, base + 3);
  EXPECT_THROW(e.at(1.0, base, [] {}), contract_violation);
  EXPECT_NO_THROW(e.at(1.0, next, [] {}));
  e.run();
  const std::uint64_t late = e.reserve_seqs(1);
  EXPECT_THROW(e.at(0.5, late, [] {}), contract_violation);  // still no past
}

TEST(Engine, ReservedSeqOrdersBeforeLaterSchedulesAtTheSameTime) {
  Engine e;
  std::vector<int> order;
  const std::uint64_t seq = e.reserve_seqs(1);
  EXPECT_TRUE(e.before_pending(1.0, seq));  // empty heap
  e.at(1.0, [&] { order.push_back(1); });  // scheduled after the reservation
  EXPECT_TRUE(e.before_pending(1.0, seq));
  EXPECT_FALSE(e.before_pending(1.0, seq + 1));
  EXPECT_FALSE(e.before_pending(2.0, 0));
  e.at(1.0, seq, [&] { order.push_back(0); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// Differential oracle for arrival streaming. A random event program — setup
// events, flows of arrivals on several streams, handlers that schedule
// children at now() and later, all on a coarse time grid so ties are common
// — runs twice: once with one eagerly scheduled event per arrival, once with
// seqs reserved up front and the arrivals fed lazily by ArrivalStreams (a
// random drain cap, run through a few run_before windows and then run()).
// Both must fire the same handlers in the same order at the same clocks.
class EventProgram {
 public:
  explicit EventProgram(std::uint64_t seed) : seed_(seed) {}

  struct Firing {
    std::uint64_t id;
    SimTime now;
    bool operator==(const Firing&) const = default;
    friend std::ostream& operator<<(std::ostream& os, const Firing& f) {
      return os << "event " << std::hex << f.id << std::dec << " at " << f.now;
    }
  };

  Engine& engine() { return engine_; }
  const std::vector<Firing>& log() const { return log_; }

  // Log the event, then schedule 0-2 children (fewer with depth) at a delay
  // of 0, 0.5 or 1 — a pure function of (seed, id), so both runs agree.
  void fire(std::uint64_t id, int depth) {
    log_.push_back(Firing{id, engine_.now()});
    std::uint64_t h = seed_ ^ (id * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t draw = splitmix64(h);
    const int children = depth >= 3 ? 0 : static_cast<int>(draw % 3);
    for (int c = 0; c < children; ++c) {
      static constexpr SimTime kDelays[] = {0.0, 0.0, 0.5, 1.0};
      const SimTime delay = kDelays[(draw >> (8 + 2 * c)) & 3];
      const std::uint64_t child = id * 4 + static_cast<std::uint64_t>(c) + 1;
      engine_.at(engine_.now() + delay,
                 [this, child, depth] { fire(child, depth + 1); });
    }
  }

 private:
  Engine engine_;
  std::uint64_t seed_;
  std::vector<Firing> log_;
};

struct ProgramArrival {
  SimTime at;
  std::uint32_t stream;
};

// Ids: setup events and arrivals get disjoint high tags; children derive
// from their parent's id.
constexpr std::uint64_t kSetupTag = 1ULL << 40;
constexpr std::uint64_t kArrivalTag = 2ULL << 40;

void drive(Engine& e, const std::vector<SimTime>& windows) {
  for (const SimTime end : windows) e.run_before(end);
  e.run();
}

DIFANE_PROPERTY(ArrivalStreamsMatchEagerScheduling, 400) {
  const std::uint64_t seed = ctx.rng.next_u64();
  const auto grid = [&ctx](std::uint64_t cells) {
    return 0.5 * static_cast<double>(ctx.rng.uniform(0, cells));
  };
  std::vector<SimTime> setup(ctx.rng.uniform(0, 6));
  for (auto& t : setup) t = grid(12);
  // Flow-major arrivals: each flow has a start, a packet count and a gap
  // (0 puts a flow's packets at one instant).
  std::vector<ProgramArrival> arrivals;
  const std::uint32_t streams = static_cast<std::uint32_t>(ctx.rng.uniform(1, 4));
  const std::size_t flows = ctx.rng.uniform(1, 25);
  for (std::size_t f = 0; f < flows; ++f) {
    const SimTime start = grid(10);
    const SimTime gap = grid(2);
    const auto stream = static_cast<std::uint32_t>(ctx.rng.uniform(0, streams - 1));
    const std::size_t packets = ctx.rng.uniform(1, 4);
    for (std::size_t p = 0; p < packets; ++p) {
      arrivals.push_back({start + gap * static_cast<double>(p), stream});
    }
  }
  static constexpr std::size_t kCaps[] = {0, 1, 2, 3, 7, 64};
  const std::size_t cap = kCaps[ctx.rng.uniform(0, 5)];
  std::vector<SimTime> windows(ctx.rng.uniform(0, 3));
  for (auto& w : windows) w = grid(16);
  std::sort(windows.begin(), windows.end());

  EventProgram eager(seed);
  for (std::size_t i = 0; i < setup.size(); ++i) {
    eager.engine().at(setup[i], [&eager, i] { eager.fire(kSetupTag + i, 0); });
  }
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    eager.engine().at(arrivals[i].at,
                      [&eager, i] { eager.fire(kArrivalTag + i, 0); });
  }
  drive(eager.engine(), windows);

  EventProgram lazy(seed);
  for (std::size_t i = 0; i < setup.size(); ++i) {
    lazy.engine().at(setup[i], [&lazy, i] { lazy.fire(kSetupTag + i, 0); });
  }
  struct Sink {
    EventProgram* program;
    void operator()(const Arrival& a) const {
      program->fire(kArrivalTag + a.source, 0);
    }
  };
  const std::uint64_t base = lazy.engine().reserve_seqs(arrivals.size());
  std::vector<std::vector<Arrival>> lists(streams);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    lists[arrivals[i].stream].push_back(
        Arrival{arrivals[i].at, base + i, static_cast<std::uint32_t>(i), 0});
  }
  std::vector<std::unique_ptr<ArrivalStream<Sink>>> fed;
  for (auto& list : lists) {
    if (list.empty()) continue;
    fed.push_back(std::make_unique<ArrivalStream<Sink>>(
        lazy.engine(), std::move(list), cap, Sink{&lazy}));
  }
  drive(lazy.engine(), windows);

  for (const auto& stream : fed) EXPECT_TRUE(stream->done());
  ASSERT_EQ(eager.log().size(), lazy.log().size());
  for (std::size_t k = 0; k < eager.log().size(); ++k) {
    ASSERT_EQ(eager.log()[k], lazy.log()[k])
        << "firing " << k << " of " << eager.log().size() << " (cap " << cap
        << ", " << streams << " streams) diverged; replay seed 0x" << std::hex
        << ctx.case_seed;
  }
}

TEST(Link, PropagationPlusSerialization) {
  Link link(1e-3, 1e9);  // 1ms, 1Gbps
  const double t1 = link.send(0.0, 1250);  // 10us serialization
  EXPECT_NEAR(t1, 1e-3 + 1e-5, 1e-12);
  // Second packet queues behind the first.
  const double t2 = link.send(0.0, 1250);
  EXPECT_NEAR(t2, 1e-3 + 2e-5, 1e-12);
  EXPECT_EQ(link.packets(), 2u);
  EXPECT_EQ(link.bytes(), 2500u);
  EXPECT_GT(link.backlog(0.0), 0.0);
  EXPECT_DOUBLE_EQ(link.backlog(1.0), 0.0);
}

TEST(Link, FifoDeliveryOrder) {
  Link link(1e-4, 1e8);
  double prev = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double t = link.send(0.0, 100 + i);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Topology, TwoTierWiring) {
  Network net;
  const auto topo = build_two_tier(net, 4, 2, 100, 100);
  EXPECT_EQ(net.switch_count(), 6u);
  for (const auto edge : topo.edge) {
    for (const auto core : topo.core) {
      EXPECT_TRUE(net.adjacent(edge, core));
      EXPECT_NE(net.link(edge, core), nullptr);
    }
  }
  // Edge switches are not directly connected.
  EXPECT_FALSE(net.adjacent(topo.edge[0], topo.edge[1]));
  EXPECT_EQ(net.distance(topo.edge[0], topo.edge[1]), 2u);
  EXPECT_EQ(net.distance(topo.edge[0], topo.core[0]), 1u);
  EXPECT_EQ(net.distance(topo.edge[0], topo.edge[0]), 0u);
}

TEST(Topology, NextHopWalksShortestPath) {
  Network net;
  const auto line = build_line(net, 5, 10);
  EXPECT_EQ(net.next_hop(line[0], line[4]), line[1]);
  EXPECT_EQ(net.next_hop(line[3], line[4]), line[4]);
  EXPECT_EQ(net.distance(line[0], line[4]), 4u);
}

TEST(Topology, FailedSwitchIsRoutedAround) {
  Network net;
  const auto topo = build_two_tier(net, 2, 2, 10, 10);
  // Fail one core; edge-to-edge routes must use the other.
  net.set_failed(topo.core[0], true);
  const auto nh = net.next_hop(topo.edge[0], topo.edge[1]);
  EXPECT_EQ(nh, topo.core[1]);
  // Unreachable destination: fail both cores.
  net.set_failed(topo.core[1], true);
  EXPECT_EQ(net.next_hop(topo.edge[0], topo.edge[1]), kInvalidSwitch);
  // Recovery restores routing.
  net.set_failed(topo.core[0], false);
  EXPECT_EQ(net.next_hop(topo.edge[0], topo.edge[1]), topo.core[0]);
}

TEST(Tracer, ConservationAccounting) {
  Tracer tracer;
  Packet a, b, c;
  a.is_first_of_flow = true;
  a.created = 0.0;
  tracer.on_injected(a);
  tracer.on_injected(b);
  tracer.on_injected(c);
  EXPECT_EQ(tracer.in_flight(), 3);
  tracer.on_delivered(a, 0.5);
  tracer.on_dropped(b, DropReason::kPolicyDrop);
  EXPECT_EQ(tracer.in_flight(), 1);
  tracer.on_dropped(c, DropReason::kTtlExceeded);
  EXPECT_EQ(tracer.in_flight(), 0);
  EXPECT_EQ(tracer.dropped(DropReason::kPolicyDrop), 1u);
  EXPECT_EQ(tracer.dropped(DropReason::kTtlExceeded), 1u);
  EXPECT_EQ(tracer.first_packet_delay().count(), 1u);
  EXPECT_DOUBLE_EQ(tracer.first_packet_delay().percentile(0.5), 0.5);
  EXPECT_NE(tracer.summary().find("injected=3"), std::string::npos);
}

TEST(Tracer, SeparatesFirstAndLaterPacketDelays) {
  Tracer tracer;
  Packet first, later;
  first.is_first_of_flow = true;
  first.created = 0.0;
  later.is_first_of_flow = false;
  later.created = 0.0;
  tracer.on_injected(first);
  tracer.on_injected(later);
  tracer.on_delivered(first, 0.010);
  tracer.on_delivered(later, 0.001);
  EXPECT_DOUBLE_EQ(tracer.first_packet_delay().percentile(0.5), 0.010);
  EXPECT_DOUBLE_EQ(tracer.later_packet_delay().percentile(0.5), 0.001);
}

TEST(Tracer, RedirectedPacketsCounted) {
  Tracer tracer;
  Packet p;
  p.was_redirected = true;
  tracer.on_injected(p);
  tracer.on_delivered(p, 1.0);
  EXPECT_EQ(tracer.redirected(), 1u);
}

}  // namespace
}  // namespace difane
