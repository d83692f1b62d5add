// Discrete-event engine. Events are closures executed in nondecreasing
// timestamp order; ties break by schedule order (FIFO), which makes runs
// deterministic. This is the testbed substitute: switch processing, link
// propagation, controller service times are all events.
//
// Fast-path layout: handlers are SBO callables (no per-event std::function
// heap closure) stored in a slab whose slots recycle through a free list,
// and the priority queue orders 24-byte {when, seq, slot} records instead of
// sifting whole events. Once the slab and heap reach their high-water marks,
// steady-state schedule/dispatch performs zero heap allocations for any
// handler that fits the inline buffer (bench_a3_fastpath gates on this).
//
// Streamed arrivals: a caller with a long, known-in-advance schedule (packet
// injection) need not put every arrival in the heap. It reserves one seq per
// arrival up front (reserve_seqs), in the order it would have scheduled them,
// and an ArrivalStream keeps only the earliest pending arrival scheduled
// under its reserved seq. Since the heap orders by (when, seq), each arrival
// pops exactly where its eagerly scheduled event would have, while the heap
// and the handler slab stay the size of the in-flight work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/contract.hpp"
#include "util/inline_fn.hpp"

namespace difane {

using SimTime = double;  // seconds

class Engine {
 public:
  // Inline handler storage. Sized for the largest event capture in
  // core/system.cpp (static_asserted at those call sites); larger handlers
  // still work via InlineFn's heap fallback, they just allocate.
  static constexpr std::size_t kInlineHandlerBytes = 256;
  using Handler = InlineFn<kInlineHandlerBytes>;

  // Schedule at absolute time `when` (>= now).
  void at(SimTime when, Handler fn) { push(when, seq_++, std::move(fn)); }
  // Schedule under a seq taken from the latest reserve_seqs() block, so the
  // event ties with others at `when` as if scheduled at reservation time.
  void at(SimTime when, std::uint64_t seq, Handler fn) {
    expects(seq >= reserved_begin_ && seq < reserved_end_,
            "Engine: at(when, seq) needs a seq from the latest reserve_seqs()");
    push(when, seq, std::move(fn));
  }
  // Take the next `n` seqs for later at(when, seq) calls; returns the first.
  // A new reservation retires the previous block.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    reserved_begin_ = seq_;
    seq_ += n;
    reserved_end_ = seq_;
    return reserved_begin_;
  }
  // True when an event keyed (when, seq) would pop before every pending
  // event — i.e. running it now, without scheduling it, keeps heap order.
  bool before_pending(SimTime when, std::uint64_t seq) const {
    return heap_.empty() || Later{}(heap_.front(), HeapItem{when, seq, 0});
  }
  // Schedule `delay` seconds from now.
  void after(SimTime delay, Handler fn) { at(now_ + delay, std::move(fn)); }

  SimTime now() const { return now_; }

  // Advance the clock to `t` without executing anything. Legal only between
  // now() and the next pending event — an ArrivalStream drains several
  // arrivals in one event and uses this so each packet still observes its
  // own arrival time via now() (timeout sweeps, telemetry timestamps, and
  // removal listeners all read the clock).
  void advance_to(SimTime t) {
    expects(t >= now_ && t <= peek_time(),
            "Engine: advance_to must stay between now() and peek_time()");
    now_ = t;
  }

  // Upper bound of the window the engine is currently executing: `end` inside
  // run_before(end), `until` inside run(until), effectively unbounded (1e18)
  // otherwise. An ArrivalStream defers arrivals at or past horizon() so a
  // drain never leaks work past a conservative window barrier.
  SimTime horizon() const { return horizon_; }

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  // Timestamp of the earliest pending event, or kNoEvent when the queue is
  // empty. The sharded executor uses this to size conservative time windows.
  static constexpr SimTime kNoEvent = 1e300;
  SimTime peek_time() const { return heap_.empty() ? kNoEvent : heap_.front().when; }

  // Run until the queue drains, `until` is passed, or `max_events` fire.
  // Returns the number of events executed by this call.
  std::uint64_t run(SimTime until = 1e18, std::uint64_t max_events = ~0ULL);

  // Run every event with `when` strictly before `end`, leaving `now()` at the
  // last executed event (never advanced to `end`). This is the window-bounded
  // primitive for conservative parallel execution: events at exactly `end`
  // belong to the next window, after the barrier has exchanged cross-shard
  // messages and applied global state changes.
  std::uint64_t run_before(SimTime end);

  // Drop all pending events (end-of-experiment cleanup).
  void clear();

 private:
  struct HeapItem {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapItem& a, const HeapItem& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void push(SimTime when, std::uint64_t seq, Handler fn);

  std::vector<HeapItem> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::vector<Handler> slots_;  // handler slab, indexed by HeapItem::slot
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  SimTime horizon_ = 1e18;
  std::uint64_t seq_ = 0;
  std::uint64_t reserved_begin_ = 0;  // latest reserve_seqs() block
  std::uint64_t reserved_end_ = 0;
  std::uint64_t executed_ = 0;
};

// One entry of an ArrivalStream: when it arrives, the seq reserved for it on
// the stream's engine, and two caller-defined indices (Scenario: the flow and
// the packet within it).
struct Arrival {
  SimTime at = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t source = 0;
  std::uint32_t index = 0;
};

// Feeds a list of arrivals into one engine with exactly one pending event:
// the earliest remaining arrival, scheduled under its reserved seq. When it
// fires, the stream hands it to `sink`, then keeps draining — advancing the
// clock to each next arrival — while that arrival would still be the heap
// minimum by (when, seq) and lies before horizon(), up to `drain_cap`
// arrivals per event; the rest re-arm at the next arrival. Every arrival so
// reaches `sink` at the point of the event order where an event scheduled
// eagerly under the same seq would have run. Handlers capture `this`: a
// stream must stay put until its last arrival has fired.
template <class Sink>  // void(const Arrival&)
class ArrivalStream {
 public:
  ArrivalStream(Engine& engine, std::vector<Arrival> arrivals,
                std::size_t drain_cap, Sink sink)
      : engine_(engine), arrivals_(std::move(arrivals)),
        drain_cap_(drain_cap == 0 ? 1 : drain_cap), sink_(std::move(sink)) {
    std::sort(arrivals_.begin(), arrivals_.end(),
              [](const Arrival& a, const Arrival& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    if (!arrivals_.empty()) arm();
  }
  ArrivalStream(const ArrivalStream&) = delete;
  ArrivalStream& operator=(const ArrivalStream&) = delete;

  bool done() const { return next_ == arrivals_.size(); }

 private:
  void arm() {
    const Arrival& a = arrivals_[next_];
    engine_.at(a.at, a.seq, [this]() { fire(); });
  }

  void fire() {
    for (std::size_t drained = 1;; ++drained) {
      sink_(arrivals_[next_++]);
      if (done()) return;
      const Arrival& a = arrivals_[next_];
      if (drained == drain_cap_ || a.at >= engine_.horizon() ||
          !engine_.before_pending(a.at, a.seq)) {
        break;
      }
      engine_.advance_to(a.at);
    }
    arm();
  }

  Engine& engine_;
  std::vector<Arrival> arrivals_;
  std::size_t next_ = 0;
  std::size_t drain_cap_;
  Sink sink_;
};

}  // namespace difane
