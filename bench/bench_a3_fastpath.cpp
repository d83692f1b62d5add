// A3 (fast path) — microbenchmark of the two per-packet hot loops the
// simulator is built on: switch flow-table lookups (exact-hit, fallthrough
// and expiry-churn mixes) and event-engine schedule/dispatch. Wall metrics
// track ns/op; the allocation counters are deterministic and gate the
// zero-heap-allocation claim for steady-state operation (a counting global
// operator new observes every heap allocation in the measured loops).
#include "common.hpp"

#include <array>
#include <cstdlib>
#include <new>

#include "netsim/engine.hpp"
#include "switchsim/flow_table.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in this binary bumps g_allocs.
// Single-threaded (bench binaries are), so a plain counter suffices.

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace difane;
using namespace difane::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Self-rescheduling engine handler with a packet-sized payload: each firing
// reschedules a copy of itself until its chain is used up, so the pending
// count (and therefore the engine's slab high-water mark) stays constant.
struct Hop {
  Engine* eng;
  std::uint64_t* fired;
  std::uint64_t remaining;
  std::array<std::uint64_t, 10> payload;

  void operator()() {
    *fired += 1 + (payload[0] & 0);  // keep the payload observable
    if (--remaining > 0) eng->after(1e-6, Hop(*this));
  }
};
static_assert(Engine::Handler::fits_inline<Hop>,
              "A3's representative event capture must use the inline path");

// Burst-dispatch variant of Hop: one firing performs up to `burst` payload
// ops before rescheduling, modelling the coalesced burst events of the
// burst-mode data plane — the event-dispatch cost (heap pop, slot recycle,
// callable move) amortizes over the whole burst.
struct BurstHop {
  Engine* eng;
  std::uint64_t* fired;
  std::uint64_t remaining;
  std::uint64_t burst;
  std::array<std::uint64_t, 10> payload;

  void operator()() {
    const std::uint64_t n = remaining < burst ? remaining : burst;
    for (std::uint64_t k = 0; k < n; ++k) *fired += 1 + (payload[0] & 0);
    remaining -= n;
    if (remaining > 0) eng->after(1e-6, BurstHop(*this));
  }
};
static_assert(Engine::Handler::fits_inline<BurstHop>,
              "burst event capture must use the inline path");

Rule microflow_rule(RuleId id, const BitVec& header) {
  Rule rule;
  rule.id = id;
  rule.priority = 1000;
  rule.match = Ternary(header, BitVec::ones());
  rule.action = Action::forward(1);
  return rule;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv, "A3", /*default_seed=*/307);
  return run_bench(args, [&](BenchRep& rep) {
    if (rep.verbose) {
      print_header("A3: fast-path microbenchmark",
                   "flow-table lookup + event-engine dispatch hot loops",
                   "steady-state lookups and dispatch perform zero heap "
                   "allocations; ns/op stays flat as tables grow");
    }

    const std::size_t policy_size = args.pick<std::size_t>(400, 200);
    const std::size_t cache_entries = args.pick<std::size_t>(50000, 10000);
    const std::size_t lookups = args.pick<std::size_t>(2000000, 400000);
    rep.report.params["policy_rules"] = obs::Json(policy_size);
    rep.report.params["cache_entries"] = obs::Json(cache_entries);

    const auto policy = classbench_like(policy_size, 7);
    Rng rng(rep.seed);

    TextTable table({"loop", "ops", "ns/op", "allocs"});

    // -- Flow-table hit mix: every lookup hits a full-mask cache entry, the
    // exact-match fast path. No timeouts, so the expiry watermark never
    // trips.
    {
      FlowTable ft(/*cache_capacity=*/cache_entries + 16);
      for (const auto& rule : policy.rules()) {
        ft.install(rule, Band::kAuthority, 0.0);
      }
      std::vector<BitVec> headers;
      headers.reserve(cache_entries);
      for (std::size_t i = 0; i < cache_entries; ++i) {
        const auto& match = policy.at(rng.uniform(0, policy.size() - 1)).match;
        headers.push_back(match.sample_point(rng));
        ft.install(microflow_rule(static_cast<RuleId>(1000000 + i), headers.back()),
                   Band::kCache, 0.0);
      }
      std::uint64_t checksum = 0;
      const std::uint64_t a0 = g_allocs;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(headers[i % headers.size()], 1.0);
        if (e != nullptr) checksum += e->rule.id;
      }
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = g_allocs - a0;
      rep.set("lookup_hit_steady_allocs", static_cast<double>(allocs));
      rep.set("lookup_hit_checksum", static_cast<double>(checksum % 1000000007ULL));
      rep.set("lookup_hit_ops", static_cast<double>(lookups));
      rep.set("lookup_hit_wall_ns_per_op", 1e9 * wall / static_cast<double>(lookups));
      table.add_row({"cache hit", TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall / static_cast<double>(lookups), 1),
                     TextTable::integer(static_cast<long long>(allocs))});

      // -- Fallthrough mix against the same table: random headers miss the
      // exact hash and resolve in the authority band (or miss entirely).
      std::vector<BitVec> strangers;
      strangers.reserve(4096);
      for (std::size_t i = 0; i < 4096; ++i) {
        strangers.push_back(Ternary::wildcard().sample_point(rng));
      }
      std::uint64_t fallthrough_checksum = 0;
      const std::uint64_t b0 = g_allocs;
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(strangers[i % strangers.size()], 1.0);
        if (e != nullptr) fallthrough_checksum += e->rule.id;
      }
      const double wall_miss = seconds_since(t1);
      const std::uint64_t allocs_miss = g_allocs - b0;
      rep.set("lookup_fallthrough_steady_allocs", static_cast<double>(allocs_miss));
      rep.set("lookup_fallthrough_checksum",
              static_cast<double>(fallthrough_checksum % 1000000007ULL));
      rep.set("lookup_fallthrough_wall_ns_per_op",
              1e9 * wall_miss / static_cast<double>(lookups));
      rep.set("lookup_misses", static_cast<double>(ft.stats().misses));
      table.add_row({"cache fallthrough",
                     TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall_miss / static_cast<double>(lookups), 1),
                     TextTable::integer(static_cast<long long>(allocs_miss))});

      // -- Burst lookups over the same table and header sequence: chunks of
      // 32 through lookup_batch (hash every key + prefetch its slab entry,
      // then resolve), prefetch on and off. Byte-identical semantics to the
      // scalar hit mix, so the checksum must equal lookup_hit_checksum —
      // exported as a deterministic pass/fail metric the baseline gates on.
      for (const bool prefetch : {true, false}) {
        const BitVec* keys[32];
        const FlowEntry* out[32];
        double nows[32];
        std::uint64_t burst_checksum = 0;
        for (std::size_t k = 0; k < 32; ++k) nows[k] = 1.0;
        const std::uint64_t c0 = g_allocs;
        const auto t2 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < lookups; i += 32) {
          for (std::size_t k = 0; k < 32; ++k) {
            keys[k] = &headers[(i + k) % headers.size()];
          }
          ft.lookup_batch(keys, nows, nullptr, 32, out, prefetch);
          for (std::size_t k = 0; k < 32; ++k) {
            if (out[k] != nullptr) burst_checksum += out[k]->rule.id;
          }
        }
        const double wall_burst = seconds_since(t2);
        const std::uint64_t allocs_burst = g_allocs - c0;
        const std::string key =
            prefetch ? "lookup_hit_burst32" : "lookup_hit_burst32_noprefetch";
        rep.set(key + "_steady_allocs", static_cast<double>(allocs_burst));
        rep.set(key + "_matches_scalar",
                burst_checksum % 1000000007ULL == checksum % 1000000007ULL
                    ? 1.0
                    : 0.0);
        rep.set(key + "_wall_ns_per_op",
                1e9 * wall_burst / static_cast<double>(lookups));
        table.add_row({prefetch ? "cache hit, burst=32"
                                : "cache hit, burst=32 no-prefetch",
                       TextTable::integer(static_cast<long long>(lookups)),
                       TextTable::num(
                           1e9 * wall_burst / static_cast<double>(lookups), 1),
                       TextTable::integer(static_cast<long long>(allocs_burst))});
      }
    }

    // -- Flow-table hit mix in the production key shape: microflow entries
    // care about the 253 used header bits only (what the authority's
    // microflow strategy installs), and the probe headers carry random
    // values in the three unused top bits. Its own Rng leaves every other
    // loop's inputs as they were; it emits a wall metric only.
    {
      Rng mf_rng(rep.seed ^ 0x3f1c0ffeULL);
      FlowTable ft(/*cache_capacity=*/cache_entries + 16);
      for (const auto& rule : policy.rules()) {
        ft.install(rule, Band::kAuthority, 0.0);
      }
      const std::size_t used = header_bits_used();
      std::vector<BitVec> probes;
      probes.reserve(cache_entries);
      for (std::size_t i = 0; i < cache_entries; ++i) {
        const auto& match = policy.at(mf_rng.uniform(0, policy.size() - 1)).match;
        BitVec header = match.sample_point(mf_rng);
        Rule rule = microflow_rule(static_cast<RuleId>(4000000 + i), header);
        rule.match = Ternary(header, used_header_mask());
        ft.install(rule, Band::kCache, 0.0);
        header.set_bits(used, kHeaderBits - used, mf_rng.uniform(0, 7));
        probes.push_back(header);
      }
      std::uint64_t hits = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < lookups; ++i) {
        const FlowEntry* e = ft.lookup(probes[i % probes.size()], 1.0);
        if (e != nullptr && e->band == Band::kCache) ++hits;
      }
      const double wall = seconds_since(t0);
      ensures(hits == lookups, "A3: every microflow probe must hit its cache entry");
      rep.set("lookup_hit_microflow_wall_ns_per_op",
              1e9 * wall / static_cast<double>(lookups));
      table.add_row({"cache hit (microflow)",
                     TextTable::integer(static_cast<long long>(lookups)),
                     TextTable::num(1e9 * wall / static_cast<double>(lookups), 1),
                     "-"});
    }

    // -- Prefetch-depth sweep (ScenarioParams::prefetch_depth): a table
    // whose hot keys carry duplicate exact-match entries, so each key's
    // chain is kChainLen long and the resolve pass touches more than the
    // head. Depth 1 (the default) prefetches only the head; deeper settings
    // pull the rest of the chain. Results must equal the scalar walk at
    // every depth — the hint can only move wall time, and on single-core
    // hosts the differences are small; the row exists so multi-core hosts
    // can tune the knob against their own cache hierarchy.
    {
      const std::size_t kChainLen = 3;
      const std::size_t chain_headers = args.pick<std::size_t>(20000, 5000);
      const std::size_t chain_lookups = args.pick<std::size_t>(1000000, 200000);
      rep.report.params["chain_len"] = obs::Json(kChainLen);
      rep.report.params["chain_headers"] = obs::Json(chain_headers);
      FlowTable ft(/*cache_capacity=*/kChainLen * chain_headers + 16);
      std::vector<BitVec> headers;
      headers.reserve(chain_headers);
      for (std::size_t i = 0; i < chain_headers; ++i) {
        headers.push_back(Ternary::wildcard().sample_point(rng));
        for (std::size_t dup = 0; dup < kChainLen; ++dup) {
          ft.install(microflow_rule(
                         static_cast<RuleId>(3000000 + dup * chain_headers + i),
                         headers.back()),
                     Band::kCache, 0.0);
        }
      }
      std::uint64_t scalar_checksum = 0;
      for (std::size_t i = 0; i < chain_lookups; ++i) {
        const FlowEntry* e = ft.lookup(headers[i % headers.size()], 1.0);
        if (e != nullptr) scalar_checksum += e->rule.id;
      }
      for (const std::uint32_t depth : {1u, 2u, 4u, 8u}) {
        ft.set_prefetch_depth(depth);
        const BitVec* keys[32];
        const FlowEntry* out[32];
        double nows[32];
        for (std::size_t k = 0; k < 32; ++k) nows[k] = 1.0;
        std::uint64_t checksum = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < chain_lookups; i += 32) {
          for (std::size_t k = 0; k < 32; ++k) {
            keys[k] = &headers[(i + k) % headers.size()];
          }
          ft.lookup_batch(keys, nows, nullptr, 32, out, true);
          for (std::size_t k = 0; k < 32; ++k) {
            if (out[k] != nullptr) checksum += out[k]->rule.id;
          }
        }
        const double wall = seconds_since(t0);
        const std::string key = tag("lookup_chain_depth", depth);
        rep.set(key + "_matches_scalar",
                checksum % 1000000007ULL == scalar_checksum % 1000000007ULL
                    ? 1.0
                    : 0.0);
        rep.set(key + "_wall_ns_per_op",
                1e9 * wall / static_cast<double>(chain_lookups));
        table.add_row({"chain=3, prefetch depth=" + std::to_string(depth),
                       TextTable::integer(static_cast<long long>(chain_lookups)),
                       TextTable::num(
                           1e9 * wall / static_cast<double>(chain_lookups), 1),
                       "-"});
      }
      ft.set_prefetch_depth(1);
    }

    // -- Expiry churn: entries with idle timeouts stream-expire as installs
    // and lookups advance the clock, so the watermark trips repeatedly and
    // every sweep finds work. This is the lazy-expiry worst case.
    {
      const std::size_t churn = args.pick<std::size_t>(20000, 5000);
      const double dt = 1e-3;
      const double idle = 1000 * dt;  // ~1000 live entries in steady state
      FlowTable ft(/*cache_capacity=*/churn + 16);
      std::vector<BitVec> headers;
      headers.reserve(churn);
      for (std::size_t i = 0; i < churn; ++i) {
        headers.push_back(Ternary::wildcard().sample_point(rng));
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < churn; ++i) {
        const double now = static_cast<double>(i) * dt;
        ft.install(microflow_rule(static_cast<RuleId>(2000000 + i), headers[i]),
                   Band::kCache, now, idle);
        // Refresh a recent entry (a hit) and probe an old one (a miss after
        // expiry), so sweeps interleave with both lookup outcomes.
        ft.lookup(headers[i / 2], now);
      }
      const double wall = seconds_since(t0);
      rep.set("expiry_churn_ops", static_cast<double>(2 * churn));
      rep.set("expiry_churn_expirations", static_cast<double>(ft.stats().expirations));
      rep.set("expiry_churn_wall_ns_per_op",
              1e9 * wall / static_cast<double>(2 * churn));
      table.add_row({"expiry churn",
                     TextTable::integer(static_cast<long long>(2 * churn)),
                     TextTable::num(1e9 * wall / static_cast<double>(2 * churn), 1),
                     "-"});
    }

    // -- Engine schedule/dispatch: self-rescheduling packet-sized handlers.
    // A warmup drain brings the handler slab and heap to their high-water
    // marks; the measured run must then be allocation-free.
    {
      const std::uint64_t chains = 64;
      const std::uint64_t hops = args.pick<std::uint64_t>(20000, 2000);
      Engine engine;
      std::uint64_t fired = 0;
      for (std::uint64_t c = 0; c < chains; ++c) {
        engine.at(static_cast<double>(c) * 1e-9,
                  Hop{&engine, &fired, /*remaining=*/8, {{c}}});
      }
      engine.run();  // warmup: slab/heap reach steady size
      const std::uint64_t warm_fired = fired;

      const std::uint64_t a0 = g_allocs;
      for (std::uint64_t c = 0; c < chains; ++c) {
        engine.after(static_cast<double>(c) * 1e-9,
                     Hop{&engine, &fired, hops, {{c}}});
      }
      const auto t0 = std::chrono::steady_clock::now();
      engine.run();
      const double wall = seconds_since(t0);
      const std::uint64_t allocs = g_allocs - a0;
      const std::uint64_t events = fired - warm_fired;
      rep.set("engine_steady_allocs", static_cast<double>(allocs));
      rep.set("engine_events", static_cast<double>(events));
      rep.set("engine_wall_ns_per_event", 1e9 * wall / static_cast<double>(events));
      table.add_row({"engine dispatch",
                     TextTable::integer(static_cast<long long>(events)),
                     TextTable::num(1e9 * wall / static_cast<double>(events), 1),
                     TextTable::integer(static_cast<long long>(allocs))});

      // -- Burst dispatch: the same payload-op volume delivered 32 ops per
      // event firing. ns/op here is the per-packet event-dispatch cost after
      // burst amortization — compare against engine_wall_ns_per_event.
      const std::uint64_t d0 = g_allocs;
      for (std::uint64_t c = 0; c < chains; ++c) {
        engine.after(static_cast<double>(c) * 1e-9,
                     BurstHop{&engine, &fired, hops, /*burst=*/32, {{c}}});
      }
      const auto t1 = std::chrono::steady_clock::now();
      engine.run();
      const double wall_burst = seconds_since(t1);
      const std::uint64_t allocs_burst = g_allocs - d0;
      const std::uint64_t burst_ops = fired - warm_fired - events;
      rep.set("engine_burst32_steady_allocs", static_cast<double>(allocs_burst));
      rep.set("engine_burst32_ops", static_cast<double>(burst_ops));
      rep.set("engine_burst32_wall_ns_per_op",
              1e9 * wall_burst / static_cast<double>(burst_ops));
      table.add_row({"engine dispatch, burst=32",
                     TextTable::integer(static_cast<long long>(burst_ops)),
                     TextTable::num(
                         1e9 * wall_burst / static_cast<double>(burst_ops), 1),
                     TextTable::integer(static_cast<long long>(allocs_burst))});
    }

    if (rep.verbose) std::printf("%s\n", table.render().c_str());
  });
}
