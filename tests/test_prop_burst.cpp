// Burst-mode equivalence: draining up to `burst` arrivals per ingress event
// (each packet resolved by the scalar lookup at its own clock) is a pure
// execution-order optimization. For any (policy, traffic, params, seed) it
// must be byte-identical to one arrival per event on every deterministic
// surface: the flat stats snapshot, the telemetry export stream, and the
// post-run installed-state verifier. Random policies, traffic shapes, cache
// strategies, measurement on/off, control-plane faults, and burst sizes
// (including non-power-of-two ones; only the ring capacity must be a power
// of two). A second property checks the sharded executor's SPSC rings:
// threads>1 runs are seed-stable, invariant to the ring capacity (the
// overflow spill path must preserve the merge order exactly) and to burst.
#include <gtest/gtest.h>

#include <string>

#include "core/system.hpp"
#include "proptest/property.hpp"
#include "workload/rulegen.hpp"
#include "workload/trafficgen.hpp"

namespace difane {
namespace {

struct CaseSetup {
  RuleTable policy;
  std::vector<FlowSpec> flows;
  ScenarioParams params;
};

CaseSetup gen_case(proptest::PropertyContext& ctx) {
  RuleGenParams rg;
  rg.num_rules = static_cast<std::size_t>(ctx.rng.uniform(60, 250));
  rg.seed = ctx.rng.next_u64();
  CaseSetup c{generate_policy(rg), {}, {}};

  TrafficParams tp;
  tp.seed = ctx.rng.next_u64();
  tp.flow_pool = static_cast<std::size_t>(ctx.rng.uniform(80, 400));
  tp.zipf_s = ctx.rng.uniform01() * 1.2;
  tp.arrival_rate = 1000.0 + ctx.rng.uniform01() * 5000.0;
  tp.duration = 0.1 + ctx.rng.uniform01() * 0.15;
  tp.mean_packets = 1.0 + ctx.rng.uniform01() * 3.0;
  tp.packet_gap = 0.001 + ctx.rng.uniform01() * 0.03;
  tp.ingress_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 6));
  TrafficGenerator gen(c.policy, tp);
  c.flows = gen.generate();

  ScenarioParams& p = c.params;
  p.mode = Mode::kDifane;
  p.edge_switches = static_cast<std::size_t>(ctx.rng.uniform(2, 5));
  p.core_switches = 2;
  p.authority_count = static_cast<std::size_t>(ctx.rng.uniform(1, 2));
  p.edge_cache_capacity = static_cast<std::size_t>(ctx.rng.uniform(32, 400));
  p.partitioner.capacity = 200;
  static constexpr CacheStrategy kStrategies[] = {CacheStrategy::kMicroflow,
                                                  CacheStrategy::kDependentSet,
                                                  CacheStrategy::kCoverSet};
  p.cache_strategy = kStrategies[ctx.rng.uniform(0, 2)];
  // Short timeouts make the lazy-expiry sweep fire mid-burst; long ones keep
  // the cache warm so cache hits dominate.
  p.timings.cache_idle_timeout = ctx.rng.bernoulli(0.5) ? 0.02 : 10.0;
  if (ctx.rng.bernoulli(0.4)) {
    p.measurement.enabled = true;
    p.measurement.sample_prob = 0.25 + ctx.rng.uniform01() * 0.5;
    p.measurement.export_interval = 0.05;
    p.measurement.export_horizon = 1.0;
  }
  if (ctx.rng.bernoulli(0.3)) {
    // Message-level faults draw from the scenario RNG on the same schedule
    // either way; any reordering of those draws would show up here.
    p.faults.msg_loss = ctx.rng.uniform01() * 0.2;
    p.faults.msg_dup = ctx.rng.uniform01() * 0.2;
    p.faults.msg_jitter_prob = ctx.rng.uniform01() * 0.4;
    p.faults.msg_jitter_max = ctx.rng.uniform01() * 2e-3;
  }
  return c;
}

// Everything the determinism contract covers, folded into one string:
// normalized snapshot JSON, the telemetry export stream, and the verifier's
// sampled verdict over the actually-installed tables.
std::string fingerprint(const CaseSetup& c, std::size_t burst,
                        std::size_t ring_capacity = 1024,
                        std::size_t threads = 1) {
  ScenarioParams params = c.params;
  params.burst = burst;
  params.shard_ring_capacity = ring_capacity;
  params.threads = threads;
  Scenario scenario(c.policy, params);
  scenario.run(c.flows);

  auto report = scenario.stats().snapshot("prop_burst");
  report.git_rev = "fixed";
  report.wall_seconds = 0.0;
  std::string fp = report.to_json_string();
  fp += '\n';
  fp += scenario.collector().stream_dump();
  const VerifyReport verify = scenario.verify_installed(/*samples=*/60,
                                                        /*seed=*/1);
  fp += "\nverify samples=" + std::to_string(verify.samples) +
        " ok=" + std::to_string(verify.ok) +
        " violations=" + std::to_string(verify.violations.size());
  return fp;
}

DIFANE_PROPERTY(BurstPathMatchesScalarByteForByte, 110) {
  const CaseSetup c = gen_case(ctx);
  static constexpr std::size_t kBursts[] = {1, 2, 7, 32, 48, 64};
  const std::size_t burst = kBursts[ctx.rng.uniform(0, 5)];

  const std::string scalar = fingerprint(c, /*burst=*/0);
  const std::string bursty = fingerprint(c, burst);
  EXPECT_EQ(scalar, bursty)
      << "burst=" << burst << " diverged from scalar; replay seed 0x"
      << std::hex << ctx.case_seed;
}

// The sharded executor with SPSC outbox rings: same seed twice must be
// byte-identical (seed stability), and shrinking the ring until the
// overflow spill engages must change nothing — the spill keeps per-shard
// FIFO order, so the (when, src shard, seq) merge is capacity-invariant.
// Each shard engine reserves the seqs of its own ingresses' arrivals, so
// bursts leave a threads=2 run unchanged too: burst 0 and 32 must agree.
DIFANE_PROPERTY(ShardedBurstSeedStableAndRingCapacityInvariant, 25) {
  const CaseSetup c = gen_case(ctx);

  const std::string small_ring =
      fingerprint(c, /*burst=*/0, /*ring_capacity=*/32, /*threads=*/2);
  const std::string small_ring_again =
      fingerprint(c, /*burst=*/0, /*ring_capacity=*/32, /*threads=*/2);
  EXPECT_EQ(small_ring, small_ring_again)
      << "threads=2 not seed-stable; replay seed 0x" << std::hex << ctx.case_seed;

  const std::string big_ring =
      fingerprint(c, /*burst=*/0, /*ring_capacity=*/1024, /*threads=*/2);
  EXPECT_EQ(small_ring, big_ring)
      << "ring capacity changed the run (overflow spill broke merge order); "
         "replay seed 0x" << std::hex << ctx.case_seed;

  EXPECT_EQ(small_ring,
            fingerprint(c, /*burst=*/32, /*ring_capacity=*/32, /*threads=*/2))
      << "threads=2 burst=32 diverged from burst=0 (ring 32); replay seed 0x"
      << std::hex << ctx.case_seed;
  EXPECT_EQ(big_ring,
            fingerprint(c, /*burst=*/32, /*ring_capacity=*/1024, /*threads=*/2))
      << "threads=2 burst=32 diverged from burst=0 (ring 1024); replay seed 0x"
      << std::hex << ctx.case_seed;
}

}  // namespace
}  // namespace difane
