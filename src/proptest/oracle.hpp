// Differential oracles: each check_* function re-derives a DIFANE guarantee
// from first principles and compares two independent implementations (or an
// implementation against the single-table reference semantics). They are
// deterministic functions of their inputs — no hidden randomness — so the
// shrinker can re-run them as its still-fails predicate, and the fuzz tool
// can loop them for hours. A nullopt result means the property held; a
// string describes the first violation found.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "classifier/dtree.hpp"
#include "core/cache.hpp"
#include "faults/plan.hpp"
#include "partition/partitioner.hpp"
#include "proptest/gen.hpp"
#include "proptest/shrink.hpp"

namespace difane::proptest {

using Violation = std::optional<std::string>;

// (1) Cross-implementation classifier oracle: the decision tree must return
// the exact same winner (by id) as the linear TCAM reference on every packet.
Violation check_classifier_agreement(const Counterexample& cex,
                                     const DTreeParams& params);

// (2) End-to-end transparency: the same policy and flows through core/system
// in DIFANE mode and NOX mode must deliver/drop the same packets, and the
// DIFANE per-policy-rule counters must equal the single-table reference.
// Overload losses in either mode make the comparison vacuous (returns
// nullopt): transparency is only promised when nothing is dropped for
// capacity reasons, and the generators keep rates far below capacity.
Violation check_nox_vs_difane(const Counterexample& cex, const TopoGen& topo,
                              CacheStrategy strategy, double cache_idle_timeout);

// (2b) Transparency under message faults: the DIFANE side runs with reliable
// control channels and `difane_faults` perturbing every control transmission
// (loss, duplication, jitter, failed installs — no crashes or flaps); the
// NOX side stays on the clean wire as the oracle. With loss < 1 the reliable
// channel delivers every install eventually, so delivered-packet
// dispositions and per-policy-rule counters must match the fault-free
// baseline exactly — faults may change *when* caches fill, never *what*
// happens to a packet.
Violation check_nox_vs_difane_faulty(const Counterexample& cex, const TopoGen& topo,
                                     CacheStrategy strategy,
                                     double cache_idle_timeout,
                                     const FaultPlan& difane_faults);

// (2c) Transparency across live partition migration: the DIFANE side runs
// with reliable control channels, the given message faults, and 1..3
// make-before-break re-homes (derived deterministically from
// `migration_seed`) firing mid-trace; the NOX side stays clean and static.
// A migration moves authority state and flips redirects while packets are in
// flight, yet delivered-packet dispositions and per-policy-rule counters
// must still equal the fault-free single-table reference — moving a
// partition may change *where* a packet is resolved, never *what* happens
// to it. Forces authority_count >= 2 (a move needs a destination).
Violation check_nox_vs_difane_migrating(const Counterexample& cex,
                                        const TopoGen& topo,
                                        CacheStrategy strategy,
                                        double cache_idle_timeout,
                                        const FaultPlan& difane_faults,
                                        std::uint64_t migration_seed);

// (3) Partitioner post-conditions for any CutStrategy: regions disjoint and
// complete, every policy rule reachable through some partition, per-packet
// match agreement (winner origin + action) between the clipped tables and
// the policy, and capacity respected except where the cut provably cannot
// make progress (soft leaves). `sample_seed` derives extra probe packets on
// top of cex.packets.
Violation check_partition(const Counterexample& cex, const PartitionerParams& params,
                          std::uint32_t authority_count, std::uint64_t sample_seed,
                          std::size_t samples);

// (3b) Every partition's decision tree resolves a packet to the same rule
// as the linear scan of its clipped table (RuleTable::match_index), on every
// probe and in every partition, not only the one owning the probe. Checked
// on a Partitioner plan, on an IncrementalPartitioner snapshot after churn
// (the check_incremental schedule), and on a copy of a plan whose original
// has been destroyed. Probes: cex.packets, boundary samples, and points
// sampled inside each partition's own clipped rules.
Violation check_partition_trees(const Counterexample& cex,
                                const PartitionerParams& params,
                                std::uint32_t authority_count,
                                std::uint64_t sample_seed, std::size_t samples);

struct CacheChurnParams {
  CacheStrategy strategy = CacheStrategy::kDependentSet;
  std::size_t cache_capacity = 8;     // small: forces LRU eviction
  std::size_t max_splice_cost = 32;
  PartitionerParams partitioner;
  std::uint32_t authority_count = 1;
  double idle_timeout = 0.05;
  std::uint64_t churn_seed = 1;       // drives time jumps + forced removals
};

// (4) Cache-vs-authority oracle: replay packets through an ingress flow
// table fed by authority-switch cache installs, under eviction, idle expiry,
// and random forced removals (churn). Every terminal cache-band hit must
// name the same winner (origin + action) as the single-table policy; every
// redirect must resolve at an authority to that same winner.
Violation check_cache_vs_authority(const Counterexample& cex,
                                   const CacheChurnParams& params);

// (5a) minimize() is idempotent (a second pass changes nothing) and
// preserves matching semantics (same winning action on every probe packet).
Violation check_minimize(const Counterexample& cex, std::uint64_t sample_seed,
                         std::size_t samples);

// (5b) Incremental partition maintenance equals a full rebuild: grow a
// tree from the first half of cex.rules, insert the rest, remove every
// third inserted rule, then compare the snapshot against Partitioner::build
// on the same final policy, packet-by-packet.
Violation check_incremental(const Counterexample& cex, const PartitionerParams& params,
                            std::uint32_t authority_count, std::uint64_t sample_seed,
                            std::size_t samples);

// Shrink `cex` under `oracle` and format a failure report: the minimized
// input, its violation, and the shrink effort spent.
std::string shrink_report(const std::function<Violation(const Counterexample&)>& oracle,
                          Counterexample cex, std::size_t max_attempts = 20000);

}  // namespace difane::proptest
