// Long-haul differential fuzzing: runs the property oracles from
// src/proptest/ in a loop until a time budget expires, with fresh random
// inputs each iteration. On a violation it shrinks the counterexample and
// prints a replayable report, then exits nonzero. Designed to run for hours
// under -fsanitize=address,undefined (see tools/check.sh).
//
//   fuzz_difane [--seconds N] [--seed S] [--replay CASE_SEED]
//
// Every iteration derives its case seed from --seed by splitmix64; a failure
// prints that case seed, and `--replay <case_seed>` re-runs every oracle
// with it deterministically.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "proptest/oracle.hpp"

namespace difane::proptest {
namespace {

struct FuzzCase {
  const char* name;
  // Generates a fresh input from `rng` and checks it; returns the full
  // shrunk report on failure.
  std::optional<std::string> (*run)(Rng& rng, std::uint64_t case_seed);
};

std::optional<std::string> fail_report(
    const char* name, std::uint64_t case_seed,
    const std::function<Violation(const Counterexample&)>& oracle,
    const Counterexample& cex) {
  if (!oracle(cex).has_value()) return std::nullopt;
  return std::string(name) + " failed (case seed 0x" +
         std::to_string(case_seed) + "):\n" + shrink_report(oracle, cex, 6000);
}

std::optional<std::string> run_classifier(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  tg.add_default = rng.bernoulli(0.7);
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  cex.packets = gen_packets(rng, cex.table(), 40);
  DTreeParams dt;
  dt.leaf_size = rng.uniform(1, 16);
  return fail_report(
      "classifier", case_seed,
      [&dt](const Counterexample& c) { return check_classifier_agreement(c, dt); },
      cex);
}

std::optional<std::string> run_transparency(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  tg.max_rules = 32;
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  cex.packets = gen_packets(rng, cex.table(), 30);
  const TopoGen topo = gen_topology(rng);
  static constexpr CacheStrategy kStrategies[] = {
      CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
      CacheStrategy::kCoverSet};
  const CacheStrategy strategy = kStrategies[rng.uniform(0, 2)];
  const double idle = rng.bernoulli(0.5) ? 0.02 : 10.0;
  return fail_report(
      "nox-vs-difane", case_seed,
      [&](const Counterexample& c) {
        return check_nox_vs_difane(c, topo, strategy, idle);
      },
      cex);
}

std::optional<std::string> run_partition(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  tg.add_default = rng.bernoulli(0.8);
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  cex.packets = gen_packets(rng, cex.table(), 24);
  PartitionerParams pp;
  pp.capacity = rng.uniform(2, 24);
  static constexpr CutStrategy kStrategies[] = {
      CutStrategy::kBestBit, CutStrategy::kIpBitsOnly, CutStrategy::kRandomBit};
  pp.strategy = kStrategies[rng.uniform(0, 2)];
  pp.seed = case_seed;
  const auto k = static_cast<std::uint32_t>(rng.uniform(1, 4));
  return fail_report(
      "partition", case_seed,
      [&](const Counterexample& c) {
        if (Violation v = check_partition(c, pp, k, case_seed ^ 0xabcd, 32)) return v;
        return check_partition_trees(c, pp, k, case_seed ^ 0xabcd, 32);
      },
      cex);
}

std::optional<std::string> run_cache(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  cex.packets = gen_packets(rng, cex.table(), 80);
  for (std::size_t i = 0; i < 40 && !cex.packets.empty(); ++i) {
    cex.packets.push_back(cex.packets[rng.uniform(0, cex.packets.size() - 1)]);
  }
  CacheChurnParams cc;
  static constexpr CacheStrategy kStrategies[] = {
      CacheStrategy::kMicroflow, CacheStrategy::kDependentSet,
      CacheStrategy::kCoverSet};
  cc.strategy = kStrategies[rng.uniform(0, 2)];
  cc.cache_capacity = rng.uniform(3, 24);
  cc.max_splice_cost = rng.bernoulli(0.3) ? 4 : 32;
  cc.partitioner.capacity = rng.uniform(4, 16);
  cc.authority_count = static_cast<std::uint32_t>(rng.uniform(1, 3));
  cc.churn_seed = case_seed ^ 0xc4a2;
  return fail_report(
      "cache-vs-authority", case_seed,
      [&](const Counterexample& c) { return check_cache_vs_authority(c, cc); },
      cex);
}

std::optional<std::string> run_minimize(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  tg.p_priority_tie = 0.5;
  tg.add_default = rng.bernoulli(0.5);
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  return fail_report(
      "minimize", case_seed,
      [&](const Counterexample& c) {
        return check_minimize(c, case_seed ^ 0x3333, 48);
      },
      cex);
}

std::optional<std::string> run_incremental(Rng& rng, std::uint64_t case_seed) {
  TableGenParams tg;
  tg.min_rules = 4;
  Counterexample cex;
  cex.rules = gen_table(rng, tg).rules();
  cex.packets = gen_packets(rng, cex.table(), 16);
  PartitionerParams pp;
  pp.capacity = rng.uniform(2, 16);
  const auto k = static_cast<std::uint32_t>(rng.uniform(1, 3));
  return fail_report(
      "incremental", case_seed,
      [&](const Counterexample& c) {
        return check_incremental(c, pp, k, case_seed ^ 0x7777, 32);
      },
      cex);
}

constexpr FuzzCase kCases[] = {
    {"classifier", run_classifier},   {"nox-vs-difane", run_transparency},
    {"partition", run_partition},     {"cache-vs-authority", run_cache},
    {"minimize", run_minimize},       {"incremental", run_incremental},
};

int fuzz_main(int argc, char** argv) {
  double seconds = 10.0;
  std::uint64_t seed = 1;
  std::optional<std::uint64_t> replay;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay = std::strtoull(argv[++i], nullptr, 0);
    } else {
      std::fprintf(stderr, "usage: %s [--seconds N] [--seed S] [--replay CASE_SEED]\n",
                   argv[0]);
      return 2;
    }
  }

  if (replay.has_value()) {
    // Re-run every oracle with the exact case seed a failure reported; each
    // oracle draws from a fresh Rng(case_seed), just as the fuzz loop did.
    int rc = 0;
    for (const auto& fuzz_case : kCases) {
      Rng rng(*replay);
      if (const auto report = fuzz_case.run(rng, *replay)) {
        std::fprintf(stderr, "%s\n", report->c_str());
        rc = 1;
      } else {
        std::printf("%s: clean on seed 0x%llx\n", fuzz_case.name,
                    static_cast<unsigned long long>(*replay));
      }
    }
    return rc;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  std::uint64_t state = seed;
  std::uint64_t iterations = 0;
  std::uint64_t per_case[std::size(kCases)] = {};
  double next_report = 5.0;
  do {
    const std::size_t which = iterations % std::size(kCases);
    const std::uint64_t case_seed = splitmix64(state);
    Rng rng(case_seed);
    if (const auto report = kCases[which].run(rng, case_seed)) {
      std::fprintf(stderr, "FAIL after %llu iterations (%.1fs):\n%s\n",
                   static_cast<unsigned long long>(iterations), elapsed(),
                   report->c_str());
      std::fprintf(stderr, "reproduce: %s --replay 0x%llx\n", argv[0],
                   static_cast<unsigned long long>(case_seed));
      return 1;
    }
    ++per_case[which];
    ++iterations;
    if (elapsed() >= next_report) {
      std::printf("[%6.1fs] %llu iterations clean\n", elapsed(),
                  static_cast<unsigned long long>(iterations));
      std::fflush(stdout);
      next_report += 5.0;
    }
  } while (elapsed() < seconds);

  std::printf("OK: %llu iterations in %.1fs (",
              static_cast<unsigned long long>(iterations), elapsed());
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    std::printf("%s%s=%llu", i ? " " : "", kCases[i].name,
                static_cast<unsigned long long>(per_case[i]));
  }
  std::printf(")\n");
  return 0;
}

}  // namespace
}  // namespace difane::proptest

int main(int argc, char** argv) { return difane::proptest::fuzz_main(argc, argv); }
