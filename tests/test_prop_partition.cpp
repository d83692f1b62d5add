// Properties of the flow-space partitioner, for every CutStrategy: regions
// disjoint and complete, every policy rule reachable, capacity respected
// except where cutting provably cannot help, and the clipped tables agree
// with the single-table policy on the exact winner, packet by packet. Each
// partition's decision tree resolves packets exactly as the linear scan of
// its clipped table, and the word-parallel cut scorer both builds share
// chooses what a naive per-rule, per-bit count chooses.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "flowspace/header.hpp"
#include "proptest/oracle.hpp"
#include "proptest/property.hpp"

namespace difane {
namespace {

using proptest::Counterexample;
using proptest::Violation;

using PartitionOracle = Violation (*)(const Counterexample&, const PartitionerParams&,
                                      std::uint32_t, std::uint64_t, std::size_t);

void run_partition_case(proptest::PropertyContext& ctx, CutStrategy strategy,
                        PartitionOracle check = proptest::check_partition) {
  proptest::TableGenParams tg;
  tg.add_default = ctx.rng.bernoulli(0.8);
  Counterexample cex;
  cex.rules = proptest::gen_table(ctx.rng, tg).rules();
  cex.packets = proptest::gen_packets(ctx.rng, cex.table(), 24);

  PartitionerParams pp;
  pp.capacity = ctx.rng.uniform(2, 24);
  pp.dup_penalty = ctx.rng.bernoulli(0.5) ? 1.0 : 4.0;
  pp.strategy = strategy;
  pp.seed = ctx.case_seed;
  const auto authority_count = static_cast<std::uint32_t>(ctx.rng.uniform(1, 4));
  const std::uint64_t sample_seed = ctx.case_seed ^ 0xabcd;

  const auto oracle = [&](const Counterexample& c) {
    return check(c, pp, authority_count, sample_seed, 32);
  };
  if (const Violation v = oracle(cex)) {
    FAIL() << "seed 0x" << std::hex << ctx.case_seed << std::dec
           << " strategy " << static_cast<int>(strategy) << " capacity "
           << pp.capacity << " authorities " << authority_count << "\n"
           << proptest::shrink_report(oracle, cex, 4000);
  }
}

DIFANE_PROPERTY(PartitionBestBit, 220) {
  run_partition_case(ctx, CutStrategy::kBestBit);
}

DIFANE_PROPERTY(PartitionIpBitsOnly, 220) {
  run_partition_case(ctx, CutStrategy::kIpBitsOnly);
}

DIFANE_PROPERTY(PartitionRandomBit, 220) {
  run_partition_case(ctx, CutStrategy::kRandomBit);
}

DIFANE_PROPERTY(PartitionTreesBestBit, 150) {
  run_partition_case(ctx, CutStrategy::kBestBit, proptest::check_partition_trees);
}

DIFANE_PROPERTY(PartitionTreesIpBitsOnly, 150) {
  run_partition_case(ctx, CutStrategy::kIpBitsOnly, proptest::check_partition_trees);
}

DIFANE_PROPERTY(PartitionTreesRandomBit, 150) {
  run_partition_case(ctx, CutStrategy::kRandomBit, proptest::check_partition_trees);
}

// The scorer's definition, one test per rule and bit: the reference the
// word-parallel CutBitCounts and best_cut must reproduce, including the
// lowest-bit-wins tie-break.
std::pair<std::size_t, std::size_t> naive_sides(const std::vector<Rule>& rules,
                                                std::size_t bit) {
  std::size_t n0 = 0, n1 = 0;
  for (const auto& rule : rules) {
    if (!rule.match.care().get(bit)) {
      ++n0;
      ++n1;
    } else if (rule.match.value().get(bit)) {
      ++n1;
    } else {
      ++n0;
    }
  }
  return {n0, n1};
}

CutChoice naive_best_cut(const std::vector<Rule>& rules, const BitVec& candidates,
                         double dup_penalty) {
  const std::size_t n = rules.size();
  CutChoice best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t bit = 0; bit < kHeaderBits; ++bit) {
    if (!candidates.get(bit)) continue;
    const auto [n0, n1] = naive_sides(rules, bit);
    if (n0 == n || n1 == n) continue;
    const double score = static_cast<double>(std::max(n0, n1)) +
                         dup_penalty * static_cast<double>(n0 + n1 - n);
    if (score < best_score) {
      best_score = score;
      best = CutChoice{static_cast<int>(bit), n0, n1};
    }
  }
  return best;
}

DIFANE_PROPERTY(CutScorerMatchesNaiveCounts, 300) {
  proptest::TableGenParams tg;
  tg.add_default = ctx.rng.bernoulli(0.5);
  std::vector<Rule> rules = proptest::gen_table(ctx.rng, tg).rules();
  // Repeating the table drives counts past the low bit planes.
  const std::size_t copies = ctx.rng.bernoulli(0.3) ? ctx.rng.uniform(2, 400) : 1;
  const std::size_t distinct = rules.size();
  for (std::size_t c = 1; c < copies; ++c) {
    for (std::size_t i = 0; i < distinct; ++i) rules.push_back(rules[i]);
  }

  CutBitCounts counts;
  for (const auto& rule : rules) counts.add(rule.match);
  ASSERT_EQ(counts.size(), rules.size());
  for (std::size_t bit = 0; bit < kHeaderBits; ++bit) {
    const auto [n0, n1] = naive_sides(rules, bit);
    ASSERT_EQ(counts.n0(bit), n0) << "bit " << bit;
    ASSERT_EQ(counts.n1(bit), n1) << "bit " << bit;
    ASSERT_EQ(counts.separates(bit), n0 != rules.size() && n1 != rules.size());
  }

  // Candidates as the tree forms them (every used bit) and as the
  // partitioner does (the used bits its region leaves open, sometimes only
  // the IP fields).
  BitVec open = used_header_mask() & ~proptest::gen_pattern(ctx.rng, tg).care();
  if (ctx.rng.bernoulli(0.3)) {
    BitVec ip;
    for (const Field f : {Field::kIpSrc, Field::kIpDst}) {
      ip.set_bits(field_spec(f).offset, field_spec(f).width, ~0ULL);
    }
    open = open & ip;
  }
  static constexpr double kPenalties[] = {0.0, 0.5, 1.0, 4.0};
  const double dup_penalty = kPenalties[ctx.rng.uniform(0, std::size(kPenalties) - 1)];
  for (const BitVec& candidates : {used_header_mask(), open}) {
    const CutChoice want = naive_best_cut(rules, candidates, dup_penalty);
    const CutChoice got = best_cut(counts, candidates, dup_penalty);
    ASSERT_EQ(got.bit, want.bit) << "seed 0x" << std::hex << ctx.case_seed;
    ASSERT_EQ(got.n0, want.n0);
    ASSERT_EQ(got.n1, want.n1);
  }
}

}  // namespace
}  // namespace difane
