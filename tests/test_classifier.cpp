#include <gtest/gtest.h>

#include "classifier/dtree.hpp"
#include "classifier/linear.hpp"
#include "flowspace/header.hpp"
#include "workload/rulegen.hpp"

namespace difane {
namespace {

TEST(Linear, CountsLookups) {
  RuleTable t;
  Rule def;
  def.id = 0;
  def.priority = 0;
  def.action = Action::forward(0);
  t.add(def);
  LinearClassifier c(t);
  EXPECT_NE(c.classify(BitVec{}), nullptr);
  EXPECT_EQ(c.lookups(), 1u);
}

TEST(DTree, EmptyTableClassifiesNull) {
  const RuleTable empty;
  DTreeClassifier c{empty};
  EXPECT_EQ(c.classify(empty, BitVec{}), nullptr);
}

TEST(DTree, SingleRule) {
  RuleTable t;
  Rule r;
  r.id = 1;
  r.priority = 5;
  match_exact(r.match, Field::kIpProto, 6);
  r.action = Action::drop();
  t.add(r);
  DTreeClassifier c(t);
  const Rule* hit = c.classify(t, PacketBuilder().ip_proto(6).build());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  EXPECT_EQ(c.classify(t, PacketBuilder().ip_proto(17).build()), nullptr);
}

TEST(DTree, StatsAreConsistent) {
  const auto policy = classbench_like(2000, 42);
  DTreeParams params;
  params.leaf_size = 64;
  DTreeClassifier c(policy, params);
  EXPECT_GT(c.node_count(), 1u);
  EXPECT_GT(c.leaf_count(), 1u);
  EXPECT_GE(c.duplication_factor(), 1.0);
  // Wildcard-heavy ACLs replicate in cut trees; coarse leaves keep it sane.
  EXPECT_LT(c.duplication_factor(), 30.0);
  EXPECT_GT(c.depth(), 0u);
  EXPECT_GT(c.avg_leaf_rules(), 0.0);
}

// Equivalence property: the decision tree must return exactly the same
// winner as the linear reference on every packet.
class DTreeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(DTreeEquivalence, MatchesLinearReference) {
  const auto [seed, leaf_size] = GetParam();
  const auto policy = classbench_like(800, seed);
  LinearClassifier linear(policy);
  DTreeParams params;
  params.leaf_size = leaf_size;
  DTreeClassifier tree(policy, params);

  Rng rng(seed ^ 0xfeed);
  for (int i = 0; i < 2000; ++i) {
    // Half uniform, half biased inside random rules so narrow rules get hit.
    BitVec pkt;
    if (i % 2 == 0) {
      pkt = Ternary::wildcard().sample_point(rng);
    } else {
      pkt = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
    }
    const Rule* a = linear.classify(pkt);
    const Rule* b = tree.classify(policy, pkt);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(a->id, b->id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLeafSizes, DTreeEquivalence,
    ::testing::Combine(::testing::Values(1u, 7u, 99u),
                       ::testing::Values(std::size_t{1}, std::size_t{8},
                                         std::size_t{64})));

TEST(ChooseCutBit, PicksSeparatingBit) {
  RuleTable t;
  Rule a, b;
  a.id = 0;
  a.priority = 2;
  match_exact(a.match, Field::kIpProto, 6);
  b.id = 1;
  b.priority = 1;
  match_exact(b.match, Field::kIpProto, 17);
  t.add(a);
  t.add(b);
  CutBitCounts counts;
  for (const auto& rule : t.rules()) counts.add(rule.match);
  const CutChoice cut = best_cut(counts, used_header_mask(), 1.0);
  ASSERT_GE(cut.bit, 0);
  // 6 = 0b00110, 17 = 0b10001 differ in proto bits 0,1,2,4.
  EXPECT_EQ(cut.n0 + cut.n1, 2u);  // clean separation, no duplication
}

TEST(ChooseCutBit, NoSeparatingBitReturnsMinusOne) {
  RuleTable t;
  Rule a;
  a.id = 0;
  a.priority = 1;
  t.add(a);  // one full-wildcard rule: nothing separates it
  CutBitCounts counts;
  counts.add(t.at(0).match);
  EXPECT_EQ(best_cut(counts, used_header_mask(), 1.0).bit, -1);
}

}  // namespace
}  // namespace difane
