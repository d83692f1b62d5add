// Decision-tree packet classifier (HiCuts-style, binary cuts on header
// bits). Rules with a wildcard in the cut bit are duplicated into both
// subtrees, so every leaf holds exactly the rules that can match packets
// reaching it. The same cut scoring (CutBitCounts), with capacity-bounded
// leaves, is what DIFANE's flow-space partitioner builds on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "flowspace/rule_table.hpp"

namespace difane {

struct DTreeParams {
  std::size_t leaf_size = 8;     // stop splitting at or below this many rules
  std::size_t max_depth = 64;    // hard recursion bound
  // Relative weight of duplication vs. balance when scoring a cut bit:
  // score = max(n0, n1) + dup_penalty * (n0 + n1 - n).
  double dup_penalty = 1.0;
};

// Per-bit counts over a set of rule patterns: for every header bit, how many
// patterns care about it and how many of those require a 1. Cutting on bit b
// sends n0 = n - one[b] rules to the 0 side and n1 = n - care[b] + one[b] to
// the 1 side (wildcards go to both). add() sums a pattern's care and value
// words into bit-sliced counters, a few word operations per pattern instead
// of one test per pattern and bit.
class CutBitCounts {
 public:
  void add(const Ternary& match);

  std::size_t size() const { return n_; }
  std::size_t n0(std::size_t bit) const { return n_ - count(one_, bit); }
  std::size_t n1(std::size_t bit) const {
    return n_ - count(care_, bit) + count(one_, bit);
  }
  // True iff cutting on `bit` leaves neither side with every rule.
  bool separates(std::size_t bit) const { return n0(bit) != n_ && n1(bit) != n_; }

 private:
  // Plane k of word w holds bit k of every per-bit count in that word.
  static constexpr std::size_t kPlanes = 32;
  using Planes = std::array<std::array<std::uint64_t, kHeaderWords>, kPlanes>;

  void accumulate(Planes& planes, const BitVec& bits);
  std::size_t count(const Planes& planes, std::size_t bit) const;

  std::size_t n_ = 0;
  std::size_t planes_used_ = 0;
  Planes care_{};
  Planes one_{};
};

struct CutChoice {
  int bit = -1;  // -1 => no candidate bit separates the rules
  std::size_t n0 = 0;
  std::size_t n1 = 0;
};

// The candidate bit that separates the counted rules at the lowest score
// max(n0, n1) + dup_penalty * (n0 + n1 - n); on equal scores the lowest bit
// wins.
CutChoice best_cut(const CutBitCounts& counts, const BitVec& candidates,
                   double dup_penalty);

class DTreeClassifier {
 public:
  // Indexes the table's rules by position and copies none of them: a lookup
  // takes the table (or an identical copy of it) as an argument.
  explicit DTreeClassifier(const RuleTable& table, DTreeParams params = {});

  // Position in `table` of the highest-priority rule matching `packet`, the
  // same answer as table.match_index(packet). Walks the tree, then scans the
  // leaf in priority order. `table` must be the one the tree was built from.
  std::optional<std::size_t> match_index(const RuleTable& table,
                                         const BitVec& packet) const;
  const Rule* classify(const RuleTable& table, const BitVec& packet) const;

  // Structure stats (for the substrate-validation bench E10).
  std::size_t rule_count() const { return rule_count_; }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t leaf_count() const;
  std::size_t depth() const { return depth_; }
  double avg_leaf_rules() const;
  // Total rule references across leaves / original rule count: the
  // duplication the cut strategy pays.
  double duplication_factor() const;
  // Heap bytes held (nodes and leaf references), excluding sizeof(*this).
  std::size_t memory_bytes() const {
    return nodes_.capacity() * sizeof(Node) +
           leaf_refs_.capacity() * sizeof(std::uint32_t);
  }

 private:
  // Nodes are stored in preorder, so an internal node's left child is the
  // node after it. Eight bytes a node keep a descent's path on few cache
  // lines.
  struct Node {
    // Internal node: the cut bit, >= 0. Leaf: -1 - its rule count.
    std::int32_t cut_bit = -1;
    // Internal node: the right child. Leaf: its first index into leaf_refs_.
    std::uint32_t next = 0;
  };

  std::uint32_t build(const RuleTable& table, std::vector<std::uint32_t>& rules,
                      std::size_t depth);
  std::uint32_t make_leaf(const std::vector<std::uint32_t>& rules);

  DTreeParams params_;
  std::size_t rule_count_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> leaf_refs_;   // leaves' rule indices, priority-ordered
  std::uint32_t root_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace difane
