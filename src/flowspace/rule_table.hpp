// Priority-ordered rule table with TCAM match semantics. This is the policy
// representation the controller partitions and the reference model the
// correctness properties compare against.
#pragma once

#include <optional>
#include <vector>

#include "flowspace/rule.hpp"

namespace difane {

class RuleTable {
 public:
  RuleTable() = default;
  explicit RuleTable(std::vector<Rule> rules);

  // Insert preserving (priority desc, id asc) order. O(n).
  void add(Rule rule);

  // Remove by id; returns false if absent.
  bool remove(RuleId id);

  bool contains(RuleId id) const;
  const Rule* find(RuleId id) const;

  // Highest-priority matching rule, or nullptr. Linear scan — this models a
  // TCAM's semantics, not its speed; see classifier/ for fast lookup.
  const Rule* match(const BitVec& packet) const;
  std::optional<std::size_t> match_index(const BitVec& packet) const;

  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const Rule& at(std::size_t i) const { return rules_.at(i); }
  const std::vector<Rule>& rules() const { return rules_; }

  double total_weight() const;

  // Heap bytes held (rule storage capacity), excluding sizeof(*this).
  std::size_t memory_bytes() const { return rules_.capacity() * sizeof(Rule); }

  // True iff the table has a full-wildcard rule at the lowest priority level,
  // i.e. every packet matches something.
  bool has_default() const;

  // Ids of rules that can never win because higher-priority rules cover their
  // entire predicate. Rules whose residual computation exceeds the piece
  // budget are conservatively reported as *not* shadowed.
  std::vector<RuleId> find_shadowed(std::size_t max_pieces = 4096) const;

 private:
  std::vector<Rule> rules_;  // invariant: sorted by rule_before
};

}  // namespace difane
