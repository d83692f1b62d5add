// Authority-switch control logic. An authority switch hosts one or more
// partitions: its TCAM's authority band binds each partition's clipped rules
// (the plan's shared RuleTable and tree, with per-switch hit counters; the
// DIFANE controller binds them), and this class answers the two questions a
// redirected packet raises — which rule wins, and which cache rules should
// be pushed back to the ingress switch.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cache.hpp"

namespace difane {

// The view of a partition a switch's authority band binds: its region,
// clipped rules and tree, keyed by partition id. Shares, never copies.
inline AuthorityRuleSet authority_rule_set(const Partition& partition) {
  return AuthorityRuleSet{partition.id, &partition.region, &partition.rules,
                          partition.tree.get()};
}

class AuthorityNode {
 public:
  AuthorityNode(SwitchId switch_id, CacheStrategy strategy,
                std::size_t max_splice_cost = 32)
      : switch_id_(switch_id),
        strategy_(strategy),
        max_splice_cost_(max_splice_cost) {}

  SwitchId switch_id() const { return switch_id_; }

  // Bind a partition this switch serves (as primary or backup). `partition`
  // must outlive the node and carry its tree (PartitionPlan builds it). `synth_id_base` spaces the generator's synthetic
  // rule ids; callers hand each binding a disjoint range.
  void bind(const Partition& partition, RuleId synth_id_base);

  // Drop the binding for `partition` (live migration retired this switch
  // from the serving set). Unbinding a partition that is not bound is a
  // no-op, which keeps retransmitted/duplicated retire paths idempotent.
  void unbind(PartitionId partition);

  std::size_t partition_count() const { return bindings_.size(); }

  bool serves(PartitionId partition) const {
    for (const auto& binding : bindings_) {
      if (binding.partition->id == partition) return true;
    }
    return false;
  }

  struct RedirectResult {
    const Rule* winner = nullptr;   // nullptr => no rule in the partition
    PartitionId partition = 0;
    std::size_t position = 0;       // winner's position in the partition's rules
    CacheInstall install;           // cache rules for the ingress switch
  };

  // Handle a redirected packet: locate the owning partition among this
  // switch's bindings, match it through the partition's tree, and produce
  // the cache install.
  // Returns nullopt if no bound partition covers the packet (a misdirected
  // packet — e.g. stale partition rules right after failover).
  std::optional<RedirectResult> handle(const BitVec& packet);

  // Number of cache-band TCAM entries the strategy charges for caching each
  // rule of the given partition (paper-style splice cost; used by benches).
  std::vector<std::size_t> splice_costs(PartitionId partition);

 private:
  struct Binding {
    const Partition* partition;
    CacheRuleGenerator generator;
  };

  SwitchId switch_id_;
  CacheStrategy strategy_;
  std::size_t max_splice_cost_;
  std::vector<Binding> bindings_;
};

}  // namespace difane
