#include "core/authority.hpp"

#include "util/contract.hpp"

namespace difane {

void AuthorityNode::bind(const Partition& partition, RuleId synth_id_base) {
  expects(partition.tree != nullptr && partition.tree->rule_count() == partition.rules.size(),
          "AuthorityNode: partition has no tree over its rules");
  bindings_.push_back(Binding{
      &partition,
      CacheRuleGenerator(partition, switch_id_, strategy_, synth_id_base,
                         max_splice_cost_)});
}

void AuthorityNode::unbind(PartitionId partition) {
  // Binding is not assignable (the generator pins a partition reference), so
  // rebuild instead of erase(); bindings per node are few. Unbinding an
  // unknown partition is a no-op, which keeps retransmitted retires silent.
  std::vector<Binding> kept;
  kept.reserve(bindings_.size());
  bool removed = false;
  for (auto& binding : bindings_) {
    if (!removed && binding.partition->id == partition) {
      removed = true;
      continue;
    }
    kept.push_back(std::move(binding));
  }
  bindings_.swap(kept);
}

std::optional<AuthorityNode::RedirectResult> AuthorityNode::handle(
    const BitVec& packet) {
  for (auto& binding : bindings_) {
    if (!binding.partition->region.matches(packet)) continue;
    RedirectResult result;
    result.partition = binding.partition->id;
    const auto idx = binding.partition->match_index(packet);
    if (!idx.has_value()) {
      result.winner = nullptr;  // partition covers the packet, no rule does
      return result;
    }
    result.winner = &binding.partition->rules.at(*idx);
    result.position = *idx;
    result.install = binding.generator.generate(packet, *idx);
    return result;
  }
  return std::nullopt;
}

std::vector<std::size_t> AuthorityNode::splice_costs(PartitionId partition) {
  for (auto& binding : bindings_) {
    if (binding.partition->id != partition) continue;
    std::vector<std::size_t> costs;
    costs.reserve(binding.partition->rules.size());
    for (std::size_t i = 0; i < binding.partition->rules.size(); ++i) {
      costs.push_back(binding.generator.cost_of(i));
    }
    return costs;
  }
  throw contract_violation("splice_costs: partition not bound to this authority");
}

}  // namespace difane
