#include "partition/plan.hpp"

#include <algorithm>
#include <sstream>

#include "util/contract.hpp"

namespace difane {

PartitionPlan::PartitionPlan(std::vector<Partition> partitions,
                             std::size_t original_rule_count,
                             std::uint32_t authority_count)
    : partitions_(std::move(partitions)),
      original_rule_count_(original_rule_count),
      authority_count_(authority_count) {
  expects(!partitions_.empty(), "PartitionPlan: need at least one partition");
  expects(authority_count_ >= 1, "PartitionPlan: need at least one authority");
  for (auto& p : partitions_) p.tree = std::make_shared<const DTreeClassifier>(p.rules);
}

const Partition& PartitionPlan::find(const BitVec& packet) const {
  for (const auto& p : partitions_) {
    if (p.region.matches(packet)) return p;
  }
  // Regions cover the full space by construction; reaching here is a bug.
  throw contract_violation("PartitionPlan: packet in no partition region");
}

std::vector<Rule> PartitionPlan::make_partition_rules(Priority priority,
                                                      RuleId first_id,
                                                      bool use_backup) const {
  std::vector<Rule> out;
  out.reserve(partitions_.size());
  RuleId id = first_id;
  for (const auto& p : partitions_) {
    Rule r;
    r.id = id++;
    r.priority = priority;
    r.match = p.region;
    r.action = Action::encap(use_backup ? p.backup : p.primary);
    out.push_back(std::move(r));
  }
  return out;
}

std::size_t PartitionPlan::total_rules() const {
  std::size_t n = 0;
  for (const auto& p : partitions_) n += p.rules.size();
  return n;
}

double PartitionPlan::duplication_factor() const {
  if (original_rule_count_ == 0) return 1.0;
  return static_cast<double>(total_rules()) /
         static_cast<double>(original_rule_count_);
}

std::size_t PartitionPlan::memory_bytes() const {
  std::size_t n = partitions_.capacity() * sizeof(Partition);
  for (const auto& p : partitions_) n += p.rules.memory_bytes();
  return n;
}

std::vector<std::size_t> PartitionPlan::rules_per_authority() const {
  std::vector<std::size_t> counts(authority_count_, 0);
  for (const auto& p : partitions_) counts.at(p.primary) += p.rules.size();
  return counts;
}

std::size_t PartitionPlan::max_rules_per_authority() const {
  const auto counts = rules_per_authority();
  return *std::max_element(counts.begin(), counts.end());
}

std::optional<std::string> PartitionPlan::validate(const RuleTable& policy, Rng& rng,
                                                   std::size_t samples) const {
  for (std::size_t s = 0; s < samples; ++s) {
    // Alternate uniform packets with packets biased into policy rules.
    BitVec packet;
    if (s % 2 == 0 || policy.empty()) {
      packet = Ternary::wildcard().sample_point(rng);
    } else {
      packet = policy.at(rng.uniform(0, policy.size() - 1)).match.sample_point(rng);
    }
    // Disjointness + completeness.
    std::size_t owners = 0;
    const Partition* owner = nullptr;
    for (const auto& p : partitions_) {
      if (p.region.matches(packet)) {
        ++owners;
        owner = &p;
      }
    }
    if (owners != 1) {
      std::ostringstream os;
      os << "packet owned by " << owners << " partitions (expected 1)";
      return os.str();
    }
    // Semantic agreement inside the owner region.
    const Rule* want = policy.match(packet);
    const Rule* got = owner->rules.match(packet);
    const bool same = (want == nullptr && got == nullptr) ||
                      (want != nullptr && got != nullptr && want->action == got->action);
    if (!same) {
      std::ostringstream os;
      os << "partition " << owner->id << " disagrees with policy: want "
         << (want ? want->to_string() : "<none>") << " got "
         << (got ? got->to_string() : "<none>");
      return os.str();
    }
  }
  return std::nullopt;
}

void PartitionPlan::fail_over(AuthorityIndex failed) {
  for (auto& p : partitions_) {
    if (p.primary == failed) std::swap(p.primary, p.backup);
  }
}

void PartitionPlan::re_home(std::size_t index, AuthorityIndex new_primary) {
  expects(index < partitions_.size(), "re_home: partition index out of range");
  expects(new_primary < authority_count_, "re_home: authority out of range");
  auto& p = partitions_[index];
  if (p.primary == new_primary) return;
  const AuthorityIndex old_primary = p.primary;
  p.primary = new_primary;
  p.backup = old_primary;
}

}  // namespace difane
