#include "classifier/dtree.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "flowspace/header.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace difane {

namespace {
// Build-time instrumentation, aggregated process-wide.
obs::Timer* build_timer() {
  static obs::Timer* t = obs::MetricsRegistry::global().timer("dtree_build");
  return t;
}
}  // namespace

void CutBitCounts::add(const Ternary& match) {
  expects(n_ < (std::size_t{1} << kPlanes) - 1, "CutBitCounts: too many rules");
  ++n_;
  planes_used_ = static_cast<std::size_t>(std::bit_width(n_));
  accumulate(care_, match.care());
  accumulate(one_, match.value());  // Ternary zeroes value on wildcard bits
}

// Adds one to the count of every set bit: a ripple-carry add into the
// bit-sliced planes, which stops as soon as no word carries.
void CutBitCounts::accumulate(Planes& planes, const BitVec& bits) {
  for (std::size_t w = 0; w < kHeaderWords; ++w) {
    std::uint64_t carry = bits.w[w];
    for (std::size_t k = 0; carry != 0; ++k) {
      const std::uint64_t next = planes[k][w] & carry;
      planes[k][w] ^= carry;
      carry = next;
    }
  }
}

std::size_t CutBitCounts::count(const Planes& planes, std::size_t bit) const {
  const std::size_t w = bit / 64;
  const std::size_t shift = bit % 64;
  std::size_t c = 0;
  for (std::size_t k = 0; k < planes_used_; ++k) {
    c |= static_cast<std::size_t>((planes[k][w] >> shift) & 1ULL) << k;
  }
  return c;
}

CutChoice best_cut(const CutBitCounts& counts, const BitVec& candidates,
                   double dup_penalty) {
  CutChoice best;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t w = 0; w < kHeaderWords; ++w) {
    for (std::uint64_t rest = candidates.w[w]; rest != 0; rest &= rest - 1) {
      const std::size_t bit = w * 64 + static_cast<std::size_t>(std::countr_zero(rest));
      const std::size_t n0 = counts.n0(bit);
      const std::size_t n1 = counts.n1(bit);
      if (n0 == counts.size() || n1 == counts.size()) continue;  // no separation
      const double score = static_cast<double>(std::max(n0, n1)) +
                           dup_penalty * static_cast<double>(n0 + n1 - counts.size());
      if (score < best_score) {
        best_score = score;
        best = CutChoice{static_cast<int>(bit), n0, n1};
      }
    }
  }
  return best;
}

DTreeClassifier::DTreeClassifier(const RuleTable& table, DTreeParams params)
    : params_(params), rule_count_(table.size()) {
  obs::ScopedTimer timed(build_timer());
  // table.rules() is already priority-sorted; indices preserve that order.
  std::vector<std::uint32_t> all(rule_count_);
  for (std::uint32_t i = 0; i < rule_count_; ++i) all[i] = i;
  root_ = build(table, all, 0);
}

std::uint32_t DTreeClassifier::make_leaf(const std::vector<std::uint32_t>& rules) {
  Node node;
  node.cut_bit = -1 - static_cast<std::int32_t>(rules.size());
  node.next = static_cast<std::uint32_t>(leaf_refs_.size());
  leaf_refs_.insert(leaf_refs_.end(), rules.begin(), rules.end());
  nodes_.push_back(node);
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

std::uint32_t DTreeClassifier::build(const RuleTable& table,
                                     std::vector<std::uint32_t>& rules,
                                     std::size_t depth) {
  depth_ = std::max(depth_, depth);
  if (rules.size() <= params_.leaf_size || depth >= params_.max_depth) {
    return make_leaf(rules);
  }
  CutBitCounts counts;
  for (const auto i : rules) counts.add(table.rules()[i].match);
  const int bit = best_cut(counts, used_header_mask(), params_.dup_penalty).bit;
  if (bit < 0) return make_leaf(rules);  // indistinguishable rules

  std::vector<std::uint32_t> left, right;
  for (const auto i : rules) {
    const auto& m = table.rules()[i].match;
    if (!m.care().get(static_cast<std::size_t>(bit))) {
      left.push_back(i);
      right.push_back(i);
    } else if (m.value().get(static_cast<std::size_t>(bit))) {
      right.push_back(i);
    } else {
      left.push_back(i);
    }
  }
  // Guard against degenerate cuts (best_cut filters these, but keep the
  // invariant local).
  if (left.size() == rules.size() && right.size() == rules.size()) {
    return make_leaf(rules);
  }
  rules.clear();
  rules.shrink_to_fit();  // release before recursing: trees can be deep

  const std::uint32_t self = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[self].cut_bit = bit;
  build(table, left, depth + 1);  // lands at self + 1
  const std::uint32_t r = build(table, right, depth + 1);
  nodes_[self].next = r;
  return self;
}

std::optional<std::size_t> DTreeClassifier::match_index(const RuleTable& table,
                                                        const BitVec& packet) const {
  if (nodes_.empty()) return std::nullopt;
  std::uint32_t at = root_;
  std::int32_t cut;
  while ((cut = nodes_[at].cut_bit) >= 0) {
    // Cut bits come from used_header_mask(), so the word index is in range.
    const auto bit = static_cast<std::size_t>(cut);
    at = (packet.w[bit / 64] >> (bit % 64)) & 1ULL ? nodes_[at].next : at + 1;
  }
  const auto& rules = table.rules();
  const std::uint32_t begin = nodes_[at].next;
  const std::uint32_t end = begin + static_cast<std::uint32_t>(-1 - cut);
  for (std::uint32_t i = begin; i < end; ++i) {
    if (rules[leaf_refs_[i]].match.matches(packet)) return leaf_refs_[i];
  }
  return std::nullopt;
}

const Rule* DTreeClassifier::classify(const RuleTable& table,
                                      const BitVec& packet) const {
  const auto idx = match_index(table, packet);
  return idx ? &table.rules()[*idx] : nullptr;
}

std::size_t DTreeClassifier::leaf_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes_) {
    if (node.cut_bit < 0) ++n;
  }
  return n;
}

double DTreeClassifier::avg_leaf_rules() const {
  const std::size_t leaves = leaf_count();
  return leaves ? static_cast<double>(leaf_refs_.size()) / static_cast<double>(leaves)
                : 0.0;
}

double DTreeClassifier::duplication_factor() const {
  return rule_count_ == 0 ? 1.0
                          : static_cast<double>(leaf_refs_.size()) /
                                static_cast<double>(rule_count_);
}

}  // namespace difane
