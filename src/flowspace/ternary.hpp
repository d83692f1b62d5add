// Ternary patterns — the TCAM match semantics DIFANE's flow space is made of.
// A pattern is (value, care): bit i matches packet bit p_i iff care_i == 0
// (wildcard) or value_i == p_i. Invariant: value & ~care == 0.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "flowspace/bitvec.hpp"
#include "util/rng.hpp"

namespace difane {

class Ternary {
 public:
  // Full wildcard (matches every packet).
  Ternary() = default;

  // Construct from raw value/care; normalizes wildcard bits to value 0.
  Ternary(const BitVec& value, const BitVec& care) : value_(value & care), care_(care) {}

  static Ternary wildcard() { return Ternary(); }

  const BitVec& value() const { return value_; }
  const BitVec& care() const { return care_; }

  // One OR-reduction over the words, no early exit: GCC at -O2 compiles the
  // early-exit is_zero() form to a stack spill plus a word loop, this one to
  // a branch-free xor/and/or chain.
  bool matches(const BitVec& packet) const {
    std::uint64_t mismatch = 0;
    for (std::size_t i = 0; i < kHeaderWords; ++i) {
      mismatch |= (packet.w[i] ^ value_.w[i]) & care_.w[i];
    }
    return mismatch == 0;
  }

  // Number of exact (cared-for) bits. More care bits = more specific.
  int care_bits() const { return care_.popcount(); }

  // log2 of the number of packets this pattern covers.
  int log2_size() const { return static_cast<int>(kHeaderBits) - care_bits(); }

  bool is_full_wildcard() const { return care_.is_zero(); }

  // Constrain bits [offset, offset+width) to equal `value` exactly.
  void set_exact(std::size_t offset, std::size_t width, std::uint64_t value);

  // Constrain the top `prefix_len` bits of the field to match `value`'s top
  // bits (CIDR-style: the field's most significant bits are cared for).
  void set_prefix(std::size_t offset, std::size_t width, std::uint64_t value,
                  std::size_t prefix_len);

  // Intersection: patterns conflict iff they disagree on a bit both care
  // about; otherwise the result cares about the union of care bits.
  friend std::optional<Ternary> intersect(const Ternary& a, const Ternary& b) {
    if (!((a.value_ ^ b.value_) & (a.care_ & b.care_)).is_zero()) return std::nullopt;
    return Ternary(a.value_ | b.value_, a.care_ | b.care_);
  }

  friend bool intersects(const Ternary& a, const Ternary& b) {
    return ((a.value_ ^ b.value_) & (a.care_ & b.care_)).is_zero();
  }

  // True iff every packet matching `b` also matches `a` (a is a superset).
  friend bool covers(const Ternary& a, const Ternary& b) {
    return (a.care_ & ~b.care_).is_zero() && ((a.value_ ^ b.value_) & a.care_).is_zero();
  }

  friend bool operator==(const Ternary& a, const Ternary& b) {
    return a.value_ == b.value_ && a.care_ == b.care_;
  }

  // A uniformly random packet inside this pattern (wildcard bits coin-flipped).
  BitVec sample_point(Rng& rng) const;

  // Raw bit string "01xx..." over [offset, offset+width), MSB first.
  std::string bits_to_string(std::size_t offset, std::size_t width) const;

  std::uint64_t hash() const { return value_.hash() * 1000003ULL ^ care_.hash(); }

 private:
  BitVec value_;
  BitVec care_;
};

// a \ b as a set of disjoint ternary patterns (header-space subtraction).
// Result patterns are pairwise disjoint, none intersects b, and their union
// with (a ∩ b) is exactly a. At most one pattern per care-bit of b.
std::vector<Ternary> subtract(const Ternary& a, const Ternary& b);

// a \ (b1 ∪ b2 ∪ ...): repeated subtraction with an explosion guard.
// If the intermediate piece count exceeds `max_pieces`, returns std::nullopt
// (caller must fall back to a conservative answer).
std::optional<std::vector<Ternary>> subtract_all(const Ternary& a,
                                                 const std::vector<Ternary>& bs,
                                                 std::size_t max_pieces = 4096);

}  // namespace difane

template <>
struct std::hash<difane::Ternary> {
  std::size_t operator()(const difane::Ternary& t) const noexcept {
    return static_cast<std::size_t>(t.hash());
  }
};
