// Scaling-exponent checks for the switch flow table's per-packet path. A
// TCAM lookup costs the same at 1K entries as at 64K, and DIFANE's claim
// rests on that; these tests hold the simulated table to it. Each compares
// the wall cost of one operation at a small and a large table, so the bound
// is a ratio and does not depend on how fast the host is. Every point is the
// minimum of five timings, which filters out preemption and other tenants.
//
// Entries are what the authority installs in the microflow strategy: one
// CacheRuleGenerator(kMicroflow) rule per flow, caring about the 253 used
// header bits. Lookups cycle over a fixed working set of 1024 installed
// flows at every table size, so the ratio measures work per lookup rather
// than the host's cache hierarchy. A linear scan of the cache band gives
// about 64x on the lookup ratio; an indexed table stays near 1.
//
// Labelled `perf`: excluded from sanitizer runs, where wall ratios mean
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "core/cache.hpp"
#include "switchsim/flow_table.hpp"
#include "util/rng.hpp"

namespace difane {
namespace {

constexpr int kTimings = 5;
constexpr double kMaxRatio = 4.0;

// One catch-all partition whose only rule forwards everything, so every
// header yields a microflow install for rule 0.
Partition catch_all_partition() {
  Partition p;
  p.region = Ternary::wildcard();
  Rule r;
  r.id = 0;
  r.priority = 1;
  r.match = Ternary::wildcard();
  r.action = Action::forward(1);
  p.rules.add(r);
  return p;
}

class MicroflowSource {
 public:
  MicroflowSource() : gen_(partition_, 0, CacheStrategy::kMicroflow, 1u << 20) {}

  // A fresh flow header (random over all 256 bits; the microflow pattern
  // keeps the used ones) and its cache rule.
  std::pair<BitVec, Rule> next() {
    const BitVec header = Ternary::wildcard().sample_point(rng_);
    return {header, gen_.generate(header, 0).rules.at(0)};
  }

 private:
  Partition partition_ = catch_all_partition();
  CacheRuleGenerator gen_;
  Rng rng_{0x5ca1e};
};

// Minimum ns/op of each table size over kTimings timings. A point is set
// up once; its run(t) performs timing t and returns ns per operation. The
// two points' timings alternate, so both see the same drift in host speed.
template <typename Point>
std::pair<double, double> min_ns(Point& small, Point& large) {
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int t = 0; t < kTimings; ++t) {
    best[0] = std::min(best[0], small.run(t));
    best[1] = std::min(best[1], large.run(t));
  }
  return {best[0], best[1]};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Lookups of a fixed working set of cached flows in a table of `entries`
// microflows.
class LookupPoint {
 public:
  explicit LookupPoint(std::size_t entries) : table_(entries) {
    for (std::size_t i = 0; i < entries; ++i) {
      auto [header, rule] = source_.next();
      EXPECT_TRUE(table_.install(rule, Band::kCache, now_));
      if (i % (entries / kWorkingSet) == 0) probes_.push_back(header);
      now_ += 1e-6;
    }
    EXPECT_EQ(table_.size(Band::kCache), entries);
  }

  double run(int) {
    std::size_t hits = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (const BitVec& p : probes_) {
        now_ += 1e-9;
        if (table_.lookup(p, now_) != nullptr) ++hits;
      }
    }
    const double secs = seconds_since(start);
    EXPECT_EQ(hits, kRounds * probes_.size()) << "every probe is cached";
    return secs * 1e9 / static_cast<double>(kRounds * probes_.size());
  }

 private:
  static constexpr std::size_t kWorkingSet = 1024;
  static constexpr std::size_t kRounds = 16;
  MicroflowSource source_;
  FlowTable table_;
  std::vector<BitVec> probes_;
  double now_ = 0.0;
};

// Installs of new microflows into a full cache of `capacity`, each evicting
// the least recently used entry.
class InstallEvictPoint {
 public:
  explicit InstallEvictPoint(std::size_t capacity)
      : capacity_(capacity), table_(capacity) {
    for (std::size_t i = 0; i < capacity; ++i) {
      EXPECT_TRUE(table_.install(source_.next().second, Band::kCache, now_));
      now_ += 1e-6;
    }
    // Rules are generated outside the timed region.
    for (auto& batch : batches_) {
      for (std::size_t i = 0; i < kInstalls; ++i) {
        batch.push_back(source_.next().second);
      }
    }
  }

  double run(int t) {
    const std::uint64_t evictions_before = table_.stats().evictions;
    const auto start = std::chrono::steady_clock::now();
    for (const Rule& rule : batches_[static_cast<std::size_t>(t)]) {
      now_ += 1e-6;
      table_.install(rule, Band::kCache, now_);
    }
    const double secs = seconds_since(start);
    EXPECT_EQ(table_.size(Band::kCache), capacity_);
    EXPECT_EQ(table_.stats().evictions - evictions_before, kInstalls);
    return secs * 1e9 / static_cast<double>(kInstalls);
  }

 private:
  static constexpr std::size_t kInstalls = 4096;
  std::size_t capacity_;
  MicroflowSource source_;
  FlowTable table_;
  std::vector<Rule> batches_[kTimings];
  double now_ = 0.0;
};

TEST(FlowTableScaling, LookupCostFlatFrom1KTo64KEntries) {
  LookupPoint small(1024);
  LookupPoint large(65536);
  const auto [small_ns, large_ns] = min_ns(small, large);
  RecordProperty("lookup_ns_1k", std::to_string(small_ns));
  RecordProperty("lookup_ns_64k", std::to_string(large_ns));
  EXPECT_LT(large_ns / small_ns, kMaxRatio)
      << "lookup: " << small_ns << " ns at 1K entries, " << large_ns
      << " ns at 64K entries";
}

TEST(FlowTableScaling, InstallEvictCostFlatFrom512To32KEntries) {
  InstallEvictPoint small(512);
  InstallEvictPoint large(32768);
  const auto [small_ns, large_ns] = min_ns(small, large);
  RecordProperty("install_evict_ns_512", std::to_string(small_ns));
  RecordProperty("install_evict_ns_32k", std::to_string(large_ns));
  EXPECT_LT(large_ns / small_ns, kMaxRatio)
      << "install+evict: " << small_ns << " ns at 512 entries, " << large_ns
      << " ns at 32K entries";
}

}  // namespace
}  // namespace difane
