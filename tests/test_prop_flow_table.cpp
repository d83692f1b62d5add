// Property: the indexed, lazily-expiring FlowTable is observationally
// byte-identical to the eager reference implementation it replaced — same
// winners, same band contents in the same order, same counters/stats/retired
// accounting — under randomized op sequences mixing installs (with idle/hard
// timeouts and guard lists, including phantom guard ids), lookups, peeks,
// out-of-band hits, removals, sweeps, and band clears. Three mixes shape the
// sequences toward the three overhauled mechanisms: general traffic, timeout
// streaming (lazy-expiry watermark), and LRU/cascade churn at tiny capacity.
//
// The reference below is the pre-overhaul implementation (vector bands,
// full sweep per lookup, linear id scans, O(cache x guards) guard refresh)
// with two spec changes: a same-id refresh that changes the priority moves
// the entry to its new rule_before position instead of keeping its slot;
// and authority entries keep no clocks (install_time and last_hit read 0,
// hits move only counters) and take no timeouts, since the real authority
// band stores counters only.
//
// The real authority band binds shared rule sets (a partition's rules and
// tree) instead of storing entries. The reference models a bind as per-rule
// installs of the set's rules — all of them or, over the capacity, none —
// and an unbind as per-rule removals; bound rules cannot be removed one by
// one. A fourth property drives binds, unbinds, crash clears, per-rule
// authority installs, lookups and hits over random partition plans on one
// to three replica tables that share each plan, and also compares the
// collect_stats rows a flow-stats request would return.
//
// Microflow installs come in both shapes the switch sees: care over every
// header bit, and care over only the 253 bits the 12-tuple uses (what
// microflow_pattern installs). Probe packets carry random values in the
// three unused top bits, so an exact index that keyed on the wrong bits
// would alias the two shapes or miss used-bits entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "core/authority.hpp"
#include "ctrlchan/switch_agent.hpp"
#include "flowspace/header.hpp"
#include "partition/partitioner.hpp"
#include "proptest/gen.hpp"
#include "proptest/property.hpp"
#include "switchsim/flow_table.hpp"

namespace difane {
namespace {

class ReferenceFlowTable {
 public:
  explicit ReferenceFlowTable(
      std::size_t cache_capacity = 1000,
      std::size_t hw_capacity = std::numeric_limits<std::size_t>::max())
      : cache_capacity_(cache_capacity), hw_capacity_(hw_capacity) {}

  bool install(const Rule& rule, Band band, double now, double idle_timeout = 0.0,
               double hard_timeout = 0.0, std::vector<RuleId> guards = {}) {
    if (band == Band::kAuthority) now = 0.0;  // no clocks in this band
    auto& entries = bands_[index(band)];
    // Group safety (the spec the real table implements): a dependent's idle
    // budget is capped at the tightest guard's remaining lifetime, and a
    // refresh never shortens an entry that other live entries depend on —
    // either way a dependent could otherwise outlive its protector. 0 means
    // "never idles out" throughout.
    if (band == Band::kCache && !guards.empty() && idle_timeout != 0.0) {
      for (const RuleId g : guards) {
        const auto git =
            std::find_if(entries.begin(), entries.end(),
                         [g](const FlowEntry& e) { return e.rule.id == g; });
        if (git == entries.end() || git->idle_timeout <= 0.0) continue;
        const double remaining = git->last_hit + git->idle_timeout - now;
        if (remaining < idle_timeout) idle_timeout = std::max(remaining, 1e-9);
      }
    }
    const auto existing =
        std::find_if(entries.begin(), entries.end(),
                     [&](const FlowEntry& e) { return e.rule.id == rule.id; });
    if (existing != entries.end()) {
      if (band == Band::kCache && existing->idle_timeout != idle_timeout) {
        const bool has_dependents = std::any_of(
            entries.begin(), entries.end(), [&](const FlowEntry& e) {
              // A (generator-made) self-guard does not make an entry its own
              // dependent: the refresh relinks it after the timeout decision.
              return e.rule.id != rule.id &&
                     std::find(e.guards.begin(), e.guards.end(), rule.id) !=
                         e.guards.end();
            });
        if (has_dependents) {
          idle_timeout = (existing->idle_timeout <= 0.0 || idle_timeout <= 0.0)
                             ? 0.0
                             : std::max(existing->idle_timeout, idle_timeout);
        }
      }
      const bool reorder = existing->rule.priority != rule.priority;
      existing->rule = rule;
      existing->install_time = now;
      existing->idle_timeout = idle_timeout;
      existing->hard_timeout = hard_timeout;
      existing->last_hit = now;
      existing->guards = std::move(guards);
      if (reorder) {
        FlowEntry moved = std::move(*existing);
        entries.erase(existing);
        insert_ordered(entries, std::move(moved));
      }
      ++stats_.installs;
      return true;
    }
    if (band == Band::kCache) {
      if (cache_capacity_ == 0) {
        ++stats_.install_rejected;
        return false;
      }
      while (entries.size() >= cache_capacity_) evict_lru_cache(now);
    } else {
      const std::size_t other = bands_[index(Band::kAuthority)].size() +
                                bands_[index(Band::kPartition)].size();
      if (other >= hw_capacity_) {
        ++stats_.install_rejected;
        return false;
      }
    }
    FlowEntry entry;
    entry.rule = rule;
    entry.band = band;
    entry.install_time = now;
    entry.idle_timeout = idle_timeout;
    entry.hard_timeout = hard_timeout;
    entry.last_hit = now;
    entry.guards = std::move(guards);
    insert_ordered(entries, std::move(entry));
    ++stats_.installs;
    return true;
  }

  bool remove(RuleId id, Band band) {
    if (band == Band::kAuthority) {
      for (const auto& [key, rules] : bound_) {
        if (rules->contains(id)) return false;  // leaves by unbind only
      }
    }
    return erase(id, band);
  }

  bool bind(const AuthorityRuleSet& set) {
    const std::size_t n = set.rules->size();
    if (bound_.count(set.key) == 0) {
      const std::size_t other = bands_[index(Band::kAuthority)].size() +
                                bands_[index(Band::kPartition)].size();
      if (other + n > hw_capacity_) {
        stats_.install_rejected += n;
        return false;
      }
      bound_[set.key] = set.rules;
    }
    for (const Rule& rule : set.rules->rules()) install(rule, Band::kAuthority, 0.0);
    return true;
  }

  bool unbind(std::uint32_t key) {
    const auto it = bound_.find(key);
    if (it == bound_.end()) return false;
    for (const Rule& rule : it->second->rules()) erase(rule.id, Band::kAuthority);
    bound_.erase(it);
    return true;
  }

  bool hit_bound(std::uint32_t key, std::size_t position, std::uint64_t bytes) {
    const auto it = bound_.find(key);
    if (it == bound_.end()) return false;
    return hit(it->second->at(position).id, Band::kAuthority, 0.0, bytes);
  }

  bool erase(RuleId id, Band band) {
    auto& entries = bands_[index(band)];
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [id](const FlowEntry& e) { return e.rule.id == id; });
    if (it == entries.end()) return false;
    retire(*it);
    const RuleId gone = it->rule.id;
    entries.erase(it);
    if (band == Band::kCache) cascade_remove_dependents({gone});
    return true;
  }

  void clear_band(Band band) {
    for (const auto& entry : bands_[index(band)]) retire(entry);
    bands_[index(band)].clear();
    if (band == Band::kAuthority) bound_.clear();
  }

  std::size_t expire(double now) {
    std::size_t total = 0;
    std::vector<RuleId> expired_cache;
    for (auto& entries : bands_) {
      const bool is_cache = &entries == &bands_[index(Band::kCache)];
      const auto before = entries.size();
      entries.erase(std::remove_if(entries.begin(), entries.end(),
                                   [&](const FlowEntry& e) {
                                     if (e.expired(now)) {
                                       retire(e);
                                       if (is_cache) expired_cache.push_back(e.rule.id);
                                       return true;
                                     }
                                     return false;
                                   }),
                    entries.end());
      total += before - entries.size();
    }
    stats_.expirations += total;
    if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
    return total;
  }

  const FlowEntry* lookup(const BitVec& packet, double now, std::uint64_t bytes = 1) {
    expire(now);
    for (auto& entries : bands_) {
      for (auto& entry : entries) {
        if (entry.rule.match.matches(packet)) {
          if (entry.band != Band::kAuthority) entry.last_hit = now;
          ++entry.packets;
          entry.bytes += bytes;
          ++stats_.hits_per_band[index(entry.band)];
          if (entry.band == Band::kCache && !entry.guards.empty()) {
            auto& cache = bands_[index(Band::kCache)];
            for (auto& other : cache) {
              if (std::find(entry.guards.begin(), entry.guards.end(),
                            other.rule.id) != entry.guards.end()) {
                other.last_hit = now;
              }
            }
          }
          return &entry;
        }
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  const FlowEntry* peek(const BitVec& packet, double now) const {
    for (const auto& entries : bands_) {
      for (const auto& entry : entries) {
        if (entry.expired(now)) continue;
        if (entry.rule.match.matches(packet)) return &entry;
      }
    }
    return nullptr;
  }

  bool hit(RuleId id, Band band, double now, std::uint64_t bytes = 1) {
    auto& entries = bands_[index(band)];
    const auto it = std::find_if(entries.begin(), entries.end(),
                                 [id](const FlowEntry& e) { return e.rule.id == id; });
    if (it == entries.end()) return false;
    if (band != Band::kAuthority) it->last_hit = now;
    ++it->packets;
    it->bytes += bytes;
    ++stats_.hits_per_band[index(band)];
    return true;
  }

  const std::vector<FlowEntry>& entries(Band band) const { return bands_[index(band)]; }
  const FlowTableStats& stats() const { return stats_; }
  const std::unordered_map<RuleId, FlowTable::RuleCounters>& retired() const {
    return retired_;
  }

 private:
  static std::size_t index(Band band) { return static_cast<std::size_t>(band); }

  static void insert_ordered(std::vector<FlowEntry>& entries, FlowEntry entry) {
    const auto pos = std::lower_bound(entries.begin(), entries.end(), entry,
                                      [](const FlowEntry& a, const FlowEntry& b) {
                                        return rule_before(a.rule, b.rule);
                                      });
    entries.insert(pos, std::move(entry));
  }

  void retire(const FlowEntry& entry) {
    if (entry.band == Band::kPartition) return;
    if (entry.rule.action.type == ActionType::kEncap) return;
    if (entry.packets == 0 && entry.bytes == 0) return;
    auto& row = retired_[entry.rule.origin_or_self()];
    row.packets += entry.packets;
    row.bytes += entry.bytes;
  }

  void cascade_remove_dependents(std::vector<RuleId> removed_ids) {
    auto& cache = bands_[index(Band::kCache)];
    while (!removed_ids.empty()) {
      const RuleId gone = removed_ids.back();
      removed_ids.pop_back();
      for (auto it = cache.begin(); it != cache.end();) {
        const bool guarded_by_gone =
            std::find(it->guards.begin(), it->guards.end(), gone) != it->guards.end();
        if (guarded_by_gone) {
          retire(*it);
          removed_ids.push_back(it->rule.id);
          it = cache.erase(it);
          ++stats_.cascade_evictions;
        } else {
          ++it;
        }
      }
    }
  }

  void evict_lru_cache(double now) {
    auto& cache = bands_[index(Band::kCache)];
    ASSERT_FALSE(cache.empty());
    (void)now;
    const auto victim = std::min_element(cache.begin(), cache.end(),
                                         [](const FlowEntry& a, const FlowEntry& b) {
                                           return a.last_hit < b.last_hit;
                                         });
    retire(*victim);
    const RuleId gone = victim->rule.id;
    cache.erase(victim);
    ++stats_.evictions;
    cascade_remove_dependents({gone});
  }

  std::size_t cache_capacity_;
  std::size_t hw_capacity_;
  std::vector<FlowEntry> bands_[kNumBands];
  std::map<std::uint32_t, const RuleTable*> bound_;  // bind key -> its rules
  FlowTableStats stats_;
  std::unordered_map<RuleId, FlowTable::RuleCounters> retired_;
};

std::string entry_diff(const FlowEntry& a, const FlowEntry& b) {
  std::ostringstream os;
  if (a.rule.id != b.rule.id) os << " id " << a.rule.id << "!=" << b.rule.id;
  if (a.rule.priority != b.rule.priority) os << " priority";
  if (!(a.rule.match == b.rule.match)) os << " match";
  if (a.install_time != b.install_time) os << " install_time";
  if (a.idle_timeout != b.idle_timeout) os << " idle_timeout";
  if (a.hard_timeout != b.hard_timeout) os << " hard_timeout";
  if (a.last_hit != b.last_hit) os << " last_hit";
  if (a.packets != b.packets) os << " packets";
  if (a.bytes != b.bytes) os << " bytes";
  if (a.guards != b.guards) os << " guards";
  return os.str();
}

// Full observable-state comparison; returns "" when identical.
std::string diff_tables(const FlowTable& t, const ReferenceFlowTable& r) {
  std::ostringstream os;
  for (const Band band : {Band::kCache, Band::kAuthority, Band::kPartition}) {
    const auto view = t.entries(band);
    const auto& ref = r.entries(band);
    if (view.size() != ref.size()) {
      os << band_name(band) << " size " << view.size() << "!=" << ref.size() << ";";
      continue;
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::string d = entry_diff(view[i], ref[i]);
      if (!d.empty()) os << band_name(band) << "[" << i << "]:" << d << ";";
    }
  }
  const auto& ts = t.stats();
  const auto& rs = r.stats();
  for (std::size_t b = 0; b < kNumBands; ++b) {
    if (ts.hits_per_band[b] != rs.hits_per_band[b]) os << " hits_per_band[" << b << "]";
  }
  if (ts.misses != rs.misses) os << " misses";
  if (ts.installs != rs.installs) os << " installs";
  if (ts.evictions != rs.evictions) os << " evictions";
  if (ts.expirations != rs.expirations) os << " expirations";
  if (ts.cascade_evictions != rs.cascade_evictions) os << " cascade_evictions";
  if (ts.install_rejected != rs.install_rejected) os << " install_rejected";
  if (t.retired().size() != r.retired().size()) {
    os << " retired size";
  } else {
    for (const auto& [id, row] : r.retired()) {
      const auto it = t.retired().find(id);
      if (it == t.retired().end() || it->second.packets != row.packets ||
          it->second.bytes != row.bytes) {
        os << " retired[" << id << "]";
      }
    }
  }
  return os.str();
}

// Randomize the three header bits above the 12-tuple.
BitVec with_random_top_bits(Rng& rng, BitVec packet) {
  const std::size_t used = header_bits_used();
  packet.set_bits(used, kHeaderBits - used, rng.uniform(0, 7));
  return packet;
}

struct MixParams {
  double p_timeout = 0.3;    // installs carrying idle/hard timeouts
  double p_guards = 0.3;     // cache installs carrying guard lists
  std::size_t cache_cap_min = 4;
  std::size_t cache_cap_max = 64;
  std::size_t ops = 200;
};

void drive(proptest::PropertyContext& ctx, const MixParams& mix) {
  proptest::TableGenParams tg;
  tg.max_rules = 24;
  tg.add_default = ctx.rng.bernoulli(0.5);
  const RuleTable rules = proptest::gen_table(ctx.rng, tg);
  const std::size_t cache_cap = static_cast<std::size_t>(
      ctx.rng.uniform(mix.cache_cap_min, mix.cache_cap_max));
  const std::size_t hw_cap =
      ctx.rng.bernoulli(0.3) ? static_cast<std::size_t>(ctx.rng.uniform(2, 12))
                             : std::numeric_limits<std::size_t>::max();

  FlowTable table(cache_cap, hw_cap);
  ReferenceFlowTable ref(cache_cap, hw_cap);
  double now = 0.0;
  RuleId next_id = 1000;  // microflow ids; policy rules keep their own
  std::vector<BitVec> flows;  // headers microflows were installed for

  for (std::size_t op = 0; op < mix.ops; ++op) {
    now += ctx.rng.exponential(4.0);  // mean 0.25s per step
    const auto report = [&](const char* what) -> std::string {
      std::ostringstream os;
      os << "op " << op << " (" << what << ") at now=" << now << " seed 0x"
         << std::hex << ctx.case_seed;
      return os.str();
    };
    const std::uint64_t kind = ctx.rng.uniform(0, 99);
    if (kind < 35) {  // install
      Rule rule;
      Band band = Band::kCache;
      if (!rules.empty() && ctx.rng.bernoulli(0.5)) {
        rule = rules.at(ctx.rng.uniform(0, rules.size() - 1));
        const std::uint64_t where = ctx.rng.uniform(0, 9);
        band = where < 6 ? Band::kCache
                         : (where < 8 ? Band::kAuthority : Band::kPartition);
      } else {
        // Microflow on a boundary-biased packet, caring about every header
        // bit or only the used ones. Reusing a small id space exercises the
        // same-id refresh path (including priority changes).
        rule.id = ctx.rng.bernoulli(0.5)
                      ? next_id++
                      : 1000 + static_cast<RuleId>(ctx.rng.uniform(0, 40));
        rule.priority = static_cast<Priority>(ctx.rng.uniform(0, 5));
        flows.push_back(with_random_top_bits(
            ctx.rng, proptest::gen_boundary_packet(ctx.rng, rules)));
        rule.match = Ternary(flows.back(), ctx.rng.bernoulli(0.5)
                                               ? BitVec::ones()
                                               : used_header_mask());
        rule.action = Action::forward(static_cast<std::uint32_t>(ctx.rng.uniform(0, 3)));
      }
      double idle = ctx.rng.bernoulli(mix.p_timeout) ? ctx.rng.exponential(2.0) : 0.0;
      double hard = ctx.rng.bernoulli(mix.p_timeout) ? ctx.rng.exponential(1.0) : 0.0;
      if (band == Band::kAuthority) idle = hard = 0.0;  // proactive: never expire
      std::vector<RuleId> guards;
      if (band == Band::kCache && ctx.rng.bernoulli(mix.p_guards)) {
        // Guard ids drawn from the same small space, so some point at live
        // entries, some at ids installed later (phantom guards), some at
        // ids that never exist.
        const std::size_t n = ctx.rng.uniform(1, 3);
        for (std::size_t g = 0; g < n; ++g) {
          guards.push_back(1000 + static_cast<RuleId>(ctx.rng.uniform(0, 45)));
        }
      }
      const bool a = table.install(rule, band, now, idle, hard, guards);
      const bool b = ref.install(rule, band, now, idle, hard, guards);
      ASSERT_EQ(a, b) << report("install");
    } else if (kind < 65) {  // lookup, with peek agreement first
      // Half the probes revisit a microflow's header (its top bits
      // re-drawn), so exact-index hits and aliasing are exercised often.
      const BitVec pkt = with_random_top_bits(
          ctx.rng, !flows.empty() && ctx.rng.bernoulli(0.5)
                       ? flows[ctx.rng.uniform(0, flows.size() - 1)]
                       : proptest::gen_boundary_packet(ctx.rng, rules));
      const FlowEntry* pa = table.peek(pkt, now);
      const FlowEntry* pb = ref.peek(pkt, now);
      ASSERT_EQ(pa == nullptr, pb == nullptr) << report("peek");
      const bool peek_hit = pa != nullptr;
      const RuleId peek_id = peek_hit ? pa->rule.id : kInvalidRuleId;
      if (peek_hit) {
        ASSERT_EQ(peek_id, pb->rule.id) << report("peek");
      }
      // Capture peek results by value: lookup's sweep below may relocate or
      // erase entries, invalidating the peeked pointers.
      const std::uint64_t cascades_before = table.stats().cascade_evictions;
      const FlowEntry* la = table.lookup(pkt, now, 7);
      const FlowEntry* lb = ref.lookup(pkt, now, 7);
      ASSERT_EQ(la == nullptr, lb == nullptr) << report("lookup");
      if (la != nullptr) {
        ASSERT_EQ(la->rule.id, lb->rule.id) << report("lookup");
      }
      // peek and lookup share live_match, so at one instant they agree on
      // the winner — unless the sweep's safety cascade just removed live
      // dependents of an expired guard (then lookup legitimately sees a
      // smaller table; eager sweeping behaved the same way).
      if (table.stats().cascade_evictions == cascades_before) {
        ASSERT_EQ(peek_hit, la != nullptr) << report("peek/lookup agreement");
        if (peek_hit) {
          ASSERT_EQ(peek_id, la->rule.id) << report("peek/lookup agreement");
        }
      }
    } else if (kind < 75) {  // out-of-band hit
      const RuleId id = 1000 + static_cast<RuleId>(ctx.rng.uniform(0, 45));
      const Band band = static_cast<Band>(ctx.rng.uniform(0, 2));
      ASSERT_EQ(table.hit(id, band, now, 3), ref.hit(id, band, now, 3))
          << report("hit");
    } else if (kind < 85) {  // remove
      RuleId id = 1000 + static_cast<RuleId>(ctx.rng.uniform(0, 45));
      if (!rules.empty() && ctx.rng.bernoulli(0.4)) {
        id = rules.at(ctx.rng.uniform(0, rules.size() - 1)).id;
      }
      const Band band = static_cast<Band>(ctx.rng.uniform(0, 2));
      ASSERT_EQ(table.remove(id, band), ref.remove(id, band)) << report("remove");
    } else if (kind < 95) {  // explicit sweep
      ASSERT_EQ(table.expire(now), ref.expire(now)) << report("expire");
    } else {  // clear a band
      const Band band = static_cast<Band>(ctx.rng.uniform(0, 2));
      table.clear_band(band);
      ref.clear_band(band);
    }
    const std::string diff = diff_tables(table, ref);
    ASSERT_TRUE(diff.empty()) << report("state diff") << ": " << diff;
  }
}

DIFANE_PROPERTY(FlowTableMatchesEagerReference, 120) {
  MixParams mix;
  drive(ctx, mix);
}

// Timeout-heavy mix: most installs carry idle/hard timeouts, so expiries
// stream and the lazy watermark trips continuously — every skipped or taken
// sweep must leave the table byte-identical to eager sweeping.
DIFANE_PROPERTY(FlowTableExpiryMatchesEagerReference, 120) {
  MixParams mix;
  mix.p_timeout = 0.85;
  drive(ctx, mix);
}

// Churn mix: tiny cache plus dense guard lists, so LRU eviction and the
// safety cascade (including phantom guard ids that bind late) dominate.
DIFANE_PROPERTY(FlowTableLruCascadeMatchesEagerReference, 120) {
  MixParams mix;
  mix.p_guards = 0.8;
  mix.cache_cap_min = 2;
  mix.cache_cap_max = 8;
  drive(ctx, mix);
}

// collect_stats over the reference: the rows a flow-stats request returns.
std::vector<FlowStatsEntry> reference_stats(const ReferenceFlowTable& r) {
  std::map<RuleId, FlowStatsEntry> by_origin;
  for (const auto band : {Band::kCache, Band::kAuthority}) {
    for (const auto& entry : r.entries(band)) {
      if (entry.rule.action.type == ActionType::kEncap) continue;
      auto& row = by_origin[entry.rule.origin_or_self()];
      row.origin = entry.rule.origin_or_self();
      row.packets += entry.packets;
      row.bytes += entry.bytes;
      row.installed_copies += 1;
    }
  }
  for (const auto& [origin, counters] : r.retired()) {
    auto& row = by_origin[origin];
    row.origin = origin;
    row.packets += counters.packets;
    row.bytes += counters.bytes;
  }
  std::vector<FlowStatsEntry> out;
  for (const auto& [origin, row] : by_origin) out.push_back(row);
  return out;
}

std::string diff_stats(const Switch& sw, const ReferenceFlowTable& r) {
  const auto got = collect_stats(sw);
  const auto want = reference_stats(r);
  if (got.size() != want.size()) {
    return " stats rows " + std::to_string(got.size()) + "!=" + std::to_string(want.size());
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].origin != want[i].origin || got[i].packets != want[i].packets ||
        got[i].bytes != want[i].bytes ||
        got[i].installed_copies != want[i].installed_copies) {
      os << " stats[origin " << want[i].origin << "]";
    }
  }
  return os.str();
}

// Authority bindings against per-rule installs. A random policy is cut into
// a random plan (small capacities, so several partitions); one to three
// replica tables bind and unbind its partitions, take authority installs of
// policy rules one by one and in bulk (ids disjoint from the plan's copies,
// and a wildcard region that overlaps every partition), cache installs that
// shadow the authority band, partition-band installs that share its
// capacity, crash clears, and hits credited by position the way a redirect
// resolution credits them.
void drive_bindings(proptest::PropertyContext& ctx) {
  proptest::TableGenParams tg;
  tg.max_rules = 24;
  tg.add_default = ctx.rng.bernoulli(0.5);
  const RuleTable policy = proptest::gen_table(ctx.rng, tg);
  PartitionerParams pp;
  pp.capacity = static_cast<std::size_t>(ctx.rng.uniform(2, 8));
  const auto authorities = static_cast<std::uint32_t>(ctx.rng.uniform(1, 4));
  const PartitionPlan plan = Partitioner(pp).build(policy, authorities);
  const std::vector<Rule> redirects = plan.make_partition_rules(-1, 50000);
  const auto& parts = plan.partitions();

  const std::size_t replicas = static_cast<std::size_t>(ctx.rng.uniform(1, 3));
  const std::size_t cache_cap = static_cast<std::size_t>(ctx.rng.uniform(2, 16));
  const std::size_t hw_cap = ctx.rng.bernoulli(0.3)
                                 ? static_cast<std::size_t>(ctx.rng.uniform(4, 40))
                                 : std::numeric_limits<std::size_t>::max();
  std::vector<std::unique_ptr<Switch>> switches;
  std::vector<ReferenceFlowTable> refs;
  for (std::size_t r = 0; r < replicas; ++r) {
    switches.push_back(std::make_unique<Switch>(static_cast<SwitchId>(r), cache_cap, hw_cap));
    refs.emplace_back(cache_cap, hw_cap);
  }
  // Ids the id-based ops draw from: policy rules and the plan's copies.
  std::vector<RuleId> ids;
  for (const Rule& r : policy.rules()) ids.push_back(r.id);
  for (const Partition& p : parts) {
    for (const Rule& r : p.rules.rules()) ids.push_back(r.id);
  }

  double now = 0.0;
  for (std::size_t op = 0; op < 160; ++op) {
    now += ctx.rng.exponential(4.0);
    const std::size_t r = static_cast<std::size_t>(ctx.rng.uniform(0, replicas - 1));
    FlowTable& table = switches[r]->table();
    ReferenceFlowTable& ref = refs[r];
    const auto report = [&](const char* what) -> std::string {
      std::ostringstream os;
      os << "op " << op << " (" << what << ") replica " << r << " of " << replicas
         << ", " << parts.size() << " partitions, seed 0x" << std::hex << ctx.case_seed;
      return os.str();
    };
    const RuleId id = ids[ctx.rng.uniform(0, ids.size() - 1)];
    const std::uint64_t kind = ctx.rng.uniform(0, 99);
    if (kind < 16) {
      const Partition& p = parts[ctx.rng.uniform(0, parts.size() - 1)];
      ASSERT_EQ(table.bind(authority_rule_set(p)), ref.bind(authority_rule_set(p)))
          << report("bind");
    } else if (kind < 24) {
      const auto key = static_cast<std::uint32_t>(ctx.rng.uniform(0, parts.size()));
      ASSERT_EQ(table.unbind(key), ref.unbind(key)) << report("unbind");
    } else if (kind < 27) {  // crash: the switch reboots with an empty TCAM
      for (const Band band : {Band::kCache, Band::kAuthority, Band::kPartition}) {
        table.clear_band(band);
        ref.clear_band(band);
      }
    } else if (kind < 31) {
      const Rule& rule = policy.at(ctx.rng.uniform(0, policy.size() - 1));
      ASSERT_EQ(table.install(rule, Band::kAuthority, now),
                ref.install(rule, Band::kAuthority, now))
          << report("owned install");
    } else if (kind < 35) {  // bulk: as many per-rule installs in order
      std::vector<const Rule*> batch;
      std::size_t want = 0;
      for (std::size_t n = ctx.rng.uniform(1, 5); n > 0; --n) {
        batch.push_back(&policy.at(ctx.rng.uniform(0, policy.size() - 1)));
        if (ref.install(*batch.back(), Band::kAuthority, now)) ++want;
      }
      ASSERT_EQ(table.install_bulk(batch, Band::kAuthority, now), want)
          << report("owned bulk install");
    } else if (kind < 42) {
      const Rule& rule = policy.at(ctx.rng.uniform(0, policy.size() - 1));
      const double idle = ctx.rng.bernoulli(0.5) ? ctx.rng.exponential(1.0) : 0.0;
      ASSERT_EQ(table.install(rule, Band::kCache, now, idle),
                ref.install(rule, Band::kCache, now, idle))
          << report("cache install");
    } else if (kind < 46) {
      const Rule& rule = redirects[ctx.rng.uniform(0, redirects.size() - 1)];
      ASSERT_EQ(table.install(rule, Band::kPartition, now),
                ref.install(rule, Band::kPartition, now))
          << report("partition install");
    } else if (kind < 76) {
      const BitVec pkt = proptest::gen_boundary_packet(ctx.rng, policy);
      const FlowEntry* pa = table.peek(pkt, now);
      const FlowEntry* pb = ref.peek(pkt, now);
      ASSERT_EQ(pa == nullptr, pb == nullptr) << report("peek");
      if (pa != nullptr) {
        ASSERT_EQ(pa->rule.id, pb->rule.id) << report("peek");
        ASSERT_EQ(pa->band, pb->band) << report("peek");
      }
      const FlowEntry* la = table.lookup(pkt, now, 7);
      const FlowEntry* lb = ref.lookup(pkt, now, 7);
      ASSERT_EQ(la == nullptr, lb == nullptr) << report("lookup");
      if (la != nullptr) {
        ASSERT_EQ(la->rule.id, lb->rule.id) << report("lookup");
        ASSERT_EQ(la->packets, lb->packets) << report("lookup");
      }
    } else if (kind < 88) {  // a redirect resolved in its partition
      const BitVec pkt = proptest::gen_boundary_packet(ctx.rng, policy);
      const Partition& p = plan.find(pkt);
      const auto pos = p.match_index(pkt);
      if (pos.has_value()) {
        ASSERT_EQ(table.hit_bound(p.id, *pos, 5), ref.hit_bound(p.id, *pos, 5))
            << report("hit_bound");
      }
    } else if (kind < 94) {
      ASSERT_EQ(table.hit(id, Band::kAuthority, now, 3),
                ref.hit(id, Band::kAuthority, now, 3))
          << report("hit");
    } else {
      ASSERT_EQ(table.remove(id, Band::kAuthority), ref.remove(id, Band::kAuthority))
          << report("remove");
    }
    for (const Band band : {Band::kCache, Band::kAuthority, Band::kPartition}) {
      ASSERT_EQ(table.size(band), ref.entries(band).size())
          << report("size") << " band " << band_name(band);
    }
    const std::string diff = diff_tables(table, ref) + diff_stats(*switches[r], ref);
    ASSERT_TRUE(diff.empty()) << report("state diff") << ": " << diff;
  }
}

DIFANE_PROPERTY(AuthorityBindingsMatchPerRuleReference, 150) {
  drive_bindings(ctx);
}

// A full-mask entry and a used-bits entry that agree on the 253 used bits
// share one exact-index key but must not alias: each matches only the
// packets its own care bits admit, and the key order picks between them
// when both match.
TEST(FlowTableExactKey, FullMaskAndUsedBitsEntriesDoNotAlias) {
  const std::size_t used = header_bits_used();
  BitVec low;
  low.set_bits(0, 64, 0x0123456789abcdefULL);
  low.set_bits(100, 32, 0xc0a80001u);
  BitVec top5 = low;
  top5.set_bits(used, kHeaderBits - used, 5);

  Rule full;  // cares about bits 253-255 too, and wants them to be 101
  full.id = 1;
  full.priority = 10;
  full.match = Ternary(top5, BitVec::ones());
  full.action = Action::forward(1);
  Rule used_bits;  // any top bits
  used_bits.id = 2;
  used_bits.priority = 5;
  used_bits.match = Ternary(low, used_header_mask());
  used_bits.action = Action::forward(2);

  FlowTable table(16);
  ReferenceFlowTable ref(16);
  for (const Rule* r : {&full, &used_bits}) {
    ASSERT_TRUE(table.install(*r, Band::kCache, 0.0));
    ASSERT_TRUE(ref.install(*r, Band::kCache, 0.0));
  }
  double now = 1.0;
  for (std::uint64_t top = 0; top < 8; ++top) {
    BitVec pkt = low;
    pkt.set_bits(used, kHeaderBits - used, top);
    const FlowEntry* got = table.lookup(pkt, now);
    const FlowEntry* want = ref.lookup(pkt, now);
    ASSERT_NE(got, nullptr);
    ASSERT_NE(want, nullptr);
    EXPECT_EQ(got->rule.id, want->rule.id) << "top bits " << top;
    EXPECT_EQ(got->rule.id, top == 5 ? full.id : used_bits.id) << "top bits " << top;
    now += 1.0;
  }
  // Neither entry matches a packet that differs on a used bit.
  BitVec other = top5;
  other.set(7, !other.get(7));
  EXPECT_EQ(table.peek(other, now), nullptr);
  EXPECT_EQ(diff_tables(table, ref), "");

  // Raising the used-bits entry above the full-mask one flips the winner on
  // the shared packet: a refresh with a new priority re-positions.
  used_bits.priority = 20;
  ASSERT_TRUE(table.install(used_bits, Band::kCache, now));
  ASSERT_TRUE(ref.install(used_bits, Band::kCache, now));
  ASSERT_EQ(table.lookup(top5, now)->rule.id, used_bits.id);
  ASSERT_EQ(ref.lookup(top5, now)->rule.id, used_bits.id);
  EXPECT_EQ(diff_tables(table, ref), "");
}

}  // namespace
}  // namespace difane
