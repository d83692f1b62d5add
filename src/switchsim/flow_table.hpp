// Switch flow table with DIFANE's three priority bands. Cache rules shadow
// authority rules shadow partition rules, regardless of the numeric
// priorities inside each band — exactly the layering the paper installs in
// every switch's TCAM. Cache entries carry idle/hard timeouts and LRU-evict
// when the cache band is full; authority and partition entries are proactive
// and never expire.
//
// Fast-path layout: cache and partition entries live in a stable slab, and
// every band is ordered by the rule_before key (priority desc, id asc); the
// winner is the first live match in that order. A same-id refresh that
// changes an entry's priority re-positions it. The partition band keeps a
// sorted slot vector. The cache band keeps no full order. Instead it has
// three indices, so that installing, hitting or evicting an exact-indexed
// entry costs O(1) whatever the occupancy:
//   - an exact-match hash over entries whose care bits cover every used
//     header bit (used_header_mask(): the 253 bits of the 12-tuple), keyed
//     by value & used mask and probed with packet & used mask. Chain
//     candidates still pass live_match, so an entry that also cares about
//     the unused top bits stays exact on them;
//   - a key-ordered wildcard list holding every other cache entry, scanned
//     only until it sorts after the exact winner (a wildcard install or
//     removal shifts this list, which its lookup scan walks anyway);
//   - an intrusive recency list sorted by last_hit (a touch moves an entry
//     to the recent end). The LRU victim — minimal last_hit, ties broken by
//     band order — is the key-minimal entry of the list's head run, which
//     is one entry unless several were last touched at the same instant.
// entries(Band::kCache) materializes the band order on demand. Expiry is
// lazy: a min-expiry watermark skips the per-lookup sweep entirely until
// some entry can actually have timed out, at which point a full sweep runs —
// so observable behavior (stats, cascades, LRU order) is byte-identical to
// sweeping on every lookup.
//
// The authority band stores no entries. It is a list of bindings, each a
// view over a rule set the table does not own (one partition's region,
// clipped RuleTable and decision tree, shared by every replica that serves
// it) plus one {packets, bytes} counter pair per rule, indexed by the rule's
// position in that RuleTable: 16 B per bound rule. Authority rules carry no
// clocks, timeouts or guards. Bound regions are disjoint, so a lookup finds
// the one binding whose region holds the packet, through a decision tree
// over the regions, and resolves it through that partition's tree. The
// per-rule install/install_bulk/remove entry points on the authority band
// go to one table-owned binding (a RuleTable over the whole flow space,
// matched linearly), so the band has one representation; when both match,
// the rule_before-first rule wins, as in one sorted band.
// entries(Band::kAuthority) materializes FlowEntry rows for dumps and
// audits.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

#include <memory>

#include "classifier/dtree.hpp"
#include "flowspace/header.hpp"
#include "flowspace/rule.hpp"
#include "flowspace/rule_table.hpp"

namespace difane {

enum class Band : std::uint8_t { kCache = 0, kAuthority = 1, kPartition = 2 };
inline constexpr std::size_t kNumBands = 3;

const char* band_name(Band band);

// Why a cache entry left the table. Reported through the removal listener so
// layers above (the telemetry flush path) can react per cause.
enum class CacheRemoval : std::uint8_t {
  kEvicted = 0,   // LRU victim on a full cache
  kExpired,       // idle/hard timeout sweep
  kRemoved,       // explicit remove() (controller delete, failover purge)
  kCascaded,      // guard left; safety cascade took the dependent with it
  kCleared,       // clear_band(kCache) — crash/reset wipes
};

const char* cache_removal_name(CacheRemoval cause);

struct FlowEntry {
  Rule rule;
  Band band = Band::kPartition;
  double install_time = 0.0;
  double idle_timeout = 0.0;  // seconds; 0 => none
  double hard_timeout = 0.0;  // seconds; 0 => none
  double last_hit = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  // Ids of the higher-priority entries this cache entry needs present to be
  // safe (its install group's protectors: dependent-set ancestors or
  // cover-set shadows). If any guard leaves the table, this entry must go
  // too. Empty for self-sufficient entries (microflow, shadows, proactive
  // bands).
  std::vector<RuleId> guards;

  bool expired(double now) const {
    if (hard_timeout > 0.0 && now >= install_time + hard_timeout) return true;
    if (idle_timeout > 0.0 && now >= last_hit + idle_timeout) return true;
    return false;
  }
};

// A rule set the authority band can bind without copying it: one
// partition's region, clipped rules and the tree over them. The table keeps
// the pointers, so all three must outlive the binding. The regions bound in
// one table must be disjoint, and rule ids unique across everything bound
// in it (the partitioner cuts disjoint regions and gives every clipped copy
// a fresh id).
struct AuthorityRuleSet {
  std::uint32_t key = 0;  // partition id; unique per table
  const Ternary* region = nullptr;
  const RuleTable* rules = nullptr;
  const DTreeClassifier* tree = nullptr;
};

struct FlowTableStats {
  std::uint64_t hits_per_band[kNumBands] = {0, 0, 0};
  std::uint64_t misses = 0;           // matched nothing in any band
  std::uint64_t installs = 0;
  std::uint64_t evictions = 0;        // cache LRU evictions
  std::uint64_t expirations = 0;      // timeout removals
  std::uint64_t cascade_evictions = 0;  // dependents removed for safety
  std::uint64_t install_rejected = 0; // non-cache band over capacity
};

class FlowTable {
 public:
  explicit FlowTable(std::size_t cache_capacity = 1000,
                     std::size_t hw_capacity = std::numeric_limits<std::size_t>::max());

  // Install an entry. Cache-band installs LRU-evict on overflow and replace
  // an existing entry with the same rule id (refreshing its timeouts and
  // guards). Authority/partition installs fail (returning false) if the
  // non-cache capacity is exhausted. `guards` lists the protector entry ids
  // this entry depends on (see FlowEntry::guards). An authority install
  // goes to the table-owned binding and takes no timeouts or guards.
  bool install(const Rule& rule, Band band, double now, double idle_timeout = 0.0,
               double hard_timeout = 0.0, std::vector<RuleId> guards = {});

  // Bulk install into a non-cache band: semantically identical to calling
  // install(rule, band, now) for each pointed-to rule in sequence (same
  // final match order, same stats counters, same capacity/refresh
  // behaviour), but O((n + k) log(n + k)) instead of O(n * k) — new entries
  // are appended and sorted into the band order once instead of paying a
  // vector memmove per rule. The controller refreshes every partition band
  // through it.
  //
  // A refresh here updates the entry in place and must not change its
  // priority (no non-cache caller does; install() re-positions such a
  // refresh). Timeouts are fixed at "never" (0.0) and guards empty, matching
  // every existing non-cache install site. Returns the number of rules
  // accepted (installed or refreshed in place).
  std::size_t install_bulk(const std::vector<const Rule*>& rules, Band band,
                           double now);

  // Remove one entry. In the authority band only rules of the table-owned
  // binding can be removed one by one; bound rule sets leave by unbind().
  bool remove(RuleId id, Band band);
  // Empty a band. Clearing the authority band drops every binding, the
  // table-owned one included, and retires their counters.
  void clear_band(Band band);

  // Bind a shared rule set into the authority band, with zeroed counters.
  // All of its rules fit under the non-cache capacity or none are bound: a
  // bind that does not fit counts every rule as rejected and returns false.
  // Binding a key that is already bound keeps its counters (a refresh).
  // Either way each rule counts as one install, as per-rule installs would.
  bool bind(const AuthorityRuleSet& set);
  // Drop the binding for `key`, retiring its counters; false if unbound.
  bool unbind(std::uint32_t key);

  // Credit a hit to rule `position` of the set bound under `key`: what a
  // redirect resolution that already knows the winner's position calls.
  // Returns false, crediting nothing, if `key` is not bound.
  bool hit_bound(std::uint32_t key, std::size_t position, std::uint64_t bytes = 1);

  // Find the winning entry: lowest band first, then rule priority order
  // within the band. A hit updates last_hit and counters. Expired entries
  // are swept (with identical semantics to an eager per-lookup sweep) before
  // matching; the sweep is skipped while the expiry watermark proves no
  // entry can have timed out. An authority-band winner is returned as a
  // row materialized in the table (rule, band and counters; clocks read 0),
  // valid until the next lookup, peek or find.
  const FlowEntry* lookup(const BitVec& packet, double now, std::uint64_t bytes = 1);

  // Non-mutating probe (no counter/LRU update, no expiry). Uses the same
  // live-match selection as lookup, so the two can never disagree on the
  // winner at a given instant.
  const FlowEntry* peek(const BitVec& packet, double now) const;

  // Credit a hit to a specific entry by id. Returns false if absent. On
  // the authority band this searches the bound rule sets linearly; the
  // redirect path uses hit_bound() instead.
  bool hit(RuleId id, Band band, double now, std::uint64_t bytes = 1);

  std::size_t expire(double now);

  // Entries in a band; for the authority band, the bound rules.
  std::size_t size(Band band) const {
    return band == Band::kAuthority ? authority_size_ : state(band).by_id.size();
  }
  std::size_t total_size() const;
  std::size_t cache_capacity() const { return cache_capacity_; }
  // An authority-band result is a materialized row (see lookup()).
  const FlowEntry* find(RuleId id, Band band) const;

  // Heap bytes a band holds: entries, indices and the capacity slack of
  // their vectors and hash tables (estimated from sizes and bucket counts,
  // before allocator overhead). The slab's free slots count toward the
  // cache band, whose churn leaves them. The authority band counts its
  // bindings, counters and materialized rows, not the shared rule sets.
  std::size_t memory_bytes(Band band) const;

  // One entry's liveness+match test, shared verbatim by lookup and peek (and
  // the property suite asserts their agreement): a rule wins iff it has not
  // timed out and its ternary pattern matches the packet.
  static bool live_match(const FlowEntry& entry, const BitVec& packet, double now) {
    return !entry.expired(now) && entry.rule.match.matches(packet);
  }

  // Read-only view of one band in match order: a snapshot of the band's
  // slab slots over live entries. The cache band's order is materialized
  // (sorted) when the view is taken, so this is O(n log n) for the cache
  // band; it is meant for dumps, audits and purges, not the packet path.
  // Stable while the table is not mutated. The authority band's rows are
  // materialized into storage the table owns, which the next
  // entries(Band::kAuthority) call reuses.
  class BandView {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = FlowEntry;
      using difference_type = std::ptrdiff_t;
      using pointer = const FlowEntry*;
      using reference = const FlowEntry&;
      iterator(const FlowEntry* slab, const std::uint32_t* pos)
          : slab_(slab), pos_(pos) {}
      const FlowEntry& operator*() const { return slab_[*pos_]; }
      const FlowEntry* operator->() const { return &slab_[*pos_]; }
      iterator& operator++() { ++pos_; return *this; }
      iterator operator++(int) { iterator old = *this; ++pos_; return old; }
      friend bool operator==(const iterator& a, const iterator& b) { return a.pos_ == b.pos_; }
      friend bool operator!=(const iterator& a, const iterator& b) { return a.pos_ != b.pos_; }
     private:
      const FlowEntry* slab_;
      const std::uint32_t* pos_;
    };

    iterator begin() const { return iterator(slab_, slots_.data()); }
    iterator end() const { return iterator(slab_, slots_.data() + slots_.size()); }
    std::size_t size() const { return slots_.size(); }
    bool empty() const { return slots_.empty(); }
    const FlowEntry& front() const { return slab_[slots_.front()]; }
    const FlowEntry& operator[](std::size_t i) const { return slab_[slots_[i]]; }

   private:
    friend class FlowTable;
    BandView(const FlowEntry* slab, std::vector<std::uint32_t> slots)
        : slab_(slab), slots_(std::move(slots)) {}
    const FlowEntry* slab_;
    std::vector<std::uint32_t> slots_;
  };

  BandView entries(Band band) const;

  // Every authority-band rule with its counters, in no particular order,
  // without materializing rows: for stats walks that would otherwise keep
  // a FlowEntry per bound rule alive.
  template <typename Fn>
  void for_each_authority_rule(Fn&& fn) const {
    for (const Binding& b : bindings_) {
      for (std::size_t i = 0; i < b.counters.size(); ++i) fn(b.set.rules->at(i), b.counters[i]);
    }
  }

  const FlowTableStats& stats() const { return stats_; }

  // Observes every cache-band entry leaving the table. Fired once per entry,
  // with the entry still fully intact (rule, counters, guards) and the cause
  // of its removal, immediately before the slot is recycled. The listener
  // runs mid-removal and MUST NOT mutate this table; buffer and act later.
  // The telemetry layer hangs its eviction-flush semantics off this hook —
  // an evicted elephant's pending counts are exported instead of vanishing.
  using RemovalListener = std::function<void(const FlowEntry&, CacheRemoval)>;
  void set_removal_listener(RemovalListener listener) {
    removal_listener_ = std::move(listener);
  }

  // Counters of removed entries (timeout, eviction, explicit delete),
  // accumulated per origin rule. A real switch reports these in
  // flow-removed messages; keeping them lets per-policy-rule statistics
  // stay exact across cache churn (the transparency property). Redirect
  // plumbing (encap actions, partition band) is excluded — those hits are
  // re-counted at the authority switch and would double-book.
  struct RuleCounters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
  };
  const std::unordered_map<RuleId, RuleCounters>& retired() const {
    return retired_;
  }

 private:
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  // A slab-backed band: the cache or the partition band.
  struct BandState {
    // Partition band: slab slots in rule_before order. Unused for the cache
    // band, whose order lives in the indices below.
    std::vector<std::uint32_t> order;
    std::unordered_map<RuleId, std::uint32_t> by_id;  // rule id -> slab slot
  };

  // One authority-band binding: a rule set and its counters, parallel to
  // set.rules. The table-owned binding (key kOwnedKey) owns its rules and
  // has no region or tree: it covers the flow space and matches linearly.
  struct Binding {
    AuthorityRuleSet set;
    std::vector<RuleCounters> counters;
    std::unique_ptr<RuleTable> owned;
  };
  static constexpr std::uint32_t kOwnedKey = 0xffffffffu;
  // Where an authority rule sits: binding index and position in its rules.
  struct BoundRule {
    std::size_t binding = 0;
    std::size_t position = 0;
  };

  // Per-slot intrusive links of a cache entry.
  struct CacheLinks {
    std::uint32_t exact_next = kNilSlot;  // next slot in its exact chain
    std::uint32_t lru_prev = kNilSlot;    // recency list neighbours
    std::uint32_t lru_next = kNilSlot;
  };

  static std::size_t index(Band band) { return static_cast<std::size_t>(band); }
  BandState& state(Band band) {
    return band == Band::kCache ? cache_ : partition_;
  }
  const BandState& state(Band band) const {
    return band == Band::kCache ? cache_ : partition_;
  }
  // Cache entries whose care bits cover every used header bit go into the
  // exact-match index.
  static bool exact_indexed(const Ternary& match);
  static BitVec exact_key(const Ternary& match) {
    return match.value() & used_header_mask();
  }
  // Band order over slab slots: rule_before on the slotted rules.
  auto by_key() const {
    return [this](std::uint32_t a, std::uint32_t b) {
      return rule_before(slab_[a].rule, slab_[b].rule);
    };
  }

  // Earliest instant this entry can expire (+inf when it never does).
  static double next_expiry(const FlowEntry& e);
  void note_expiry(const FlowEntry& e);
  void recompute_watermark();

  std::uint32_t alloc_slot();
  void release_slot(std::uint32_t slot);

  // Partition band order: binary-searched insert and erase.
  void order_insert(BandState& bs, std::uint32_t slot);
  void order_erase(BandState& bs, std::uint32_t slot);

  // Exact-match index: open addressing with linear probing from a key's
  // hash to the head slot of the key's chain. A bucket keeps the low 32 bits
  // of its key's hash, so probes read the slab only on a hash match and
  // deletion (backward shift, no tombstones) never reads it. The load stays
  // at or under one half.
  struct ExactBucket {
    std::uint32_t head = kNilSlot;  // kNilSlot: empty bucket
    std::uint32_t hash = 0;
  };
  static std::uint32_t exact_hash(const BitVec& key);
  // The bucket holding `key`'s chain, or the empty bucket ending its probe
  // run. Requires a non-empty bucket array.
  std::size_t exact_bucket(const BitVec& key, std::uint32_t hash) const;
  void exact_erase_bucket(std::size_t hole);
  void exact_grow();

  // Cache-band indices: the exact chain or the wildcard list, chosen by
  // exact_indexed(); and the recency list.
  void link_cache_aux(std::uint32_t slot);
  void unlink_cache_aux(std::uint32_t slot);
  void lru_link(std::uint32_t slot);
  void lru_unlink(std::uint32_t slot);
  // Re-place a cache entry in the recency list after its last_hit changed.
  // O(1) when time does not move backwards; otherwise walks back over the
  // entries touched later than the new last_hit.
  void lru_touch(std::uint32_t slot) {
    lru_unlink(slot);
    lru_link(slot);
  }
  // Cache-band slots in band (key) order.
  std::vector<std::uint32_t> cache_order() const;
  void link_guards(std::uint32_t slot);
  void unlink_guards(std::uint32_t slot);

  // Remove a (already retired) entry from every index of its band.
  void erase_entry(std::uint32_t slot, Band band);

  void notify_removal(const FlowEntry& entry, CacheRemoval cause) {
    if (removal_listener_) removal_listener_(entry, cause);
  }

  // Winner selection shared by lookup and peek, one band at a time: the
  // first live match in the cache band (exact chain + wildcard scan), in the
  // bindings, then in the partition band.
  const FlowEntry* cache_match(const BitVec& packet, double now) const;
  std::optional<BoundRule> authority_match(const BitVec& packet) const;
  const FlowEntry* partition_match(const BitVec& packet, double now) const;

  const Binding* binding_of(std::uint32_t key) const;
  void build_region_tree() const;
  void add_binding(Binding binding);
  std::optional<BoundRule> find_bound(RuleId id) const;
  const Rule& bound_rule(BoundRule at) const {
    return bindings_[at.binding].set.rules->at(at.position);
  }
  // Fill authority_row_ with the row for `at`.
  const FlowEntry* authority_row(BoundRule at) const;
  // The table-owned binding, created empty on first use.
  Binding& owned_binding();
  bool install_owned(const Rule& rule);
  std::size_t install_owned_bulk(const std::vector<const Rule*>& rules);
  bool remove_owned(RuleId id);
  void erase_binding(std::size_t index);

  void evict_lru_cache();
  void retire(const FlowEntry& entry);
  void retire(const Rule& rule, const RuleCounters& counters);
  // Safety cascade: when a cache entry leaves (eviction, timeout, delete),
  // every cache entry that listed it as a guard is unsafe — without its
  // protector it would steal packets — and must leave too, recursively.
  // Re-caching on the next miss restores the full group. Without this,
  // cache churn silently breaks the semantics wildcard caching promises.
  // Keyed by rule id (not by resolved entry), so a dependent installed
  // before — or surviving beyond — its protector binds to whichever entry
  // currently carries that id, exactly as the id-based scan did.
  void cascade_remove_dependents(std::vector<RuleId> removed_ids);

  std::size_t cache_capacity_;
  std::size_t hw_capacity_;  // shared budget for authority+partition bands

  std::vector<FlowEntry> slab_;     // stable entry storage
  std::vector<CacheLinks> links_;   // parallel to slab_
  std::vector<std::uint32_t> free_slots_;
  BandState cache_;
  BandState partition_;

  // Cache-band indices. exact_buckets_ maps value & used_header_mask() to
  // the head of a chain of exact-indexed entries with that key (chained
  // through links_[].exact_next, unordered); its size is 0 or a power of
  // two. cache_wild_ holds every other cache entry in key order. The recency
  // list runs lru_head_ (least recent) to lru_tail_, sorted by last_hit,
  // over every cache entry.
  std::vector<ExactBucket> exact_buckets_;
  std::size_t exact_keys_ = 0;
  std::vector<std::uint32_t> cache_wild_;
  std::uint32_t lru_head_ = kNilSlot;
  std::uint32_t lru_tail_ = kNilSlot;

  // Reverse guard index: guard rule id -> ids of cache entries listing it.
  std::unordered_map<RuleId, std::vector<RuleId>> dependents_;

  // Lower bound on the earliest instant any entry can expire; +inf when no
  // entry carries a timeout. lookup() sweeps only once `now` reaches it.
  double expiry_watermark_ = std::numeric_limits<double>::infinity();

  FlowTableStats stats_;
  std::unordered_map<RuleId, RuleCounters> retired_;
  RemovalListener removal_listener_;

  // Authority band (after the cache band's members, which every lookup
  // reads): the bindings (in no particular order), their index by key, the
  // rules they hold, and the rows last materialized for lookup/peek/find and
  // for entries(). The shared bindings' regions, as rules whose ids are
  // binding indices, sit in a decision tree that the first lookup after a
  // bind or unbind rebuilds.
  std::vector<Binding> bindings_;
  std::unordered_map<std::uint32_t, std::size_t> by_key_;
  std::size_t authority_size_ = 0;
  mutable RuleTable region_rules_;
  mutable std::unique_ptr<DTreeClassifier> region_tree_;
  mutable FlowEntry authority_row_;
  mutable std::vector<FlowEntry> authority_rows_;
};

}  // namespace difane
