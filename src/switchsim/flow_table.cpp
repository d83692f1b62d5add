#include "switchsim/flow_table.hpp"

#include <algorithm>

#include "util/contract.hpp"
#include "util/prefetch.hpp"

namespace difane {

const char* band_name(Band band) {
  switch (band) {
    case Band::kCache: return "cache";
    case Band::kAuthority: return "authority";
    case Band::kPartition: return "partition";
  }
  return "?";
}

const char* cache_removal_name(CacheRemoval cause) {
  switch (cause) {
    case CacheRemoval::kEvicted: return "evicted";
    case CacheRemoval::kExpired: return "expired";
    case CacheRemoval::kRemoved: return "removed";
    case CacheRemoval::kCascaded: return "cascaded";
    case CacheRemoval::kCleared: return "cleared";
  }
  return "?";
}

FlowTable::FlowTable(std::size_t cache_capacity, std::size_t hw_capacity)
    : cache_capacity_(cache_capacity), hw_capacity_(hw_capacity) {}

bool FlowTable::exact_indexed(const Ternary& match) {
  const BitVec& used = used_header_mask();
  return (match.care() & used) == used;
}

double FlowTable::next_expiry(const FlowEntry& e) {
  double t = std::numeric_limits<double>::infinity();
  if (e.hard_timeout > 0.0) t = e.install_time + e.hard_timeout;
  if (e.idle_timeout > 0.0) t = std::min(t, e.last_hit + e.idle_timeout);
  return t;
}

void FlowTable::note_expiry(const FlowEntry& e) {
  expiry_watermark_ = std::min(expiry_watermark_, next_expiry(e));
}

void FlowTable::recompute_watermark() {
  double t = std::numeric_limits<double>::infinity();
  for (std::uint32_t s = lru_head_; s != kNilSlot; s = links_[s].lru_next) {
    t = std::min(t, next_expiry(slab_[s]));
  }
  for (const auto slot : partition_.order) t = std::min(t, next_expiry(slab_[slot]));
  expiry_watermark_ = t;
}

std::uint32_t FlowTable::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slab_.size());
  slab_.emplace_back();
  links_.emplace_back();
  return slot;
}

void FlowTable::release_slot(std::uint32_t slot) {
  FlowEntry& e = slab_[slot];
  e.rule = Rule{};
  e.packets = 0;
  e.bytes = 0;
  e.guards.clear();  // keeps capacity for the next tenant
  links_[slot] = CacheLinks{};
  free_slots_.push_back(slot);
}

void FlowTable::order_insert(BandState& bs, std::uint32_t slot) {
  const auto it =
      std::lower_bound(bs.order.begin(), bs.order.end(), slot, by_key());
  bs.order.insert(it, slot);
}

void FlowTable::order_erase(BandState& bs, std::uint32_t slot) {
  const auto it =
      std::lower_bound(bs.order.begin(), bs.order.end(), slot, by_key());
  expects(it != bs.order.end() && *it == slot, "FlowTable: band order out of sync");
  bs.order.erase(it);
}

std::uint32_t FlowTable::exact_hash(const BitVec& key) {
  // Finalize BitVec::hash (a word combine) so every low bit depends on the
  // whole key: the low bits pick the home bucket.
  std::uint64_t h = key.hash();
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h);
}

std::size_t FlowTable::exact_bucket(const BitVec& key, std::uint32_t hash) const {
  const std::size_t mask = exact_buckets_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const ExactBucket& b = exact_buckets_[i];
    if (b.head == kNilSlot) return i;
    if (b.hash == hash && exact_key(slab_[b.head].rule.match) == key) return i;
  }
}

void FlowTable::exact_erase_bucket(std::size_t hole) {
  // Pull later members of the probe run back into the hole unless their
  // home bucket lies (cyclically) after it, so every key stays reachable.
  const std::size_t mask = exact_buckets_.size() - 1;
  exact_buckets_[hole].head = kNilSlot;
  --exact_keys_;
  for (std::size_t j = (hole + 1) & mask; exact_buckets_[j].head != kNilSlot;
       j = (j + 1) & mask) {
    const std::size_t home = exact_buckets_[j].hash & mask;
    if (((j - home) & mask) < ((j - hole) & mask)) continue;
    exact_buckets_[hole] = exact_buckets_[j];
    exact_buckets_[j].head = kNilSlot;
    hole = j;
  }
}

void FlowTable::exact_grow() {
  std::vector<ExactBucket> old = std::move(exact_buckets_);
  exact_buckets_.assign(std::max<std::size_t>(16, 2 * old.size()), ExactBucket{});
  const std::size_t mask = exact_buckets_.size() - 1;
  for (const ExactBucket& b : old) {
    if (b.head == kNilSlot) continue;
    std::size_t i = b.hash & mask;
    while (exact_buckets_[i].head != kNilSlot) i = (i + 1) & mask;
    exact_buckets_[i] = b;
  }
}

void FlowTable::link_cache_aux(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  if (exact_indexed(e.rule.match)) {
    if (2 * (exact_keys_ + 1) > exact_buckets_.size()) exact_grow();
    const BitVec key = exact_key(e.rule.match);
    const std::uint32_t hash = exact_hash(key);
    ExactBucket& b = exact_buckets_[exact_bucket(key, hash)];
    links_[slot].exact_next = b.head;  // kNilSlot for a new key
    if (b.head == kNilSlot) {
      b.hash = hash;
      ++exact_keys_;
    }
    b.head = slot;
  } else {
    const auto it =
        std::lower_bound(cache_wild_.begin(), cache_wild_.end(), slot, by_key());
    cache_wild_.insert(it, slot);
  }
}

void FlowTable::unlink_cache_aux(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  if (exact_indexed(e.rule.match)) {
    expects(exact_keys_ > 0, "FlowTable: exact index out of sync");
    const BitVec key = exact_key(e.rule.match);
    const std::size_t i = exact_bucket(key, exact_hash(key));
    ExactBucket& b = exact_buckets_[i];
    expects(b.head != kNilSlot, "FlowTable: exact index out of sync");
    if (b.head != slot) {
      std::uint32_t prev = b.head;
      while (links_[prev].exact_next != slot) {
        expects(links_[prev].exact_next != kNilSlot,
                "FlowTable: exact chain out of sync");
        prev = links_[prev].exact_next;
      }
      links_[prev].exact_next = links_[slot].exact_next;
    } else if (links_[slot].exact_next != kNilSlot) {
      b.head = links_[slot].exact_next;
    } else {
      exact_erase_bucket(i);
    }
    links_[slot].exact_next = kNilSlot;
  } else {
    const auto it =
        std::lower_bound(cache_wild_.begin(), cache_wild_.end(), slot, by_key());
    expects(it != cache_wild_.end() && *it == slot,
            "FlowTable: wildcard index out of sync");
    cache_wild_.erase(it);
  }
}

void FlowTable::lru_link(std::uint32_t slot) {
  // Keep the list sorted by last_hit: walk back from the most recent end
  // past entries touched later than this one. With time moving forward that
  // is none, so a touch is O(1) even when many entries share an instant.
  const double t = slab_[slot].last_hit;
  std::uint32_t prev = lru_tail_;
  while (prev != kNilSlot && slab_[prev].last_hit > t) prev = links_[prev].lru_prev;
  const std::uint32_t next = prev == kNilSlot ? lru_head_ : links_[prev].lru_next;
  links_[slot].lru_prev = prev;
  links_[slot].lru_next = next;
  (prev == kNilSlot ? lru_head_ : links_[prev].lru_next) = slot;
  (next == kNilSlot ? lru_tail_ : links_[next].lru_prev) = slot;
}

void FlowTable::lru_unlink(std::uint32_t slot) {
  CacheLinks& l = links_[slot];
  (l.lru_prev == kNilSlot ? lru_head_ : links_[l.lru_prev].lru_next) = l.lru_next;
  (l.lru_next == kNilSlot ? lru_tail_ : links_[l.lru_next].lru_prev) = l.lru_prev;
  l.lru_prev = kNilSlot;
  l.lru_next = kNilSlot;
}

std::vector<std::uint32_t> FlowTable::cache_order() const {
  std::vector<std::uint32_t> slots;
  slots.reserve(cache_.by_id.size());
  for (std::uint32_t s = lru_head_; s != kNilSlot; s = links_[s].lru_next) {
    slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(), by_key());
  return slots;
}

void FlowTable::link_guards(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  for (const RuleId g : e.guards) dependents_[g].push_back(e.rule.id);
}

void FlowTable::unlink_guards(std::uint32_t slot) {
  const FlowEntry& e = slab_[slot];
  for (const RuleId g : e.guards) {
    const auto it = dependents_.find(g);
    if (it == dependents_.end()) continue;
    auto& deps = it->second;
    const auto pos = std::find(deps.begin(), deps.end(), e.rule.id);
    if (pos != deps.end()) deps.erase(pos);
    if (deps.empty()) dependents_.erase(it);
  }
}

void FlowTable::erase_entry(std::uint32_t slot, Band band) {
  BandState& bs = state(band);
  if (band == Band::kCache) {
    unlink_cache_aux(slot);
    unlink_guards(slot);
    lru_unlink(slot);
  } else {
    order_erase(bs, slot);
  }
  bs.by_id.erase(slab_[slot].rule.id);
  release_slot(slot);
}

bool FlowTable::install(const Rule& rule, Band band, double now, double idle_timeout,
                        double hard_timeout, std::vector<RuleId> guards) {
  if (band == Band::kAuthority) {
    expects(idle_timeout == 0.0 && hard_timeout == 0.0 && guards.empty(),
            "FlowTable: authority rules take no timeouts or guards");
    return install_owned(rule);
  }
  BandState& bs = state(band);
  // Group safety under heterogeneous idle timeouts (the elephant policy
  // installs the same protector rule from groups with different leashes): a
  // dependent must never be configured to outlive a guard, or the window
  // between the guard's lazy expiry and the next sweep exposes the dependent
  // as an unguarded — mis-forwarding — match. Cap the dependent's idle
  // budget at the tightest guard's remaining lifetime. With uniform
  // timeouts (every pre-elephant configuration) guards are refreshed in the
  // same group an instant earlier, the cap equals the requested timeout,
  // and behaviour is byte-identical to before.
  if (band == Band::kCache && !guards.empty() && idle_timeout != 0.0) {
    for (const RuleId g : guards) {
      const auto git = bs.by_id.find(g);
      if (git == bs.by_id.end()) continue;
      const FlowEntry& ge = slab_[git->second];
      if (ge.idle_timeout <= 0.0) continue;  // guard never idles out
      const double remaining = ge.last_hit + ge.idle_timeout - now;
      if (remaining < idle_timeout) {
        // A guard that is already past due still caps (a vanishingly short
        // timeout, not zero: zero would mean "never expires").
        idle_timeout = std::max(remaining, 1e-9);
      }
    }
  }
  // Same-id reinstall refreshes the entry in place (counters survive). A
  // changed priority moves it to its new key position; a changed match
  // rekeys the cache indices.
  const auto existing = bs.by_id.find(rule.id);
  if (existing != bs.by_id.end()) {
    const std::uint32_t slot = existing->second;
    FlowEntry& e = slab_[slot];
    const bool reorder = e.rule.priority != rule.priority;
    const bool rekey = reorder || !(e.rule.match == rule.match);
    if (band == Band::kCache) {
      if (rekey) unlink_cache_aux(slot);
      unlink_guards(slot);
    } else if (reorder) {
      order_erase(bs, slot);
    }
    e.rule = rule;
    e.install_time = now;
    // The dual of the guard cap above: an entry other live cache entries
    // depend on must not have its timeout shortened by a refresh from a
    // colder group — its dependents would outlive it. 0 means "never idles
    // out" and wins outright.
    if (band == Band::kCache && dependents_.find(rule.id) != dependents_.end() &&
        e.idle_timeout != idle_timeout) {
      if (e.idle_timeout <= 0.0 || idle_timeout <= 0.0) {
        idle_timeout = 0.0;
      } else {
        idle_timeout = std::max(e.idle_timeout, idle_timeout);
      }
    }
    e.idle_timeout = idle_timeout;
    e.hard_timeout = hard_timeout;
    e.last_hit = now;
    e.guards = std::move(guards);
    if (band == Band::kCache) {
      if (rekey) link_cache_aux(slot);
      link_guards(slot);
      lru_touch(slot);
    } else if (reorder) {
      order_insert(bs, slot);
    }
    note_expiry(e);
    ++stats_.installs;
    return true;
  }
  if (band == Band::kCache) {
    if (cache_capacity_ == 0) {
      ++stats_.install_rejected;
      return false;
    }
    while (bs.by_id.size() >= cache_capacity_) evict_lru_cache();
  } else {
    const std::size_t other = size(Band::kAuthority) + size(Band::kPartition);
    if (other >= hw_capacity_) {
      ++stats_.install_rejected;
      return false;
    }
  }
  const std::uint32_t slot = alloc_slot();
  FlowEntry& e = slab_[slot];
  e.rule = rule;
  e.band = band;
  e.install_time = now;
  e.idle_timeout = idle_timeout;
  e.hard_timeout = hard_timeout;
  e.last_hit = now;
  e.packets = 0;
  e.bytes = 0;
  e.guards = std::move(guards);
  bs.by_id.emplace(rule.id, slot);
  if (band == Band::kCache) {
    link_cache_aux(slot);
    link_guards(slot);
    lru_link(slot);
  } else {
    order_insert(bs, slot);
  }
  note_expiry(e);
  ++stats_.installs;
  return true;
}

std::size_t FlowTable::install_bulk(const std::vector<const Rule*>& rules,
                                    Band band, double now) {
  expects(band != Band::kCache,
          "install_bulk: cache-band installs need the eviction/guard logic of "
          "install()");
  if (band == Band::kAuthority) return install_owned_bulk(rules);
  BandState& bs = partition_;
  const std::size_t old_size = bs.order.size();
  std::size_t accepted = 0;
  for (const Rule* rule : rules) {
    // A same-priority refresh keeps its position — identical to install().
    // Non-cache bands have no aux indices or guard links to rekey.
    const auto existing = bs.by_id.find(rule->id);
    if (existing != bs.by_id.end()) {
      FlowEntry& e = slab_[existing->second];
      // A priority change would need the entry moved, which the merge below
      // does not do. No non-cache caller changes priority on a refresh —
      // partition repoints swap the action, authority reinstalls are
      // identical rules — so reject it outright.
      expects(e.rule.priority == rule->priority,
              "install_bulk: refresh must not change priority (use install())");
      e.rule = *rule;
      e.install_time = now;
      e.idle_timeout = 0.0;
      e.hard_timeout = 0.0;
      e.last_hit = now;
      e.guards.clear();
      note_expiry(e);
      ++stats_.installs;
      ++accepted;
      continue;
    }
    if (size(Band::kAuthority) + size(Band::kPartition) >= hw_capacity_) {
      ++stats_.install_rejected;
      continue;
    }
    const std::uint32_t slot = alloc_slot();
    FlowEntry& e = slab_[slot];
    e.rule = *rule;
    e.band = band;
    e.install_time = now;
    e.idle_timeout = 0.0;
    e.hard_timeout = 0.0;
    e.last_hit = now;
    e.packets = 0;
    e.bytes = 0;
    e.guards.clear();
    bs.order.push_back(slot);
    bs.by_id.emplace(rule->id, slot);
    note_expiry(e);
    ++stats_.installs;
    ++accepted;
  }
  if (bs.order.size() != old_size) {
    // One sort of the appended tail plus one merge with the (sorted) prefix
    // lands every new entry at exactly the position sequential order_insert
    // calls would have chosen: rule_before is a strict total order, so the
    // merged result is the unique sorted arrangement either way.
    const auto mid = bs.order.begin() + static_cast<std::ptrdiff_t>(old_size);
    std::sort(mid, bs.order.end(), by_key());
    std::inplace_merge(bs.order.begin(), mid, bs.order.end(), by_key());
  }
  return accepted;
}

void FlowTable::retire(const FlowEntry& entry) {
  // Plumbing entries re-count at the authority switch; see retired() docs.
  if (entry.band == Band::kPartition) return;
  retire(entry.rule, RuleCounters{entry.packets, entry.bytes});
}

void FlowTable::retire(const Rule& rule, const RuleCounters& counters) {
  if (rule.action.type == ActionType::kEncap) return;
  if (counters.packets == 0 && counters.bytes == 0) return;
  auto& row = retired_[rule.origin_or_self()];
  row.packets += counters.packets;
  row.bytes += counters.bytes;
}

void FlowTable::cascade_remove_dependents(std::vector<RuleId> removed_ids) {
  BandState& cache = cache_;
  std::vector<RuleId> deps;
  while (!removed_ids.empty()) {
    const RuleId gone = removed_ids.back();
    removed_ids.pop_back();
    const auto dit = dependents_.find(gone);
    if (dit == dependents_.end()) continue;
    deps = std::move(dit->second);
    dependents_.erase(dit);
    for (const RuleId id : deps) {
      const auto bit = cache.by_id.find(id);
      if (bit == cache.by_id.end()) continue;
      const std::uint32_t slot = bit->second;
      retire(slab_[slot]);
      notify_removal(slab_[slot], CacheRemoval::kCascaded);
      erase_entry(slot, Band::kCache);
      ++stats_.cascade_evictions;
      removed_ids.push_back(id);
    }
  }
}

void FlowTable::evict_lru_cache() {
  // Minimal last_hit, ties broken by band order: the recency list is sorted
  // by last_hit, so the candidates are its head run of entries sharing the
  // oldest last_hit — one entry unless several were touched at that instant.
  std::uint32_t victim = lru_head_;
  expects(victim != kNilSlot, "evict_lru_cache: cache empty");
  const double oldest = slab_[victim].last_hit;
  for (std::uint32_t s = links_[victim].lru_next;
       s != kNilSlot && slab_[s].last_hit == oldest; s = links_[s].lru_next) {
    if (rule_before(slab_[s].rule, slab_[victim].rule)) victim = s;
  }
  retire(slab_[victim]);
  notify_removal(slab_[victim], CacheRemoval::kEvicted);
  const RuleId gone = slab_[victim].rule.id;
  erase_entry(victim, Band::kCache);
  ++stats_.evictions;
  cascade_remove_dependents({gone});
  // The next victim is by definition the coldest entry; start fetching it
  // (and the entry its tie check reads) while the caller installs.
  if (lru_head_ != kNilSlot) {
    util::prefetch_read_range(&slab_[lru_head_], sizeof(FlowEntry));
    const std::uint32_t next = links_[lru_head_].lru_next;
    if (next != kNilSlot) util::prefetch_read(&slab_[next].last_hit);
  }
}

bool FlowTable::remove(RuleId id, Band band) {
  if (band == Band::kAuthority) return remove_owned(id);
  BandState& bs = state(band);
  const auto it = bs.by_id.find(id);
  if (it == bs.by_id.end()) return false;
  const std::uint32_t slot = it->second;
  retire(slab_[slot]);
  if (band == Band::kCache) notify_removal(slab_[slot], CacheRemoval::kRemoved);
  erase_entry(slot, band);
  if (band == Band::kCache) cascade_remove_dependents({id});
  return true;
}

void FlowTable::clear_band(Band band) {
  if (band == Band::kAuthority) {
    while (!bindings_.empty()) erase_binding(bindings_.size() - 1);
    authority_rows_ = {};  // a crash's clear gives the dump storage back
    return;
  }
  BandState& bs = state(band);
  const bool is_cache = band == Band::kCache;
  for (const std::uint32_t slot : is_cache ? cache_order() : bs.order) {
    retire(slab_[slot]);
    if (is_cache) notify_removal(slab_[slot], CacheRemoval::kCleared);
    release_slot(slot);
  }
  bs.order.clear();
  bs.by_id.clear();
  if (is_cache) {
    // Guard links and the cache indices only ever reference cache entries,
    // so wiping the band wipes them wholesale.
    std::fill(exact_buckets_.begin(), exact_buckets_.end(), ExactBucket{});
    exact_keys_ = 0;
    cache_wild_.clear();
    lru_head_ = kNilSlot;
    lru_tail_ = kNilSlot;
    dependents_.clear();
  }
  recompute_watermark();
}

std::size_t FlowTable::expire(double now) {
  std::size_t total = 0;
  // The walk below also takes the survivors' earliest expiry as the new
  // watermark. Entries the cascade removes afterwards only make it lower
  // than it needs to be, which costs at most one sweep that finds nothing.
  double watermark = std::numeric_limits<double>::infinity();
  // Cache band first, in band order (removal notifications and the cascade
  // follow it): collect the expired slots, then sort just those.
  std::vector<std::uint32_t> dead;
  for (std::uint32_t s = lru_head_; s != kNilSlot; s = links_[s].lru_next) {
    const FlowEntry& e = slab_[s];
    if (e.expired(now)) {
      dead.push_back(s);
    } else {
      watermark = std::min(watermark, next_expiry(e));
    }
  }
  std::sort(dead.begin(), dead.end(), by_key());
  std::vector<RuleId> expired_cache;
  for (const std::uint32_t slot : dead) {
    const FlowEntry& e = slab_[slot];
    retire(e);
    notify_removal(e, CacheRemoval::kExpired);
    expired_cache.push_back(e.rule.id);
    erase_entry(slot, Band::kCache);
  }
  total += dead.size();
  // Partition band: compact survivors in place. (Authority rules never
  // expire.)
  std::size_t kept = 0;
  for (const std::uint32_t slot : partition_.order) {
    FlowEntry& e = slab_[slot];
    if (!e.expired(now)) {
      partition_.order[kept++] = slot;
      watermark = std::min(watermark, next_expiry(e));
      continue;
    }
    retire(e);
    partition_.by_id.erase(e.rule.id);
    release_slot(slot);
    ++total;
  }
  partition_.order.resize(kept);
  stats_.expirations += total;
  if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
  expiry_watermark_ = watermark;
  return total;
}

const FlowEntry* FlowTable::cache_match(const BitVec& packet, double now) const {
  // The winner is the first live match in key order. The exact chain
  // (unordered, usually one entry) yields its key-minimal live match; the
  // key-ordered wildcard scan stops at its first live match or as soon as it
  // sorts after that exact candidate.
  const FlowEntry* win = nullptr;
  if (exact_keys_ != 0) {
    const BitVec key = packet & used_header_mask();
    for (std::uint32_t s = exact_buckets_[exact_bucket(key, exact_hash(key))].head;
         s != kNilSlot; s = links_[s].exact_next) {
      const FlowEntry& e = slab_[s];
      if (live_match(e, packet, now) &&
          (win == nullptr || rule_before(e.rule, win->rule))) {
        win = &e;
      }
    }
  }
  for (const std::uint32_t s : cache_wild_) {
    const FlowEntry& e = slab_[s];
    if (win != nullptr && rule_before(win->rule, e.rule)) break;
    if (live_match(e, packet, now)) {
      win = &e;
      break;
    }
  }
  return win;
}

std::optional<FlowTable::BoundRule> FlowTable::authority_match(
    const BitVec& packet) const {
  // Shared regions are disjoint, so at most one shared binding covers the
  // packet, and the region tree finds it; the table-owned binding covers
  // everything. Between the two the rule_before-first rule wins, as in one
  // sorted band.
  std::optional<BoundRule> win;
  if (bindings_.empty()) return win;  // every edge switch
  const auto own = by_key_.find(kOwnedKey);
  if (own != by_key_.end()) {
    if (const auto pos = bindings_[own->second].set.rules->match_index(packet)) {
      win = BoundRule{own->second, *pos};
    }
    if (bindings_.size() == 1) return win;
  }
  if (region_tree_ == nullptr) build_region_tree();
  const auto region = region_tree_->match_index(region_rules_, packet);
  if (!region.has_value()) return win;
  const std::size_t b = region_rules_.at(*region).id;
  const AuthorityRuleSet& set = bindings_[b].set;
  const auto pos = set.tree->match_index(*set.rules, packet);
  if (pos.has_value()) {
    const BoundRule at{b, *pos};
    if (!win.has_value() || rule_before(bound_rule(at), bound_rule(*win))) win = at;
  }
  return win;
}

void FlowTable::build_region_tree() const {
  std::vector<Rule> regions;
  for (std::size_t b = 0; b < bindings_.size(); ++b) {
    const AuthorityRuleSet& set = bindings_[b].set;
    if (set.key == kOwnedKey) continue;
    Rule r;
    r.id = static_cast<RuleId>(b);
    r.match = *set.region;
    regions.push_back(r);
  }
  region_rules_ = RuleTable(std::move(regions));
  region_tree_ = std::make_unique<DTreeClassifier>(region_rules_);
}

const FlowEntry* FlowTable::partition_match(const BitVec& packet, double now) const {
  for (const std::uint32_t s : partition_.order) {
    const FlowEntry& e = slab_[s];
    if (live_match(e, packet, now)) return &e;
  }
  return nullptr;
}

const FlowEntry* FlowTable::lookup(const BitVec& packet, double now, std::uint64_t bytes) {
  // Amortized sweep: the watermark lower-bounds every entry's expiry, so
  // skipping the sweep while now < watermark removes exactly nothing — the
  // table, stats, and cascades evolve byte-identically to an eager sweep.
  if (now >= expiry_watermark_) expire(now);
  FlowEntry* entry = const_cast<FlowEntry*>(cache_match(packet, now));
  if (entry == nullptr) {
    if (const auto at = authority_match(packet)) {
      RuleCounters& c = bindings_[at->binding].counters[at->position];
      ++c.packets;
      c.bytes += bytes;
      ++stats_.hits_per_band[index(Band::kAuthority)];
      return authority_row(*at);
    }
    entry = const_cast<FlowEntry*>(partition_match(packet, now));
  }
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  entry->last_hit = now;
  ++entry->packets;
  entry->bytes += bytes;
  ++stats_.hits_per_band[index(entry->band)];
  // A hit keeps the whole protection group warm: guards that never win on
  // their own must not idle out (or become LRU victims) while the entries
  // they protect are hot — the safety cascade would then evict hot entries
  // along with them.
  if (entry->band == Band::kCache && !entry->guards.empty()) {
    for (const RuleId g : entry->guards) {
      const auto it = cache_.by_id.find(g);
      if (it == cache_.by_id.end()) continue;
      slab_[it->second].last_hit = now;
      lru_touch(it->second);
    }
  }
  if (entry->band == Band::kCache) {
    lru_touch(static_cast<std::uint32_t>(entry - slab_.data()));
  }
  return entry;
}

bool FlowTable::hit(RuleId id, Band band, double now, std::uint64_t bytes) {
  if (band == Band::kAuthority) {
    const auto at = find_bound(id);
    return at.has_value() &&
           hit_bound(bindings_[at->binding].set.key, at->position, bytes);
  }
  BandState& bs = state(band);
  const auto it = bs.by_id.find(id);
  if (it == bs.by_id.end()) return false;
  FlowEntry& e = slab_[it->second];
  e.last_hit = now;
  ++e.packets;
  e.bytes += bytes;
  ++stats_.hits_per_band[index(band)];
  if (band == Band::kCache) lru_touch(it->second);
  return true;
}

const FlowEntry* FlowTable::peek(const BitVec& packet, double now) const {
  if (const FlowEntry* e = cache_match(packet, now)) return e;
  if (const auto at = authority_match(packet)) return authority_row(*at);
  return partition_match(packet, now);
}

std::size_t FlowTable::total_size() const {
  return cache_.by_id.size() + authority_size_ + partition_.by_id.size();
}

const FlowEntry* FlowTable::find(RuleId id, Band band) const {
  if (band == Band::kAuthority) {
    const auto at = find_bound(id);
    return at.has_value() ? authority_row(*at) : nullptr;
  }
  const auto& bs = state(band);
  const auto it = bs.by_id.find(id);
  return it == bs.by_id.end() ? nullptr : &slab_[it->second];
}

namespace {

// Allocator request of an unordered_map's buckets and nodes (libstdc++: one
// next pointer per node; small integer keys do not cache their hash).
template <typename Map>
std::size_t hash_map_bytes(const Map& m) {
  return m.bucket_count() * sizeof(void*) +
         m.size() * (sizeof(void*) + sizeof(typename Map::value_type));
}

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

std::size_t FlowTable::memory_bytes(Band band) const {
  constexpr std::size_t kSlot = sizeof(FlowEntry) + sizeof(CacheLinks);
  if (band == Band::kAuthority) {
    std::size_t n = vector_bytes(bindings_) + vector_bytes(authority_rows_) +
                    hash_map_bytes(by_key_) + region_rules_.memory_bytes();
    if (region_tree_ != nullptr) n += sizeof(DTreeClassifier) + region_tree_->memory_bytes();
    for (const Binding& b : bindings_) {
      n += vector_bytes(b.counters);
      if (b.owned != nullptr) n += sizeof(RuleTable) + b.owned->memory_bytes();
    }
    return n;
  }
  if (band == Band::kPartition) {
    return partition_.by_id.size() * kSlot + vector_bytes(partition_.order) +
           hash_map_bytes(partition_.by_id);
  }
  // The cache band also carries the slab's unused slots and every slot's
  // guard list: partition entries never have guards.
  std::size_t n = vector_bytes(slab_) + vector_bytes(links_) -
                  partition_.by_id.size() * kSlot + vector_bytes(free_slots_) + hash_map_bytes(cache_.by_id) +
                  vector_bytes(exact_buckets_) + vector_bytes(cache_wild_) +
                  hash_map_bytes(dependents_);
  for (const FlowEntry& e : slab_) n += vector_bytes(e.guards);
  for (const auto& [id, deps] : dependents_) n += vector_bytes(deps);
  return n;
}

FlowTable::BandView FlowTable::entries(Band band) const {
  if (band == Band::kCache) return BandView(slab_.data(), cache_order());
  if (band == Band::kPartition) return BandView(slab_.data(), partition_.order);
  // Authority rows in band order: merge every binding's rules (each sorted
  // by rule_before already) by one sort of their positions.
  std::vector<BoundRule> order;
  order.reserve(authority_size_);
  for (std::size_t b = 0; b < bindings_.size(); ++b) {
    for (std::size_t i = 0; i < bindings_[b].counters.size(); ++i) {
      order.push_back(BoundRule{b, i});
    }
  }
  std::sort(order.begin(), order.end(), [this](BoundRule a, BoundRule b) {
    return rule_before(bound_rule(a), bound_rule(b));
  });
  authority_rows_.clear();
  authority_rows_.reserve(order.size());
  std::vector<std::uint32_t> slots;
  slots.reserve(order.size());
  for (const BoundRule at : order) {
    slots.push_back(static_cast<std::uint32_t>(authority_rows_.size()));
    authority_rows_.push_back(*authority_row(at));
  }
  return BandView(authority_rows_.data(), std::move(slots));
}

// ---- authority band -------------------------------------------------------

const FlowTable::Binding* FlowTable::binding_of(std::uint32_t key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &bindings_[it->second];
}

std::optional<FlowTable::BoundRule> FlowTable::find_bound(RuleId id) const {
  for (std::size_t b = 0; b < bindings_.size(); ++b) {
    const auto& rules = bindings_[b].set.rules->rules();
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (rules[i].id == id) return BoundRule{b, i};
    }
  }
  return std::nullopt;
}

const FlowEntry* FlowTable::authority_row(BoundRule at) const {
  const RuleCounters& c = bindings_[at.binding].counters[at.position];
  authority_row_.rule = bound_rule(at);
  authority_row_.band = Band::kAuthority;
  authority_row_.packets = c.packets;
  authority_row_.bytes = c.bytes;
  return &authority_row_;
}

bool FlowTable::bind(const AuthorityRuleSet& set) {
  expects(set.region != nullptr && set.rules != nullptr && set.tree != nullptr &&
              set.key != kOwnedKey,
          "FlowTable::bind: needs a region, rules, a tree and a partition key");
  expects(set.tree->rule_count() == set.rules->size(),
          "FlowTable::bind: tree is not over the bound rules");
  const std::size_t n = set.rules->size();
  if (const Binding* own = binding_of(kOwnedKey)) {
    for (const Rule& r : set.rules->rules()) {
      expects(own->owned->find(r.id) == nullptr,
              "FlowTable::bind: rule id already installed in the authority band");
    }
  }
  if (binding_of(set.key) != nullptr) {  // refresh: counters survive
    stats_.installs += n;
    return true;
  }
  if (authority_size_ + partition_.by_id.size() + n > hw_capacity_) {
    stats_.install_rejected += n;
    return false;
  }
  for (const Binding& b : bindings_) {
    expects(b.set.key == kOwnedKey || !intersects(*set.region, *b.set.region),
            "FlowTable::bind: region overlaps a bound region");
  }
  add_binding(Binding{set, std::vector<RuleCounters>(n), nullptr});
  stats_.installs += n;
  return true;
}

bool FlowTable::unbind(std::uint32_t key) {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  erase_binding(it->second);
  return true;
}

void FlowTable::add_binding(Binding binding) {
  by_key_.emplace(binding.set.key, bindings_.size());
  authority_size_ += binding.counters.size();
  bindings_.push_back(std::move(binding));
  region_tree_.reset();
}

void FlowTable::erase_binding(std::size_t index) {
  const Binding& b = bindings_[index];
  for (std::size_t i = 0; i < b.counters.size(); ++i) {
    retire(b.set.rules->at(i), b.counters[i]);
  }
  authority_size_ -= b.counters.size();
  by_key_.erase(b.set.key);
  // Bind order carries no meaning (rows and winners follow rule_before), so
  // the last binding fills the hole.
  if (index + 1 != bindings_.size()) {
    bindings_[index] = std::move(bindings_.back());
    by_key_[bindings_[index].set.key] = index;
  }
  bindings_.pop_back();
  region_tree_.reset();
}

bool FlowTable::hit_bound(std::uint32_t key, std::size_t position,
                          std::uint64_t bytes) {
  const auto it = by_key_.find(key);
  if (it == by_key_.end()) return false;
  RuleCounters& c = bindings_[it->second].counters.at(position);
  ++c.packets;
  c.bytes += bytes;
  ++stats_.hits_per_band[index(Band::kAuthority)];
  return true;
}

FlowTable::Binding& FlowTable::owned_binding() {
  if (const auto it = by_key_.find(kOwnedKey); it != by_key_.end()) {
    return bindings_[it->second];
  }
  auto rules = std::make_unique<RuleTable>();
  AuthorityRuleSet set;
  set.key = kOwnedKey;
  set.rules = rules.get();
  add_binding(Binding{set, {}, std::move(rules)});
  return bindings_.back();
}

bool FlowTable::install_owned(const Rule& rule) {
  const auto at = find_bound(rule.id);
  if (at.has_value()) {
    // Same-id refresh: counters survive, a changed priority re-positions.
    Binding& b = bindings_[at->binding];
    expects(b.owned != nullptr,
            "FlowTable: a bound rule set's rules cannot be reinstalled one by one");
    const RuleCounters kept = b.counters[at->position];
    b.counters.erase(b.counters.begin() + static_cast<std::ptrdiff_t>(at->position));
    b.owned->remove(rule.id);
    const auto& rules = b.owned->rules();
    const auto pos = std::lower_bound(rules.begin(), rules.end(), rule, rule_before) -
                     rules.begin();
    b.owned->add(rule);
    b.counters.insert(b.counters.begin() + pos, kept);
    ++stats_.installs;
    return true;
  }
  if (authority_size_ + partition_.by_id.size() >= hw_capacity_) {
    ++stats_.install_rejected;
    return false;
  }
  Binding& b = owned_binding();
  const auto& rules = b.owned->rules();
  const auto pos =
      std::lower_bound(rules.begin(), rules.end(), rule, rule_before) - rules.begin();
  b.owned->add(rule);
  b.counters.insert(b.counters.begin() + pos, RuleCounters{});
  ++authority_size_;
  ++stats_.installs;
  return true;
}

std::size_t FlowTable::install_owned_bulk(const std::vector<const Rule*>& batch) {
  Binding& b = owned_binding();
  std::vector<Rule> rules = b.owned->rules();
  std::vector<RuleCounters> counters = b.counters;
  std::unordered_map<RuleId, std::size_t> at;  // rule id -> index in `rules`
  at.reserve(rules.size() + batch.size());
  for (std::size_t i = 0; i < rules.size(); ++i) at.emplace(rules[i].id, i);
  const std::size_t before = rules.size();
  std::size_t accepted = 0;
  for (const Rule* rule : batch) {
    const auto it = at.find(rule->id);
    if (it != at.end()) {
      // A priority change would need the rule moved, which the sort below
      // would do silently; install() is the path that re-positions.
      expects(rules[it->second].priority == rule->priority,
              "install_bulk: refresh must not change priority (use install())");
      rules[it->second] = *rule;
    } else if (authority_size_ + (rules.size() - before) + partition_.by_id.size() >=
               hw_capacity_) {
      ++stats_.install_rejected;
      continue;
    } else {
      at.emplace(rule->id, rules.size());
      rules.push_back(*rule);
      counters.emplace_back();
    }
    ++stats_.installs;
    ++accepted;
  }
  for (const Binding& other : bindings_) {
    if (other.owned != nullptr) continue;
    for (const Rule& r : other.set.rules->rules()) {
      expects(at.count(r.id) == 0, "FlowTable: rule id already bound by a shared rule set");
    }
  }
  // RuleTable's one sort lands every rule where sequential installs would
  // have put it (rule_before is a strict total order over unique ids); the
  // counters follow their rules by id.
  authority_size_ += rules.size() - before;
  *b.owned = RuleTable(std::move(rules));
  b.counters.resize(b.owned->size());
  for (std::size_t i = 0; i < b.counters.size(); ++i) {
    b.counters[i] = counters[at.at(b.owned->at(i).id)];
  }
  return accepted;
}

bool FlowTable::remove_owned(RuleId id) {
  const auto at = find_bound(id);
  if (!at.has_value() || bindings_[at->binding].owned == nullptr) return false;
  Binding& b = bindings_[at->binding];
  retire(b.owned->at(at->position), b.counters[at->position]);
  b.counters.erase(b.counters.begin() + static_cast<std::ptrdiff_t>(at->position));
  b.owned->remove(id);
  --authority_size_;
  return true;
}

}  // namespace difane
