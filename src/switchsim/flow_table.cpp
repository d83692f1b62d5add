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
  for (const Band band : {Band::kAuthority, Band::kPartition}) {
    for (const auto slot : bands_[index(band)].order) {
      t = std::min(t, next_expiry(slab_[slot]));
    }
  }
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
  slots.reserve(bands_[index(Band::kCache)].by_id.size());
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
  BandState& bs = bands_[index(band)];
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
  ++gen_;
  BandState& bs = bands_[index(band)];
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
  ++gen_;
  BandState& bs = bands_[index(band)];
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
  if (entry.rule.action.type == ActionType::kEncap) return;
  if (entry.packets == 0 && entry.bytes == 0) return;
  auto& row = retired_[entry.rule.origin_or_self()];
  row.packets += entry.packets;
  row.bytes += entry.bytes;
}

void FlowTable::cascade_remove_dependents(std::vector<RuleId> removed_ids) {
  ++gen_;
  BandState& cache = bands_[index(Band::kCache)];
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
  ++gen_;
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
  ++gen_;
  BandState& bs = bands_[index(band)];
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
  ++gen_;
  BandState& bs = bands_[index(band)];
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
  ++gen_;
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
  for (const Band band : {Band::kAuthority, Band::kPartition}) {
    // Compact survivors in place.
    BandState& bs = bands_[index(band)];
    std::size_t kept = 0;
    for (const std::uint32_t slot : bs.order) {
      FlowEntry& e = slab_[slot];
      if (!e.expired(now)) {
        bs.order[kept++] = slot;
        watermark = std::min(watermark, next_expiry(e));
        continue;
      }
      retire(e);
      bs.by_id.erase(e.rule.id);
      release_slot(slot);
      ++total;
    }
    bs.order.resize(kept);
  }
  stats_.expirations += total;
  if (!expired_cache.empty()) cascade_remove_dependents(std::move(expired_cache));
  expiry_watermark_ = watermark;
  return total;
}

std::uint32_t FlowTable::exact_head(const BitVec& packet) const {
  if (exact_keys_ == 0) return kNilSlot;
  const BitVec key = packet & used_header_mask();
  return exact_buckets_[exact_bucket(key, exact_hash(key))].head;
}

const FlowEntry* FlowTable::find_live_match(const BitVec& packet, double now) const {
  return resolve_live_match(packet, now, exact_head(packet));
}

const FlowEntry* FlowTable::resolve_live_match(const BitVec& packet, double now,
                                               std::uint32_t head) const {
  // Cache band: the winner is the first live match in key order. The exact
  // chain (unordered, usually one entry) yields its key-minimal live match;
  // the key-ordered wildcard scan stops at its first live match or as soon
  // as it sorts after that exact candidate.
  const FlowEntry* win = nullptr;
  for (std::uint32_t s = head; s != kNilSlot; s = links_[s].exact_next) {
    const FlowEntry& e = slab_[s];
    if (live_match(e, packet, now) &&
        (win == nullptr || rule_before(e.rule, win->rule))) {
      win = &e;
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
  if (win != nullptr) return win;
  for (const Band band : {Band::kAuthority, Band::kPartition}) {
    for (const std::uint32_t s : bands_[index(band)].order) {
      const FlowEntry& e = slab_[s];
      if (live_match(e, packet, now)) return &e;
    }
  }
  return nullptr;
}

const FlowEntry* FlowTable::lookup(const BitVec& packet, double now, std::uint64_t bytes) {
  // Amortized sweep: the watermark lower-bounds every entry's expiry, so
  // skipping the sweep while now < watermark removes exactly nothing — the
  // table, stats, and cascades evolve byte-identically to an eager sweep.
  if (now >= expiry_watermark_) expire(now);
  return finish_lookup(const_cast<FlowEntry*>(find_live_match(packet, now)),
                       now, bytes);
}

const FlowEntry* FlowTable::finish_lookup(FlowEntry* entry, double now,
                                          std::uint64_t bytes) {
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
    const auto& by_id = bands_[index(Band::kCache)].by_id;
    for (const RuleId g : entry->guards) {
      const auto it = by_id.find(g);
      if (it == by_id.end()) continue;
      slab_[it->second].last_hit = now;
      lru_touch(it->second);
    }
  }
  if (entry->band == Band::kCache) {
    lru_touch(static_cast<std::uint32_t>(entry - slab_.data()));
  }
  return entry;
}

void FlowTable::lookup_prefetch(const BitVec* const* keys, std::size_t n,
                                BatchState& batch, bool prefetch) const {
  expects(n <= kMaxBatch, "lookup_prefetch: burst larger than kMaxBatch");
  batch.gen = gen_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t head = exact_head(*keys[i]);
    batch.heads[i] = head;
    // Fetch the whole entry (rule pattern + timeouts + counters span ~3
    // lines); the resolve pass reads all of it within a few hundred ns.
    // Depth > 1 keeps walking the duplicate chain: the resolve pass visits
    // exactly these nodes when the head turns out expired or superseded.
    if (prefetch) {
      std::uint32_t slot = head;
      for (std::uint32_t d = 0; d < prefetch_depth_ && slot != kNilSlot; ++d) {
        util::prefetch_read_range(&slab_[slot], sizeof(FlowEntry));
        slot = links_[slot].exact_next;
      }
    }
  }
}

const FlowEntry* FlowTable::lookup_prepared(const BitVec& packet, std::size_t i,
                                            const BatchState& batch, double now,
                                            std::uint64_t bytes) {
  if (now >= expiry_watermark_) expire(now);
  // A sweep (ours, just now, or any mutation since pass 1) moves the
  // generation forward; the memoized head may then dangle, so recompute it.
  const std::uint32_t head =
      batch.gen == gen_ ? batch.heads[i] : exact_head(packet);
  return finish_lookup(
      const_cast<FlowEntry*>(resolve_live_match(packet, now, head)), now,
      bytes);
}

std::size_t FlowTable::lookup_batch(const BitVec* const* keys,
                                    const double* nows,
                                    const std::uint64_t* bytes, std::size_t n,
                                    const FlowEntry** out, bool prefetch) {
  std::size_t hits = 0;
  for (std::size_t base = 0; base < n; base += kMaxBatch) {
    const std::size_t chunk = std::min(kMaxBatch, n - base);
    BatchState batch;
    lookup_prefetch(keys + base, chunk, batch, prefetch);
    for (std::size_t i = 0; i < chunk; ++i) {
      const FlowEntry* e =
          lookup_prepared(*keys[base + i], i, batch, nows[base + i],
                          bytes != nullptr ? bytes[base + i] : 1);
      out[base + i] = e;
      if (e != nullptr) ++hits;
    }
  }
  return hits;
}

bool FlowTable::hit(RuleId id, Band band, double now, std::uint64_t bytes) {
  BandState& bs = bands_[index(band)];
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
  return find_live_match(packet, now);
}

std::size_t FlowTable::total_size() const {
  std::size_t n = 0;
  for (const auto& bs : bands_) n += bs.by_id.size();
  return n;
}

const FlowEntry* FlowTable::find(RuleId id, Band band) const {
  const auto& bs = bands_[index(band)];
  const auto it = bs.by_id.find(id);
  return it == bs.by_id.end() ? nullptr : &slab_[it->second];
}

}  // namespace difane
