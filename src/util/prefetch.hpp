#pragma once

// Portable software-prefetch wrapper. FlowTable's LRU eviction uses it to
// start fetching the next victim while the caller installs. On compilers
// without __builtin_prefetch this compiles to nothing — prefetch is a pure
// hint and must never change semantics.

namespace difane::util {

#if defined(__GNUC__) || defined(__clang__)

// Hint that `p` will be read soon, keeping it in all cache levels.
inline void prefetch_read(const void* p) { __builtin_prefetch(p, 0, 3); }

#else

inline void prefetch_read(const void*) {}

#endif

// Cache-line granularity assumed by the range helper. Every mainstream
// target this builds on (x86-64, aarch64) uses 64-byte lines; a wrong guess
// costs at most redundant or missing hints, never correctness.
inline constexpr unsigned kCacheLineBytes = 64;

// Prefetch an object that may span multiple cache lines: one hint per cache
// line over [p, p + bytes). FlowEntry is ~3 lines.
inline void prefetch_read_range(const void* p, unsigned bytes) {
  const char* c = static_cast<const char*>(p);
  for (unsigned off = 0; off < bytes; off += kCacheLineBytes) {
    prefetch_read(c + off);
  }
}

}  // namespace difane::util
