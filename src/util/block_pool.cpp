#include "util/block_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/counters.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pcf {

namespace {

// Process-wide accumulation across pools for counters::pool_totals():
// live pools are summed on demand; a destroyed pool folds its monotone
// counters into this retirement bucket so totals never go backwards.
struct pool_registry {
  std::mutex mu;
  std::vector<const block_pool*> live;
  std::uint64_t retired_leases = 0, retired_releases = 0,
                retired_cache_hits = 0, retired_lease_ns = 0,
                retired_exit_flushed = 0;
};

pool_registry& registry() {
  static pool_registry r;
  return r;
}

#ifndef NDEBUG
inline constexpr unsigned char kPoison = 0xAB;
#endif

}  // namespace

struct block_pool::impl {
  struct segment {
    unsigned char* base = nullptr;
    std::size_t map_bytes = 0;  // bytes handed to mmap/aligned_alloc
    std::size_t nblocks = 0;
    std::vector<std::uint64_t> free_bits;  // 1 = free
    std::size_t free_count = 0;
    bool mapped = false;  // mmap'd (else std::aligned_alloc)
  };

  /// One cached run parked by release() on the releasing thread's slot.
  struct cached_run {
    std::uint32_t seg, first, count;
  };

  /// Per-thread cache slot. Owned by the pool (so flush and destruction
  /// see every run, even after the owning thread exits); the tiny mutex
  /// is uncontended on the owner's fast path and only fought over by
  /// flush_thread_caches()/stats(). An exited thread's slot is handed to
  /// the next new thread, so a process that runs each simulation on a
  /// fresh thread keeps a bounded set of slots instead of pinning one
  /// more small allocation per thread in the malloc heap (measured: ~66
  /// KiB of heap growth per quickstart-sized sub-world).
  struct cache_slot {
    std::mutex mu;
    std::vector<cached_run> runs;
    std::size_t blocks = 0;
    bool claimed = false;  // by a live thread; guarded by the pool mutex
  };

  block_pool_config cfg;
  std::uint64_t id;  // unique forever; keys the thread-local slot lookup

  mutable std::mutex mu;                // guards segments + slot creation
  std::vector<segment> segments;
  std::deque<cache_slot> slots;         // deque: stable addresses

  // Contention-light telemetry (atomics, not the pool mutex).
  std::atomic<std::uint64_t> leases{0}, releases{0}, cache_hits{0};
  std::atomic<std::uint64_t> exit_flushed{0};
  std::atomic<std::uint64_t> lease_ns{0};
  std::atomic<std::size_t> blocks_leased{0}, blocks_cached{0};
  std::atomic<std::size_t> blocks_peak{0};

  void bump_peak() {
    const std::size_t now = blocks_leased.load(std::memory_order_relaxed) +
                            blocks_cached.load(std::memory_order_relaxed);
    std::size_t prev = blocks_peak.load(std::memory_order_relaxed);
    while (prev < now &&
           !blocks_peak.compare_exchange_weak(prev, now,
                                              std::memory_order_relaxed)) {
    }
  }

  // --- segment backing -----------------------------------------------------

  segment make_segment(std::size_t nblocks) {
    segment s;
    s.nblocks = nblocks;
    const std::size_t bytes = nblocks * cfg.block_bytes;
#if defined(__linux__)
    void* m = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m != MAP_FAILED) {
      s.base = static_cast<unsigned char*>(m);
      s.mapped = true;
    }
#endif
    if (s.base == nullptr) {
      void* p = std::aligned_alloc(kAlignment, bytes);
      if (p == nullptr) throw std::bad_alloc();
      s.base = static_cast<unsigned char*>(p);
    }
    s.map_bytes = bytes;
    s.free_bits.assign((nblocks + 63) / 64, ~std::uint64_t{0});
    // Clear the padding bits past nblocks so run scans never step off the
    // end of the segment.
    if (nblocks % 64 != 0)
      s.free_bits.back() = (std::uint64_t{1} << (nblocks % 64)) - 1;
    s.free_count = nblocks;
    return s;
  }

  static void free_segment(segment& s) {
    if (s.base == nullptr) return;
#if defined(__linux__)
    if (s.mapped) {
      ::munmap(s.base, s.map_bytes);
      s.base = nullptr;
      return;
    }
#endif
    std::free(s.base);
    s.base = nullptr;
  }

  // --- bitmap ops (callers hold `mu`) --------------------------------------

  static bool bit(const segment& s, std::size_t i) {
    return (s.free_bits[i / 64] >> (i % 64)) & 1u;
  }

  static void mark(segment& s, std::size_t first, std::size_t count,
                   bool free) {
    for (std::size_t i = first; i < first + count; ++i) {
      const std::uint64_t m = std::uint64_t{1} << (i % 64);
      if (free)
        s.free_bits[i / 64] |= m;
      else
        s.free_bits[i / 64] &= ~m;
    }
    if (free)
      s.free_count += count;
    else
      s.free_count -= count;
  }

  /// First-fit contiguous free run of `count` blocks; nblocks if none.
  static std::size_t find_run(const segment& s, std::size_t count) {
    if (s.free_count < count) return s.nblocks;
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.nblocks; ++i) {
      // Word-skip: a fully used word can't extend a run.
      if (run == 0 && i % 64 == 0 && s.free_bits[i / 64] == 0) {
        i += 63;
        continue;
      }
      run = bit(s, i) ? run + 1 : 0;
      if (run == count) return i + 1 - count;
    }
    return s.nblocks;
  }

  // --- thread cache --------------------------------------------------------

  struct tls_entry {
    std::uint64_t pool_id;
    cache_slot* slot;
  };

  /// Worker-exit hook: when a thread dies, every slot it ever parked runs
  /// on is flushed back to the owning pool's bitmaps (if that pool is
  /// still alive — looked up by id under the registry mutex, so a pool
  /// mid-destruction can't be revived). Without this, blocks cached by a
  /// retired campaign worker strand until someone calls
  /// flush_thread_caches() by hand.
  struct tls_registry {
    std::vector<tls_entry> entries;
    ~tls_registry();
  };

  static tls_registry& thread_slots() {
    thread_local tls_registry reg;
    return reg;
  }

  /// Return an exiting thread's parked runs to the segment bitmaps and
  /// free its slot for the next new thread. Lock order matches
  /// flush_caches(): pool mutex, then the slot.
  void flush_slot(cache_slot& s) {
    std::lock_guard<std::mutex> lk(mu);
    std::lock_guard<std::mutex> sl(s.mu);
    for (const auto& r : s.runs) mark(segments[r.seg], r.first, r.count, true);
    blocks_cached.fetch_sub(s.blocks, std::memory_order_relaxed);
    exit_flushed.fetch_add(s.blocks, std::memory_order_relaxed);
    s.blocks = 0;
    s.runs.clear();
    s.claimed = false;
  }

  cache_slot& slot_for_thread() {
    auto& reg = thread_slots().entries;
    for (const auto& e : reg)
      if (e.pool_id == id) return *e.slot;
    std::lock_guard<std::mutex> lk(mu);
    cache_slot* s = nullptr;
    for (auto& c : slots)
      if (!c.claimed) {
        s = &c;
        break;
      }
    if (s == nullptr) s = &slots.emplace_back();
    s->claimed = true;
    reg.push_back({id, s});
    return *s;
  }

  /// Exact-or-split fit from the calling thread's cache. Returns true and
  /// fills seg/first on a hit.
  bool cache_take(std::size_t count, std::uint32_t& seg,
                  std::uint32_t& first) {
    if (cfg.thread_cache_blocks == 0) return false;
    cache_slot& s = slot_for_thread();
    std::lock_guard<std::mutex> lk(s.mu);
    std::size_t best = s.runs.size();
    for (std::size_t i = 0; i < s.runs.size(); ++i) {
      if (s.runs[i].count < count) continue;
      if (best == s.runs.size() || s.runs[i].count < s.runs[best].count)
        best = i;
      if (s.runs[i].count == count) break;  // exact fit wins
    }
    if (best == s.runs.size()) return false;
    cached_run& r = s.runs[best];
    seg = r.seg;
    first = r.first;
    if (r.count == count) {
      s.runs.erase(s.runs.begin() + static_cast<std::ptrdiff_t>(best));
    } else {
      r.first += static_cast<std::uint32_t>(count);
      r.count -= static_cast<std::uint32_t>(count);
    }
    s.blocks -= count;
    blocks_cached.fetch_sub(count, std::memory_order_relaxed);
    return true;
  }

  /// Park a released run on the calling thread's cache if it has room.
  bool cache_put(std::uint32_t seg, std::uint32_t first,
                 std::uint32_t count) {
    if (cfg.thread_cache_blocks == 0) return false;
    cache_slot& s = slot_for_thread();
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.blocks + count > cfg.thread_cache_blocks) return false;
    s.runs.push_back({seg, first, count});
    s.blocks += count;
    blocks_cached.fetch_add(count, std::memory_order_relaxed);
    return true;
  }

  void flush_caches() {
    // Lock order: pool mutex, then each slot — matching slot creation.
    std::lock_guard<std::mutex> lk(mu);
    for (auto& s : slots) {
      std::lock_guard<std::mutex> sl(s.mu);
      for (const auto& r : s.runs) mark(segments[r.seg], r.first, r.count, true);
      blocks_cached.fetch_sub(s.blocks, std::memory_order_relaxed);
      s.blocks = 0;
      s.runs.clear();
    }
  }
};

block_pool::impl::tls_registry::~tls_registry() {
  if (entries.empty()) return;
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const tls_entry& e : entries) {
    for (const block_pool* p : r.live) {
      if (p->p_->id == e.pool_id) {
        p->p_->flush_slot(*e.slot);
        break;
      }
    }
  }
}

block_pool::block_pool(const block_pool_config& cfg) : cfg_(cfg) {
  PCF_REQUIRE(cfg_.block_bytes > 0 && cfg_.block_bytes % kAlignment == 0,
              "block_pool: block_bytes must be a positive multiple of the "
              "cache-line alignment");
  PCF_REQUIRE(cfg_.segment_blocks > 0,
              "block_pool: segment_blocks must be positive");
  static std::atomic<std::uint64_t> next_id{1};
  p_ = new impl;
  p_->cfg = cfg_;
  p_->id = next_id.fetch_add(1);
  std::lock_guard<std::mutex> lk(registry().mu);
  registry().live.push_back(this);
}

block_pool::~block_pool() {
  {
    auto& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), this),
                 r.live.end());
    r.retired_leases += p_->leases.load();
    r.retired_releases += p_->releases.load();
    r.retired_cache_hits += p_->cache_hits.load();
    r.retired_lease_ns += p_->lease_ns.load();
    r.retired_exit_flushed += p_->exit_flushed.load();
  }
  for (auto& s : p_->segments) impl::free_segment(s);
  delete p_;
}

block_pool::lease block_pool::acquire(std::size_t min_bytes) {
  if (min_bytes == 0) return {};
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t count =
      (min_bytes + cfg_.block_bytes - 1) / cfg_.block_bytes;
  PCF_REQUIRE(count <= ~std::uint32_t{0},
              "block_pool: lease exceeds the 32-bit block-run limit");

  lease l;
  l.count_ = static_cast<std::uint32_t>(count);
  l.bytes_ = count * cfg_.block_bytes;

  if (p_->cache_take(count, l.seg_, l.first_)) {
    p_->cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> lk(p_->mu);
    std::size_t seg = p_->segments.size(), first = 0;
    for (std::size_t i = 0; i < p_->segments.size(); ++i) {
      first = impl::find_run(p_->segments[i], count);
      if (first < p_->segments[i].nblocks) {
        seg = i;
        break;
      }
    }
    if (seg == p_->segments.size()) {
      // No run fits: grow a segment (dedicated when the lease itself is
      // bigger than the configured segment size).
      p_->segments.push_back(
          p_->make_segment(std::max(cfg_.segment_blocks, count)));
      first = 0;
    }
    impl::mark(p_->segments[seg], first, count, false);
    l.seg_ = static_cast<std::uint32_t>(seg);
    l.first_ = static_cast<std::uint32_t>(first);
  }

  {
    std::lock_guard<std::mutex> lk(p_->mu);  // segment vector may reallocate
    l.data_ = p_->segments[l.seg_].base +
              static_cast<std::size_t>(l.first_) * cfg_.block_bytes;
  }
  p_->leases.fetch_add(1, std::memory_order_relaxed);
  p_->blocks_leased.fetch_add(count, std::memory_order_relaxed);
  p_->bump_peak();
  p_->lease_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  return l;
}

void block_pool::release(lease& l) {
  if (!l) return;
#ifndef NDEBUG
  // Poison released blocks: a lane holding a pointer across a release /
  // re-lease cycle reads 0xAB garbage, not plausible stale data.
  std::memset(l.data_, kPoison, l.bytes_);
#endif
  const std::size_t count = l.count_;
  if (!p_->cache_put(l.seg_, l.first_, l.count_)) {
    std::lock_guard<std::mutex> lk(p_->mu);
    impl::mark(p_->segments[l.seg_], l.first_, count, true);
  }
  p_->releases.fetch_add(1, std::memory_order_relaxed);
  p_->blocks_leased.fetch_sub(count, std::memory_order_relaxed);
  l = {};
}

void block_pool::flush_thread_caches() { p_->flush_caches(); }

void block_pool::trim() {
  p_->flush_caches();
  std::lock_guard<std::mutex> lk(p_->mu);
  // Only trailing segments can go: leases and cached runs index segments
  // by position, so interior erasure would invalidate live handles.
  while (!p_->segments.empty() &&
         p_->segments.back().free_count == p_->segments.back().nblocks) {
    impl::free_segment(p_->segments.back());
    p_->segments.pop_back();
  }
}

block_pool::stats_t block_pool::stats() const {
  stats_t s;
  s.leases = p_->leases.load();
  s.releases = p_->releases.load();
  s.cache_hits = p_->cache_hits.load();
  s.exit_flushed_blocks = p_->exit_flushed.load();
  s.blocks_leased = p_->blocks_leased.load();
  s.blocks_cached = p_->blocks_cached.load();
  s.blocks_peak = p_->blocks_peak.load();
  s.lease_ns = p_->lease_ns.load();
  std::lock_guard<std::mutex> lk(p_->mu);
  s.segments = p_->segments.size();
  s.cache_slots = p_->slots.size();
  for (const auto& seg : p_->segments) {
    s.blocks_total += seg.nblocks;
    // Hole scan: free runs that end at a used block.
    std::size_t run = 0;
    for (std::size_t i = 0; i < seg.nblocks; ++i) {
      if (impl::bit(seg, i)) {
        ++run;
      } else {
        if (run > 0) ++s.holes;
        run = 0;
      }
    }
  }
  return s;
}

block_pool& block_pool::global() {
  static block_pool pool;
  return pool;
}

namespace counters {

pool_counts pool_totals() {
  pool_counts t;
  auto& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  t.leases = r.retired_leases;
  t.releases = r.retired_releases;
  t.cache_hits = r.retired_cache_hits;
  t.exit_flushed_blocks = r.retired_exit_flushed;
  t.lease_ns = r.retired_lease_ns;
  for (const block_pool* p : r.live) {
    const block_pool::stats_t s = p->stats();
    t.leases += s.leases;
    t.releases += s.releases;
    t.cache_hits += s.cache_hits;
    t.exit_flushed_blocks += s.exit_flushed_blocks;
    t.lease_ns += s.lease_ns;
    t.blocks_leased += s.blocks_leased;
    t.blocks_cached += s.blocks_cached;
    t.blocks_total += s.blocks_total;
    t.blocks_peak += s.blocks_peak;
    t.holes += s.holes;
    t.segments += s.segments;
  }
  return t;
}

}  // namespace counters
}  // namespace pcf
