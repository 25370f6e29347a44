// Process-wide pooled block allocator for leasable workspace arenas.
//
// The workspace arena (util/workspace.hpp) sizes every lane ONCE and the
// hot loop never allocates — but an arena that owned its full-footprint
// slabs for the simulation's whole lifetime would be exactly wrong for a
// campaign server time-slicing many queued runs under a bounded memory
// budget. This pool makes arena storage *leasable*:
//
//   * Memory is carved into fixed-size, 64-byte-aligned BLOCKS inside
//     large SEGMENTS (mmap'd plain pages). A per-segment free-line bitmap
//     (one bit per block, gclib-style) tracks occupancy; a lease is a
//     contiguous run of blocks found first-fit in the maps.
//   * Leases recycle across owners: a suspended simulation releases its
//     blocks and a resuming one (the same or any other) reacquires
//     possibly different blocks. Released regions are 0xAB-poisoned in
//     debug builds, same discipline as the workspace lanes.
//   * A per-thread block cache parks released runs so concurrent lane
//     setup (campaign workers building/resuming simulations in parallel)
//     reacquires without touching the pool mutex; cached blocks stay
//     marked used in the bitmaps and return to them on flush.
//   * Telemetry per gclib's hole counting: blocks leased/cached/total,
//     high-water marks, interior fragmentation holes, lease/release
//     counts, cache hits and cumulative lease latency — surfaced through
//     counters.hpp (counters::pool_totals) and the step-timing report.
//
// Segments are anonymous mmap mappings of ordinary pages, falling back to
// std::aligned_alloc where mmap is unavailable or fails. Segments do not
// ask for huge pages: on the 32x49x16 benchmark those raised peak RSS by
// ~10% over plain pages (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/aligned.hpp"

namespace pcf {

struct block_pool_config {
  /// Fixed block size; every lease is a contiguous run of whole blocks.
  /// Must be a positive multiple of kAlignment.
  std::size_t block_bytes = 64 * 1024;
  /// Blocks per segment (one mmap). A lease larger than a whole segment
  /// gets a dedicated segment sized for it.
  std::size_t segment_blocks = 64;
  /// Per-thread cache capacity in blocks; 0 disables the caches.
  std::size_t thread_cache_blocks = 256;
};

class block_pool {
 public:
  /// A contiguous run of blocks checked out of the pool. Value-semantic
  /// handle; releasing it (or destroying the pool) invalidates the data
  /// pointer. A default-constructed lease is empty (zero-byte acquires
  /// return one).
  class lease {
   public:
    lease() = default;
    [[nodiscard]] unsigned char* data() const { return data_; }
    /// Capacity: the requested size rounded up to whole blocks.
    [[nodiscard]] std::size_t bytes() const { return bytes_; }
    [[nodiscard]] std::size_t blocks() const { return count_; }
    [[nodiscard]] explicit operator bool() const { return data_ != nullptr; }

   private:
    friend class block_pool;
    unsigned char* data_ = nullptr;
    std::size_t bytes_ = 0;
    std::uint32_t seg_ = 0;
    std::uint32_t first_ = 0;
    std::uint32_t count_ = 0;
  };

  struct stats_t {
    std::uint64_t leases = 0;      // acquire() calls that returned blocks
    std::uint64_t releases = 0;
    std::uint64_t cache_hits = 0;  // acquires served by a thread cache
    /// Blocks returned to the bitmaps by the thread-exit hook: a worker
    /// that dies with runs parked in its per-thread cache flushes them
    /// back automatically, so a campaign's retired workers never strand
    /// pool capacity until someone calls flush_thread_caches() by hand.
    std::uint64_t exit_flushed_blocks = 0;
    std::size_t blocks_leased = 0; // currently checked out
    std::size_t blocks_cached = 0; // parked in thread caches
    std::size_t blocks_total = 0;  // backed by live segments
    std::size_t blocks_peak = 0;   // high-water of leased + cached
    /// Interior fragmentation: maximal free runs that end at a used
    /// block (a trailing free run can still grow rightward and is not a
    /// hole). Computed on demand from the bitmaps.
    std::size_t holes = 0;
    std::size_t segments = 0;
    /// Per-thread cache slots in existence: at most the peak number of
    /// threads caching at once, since an exited thread's slot is reused.
    std::size_t cache_slots = 0;
    std::uint64_t lease_ns = 0;  // cumulative wall time in acquire()
  };

  explicit block_pool(const block_pool_config& cfg = {});
  ~block_pool();
  block_pool(const block_pool&) = delete;
  block_pool& operator=(const block_pool&) = delete;

  /// Check out a contiguous run of blocks covering at least `min_bytes`
  /// (rounded up to whole blocks; 64-byte aligned). min_bytes == 0
  /// returns an empty lease. Grows a new segment when no free run fits.
  [[nodiscard]] lease acquire(std::size_t min_bytes);

  /// Return a lease's blocks (to the calling thread's cache when it has
  /// room, else to the segment bitmaps). Poisons the run with 0xAB in
  /// debug builds. The lease becomes empty; releasing an empty lease is
  /// a no-op.
  void release(lease& l);

  /// Return every thread-cached run to the segment bitmaps (tests,
  /// trim() precision, shutdown).
  void flush_thread_caches();

  /// Unmap segments that are entirely free (flushes caches first so
  /// parked runs don't pin their segments).
  void trim();

  [[nodiscard]] stats_t stats() const;
  [[nodiscard]] const block_pool_config& config() const { return cfg_; }

  /// The process-wide pool every simulation's field_workspace leases from.
  static block_pool& global();

 private:
  struct impl;
  impl* p_;
  block_pool_config cfg_;
};

}  // namespace pcf
