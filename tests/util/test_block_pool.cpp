// Block-pool invariants: block-granular leases (aligned, rounded up,
// contiguous), recycling across owners through the bitmaps and the
// per-thread caches, segment growth (including dedicated oversize
// segments), gclib-style hole counting, debug poisoning, trim, and the
// telemetry counters the step-timing report surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "util/aligned.hpp"
#include "util/block_pool.hpp"
#include "util/counters.hpp"
#include "util/rng.hpp"

namespace {

using pcf::block_pool;
using pcf::block_pool_config;

block_pool_config small_cfg() {
  block_pool_config c;
  c.block_bytes = 4096;
  c.segment_blocks = 8;
  c.thread_cache_blocks = 0;  // exact bitmap accounting by default
  return c;
}

TEST(BlockPool, LeasesAreAlignedAndRoundedUpToBlocks) {
  block_pool pool(small_cfg());
  auto l = pool.acquire(1);
  ASSERT_TRUE(l);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(l.data()) % pcf::kAlignment, 0u);
  EXPECT_EQ(l.bytes(), 4096u);  // rounded up to one whole block
  EXPECT_EQ(l.blocks(), 1u);
  auto l2 = pool.acquire(4096 + 1);
  EXPECT_EQ(l2.bytes(), 2 * 4096u);
  EXPECT_EQ(l2.blocks(), 2u);
  pool.release(l);
  pool.release(l2);
  EXPECT_FALSE(l);  // release empties the handle
  EXPECT_EQ(pool.stats().blocks_leased, 0u);
}

TEST(BlockPool, ZeroByteAcquireIsEmptyAndReleaseOfEmptyIsNoop) {
  block_pool pool(small_cfg());
  auto l = pool.acquire(0);
  EXPECT_FALSE(l);
  EXPECT_EQ(l.bytes(), 0u);
  pool.release(l);  // must not crash or count
  EXPECT_EQ(pool.stats().releases, 0u);
}

TEST(BlockPool, MultiBlockLeaseIsContiguousAndWritable) {
  block_pool pool(small_cfg());
  auto l = pool.acquire(3 * 4096);
  ASSERT_TRUE(l);
  EXPECT_EQ(l.blocks(), 3u);
  // Write every byte: a lease spanning non-adjacent blocks would fault or
  // corrupt the pool's own bookkeeping here.
  std::fill_n(l.data(), l.bytes(), static_cast<unsigned char>(0x5c));
  EXPECT_EQ(l.data()[0], 0x5c);
  EXPECT_EQ(l.data()[l.bytes() - 1], 0x5c);
  pool.release(l);
}

TEST(BlockPool, BlocksRecycleAcrossOwners) {
  block_pool pool(small_cfg());
  auto a = pool.acquire(2 * 4096);
  unsigned char* where = a.data();
  pool.release(a);
  // The "next owner" (same size) lands on the recycled run: with one
  // segment and first-fit, the freed blocks are the lowest free run.
  auto b = pool.acquire(2 * 4096);
  EXPECT_EQ(b.data(), where);
  pool.release(b);
  const auto st = pool.stats();
  EXPECT_EQ(st.leases, 2u);
  EXPECT_EQ(st.releases, 2u);
  EXPECT_EQ(st.blocks_leased, 0u);
  EXPECT_EQ(st.blocks_total, 8u);  // still the one original segment
}

TEST(BlockPool, ThreadCacheServesRepeatLeases) {
  auto cfg = small_cfg();
  cfg.thread_cache_blocks = 16;
  block_pool pool(cfg);
  auto a = pool.acquire(2 * 4096);
  unsigned char* where = a.data();
  pool.release(a);  // parks in this thread's cache
  auto st = pool.stats();
  EXPECT_EQ(st.blocks_cached, 2u);
  auto b = pool.acquire(2 * 4096);  // cache hit, no pool mutex
  EXPECT_EQ(b.data(), where);
  EXPECT_GE(pool.stats().cache_hits, 1u);
  pool.release(b);
  pool.flush_thread_caches();
  st = pool.stats();
  EXPECT_EQ(st.blocks_cached, 0u);
  EXPECT_EQ(st.blocks_leased, 0u);
}

TEST(BlockPool, SegmentGrowthAndDedicatedOversizeSegments) {
  block_pool pool(small_cfg());  // 8 blocks per segment
  std::vector<block_pool::lease> held;
  for (int i = 0; i < 12; ++i) held.push_back(pool.acquire(4096));
  auto st = pool.stats();
  EXPECT_EQ(st.blocks_leased, 12u);
  EXPECT_GE(st.segments, 2u);  // grew past the first segment
  // A lease larger than a whole segment gets its own dedicated segment.
  auto big = pool.acquire(20 * 4096);
  ASSERT_TRUE(big);
  EXPECT_EQ(big.blocks(), 20u);
  std::fill_n(big.data(), big.bytes(), static_cast<unsigned char>(1));
  st = pool.stats();
  EXPECT_EQ(st.blocks_leased, 32u);
  pool.release(big);
  for (auto& l : held) pool.release(l);
  EXPECT_EQ(pool.stats().blocks_leased, 0u);
  // trim unmaps the now fully-free segments.
  pool.trim();
  EXPECT_EQ(pool.stats().blocks_total, 0u);
  EXPECT_EQ(pool.stats().segments, 0u);
}

TEST(BlockPool, HoleCountingPerGclib) {
  block_pool pool(small_cfg());  // caches off: releases hit the bitmaps
  auto a = pool.acquire(4096);
  auto b = pool.acquire(4096);
  auto c = pool.acquire(4096);
  EXPECT_EQ(pool.stats().holes, 0u);
  // Freeing the middle block leaves a free run that ends at a used block:
  // one hole. The trailing free tail of the segment can still grow
  // rightward and must NOT count.
  pool.release(b);
  EXPECT_EQ(pool.stats().holes, 1u);
  // Freeing the head merges nothing (a and b are separated by nothing now;
  // blocks 0-1 free, block 2 used): still exactly one hole.
  pool.release(a);
  EXPECT_EQ(pool.stats().holes, 1u);
  pool.release(c);
  EXPECT_EQ(pool.stats().holes, 0u);
}

TEST(BlockPool, PeakTracksLeasedPlusCachedHighWater) {
  block_pool pool(small_cfg());
  auto a = pool.acquire(3 * 4096);
  auto b = pool.acquire(2 * 4096);
  EXPECT_GE(pool.stats().blocks_peak, 5u);
  pool.release(a);
  pool.release(b);
  EXPECT_GE(pool.stats().blocks_peak, 5u);  // high-water survives release
  EXPECT_EQ(pool.stats().blocks_leased, 0u);
}

TEST(BlockPool, LeaseLatencyAccumulates) {
  block_pool pool(small_cfg());
  auto l = pool.acquire(4096);
  pool.release(l);
  EXPECT_GT(pool.stats().lease_ns, 0u);
  EXPECT_EQ(pool.stats().leases, 1u);
}

#ifndef NDEBUG
TEST(BlockPool, ReleasedRunsArePoisoned) {
  block_pool pool(small_cfg());  // caches off: release poisons in place
  auto l = pool.acquire(2 * 4096);
  std::fill_n(l.data(), l.bytes(), static_cast<unsigned char>(0));
  unsigned char* p = l.data();
  const std::size_t bytes = l.bytes();
  pool.release(l);
  // The segment is still mapped; the run must read back as 0xAB poison so
  // a stale owner sees garbage, not its old data.
  for (std::size_t i = 0; i < bytes; i += 997) EXPECT_EQ(p[i], 0xAB);
}
#endif

TEST(BlockPool, ConcurrentAcquireReleaseStress) {
  auto cfg = small_cfg();
  cfg.thread_cache_blocks = 8;
  block_pool pool(cfg);
  constexpr int kThreads = 4;
  constexpr int kIters = 400;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&pool, t] {
      pcf::rng r(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        const auto blocks =
            1 + static_cast<std::size_t>(r.uniform(0.0, 3.0));
        auto l = pool.acquire(blocks * 4096);
        ASSERT_TRUE(l);
        // Touch both ends: overlapping leases would race here under TSan
        // and corrupt the pattern check single-threaded.
        l.data()[0] = static_cast<unsigned char>(t);
        l.data()[l.bytes() - 1] = static_cast<unsigned char>(t);
        EXPECT_EQ(l.data()[0], static_cast<unsigned char>(t));
        pool.release(l);
      }
    });
  }
  for (auto& th : ts) th.join();
  pool.flush_thread_caches();
  const auto st = pool.stats();
  EXPECT_EQ(st.blocks_leased, 0u);
  EXPECT_EQ(st.blocks_cached, 0u);
  EXPECT_EQ(st.leases, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(st.releases, st.leases);
  pool.trim();
  EXPECT_EQ(pool.stats().blocks_total, 0u);
}

TEST(BlockPool, ThreadExitFlushesCachedRunsBackToPool) {
  auto cfg = small_cfg();
  cfg.thread_cache_blocks = 16;
  block_pool pool(cfg);
  std::thread worker([&pool] {
    auto l = pool.acquire(3 * 4096);
    ASSERT_TRUE(l);
    pool.release(l);  // parks in THIS thread's cache
    EXPECT_EQ(pool.stats().blocks_cached, 3u);
  });
  worker.join();
  // The exit hook must have returned the parked run to the bitmaps: no
  // stranded blocks, and the capacity is reusable without a manual
  // flush_thread_caches().
  const auto st = pool.stats();
  EXPECT_EQ(st.blocks_cached, 0u);
  EXPECT_EQ(st.blocks_leased, 0u);
  EXPECT_EQ(st.exit_flushed_blocks, 3u);
  pool.trim();
  EXPECT_EQ(pool.stats().blocks_total, 0u);
}

// Regression: every thread used to get a fresh, never-freed cache slot,
// so running each simulation on a new thread grew the malloc heap by one
// pinned allocation per thread. Threads that come and go one at a time
// must share one slot.
TEST(BlockPool, ExitedThreadsHandTheirCacheSlotOn) {
  auto cfg = small_cfg();
  cfg.thread_cache_blocks = 16;
  block_pool pool(cfg);
  for (int i = 0; i < 20; ++i) {
    std::thread worker([&pool] {
      auto l = pool.acquire(4096);
      pool.release(l);  // cached on this thread's slot
    });
    worker.join();
  }
  const auto st = pool.stats();
  EXPECT_EQ(st.cache_slots, 1u);
  EXPECT_EQ(st.exit_flushed_blocks, 20u);
  EXPECT_EQ(st.blocks_cached, 0u);
}

TEST(BlockPool, ThreadExitAfterPoolDestructionIsHarmless) {
  std::promise<void> parked, pool_gone;
  std::thread worker;
  {
    auto cfg = small_cfg();
    cfg.thread_cache_blocks = 16;
    block_pool pool(cfg);
    worker = std::thread([&pool, &parked, &pool_gone] {
      auto l = pool.acquire(4096);
      pool.release(l);  // cached on this thread
      parked.set_value();
      pool_gone.get_future().wait();  // outlive the pool
    });
    parked.get_future().wait();
  }  // pool destroyed with the worker's cache still populated
  pool_gone.set_value();
  worker.join();  // exit hook finds no live pool for the id: a no-op
}

// Satellite of the campaign work: many "simulations" time-slicing one
// pool, each cycling suspend (release every lane) / resume (reacquire,
// possibly different blocks) while neighbours do the same — the
// lease/release interleaving the campaign scheduler produces. Must be
// TSan-clean and leave zero stranded blocks.
TEST(BlockPool, InterleavedSuspendResumeCyclesAcrossManyThreads) {
  auto cfg = small_cfg();
  cfg.segment_blocks = 32;
  cfg.thread_cache_blocks = 8;
  block_pool pool(cfg);
  constexpr int kThreads = 8;  // >= 8 concurrent tenants
  constexpr int kCycles = 150;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&pool, t] {
      pcf::rng r(static_cast<std::uint64_t>(t) * 7919 + 1);
      // One tenant's workspace: a few lanes of different sizes, resumed
      // and suspended as a unit like field_workspace::reacquire/release.
      constexpr int kLanes = 3;
      block_pool::lease lanes[kLanes];
      for (int c = 0; c < kCycles; ++c) {
        for (int l = 0; l < kLanes; ++l) {
          const auto blocks =
              1 + static_cast<std::size_t>(r.uniform(0.0, 2.0)) +
              static_cast<std::size_t>(l);
          lanes[l] = pool.acquire(blocks * 4096);
          ASSERT_TRUE(lanes[l]);
          lanes[l].data()[0] = static_cast<unsigned char>(t);
          lanes[l].data()[lanes[l].bytes() - 1] =
              static_cast<unsigned char>(t);
        }
        for (int l = 0; l < kLanes; ++l) {
          EXPECT_EQ(lanes[l].data()[0], static_cast<unsigned char>(t));
          EXPECT_EQ(lanes[l].data()[lanes[l].bytes() - 1],
                    static_cast<unsigned char>(t));
        }
        // Suspend in LIFO order, as the workspace arena does.
        for (int l = kLanes - 1; l >= 0; --l) pool.release(lanes[l]);
        if (t == 0 && c % 32 == 31) pool.flush_thread_caches();
      }
    });
  }
  for (auto& th : ts) th.join();
  // Worker-exit hooks + bitmap accounting: nothing leased, nothing
  // stranded in caches, all capacity reclaimable.
  const auto st = pool.stats();
  EXPECT_EQ(st.blocks_leased, 0u);
  EXPECT_EQ(st.blocks_cached, 0u);
  EXPECT_EQ(st.leases, static_cast<std::uint64_t>(kThreads) * kCycles * 3);
  EXPECT_EQ(st.releases, st.leases);
  pool.trim();
  EXPECT_EQ(pool.stats().blocks_total, 0u);
}

TEST(BlockPool, CountersPoolTotalsIncludeLiveAndRetiredPools) {
  const auto before = pcf::counters::pool_totals();
  {
    block_pool pool(small_cfg());
    auto l = pool.acquire(4096);
    pool.release(l);
    const auto live = pcf::counters::pool_totals();
    EXPECT_GE(live.leases, before.leases + 1);
    EXPECT_GE(live.segments, before.segments + 1);
  }
  // The pool is gone; its counters must survive in the retirement
  // accumulator (minus point-in-time gauges like segments).
  const auto after = pcf::counters::pool_totals();
  EXPECT_GE(after.leases, before.leases + 1);
  EXPECT_GE(after.releases, before.releases + 1);
}

}  // namespace
