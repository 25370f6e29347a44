// Workspace arena invariants: alignment, LIFO scope release, peak
// tracking, fixed capacity (overflow throws instead of growing), and the
// lease/release/reacquire cycle (the simulation's suspend path). Every
// lane leases from a private small-block pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/block_pool.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace {

using pcf::block_pool;
using pcf::block_pool_config;
using pcf::field_workspace;
using pcf::workspace_lane;

constexpr std::size_t kBlock = 4096;

block_pool_config small_cfg() {
  block_pool_config c;
  c.block_bytes = kBlock;
  c.segment_blocks = 8;
  c.thread_cache_blocks = 0;
  return c;
}

TEST(Workspace, BlocksAre64ByteAlignedAndDisjoint) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, kBlock);
  double* a = lane.alloc<double>(10);
  double* b = lane.alloc<double>(10);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % pcf::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % pcf::kAlignment, 0u);
  EXPECT_GE(b, a + 10);  // no overlap
}

TEST(Workspace, ScopeReleasesLifo) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, kBlock);
  double* permanent = lane.alloc<double>(8);
  const std::size_t base = lane.used_bytes();
  double* first = nullptr;
  {
    workspace_lane::scope outer(lane);
    first = lane.alloc<double>(8);
    {
      workspace_lane::scope inner(lane);
      (void)lane.alloc<double>(8);
      EXPECT_GT(lane.used_bytes(), base);
    }
    // Inner scope released; the next checkout reuses its space.
    double* again = lane.alloc<double>(8);
    EXPECT_GT(again, first);
    (void)again;
  }
  EXPECT_EQ(lane.used_bytes(), base);
  // A fresh scope starts where the permanents end.
  workspace_lane::scope scope(lane);
  double* reused = lane.alloc<double>(8);
  EXPECT_EQ(reused, first);
  EXPECT_GT(reused, permanent);
}

TEST(Workspace, PeakTracksHighWaterMark) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, kBlock);
  {
    workspace_lane::scope scope(lane);
    (void)lane.alloc<double>(64);
  }
  EXPECT_EQ(lane.used_bytes(), 0u);
  EXPECT_GE(lane.peak_bytes(), 64 * sizeof(double));
}

TEST(Workspace, OverflowThrowsInsteadOfGrowing) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, 256);  // one whole block
  EXPECT_THROW((void)lane.alloc<double>(kBlock), pcf::precondition_error);
  // Lane capacity is fixed once blocks are checked out.
  (void)lane.alloc<double>(4);
  EXPECT_THROW(lane.lease_bytes(pool, 2 * kBlock), pcf::precondition_error);
}

// Regression: the capacity check used to compute `offset + count *
// sizeof(T)`, which wraps for a count near SIZE_MAX and passed the
// comparison vacuously — handing out a pointer with ~0 usable bytes. The
// overflow-safe check must reject every wrapping count.
TEST(Workspace, OverflowCheckRejectsWrappingByteCount) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, kBlock);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 8 + 2;
  // huge * sizeof(double) wraps to a small number; the naive check would
  // accept it.
  EXPECT_THROW((void)lane.alloc<double>(huge), pcf::precondition_error);
  EXPECT_THROW(
      (void)lane.alloc<double>(std::numeric_limits<std::size_t>::max()),
      pcf::precondition_error);
  // The lane must still be usable and empty after the rejections.
  EXPECT_EQ(lane.used_bytes(), 0u);
  double* ok = lane.alloc<double>(8);
  EXPECT_NE(ok, nullptr);
}

TEST(Workspace, MovedFromLaneIsEmptyAndReusable) {
  block_pool pool(small_cfg());
  workspace_lane a;
  a.lease_bytes(pool, 2 * kBlock);
  double* p = a.alloc<double>(4);
  p[0] = 42.0;
  workspace_lane b(std::move(a));
  // The slab (and its contents) moved; the source is empty but alive.
  EXPECT_EQ(b.used_bytes(), 4 * sizeof(double));
  EXPECT_EQ(b.capacity_bytes(), 2 * kBlock);
  EXPECT_EQ(a.capacity_bytes(), 0u);
  EXPECT_EQ(a.used_bytes(), 0u);
  // Re-leasing the moved-from lane brings it back into service.
  a.lease_bytes(pool, kBlock);
  double* q = a.alloc<double>(4);
  q[0] = 7.0;
  EXPECT_EQ(p[0], 42.0);  // b's storage is untouched by a's new slab
  // Move-assign over a live lane releases its old slab first.
  a = std::move(b);
  EXPECT_EQ(a.capacity_bytes(), 2 * kBlock);
  EXPECT_EQ(a.used_bytes(), 4 * sizeof(double));
  EXPECT_EQ(pool.stats().blocks_leased, 2u);
}

TEST(Workspace, PooledMoveTransfersLease) {
  block_pool pool(small_cfg());
  workspace_lane a;
  a.lease_bytes(pool, 100);
  (void)a.alloc<double>(4);
  workspace_lane b(std::move(a));
  EXPECT_EQ(b.capacity_bytes(), kBlock);
  EXPECT_EQ(a.capacity_bytes(), 0u);
  EXPECT_EQ(pool.stats().blocks_leased, 1u);  // exactly one live lease
  b.release_slab();
  EXPECT_EQ(pool.stats().blocks_leased, 0u);
}

TEST(Workspace, PooledReacquireReproducesConstructionOffsets) {
  block_pool pool(small_cfg());
  workspace_lane lane;
  lane.lease_bytes(pool, 2 * 4096);
  EXPECT_GE(lane.capacity_bytes(), 2 * 4096u);  // whole-block round-up

  // Permanent checkouts at construction: remember their lane offsets.
  unsigned char* base = reinterpret_cast<unsigned char*>(lane.alloc<char>(1));
  double* perm1 = lane.alloc<double>(10);
  double* perm2 = lane.alloc<double>(3);
  const std::ptrdiff_t off1 =
      reinterpret_cast<unsigned char*>(perm1) - base;
  const std::ptrdiff_t off2 =
      reinterpret_cast<unsigned char*>(perm2) - base;
  const std::size_t used = lane.used_bytes();

  lane.release_slab();
  EXPECT_TRUE(lane.released());
  EXPECT_EQ(lane.used_bytes(), 0u);
  EXPECT_EQ(pool.stats().blocks_leased, 0u);
  // Released lanes are idempotently releasable.
  lane.release_slab();

  // Park a squatter on the freed blocks so the reacquired lease lands
  // somewhere else — the offsets must reproduce anyway.
  auto squatter = pool.acquire(4096);

  lane.reacquire_slab();
  EXPECT_FALSE(lane.released());
  unsigned char* base2 = reinterpret_cast<unsigned char*>(lane.alloc<char>(1));
  double* again1 = lane.alloc<double>(10);
  double* again2 = lane.alloc<double>(3);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(again1) - base2, off1);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(again2) - base2, off2);
  EXPECT_EQ(lane.used_bytes(), used);
  // peak survives the cycle (it sizes future lanes).
  EXPECT_GE(lane.peak_bytes(), used);
  pool.release(squatter);
}

TEST(Workspace, PooledFieldWorkspaceReleaseReacquireCycle) {
  block_pool pool(small_cfg());
  field_workspace::sizes s;
  s.shared_bytes = 4096;
  s.thread_bytes = 4096;
  s.transform_bytes = 8192;
  s.num_threads = 2;
  field_workspace ws(s, pool);
  EXPECT_FALSE(ws.released());
  EXPECT_GT(pool.stats().blocks_leased, 0u);

  double* perm = ws.shared().alloc<double>(8);
  std::fill_n(perm, 8, 1.0);
  {
    workspace_lane::scope sc(ws.shared());
    (void)ws.shared().alloc<double>(16);
  }
  const auto usage_before = ws.usage();

  ws.release();
  EXPECT_TRUE(ws.released());
  EXPECT_EQ(pool.stats().blocks_leased, 0u);

  ws.reacquire();
  EXPECT_FALSE(ws.released());
  double* perm_again = ws.shared().alloc<double>(8);
  EXPECT_NE(perm_again, nullptr);
  // usage() (capacity and peak) survives the cycle.
  const auto usage_after = ws.usage();
  ASSERT_EQ(usage_before.size(), usage_after.size());
  for (std::size_t i = 0; i < usage_before.size(); ++i) {
    EXPECT_EQ(usage_before[i].capacity_bytes, usage_after[i].capacity_bytes);
    EXPECT_LE(usage_before[i].peak_bytes, usage_after[i].peak_bytes);
  }
}

// Emulates the staged-pipeline checkout pattern with a stage that throws
// mid-step (the CFL blow-up abort path): one shared-lane scope plus one
// scope per pool thread, the thread scopes unwinding on their own worker
// before thread_pool rethrows on the caller. Every lane must come back to
// its permanent watermark with no scopes open, permanents intact, and the
// next "step" must run clean — a leaked scope here would hit the 0xAB
// poison or the overflow check on the post-recovery step.
TEST(Workspace, ThrowingStageUnwindsScopesAndLanesStayUsable) {
  field_workspace::sizes s;
  s.shared_bytes = 4096;
  s.thread_bytes = 4096;
  s.transform_bytes = 0;
  s.num_threads = 2;
  block_pool blocks(small_cfg());
  field_workspace ws(s, blocks);
  pcf::thread_pool pool(2);

  double* perm = ws.shared().alloc<double>(16);  // permanent checkout
  std::fill_n(perm, 16, 1.5);
  const std::size_t base = ws.shared().used_bytes();

  auto stage = [&](bool fail) {
    workspace_lane::scope shared_scope(ws.shared());
    double* acc = ws.shared().alloc<double>(32);
    std::fill_n(acc, 32, 0.0);
    pool.run_per_thread([&](int tid) {
      auto& lane = ws.thread(static_cast<std::size_t>(tid));
      workspace_lane::scope thread_scope(lane);
      double* line = lane.alloc<double>(64);
      std::fill_n(line, 64, 2.0);
      if (fail) throw std::runtime_error("stage blew up");
    });
  };

  EXPECT_THROW(stage(true), std::runtime_error);
  EXPECT_EQ(ws.shared().used_bytes(), base);
  EXPECT_EQ(ws.shared().live_scopes(), 0);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(ws.thread(t).used_bytes(), 0u);
    EXPECT_EQ(ws.thread(t).live_scopes(), 0);
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(perm[i], 1.5);
  EXPECT_NO_THROW(stage(false));
  EXPECT_EQ(ws.shared().used_bytes(), base);
}

TEST(Workspace, FieldWorkspaceExposesAllLanes) {
  field_workspace::sizes s;
  s.shared_bytes = kBlock;
  s.thread_bytes = 512;  // rounds up to one whole block
  s.transform_bytes = 2 * kBlock;
  s.num_threads = 3;
  block_pool pool(small_cfg());
  field_workspace ws(s, pool);
  EXPECT_EQ(ws.num_thread_lanes(), 3u);
  EXPECT_EQ(ws.shared().capacity_bytes(), kBlock);
  EXPECT_EQ(ws.transform().capacity_bytes(), 2 * kBlock);
  for (std::size_t t = 0; t < 3; ++t)
    EXPECT_EQ(ws.thread(t).capacity_bytes(), kBlock);
  EXPECT_EQ(ws.total_bytes(), 6 * kBlock);
  EXPECT_EQ(pool.stats().blocks_leased, 6u);
}

}  // namespace
