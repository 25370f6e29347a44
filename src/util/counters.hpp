// Flop/byte instrumentation.
//
// The paper characterizes its kernels with IBM's HPM hardware counters
// (Table 2). We have no hardware counters here, so kernels account their
// floating-point operations and memory traffic explicitly; the netsim
// machine models turn these counts into predicted GFlops / DDR-traffic
// figures for the same kernels.
#pragma once

#include <atomic>
#include <cstdint>

namespace pcf {

/// Aggregated operation counts for one kernel invocation (or accumulated
/// over many). Thread-local accumulation keeps hot loops contention-free;
/// call `counters::drain()` to fold into totals.
struct op_counts {
  std::uint64_t flops = 0;        // floating point add/mul/fma(=2)
  std::uint64_t bytes_read = 0;   // bytes loaded from arrays
  std::uint64_t bytes_written = 0;

  op_counts& operator+=(const op_counts& o) {
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
  }
};

namespace counters {

/// Thread-local counter bucket. Fields are relaxed atomics: the hot-path
/// add is an uncontended RMW on the owning thread (one per kernel call,
/// not per element), while drain() may harvest a bucket from another
/// thread mid-kernel — the campaign steps tenants on shared pool workers,
/// so one tenant's phase timer drains while a neighbour's kernels count.
struct local_bucket {
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
};

local_bucket& local();

/// Fold every thread's local bucket into the global total and zero them.
/// Safe concurrently with hot-path adds on other threads (exchange-based
/// harvest: every added count lands in the total exactly once).
void drain();

/// Global accumulated counts (after drain()).
op_counts total();

/// Zero the global total and all thread-local buckets seen so far.
void reset();

inline void add_flops(std::uint64_t n) {
  local().flops.fetch_add(n, std::memory_order_relaxed);
}
inline void add_read(std::uint64_t n) {
  local().bytes_read.fetch_add(n, std::memory_order_relaxed);
}
inline void add_written(std::uint64_t n) {
  local().bytes_written.fetch_add(n, std::memory_order_relaxed);
}

/// Block-pool telemetry (util/block_pool.hpp), accumulated process-wide
/// across every pool — what the step-timing report and the workspace
/// bench surface. Monotone counters (leases, releases, cache_hits,
/// lease_ns) include pools that have since been destroyed; occupancy
/// gauges (blocks_*) cover live pools only.
struct pool_counts {
  std::uint64_t leases = 0;
  std::uint64_t releases = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t exit_flushed_blocks = 0;  // flushed by the thread-exit hook
  std::uint64_t blocks_leased = 0;
  std::uint64_t blocks_cached = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_peak = 0;
  std::uint64_t holes = 0;
  std::uint64_t segments = 0;
  std::uint64_t lease_ns = 0;
};

/// Snapshot of the process-wide pool telemetry (defined in block_pool.cpp).
pool_counts pool_totals();

}  // namespace counters
}  // namespace pcf
