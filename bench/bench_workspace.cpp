// Workspace arena benchmark: the block pool every workspace lane leases
// from, emitting BENCH_workspace.json so later changes have a perf
// trajectory to compare against.
//
// Three sections:
//   lease     — block_pool acquire/release latency by lease size, with the
//               per-thread cache on (hit path, no pool mutex) and off
//               (bitmap first-fit path), plus the pool's own lease_ns
//               telemetry for cross-checking.
//   cycle     — suspend()/resume() round-trip latency: every leased block
//               released back to the pool and the four workspace holders
//               re-bound onto (possibly different) blocks.
//   interleave— N small-grid simulations sharing the global pool,
//               suspended whenever not stepping, swept through M
//               suspend/resume cycles. With at most one resumed at a
//               time the pool's block high-water must stay far below
//               N x one simulation's footprint — the multi-tenant memory
//               win the pool exists for.
//
// Usage: bench_workspace [--fast]
//   --fast: few sims / cycles — the ctest `perf`-label smoke variant.
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "util/block_pool.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::block_pool;
using pcf::block_pool_config;
using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config quickstart_config() {
  channel_config cfg;
  cfg.nx = 16;
  cfg.nz = 16;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 1e-4;
  return cfg;
}

// --- lease latency ----------------------------------------------------------

struct lease_point {
  std::size_t bytes = 0;
  double cached_ns = 0.0;    // acquire+release, thread cache on (hit path)
  double uncached_ns = 0.0;  // acquire+release, bitmap path
  double pool_lease_ns = 0.0;  // the pool's own lease_ns / leases telemetry
};

lease_point measure_lease(std::size_t bytes) {
  lease_point out;
  out.bytes = bytes;
  block_pool_config cfg;
  {
    cfg.thread_cache_blocks = 64;
    block_pool pool(cfg);
    auto warm = pool.acquire(bytes);  // maps the segment once
    pool.release(warm);
    out.cached_ns = 1e9 * pcf::bench::time_call([&] {
      auto l = pool.acquire(bytes);
      l.data()[0] = 1;  // keep the lease from being optimized away
      pool.release(l);
    });
  }
  {
    cfg.thread_cache_blocks = 0;
    block_pool pool(cfg);
    auto warm = pool.acquire(bytes);
    pool.release(warm);
    out.uncached_ns = 1e9 * pcf::bench::time_call([&] {
      auto l = pool.acquire(bytes);
      l.data()[0] = 1;
      pool.release(l);
    });
    const auto st = pool.stats();
    if (st.leases > 0)
      out.pool_lease_ns =
          static_cast<double>(st.lease_ns) / static_cast<double>(st.leases);
  }
  return out;
}

// --- suspend/resume round trip ---------------------------------------------

struct cycle_result {
  double suspend_us = 0.0;
  double resume_us = 0.0;
  std::uint64_t cache_hits = 0;  // pool hits over the measured cycles
};

cycle_result measure_cycle(int cycles) {
  std::mutex m;
  cycle_result out;
  run_world(1, [&](communicator& world) {
    channel_dns dns(quickstart_config(), world);
    dns.initialize(0.1, 1);
    dns.step();  // populate solver caches before the first release
    dns.suspend();
    dns.resume();  // one full round trip before timing
    const auto hits0 = block_pool::global().stats().cache_hits;
    double sus = 0.0, res = 0.0;
    for (int c = 0; c < cycles; ++c) {
      pcf::wall_timer t1;
      dns.suspend();
      sus += t1.seconds();
      pcf::wall_timer t2;
      dns.resume();
      res += t2.seconds();
    }
    std::lock_guard<std::mutex> lk(m);
    out.suspend_us = 1e6 * sus / cycles;
    out.resume_us = 1e6 * res / cycles;
    out.cache_hits = block_pool::global().stats().cache_hits - hits0;
  });
  return out;
}

// --- interleaved multi-simulation sweep ------------------------------------

struct interleave_result {
  int sims = 0;
  int cycles = 0;
  std::uint64_t footprint_blocks = 0;  // one simulation's workspace lease
  std::uint64_t peak_blocks = 0;       // pool high-water over the sweep
  double ratio = 0.0;                  // peak / footprint (bound: < sims)
};

interleave_result measure_interleave(int sims, int cycles) {
  std::mutex m;
  interleave_result out;
  out.sims = sims;
  out.cycles = cycles;
  run_world(1, [&](communicator& world) {
    auto& pool = block_pool::global();
    const auto leased0 = pool.stats().blocks_leased;
    std::vector<channel_dns*> dns;
    for (int i = 0; i < sims; ++i) {
      dns.push_back(new channel_dns(quickstart_config(), world));
      dns.back()->initialize(0.1, 1 + static_cast<std::uint64_t>(i));
      dns.back()->step();  // realistic: solver caches exist before parking
      if (i == 0)
        out.footprint_blocks = pool.stats().blocks_leased - leased0;
      dns.back()->suspend();  // construct-then-suspend: blocks recycle
    }
    const auto peak0 = pool.stats().blocks_peak;
    for (int c = 0; c < cycles; ++c) {
      for (int i = 0; i < sims; ++i) {
        dns[i]->resume();
        if (c % 8 == 0) dns[i]->step();  // periodic real work while resumed
        dns[i]->suspend();
      }
    }
    std::lock_guard<std::mutex> lk(m);
    // The high-water over the sweep itself; construction transients (all
    // sims live before the first suspend on a pristine pool) are peak0.
    out.peak_blocks = std::max(pool.stats().blocks_peak, peak0) -
                      (leased0 > 0 ? leased0 : 0);
    if (out.footprint_blocks > 0)
      out.ratio = static_cast<double>(out.peak_blocks) /
                  static_cast<double>(out.footprint_blocks);
    for (auto* d : dns) delete d;
  });
  return out;
}

// --- JSON -------------------------------------------------------------------

void write_json(const char* path, const std::vector<lease_point>& lease,
                const cycle_result& cyc, int cyc_cycles,
                const interleave_result& il) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror(path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"workspace\",\n");
  std::fprintf(f, "  \"grid\": [16, 33, 16],\n");
  std::fprintf(f, "  \"lease_latency\": [\n");
  for (std::size_t i = 0; i < lease.size(); ++i) {
    const auto& p = lease[i];
    std::fprintf(f,
                 "    {\"bytes\": %zu, \"cached_ns\": %.1f, "
                 "\"uncached_ns\": %.1f, \"pool_lease_ns\": %.1f}%s\n",
                 p.bytes, p.cached_ns, p.uncached_ns, p.pool_lease_ns,
                 i + 1 < lease.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"suspend_resume\": {\n");
  std::fprintf(f, "    \"cycles\": %d,\n", cyc_cycles);
  std::fprintf(f, "    \"suspend_us\": %.2f,\n", cyc.suspend_us);
  std::fprintf(f, "    \"resume_us\": %.2f,\n", cyc.resume_us);
  std::fprintf(f, "    \"pool_cache_hits\": %llu\n",
               static_cast<unsigned long long>(cyc.cache_hits));
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"interleave\": {\n");
  std::fprintf(f, "    \"sims\": %d,\n", il.sims);
  std::fprintf(f, "    \"cycles\": %d,\n", il.cycles);
  std::fprintf(f, "    \"footprint_blocks\": %llu,\n",
               static_cast<unsigned long long>(il.footprint_blocks));
  std::fprintf(f, "    \"peak_blocks\": %llu,\n",
               static_cast<unsigned long long>(il.peak_blocks));
  std::fprintf(f, "    \"peak_over_footprint\": %.3f,\n", il.ratio);
  std::fprintf(f, "    \"bound\": %d,\n", il.sims);
  std::fprintf(f, "    \"within_bound\": %s\n",
               il.ratio < static_cast<double>(il.sims) ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  const int cyc_cycles = fast ? 16 : 64;
  const int il_sims = fast ? 3 : 8;
  const int il_cycles = fast ? 8 : 64;

  pcf::bench::print_header(
      "BENCH workspace",
      "block-pool leases: latency, suspend/resume sweep");

  std::vector<lease_point> lease;
  for (std::size_t bytes :
       {std::size_t{1} << 16, std::size_t{1} << 20, std::size_t{1} << 23})
    lease.push_back(measure_lease(bytes));
  for (const auto& p : lease)
    std::printf(
        "lease %8zu B: cached %7.1f ns  uncached %7.1f ns  (pool telemetry "
        "%.1f ns)\n",
        p.bytes, p.cached_ns, p.uncached_ns, p.pool_lease_ns);

  const cycle_result cyc = measure_cycle(cyc_cycles);
  std::printf(
      "suspend/resume (%d cycles): suspend %.1f us, resume %.1f us, %llu "
      "pool cache hits\n",
      cyc_cycles, cyc.suspend_us, cyc.resume_us,
      static_cast<unsigned long long>(cyc.cache_hits));

  const interleave_result il = measure_interleave(il_sims, il_cycles);
  std::printf(
      "interleave (%d sims x %d cycles): footprint %llu blocks, peak %llu "
      "blocks, ratio %.3f (bound < %d)\n",
      il.sims, il.cycles,
      static_cast<unsigned long long>(il.footprint_blocks),
      static_cast<unsigned long long>(il.peak_blocks), il.ratio, il.sims);

  write_json("BENCH_workspace.json", lease, cyc, cyc_cycles, il);
  std::printf("wrote BENCH_workspace.json\n");
  return 0;
}
