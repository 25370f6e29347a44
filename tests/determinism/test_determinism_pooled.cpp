// Pooled-workspace axis of the determinism matrix: lanes that lease their
// slabs from the process-wide block pool must be an *addressing* change
// only. A pooled run reproduces the owned trace bit-for-bit, a run that
// suspends (releasing every block) and resumes (onto possibly different
// blocks) before each step reproduces the straight run, interleaved
// simulations recycling each other's blocks stay independent, and a
// checkpoint restores into a suspended simulation through the implicit
// re-lease path. The `determinism-pooled` CMake preset additionally runs
// the whole suite with PCF_DETERMINISM_POOLED=1, which pools every
// configuration of the matrix and cycles suspend/resume inside
// record_trace itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "util/block_pool.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::block_pool;
using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::fingerprint;
using pcf::determinism::read_trace_csv;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

channel_config pooled_config() {
  auto cfg = quickstart_config();
  cfg.pooled_workspace = true;
  return cfg;
}

channel_config owned_config() {
  auto cfg = quickstart_config();
  cfg.pooled_workspace = false;
  return cfg;
}

constexpr int kSteps = 12;

TEST(DeterminismPooled, PooledTraceMatchesOwnedTrace) {
  trace owned, pooled;
  run_world(1, [&](communicator& world) {
    channel_dns dns(owned_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    owned = record_trace(dns, kSteps);
  });
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    pooled = record_trace(dns, kSteps);
  });
  const auto divs = compare(owned, pooled);
  EXPECT_TRUE(divs.empty())
      << "pool-leased lanes changed the physics:\n" << describe(divs);
}

TEST(DeterminismPooled, SuspendResumeCyclesMatchStraightRun) {
  trace straight, cycled;
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    straight = record_trace(dns, kSteps);
  });
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    cycled.steps.push_back(fingerprint(dns));
    for (int s = 0; s < kSteps; ++s) {
      // Release every leased block, park a squatter on the freed space so
      // the resumed lanes land on *different* blocks, then step.
      dns.suspend();
      EXPECT_TRUE(dns.suspended());
      auto squatter = block_pool::global().acquire(1);
      dns.resume();
      block_pool::global().release(squatter);
      dns.step();
      cycled.steps.push_back(fingerprint(dns));
    }
  });
  const auto divs = compare(straight, cycled);
  EXPECT_TRUE(divs.empty())
      << "suspend/release/re-lease/resume perturbed the state:\n"
      << describe(divs);
}

// The committed golden trace holds through pooled lanes AND a full
// release/re-lease cycle before every one of the 25 steps, and a
// checkpoint saved from the suspended end state restores that state.
TEST(DeterminismPooled, CycledPooledRunMatchesCommittedGolden) {
  if (PCF_UNDER_TSAN) GTEST_SKIP() << "golden artifacts excluded from the "
                                      "sanitizer matrix (runtime bound)";
  const std::string ckpt = scratch_path("ckpt");
  constexpr int kGoldenSteps = 25;
  trace t;
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    t.steps.push_back(fingerprint(dns));
    for (int s = 0; s < kGoldenSteps; ++s) {
      dns.suspend();
      dns.resume();
      dns.step();
      t.steps.push_back(fingerprint(dns));
    }
    // Save from the suspended state: save_checkpoint reads only owned
    // evolved state and must not need (or re-lease) the workspace.
    dns.suspend();
    dns.save_checkpoint(ckpt);
    EXPECT_TRUE(dns.suspended());
    channel_dns restored(pooled_config(), world);
    restored.load_checkpoint(ckpt);
    EXPECT_EQ(fingerprint(restored), t.steps.back())
        << "checkpoint saved while suspended does not restore the state";
  });
  std::remove(ckpt.c_str());
  const trace golden = read_trace_csv(
      std::string(PCF_SOURCE_DIR) +
      "/tests/determinism/golden_trace_quickstart.csv");
  const auto divs = compare(golden, t);
  EXPECT_TRUE(divs.empty())
      << "pooled+cycled trace diverged from the committed golden trace:\n"
      << describe(divs);
}

// Several simulations sharing the global pool, suspending and resuming in
// an interleaved round-robin so each one's released blocks are recycled
// into its neighbours' leases: every trace still matches its own straight
// reference, and with at most one simulation resumed at a time the pool
// never holds more than one simulation's workspace plus caches.
TEST(DeterminismPooled, InterleavedSimulationsRecycleBlocksIndependently) {
  constexpr int kSims = 3;
  constexpr int kRounds = 6;
  trace reference;
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    reference = record_trace(dns, kRounds);
  });

  const auto leased0 = block_pool::global().stats().blocks_leased;
  run_world(1, [&](communicator& world) {
    std::vector<trace> traces(kSims);
    std::vector<channel_dns*> sims;
    for (int i = 0; i < kSims; ++i)
      sims.push_back(new channel_dns(pooled_config(), world));
    std::uint64_t one_resumed = 0;
    for (int i = 0; i < kSims; ++i) {
      sims[i]->initialize(kQuickstartPerturbation, kQuickstartSeed);
      traces[i].steps.push_back(fingerprint(*sims[i]));
      sims[i]->suspend();
      one_resumed = std::max(
          one_resumed, block_pool::global().stats().blocks_leased - leased0);
    }
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kSims; ++i) {
        sims[i]->resume();
        sims[i]->step();
        traces[i].steps.push_back(fingerprint(*sims[i]));
        sims[i]->suspend();
      }
      // With every simulation suspended, no workspace blocks stay leased
      // beyond what the suite held before this test.
      EXPECT_EQ(block_pool::global().stats().blocks_leased, leased0);
    }
    // One-at-a-time interleaving: the peak lease over the whole sweep is
    // one simulation's footprint, not kSims of them.
    std::uint64_t sweep_peak = 0;
    for (int i = 0; i < kSims; ++i) {
      sims[i]->resume();
      sweep_peak = std::max(
          sweep_peak, block_pool::global().stats().blocks_leased - leased0);
      sims[i]->suspend();
    }
    EXPECT_LE(sweep_peak, one_resumed);
    for (int i = 0; i < kSims; ++i) {
      const auto divs = compare(reference, traces[i]);
      EXPECT_TRUE(divs.empty())
          << "interleaved sim " << i << " diverged:\n" << describe(divs);
    }
    for (auto* s : sims) delete s;
  });
}

// Restoring a checkpoint into a *suspended* simulation exercises the
// implicit-resume path inside load_checkpoint: the restored run continues
// bit-identically with the uninterrupted one.
TEST(DeterminismPooled, CheckpointRestoresIntoSuspendedSimulation) {
  const std::string ckpt = scratch_path("ckpt");
  constexpr int kHead = 5, kTail = 7;
  trace straight_tail, restored_tail;
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    for (int s = 0; s < kHead; ++s) dns.step();
    dns.save_checkpoint(ckpt);
    straight_tail = record_trace(dns, kTail);
  });
  run_world(1, [&](communicator& world) {
    channel_dns dns(pooled_config(), world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    dns.suspend();
    ASSERT_TRUE(dns.suspended());
    dns.load_checkpoint(ckpt);  // must implicitly resume and re-lease
    EXPECT_FALSE(dns.suspended());
    restored_tail = record_trace(dns, kTail);
  });
  std::remove(ckpt.c_str());
  const auto divs = compare(straight_tail, restored_tail);
  EXPECT_TRUE(divs.empty())
      << "restore-into-suspended continuation diverged:\n" << describe(divs);
}

}  // namespace
