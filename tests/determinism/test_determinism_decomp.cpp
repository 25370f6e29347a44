// Decomposition axis of the determinism matrix: the slab (1 x R), 2.5D
// hybrid (c x R/c) and tuner-measured splits must reproduce the
// single-rank quickstart trace bit-for-bit (4..64 virtual ranks here).
// The comm-avoiding splits elide exchanges by forwarding packed buffers —
// this suite is the proof the forwarding never changes bits, and that a
// tuner-chosen split (cold measure or cache replay) doesn't either.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "determinism_test_util.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

/// Run the quickstart campaign on `nranks` virtual ranks (a measured split
/// has cfg.pa = cfg.pb = 0, so the rank count is explicit here) and return
/// the per-step fingerprint trace.
trace run_config(const channel_config& cfg, int nranks) {
  trace t;
  run_world(nranks, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = record_trace(dns, kSteps);
    if (world.rank() == 0) t = local;
  });
  return t;
}

trace& baseline() {
  static trace t = run_config(quickstart_config(), 1);
  return t;
}

void expect_matches_baseline(const channel_config& cfg, int nranks,
                             const std::string& tag) {
  const trace t = run_config(cfg, nranks);
  const auto divs = compare(baseline(), t);
  EXPECT_TRUE(divs.empty()) << "decomposition '" << tag
                            << "' diverged from the baseline trace:\n"
                            << describe(divs);
}

// Slab (1 x R): every rank keeps a nonempty slab up to min(ny, nz) = 16
// ranks on the quickstart grid; with and without a pipelined exchange.
TEST(DeterminismDecomp, SlabMatchesBaselineAcrossRankCounts) {
  for (int ranks : {4, 16}) {
    for (int depth : {1, 2}) {
      channel_config cfg = quickstart_config();
      cfg.pa = 1;
      cfg.pb = ranks;
      cfg.pipeline_depth = depth;
      const std::string tag =
          "slab_r" + std::to_string(ranks) + "_d" + std::to_string(depth);
      expect_matches_baseline(cfg, ranks, tag);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// 2.5D hybrid (c x R/c): the smallest replica count c = 2 at 4 and 16
// ranks, plus a larger c.
TEST(DeterminismDecomp, HybridMatchesBaselineAcrossRankCounts) {
  struct Case {
    int ranks, c;
  };
  for (const Case tc : {Case{4, 2}, Case{16, 2}, Case{16, 4}}) {
    channel_config cfg = quickstart_config();
    cfg.pa = tc.c;
    cfg.pb = tc.ranks / tc.c;
    const std::string tag =
        "hyb_r" + std::to_string(tc.ranks) + "_c" + std::to_string(tc.c);
    expect_matches_baseline(cfg, tc.ranks, tag);
    if (::testing::Test::HasFailure()) return;
  }
}

// The 64-rank ceiling of the matrix: past the slab limit (1 x 64 would
// leave ranks empty slabs) the pencil 8 x 8 and the hybrid 4 x 16 must
// still reproduce the one trace.
TEST(DeterminismDecomp, SixtyFourRanksHybridAndPencilAgree) {
  channel_config hyb = quickstart_config();
  hyb.pa = 4;  // 4 x 16: every replica's slab spans the full rows
  hyb.pb = 16;
  expect_matches_baseline(hyb, 64, "hyb_r64_c4");

  channel_config pen = quickstart_config();
  pen.pa = 8;
  pen.pb = 8;
  expect_matches_baseline(pen, 64, "pencil_r64_8x8");
}

// Tuned: whatever split the measured tuner picks — and its cache replay
// on reconstruction — must reproduce the same bits.
TEST(DeterminismDecomp, TunedColdAndCacheReplayMatchBaseline) {
  const std::string cache = scratch_path("tuned_cache");
  std::remove(cache.c_str());
  channel_config cfg = quickstart_config();
  cfg.pa = 0;
  cfg.pb = 0;
  cfg.autotune = true;
  cfg.tuning_cache = cache;
  expect_matches_baseline(cfg, 4, "tuned_cold");
  expect_matches_baseline(cfg, 4, "tuned_replay");
  std::remove(cache.c_str());
}

}  // namespace
