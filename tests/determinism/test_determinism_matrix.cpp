// Cross-configuration bit-identity: every data-movement axis — advance /
// FFT / reorder thread counts, transform batch width F, pipeline depth,
// the virtual-rank decomposition, and suspend/resume cycles that move the
// workspace onto different pool blocks — must produce ONE identical
// per-step CRC trace at the quickstart configuration (DESIGN.md,
// "Determinism contract"). A divergence fails with the step and state
// field where the first differing bit appeared.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "determinism_test_util.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::read_trace_csv;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

// Shortened trace under ThreadSanitizer (~10x step cost); the full-length
// trace is covered by the regular run of the same tests.
constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

/// Run the quickstart campaign under `cfg` on cfg.pa * cfg.pb virtual
/// ranks and return the per-step fingerprint trace (rank 0's copy; all
/// ranks compute the identical trace). `cycle` suspends and resumes the
/// simulation before every step.
trace run_config(const channel_config& cfg, bool cycle = false) {
  trace t;
  run_world(cfg.pa * cfg.pb, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = cycle ? record_cycled_trace(dns, kSteps)
                              : record_trace(dns, kSteps);
    if (world.rank() == 0) t = local;
  });
  return t;
}

trace& baseline() {
  static trace t = run_config(quickstart_config());
  return t;
}

void expect_matches_baseline(const channel_config& cfg,
                             const std::string& tag) {
  const trace t = run_config(cfg);
  const auto divs = compare(baseline(), t);
  EXPECT_TRUE(divs.empty()) << "config '" << tag
                            << "' diverged from the baseline trace:\n"
                            << describe(divs);
}

// The headline matrix: full cross of thread count {1, 2, 4} x
// pipeline_depth {1, 2} x batch width F {1, 3, 5} on one rank. 18 runs,
// one trace.
TEST(DeterminismMatrix, ThreadsDepthBatchCrossProduceOneTrace) {
  for (int threads : {1, 2, 4}) {
    for (int depth : {1, 2}) {
      for (int batch : {1, 3, 5}) {
        channel_config cfg = quickstart_config();
        cfg.advance_threads = threads;
        cfg.fft_threads = threads;
        cfg.reorder_threads = threads;
        cfg.pipeline_depth = depth;
        cfg.max_batch = batch;
        const std::string tag = "t" + std::to_string(threads) + "_d" +
                                std::to_string(depth) + "_f" +
                                std::to_string(batch);
        expect_matches_baseline(cfg, tag);
        if (::testing::Test::HasFailure()) return;  // first divergence only
      }
    }
  }
}

// Virtual-rank decompositions: the checkpoint-section fingerprint is
// decomposition-independent, so every pa x pb split must reproduce the
// single-rank trace — serial and pipelined exchange paths both. 9 x 1
// (pa > nx/2 = 8) and 1 x 17 (pb > nz = 16) leave some ranks an empty
// block, which is legal: split_valid only filters tuner candidates.
TEST(DeterminismMatrix, RankSplitsProduceOneTrace) {
  struct split {
    int pa, pb;
  };
  for (const split s :
       {split{2, 1}, split{1, 2}, split{2, 2}, split{9, 1}, split{1, 17}}) {
    for (int depth : {1, 2}) {
      channel_config cfg = quickstart_config();
      cfg.pa = s.pa;
      cfg.pb = s.pb;
      cfg.pipeline_depth = depth;
      const std::string tag = "p" + std::to_string(s.pa) + "x" +
                              std::to_string(s.pb) + "_d" +
                              std::to_string(depth);
      expect_matches_baseline(cfg, tag);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Regression for the F < pipeline_depth corner: a chunk narrower than the
// pipeline must clamp the group count instead of submitting empty
// exchange groups to the comm thread. F = 1 forces every chunk through
// the single-field path while comm_async is live, across ranks.
TEST(DeterminismMatrix, ClampWhenBatchNarrowerThanPipeline) {
  channel_config cfg = quickstart_config();
  cfg.max_batch = 1;
  cfg.pipeline_depth = 2;
  expect_matches_baseline(cfg, "f1_d2_serial");
  cfg.pa = 2;
  expect_matches_baseline(cfg, "f1_d2_p2x1");
}

// Suspend + resume before every step: each cycle hands every workspace
// slab back to the block pool and leases it again, possibly on different
// blocks. On a 2x2 split and on the 4-rank slab split 1x4 the cycled run
// must reproduce the committed quickstart trace (its first kSteps steps).
TEST(DeterminismMatrix, SuspendResumeEveryStepMatchesCommittedTrace) {
  trace golden = read_trace_csv(
      std::string(PCF_SOURCE_DIR) +
      "/tests/determinism/golden_trace_quickstart.csv");
  ASSERT_GT(golden.steps.size(), static_cast<std::size_t>(kSteps));
  golden.steps.resize(kSteps + 1);
  for (const int pa : {2, 1}) {
    channel_config cfg = quickstart_config();
    cfg.pa = pa;
    cfg.pb = 4 / pa;
    const auto divs = compare(golden, run_config(cfg, /*cycle=*/true));
    EXPECT_TRUE(divs.empty())
        << cfg.pa << "x" << cfg.pb
        << " run with suspend/resume before every step diverged from the "
           "committed trace:\n"
        << describe(divs);
  }
}

// F = 2 with depth 2 makes the *trailing* chunk of the five-field batch a
// single field (5 = 2 + 2 + 1): that chunk runs as a one-group pipeline on
// the caller and must stay bit-identical.
TEST(DeterminismMatrix, TrailingShortChunkStaysBitIdentical) {
  channel_config cfg = quickstart_config();
  cfg.max_batch = 2;
  cfg.pipeline_depth = 2;
  expect_matches_baseline(cfg, "f2_d2");
}

}  // namespace
