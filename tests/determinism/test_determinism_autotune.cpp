// Autotuner bit-identity: whatever the tuner decides — any batch width F,
// any pipeline depth, measured cold or replayed from the on-disk cache —
// the physics trace must be the ONE quickstart trace. The tuner is allowed
// to change timings only, never bits; this is the contract that lets a
// cache file move between runs (and machines) without touching results.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/stages/stage_context.hpp"
#include "determinism_test_util.hpp"
#include "pencil/autotune.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::dns_tune_key;
using pcf::determinism::compare;
using pcf::determinism::describe;
using pcf::determinism::record_trace;
using pcf::determinism::trace;
using pcf::pencil::find_tuning_entry;
using pcf::pencil::load_tuning_cache;
using pcf::pencil::save_tuning_cache;
using pcf::pencil::tune_choice;
using pcf::pencil::tune_entry;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;
using namespace pcf_determinism_test;

constexpr int kSteps = PCF_UNDER_TSAN ? 6 : 12;

trace run_config(const channel_config& cfg) {
  trace t;
  run_world(cfg.pa * cfg.pb, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(kQuickstartPerturbation, kQuickstartSeed);
    const trace local = record_trace(dns, kSteps);
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
  EXPECT_TRUE(divs.empty()) << "autotuned config '" << tag
                            << "' diverged from the baseline trace:\n"
                            << describe(divs);
}

/// Write a cache holding exactly `choice` (on cfg's split) for `cfg`'s
/// tuning key, so the autotuner "measures" nothing and is forced into that
/// decision.
std::string seed_cache(const channel_config& cfg, tune_choice choice,
                       const std::string& tag) {
  const std::string path = scratch_path(tag + "_cache");
  std::remove(path.c_str());
  choice.pa = cfg.pa;
  choice.pb = cfg.pb;
  const int ranks = cfg.pa * cfg.pb;
  save_tuning_cache(path, {tune_entry{dns_tune_key(cfg, ranks), choice}});
  return path;
}

// Force every batch/depth decision the tuner can make (F in {1, 3, 5} x
// depth in {1, 2}, depth <= F) through a pre-seeded cache: one trace.
TEST(DeterminismAutotune, PreSeededBatchDepthChoicesProduceOneTrace) {
  for (int batch : {1, 3, 5}) {
    for (int depth : {1, 2}) {
      if (depth > batch) continue;
      channel_config cfg = quickstart_config();
      cfg.autotune = true;
      tune_choice choice;
      choice.batch = batch;
      choice.pipeline_depth = depth;
      const std::string tag =
          "f" + std::to_string(batch) + "_d" + std::to_string(depth);
      cfg.tuning_cache = seed_cache(cfg, choice, tag);
      expect_matches_baseline(cfg, tag);
      std::remove(cfg.tuning_cache.c_str());
      if (::testing::Test::HasFailure()) return;  // first divergence only
    }
  }
}

// A pre-seeded choice on a 2 x 2 split, where both transposes exchange
// across ranks and the batch and depth regroup real alltoallv traffic.
TEST(DeterminismAutotune, PreSeededChoiceOnA2x2SplitProducesOneTrace) {
  channel_config cfg = quickstart_config();
  cfg.pa = 2;
  cfg.pb = 2;
  cfg.autotune = true;
  tune_choice choice;
  choice.batch = 5;
  choice.pipeline_depth = 2;
  cfg.tuning_cache = seed_cache(cfg, choice, "f5_d2_2x2");
  expect_matches_baseline(cfg, "f5_d2_2x2");
  std::remove(cfg.tuning_cache.c_str());
}

// A 1-rank tune times nothing, so the cold case that really measures runs
// on 2 x 2: the measured choice and its cache hit both reproduce the trace.
TEST(DeterminismAutotune, ColdTuneOnA2x2SplitAndCacheHitProduceOneTrace) {
  channel_config cfg = quickstart_config();
  cfg.pa = 2;
  cfg.pb = 2;
  cfg.autotune = true;
  cfg.tuning_cache = scratch_path("cold_2x2_cache");
  std::remove(cfg.tuning_cache.c_str());
  expect_matches_baseline(cfg, "cold_2x2");  // measures, stores
  const auto entries = load_tuning_cache(cfg.tuning_cache);
  const auto* stored = find_tuning_entry(entries, dns_tune_key(cfg, 4));
  ASSERT_NE(stored, nullptr) << "the cold 2x2 tune stored no entry";
  EXPECT_EQ(stored->choice.pa, 2);
  EXPECT_EQ(stored->choice.pb, 2);
  expect_matches_baseline(cfg, "hit_2x2");  // replays the stored choice
  std::remove(cfg.tuning_cache.c_str());
}

// Cold tune (measure + store) and the subsequent cache hit must both
// reproduce the baseline — and must agree with each other by
// construction, since the hit replays the cold run's stored choice.
TEST(DeterminismAutotune, ColdTuneAndCacheHitProduceOneTrace) {
  channel_config cfg = quickstart_config();
  cfg.autotune = true;
  cfg.tuning_cache = scratch_path("cold_cache");
  std::remove(cfg.tuning_cache.c_str());
  expect_matches_baseline(cfg, "cold");   // measures, stores
  expect_matches_baseline(cfg, "hit");    // replays the stored choice
  std::remove(cfg.tuning_cache.c_str());
}

// Autotuning with no cache file at all (measure every construction).
TEST(DeterminismAutotune, UncachedAutotuneProducesTheTrace) {
  channel_config cfg = quickstart_config();
  cfg.autotune = true;
  expect_matches_baseline(cfg, "uncached");
}

}  // namespace
