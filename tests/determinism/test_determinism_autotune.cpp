// Autotuner bit-identity: whatever the tuner decides — any exchange
// strategy pair, any batch width F, any pipeline depth, measured cold or
// replayed from the on-disk cache — the physics trace must be the ONE
// quickstart trace. The tuner is allowed to change timings only, never
// bits; this is the contract that lets a cache file move between runs
// (and machines) without touching results.
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
using pcf::pencil::exchange_strategy;
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

/// Write a cache holding exactly `choice` for `cfg`'s tuning key, so the
/// autotuner "measures" nothing and is forced into that decision.
std::string seed_cache(const channel_config& cfg, const tune_choice& choice,
                       const std::string& tag) {
  const std::string path = scratch_path(tag + "_cache");
  std::remove(path.c_str());
  save_tuning_cache(path, {tune_entry{dns_tune_key(cfg), choice}});
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

// Every exchange-strategy pair the tuner can pick, on a 2 x 2 rank split
// where alltoall and pairwise are genuinely different code paths.
TEST(DeterminismAutotune, PreSeededStrategyPairsProduceOneTrace) {
  const exchange_strategy cand[2] = {exchange_strategy::alltoall,
                                     exchange_strategy::pairwise};
  for (const exchange_strategy sa : cand) {
    for (const exchange_strategy sb : cand) {
      channel_config cfg = quickstart_config();
      cfg.pa = 2;
      cfg.pb = 2;
      cfg.autotune = true;
      tune_choice choice;
      choice.strat_a = sa;
      choice.strat_b = sb;
      choice.batch = 5;
      choice.pipeline_depth = 2;
      const std::string tag =
          std::string("s") + (sa == cand[0] ? "a" : "p") +
          (sb == cand[0] ? "a" : "p");
      cfg.tuning_cache = seed_cache(cfg, choice, tag);
      expect_matches_baseline(cfg, tag);
      std::remove(cfg.tuning_cache.c_str());
      if (::testing::Test::HasFailure()) return;
    }
  }
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
