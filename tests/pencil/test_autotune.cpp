// The autotuner: cache round trips, key discrimination, the
// measure-agree-persist flow, world-wide agreement on the whole choice,
// the measured process split and the untimed 1-rank tune.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "pencil/autotune.hpp"
#include "pencil/pencil.hpp"

namespace {

using pcf::pencil::apply_tuning;
using pcf::pencil::autotune_transforms;
using pcf::pencil::find_tuning_entry;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::load_tuning_cache;
using pcf::pencil::make_tune_key;
using pcf::pencil::parallel_fft;
using pcf::pencil::save_tuning_cache;
using pcf::pencil::tune_choice;
using pcf::pencil::tune_entry;
using pcf::pencil::tune_key;
using pcf::pencil::tune_options;
using pcf::pencil::tune_report;
using pcf::vmpi::cart2d;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

std::string cache_path(const std::string& tag) {
  const std::string p = ::testing::TempDir() + "/pcf_tune_" + tag + ".bin";
  std::remove(p.c_str());
  return p;
}

tune_key key_for(std::uint32_t nx) {
  tune_key k;
  k.nx = nx;
  k.ny = 17;
  k.nz = 8;
  k.ranks = 4;
  k.pa = 2;
  k.pb = 2;
  k.max_batch = 5;
  k.flags = 3;
  return k;
}

/// A choice on the 2 x 2 split key_for() requests.
tune_choice choice_for(int batch, int depth) { return {batch, depth, 2, 2}; }

TEST(TuningCache, MissingFileIsASilentMiss) {
  std::vector<std::string> warnings;
  const auto entries =
      load_tuning_cache(cache_path("missing"), &warnings);
  EXPECT_TRUE(entries.empty());
  EXPECT_TRUE(warnings.empty());
}

TEST(TuningCache, RoundTripsEntries) {
  const std::string path = cache_path("roundtrip");
  std::vector<tune_entry> in;
  in.push_back({key_for(16), choice_for(5, 2)});
  in.push_back({key_for(32), choice_for(3, 1)});
  save_tuning_cache(path, in);

  std::vector<std::string> warnings;
  const auto out = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, in[0].key);
  EXPECT_EQ(out[0].choice, in[0].choice);
  EXPECT_EQ(out[1].key, in[1].key);
  EXPECT_EQ(out[1].choice, in[1].choice);
  std::remove(path.c_str());
}

TEST(TuningCache, LookupDiscriminatesEveryKeyField) {
  std::vector<tune_entry> entries = {{key_for(16), tune_choice{}}};
  EXPECT_NE(find_tuning_entry(entries, key_for(16)), nullptr);
  EXPECT_EQ(find_tuning_entry(entries, key_for(32)), nullptr);
  tune_key k = key_for(16);
  k.pb = 4;
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
  k = key_for(16);
  k.flags = 1;  // different kernel flags = different measurement
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
  k = key_for(16);
  k.max_batch = 3;
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
  k = key_for(16);
  k.ranks = 8;
  EXPECT_EQ(find_tuning_entry(entries, k), nullptr);
}

TEST(TuningCache, ApplyTuningMapsEveryChoiceField) {
  kernel_config base;
  base.max_batch = 5;
  const kernel_config k = apply_tuning(base, {3, 2});
  EXPECT_EQ(k.max_batch, 3);
  EXPECT_EQ(k.pipeline_depth, 2);
}

TEST(Autotune, MeasuresAgreesAndPersists) {
  const std::string path = cache_path("flow");
  run_world(4, [&](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;

    const tune_report cold = autotune_transforms(g, world, 2, 2, base, opt);
    EXPECT_FALSE(cold.from_cache);
    // F in {1, 3, 5} x depth in {1, 2} with depth <= F.
    EXPECT_EQ(cold.measured.size(), 5u);
    EXPECT_GT(cold.per_field_s, 0.0);
    // The argmin includes the per-field baseline, so the winner is never
    // slower than per-field *as measured*.
    EXPECT_LE(cold.chosen_s, cold.per_field_s);
    EXPECT_GE(cold.choice.batch, 1);
    EXPECT_LE(cold.choice.batch, 5);
    EXPECT_GE(cold.choice.pipeline_depth, 1);
    EXPECT_LE(cold.choice.pipeline_depth, cold.choice.batch);
    if (world.rank() == 0) EXPECT_TRUE(cold.stored);

    // Every rank agreed on the same choice.
    double mine[2] = {static_cast<double>(cold.choice.batch),
                      static_cast<double>(cold.choice.pipeline_depth)};
    double mx[2], mn[2];
    world.allreduce_max(mine, mx, 2);
    world.allreduce_min(mine, mn, 2);
    EXPECT_EQ(mx[0], mn[0]);
    EXPECT_EQ(mx[1], mn[1]);

    // Second call hits the cache and returns the identical choice without
    // measuring.
    const tune_report warm = autotune_transforms(g, world, 2, 2, base, opt);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.measured.empty());
    EXPECT_EQ(warm.choice, cold.choice);

    // force_retune ignores the hit but still lands on a valid choice.
    tune_options forced = opt;
    forced.force_retune = true;
    const tune_report again =
        autotune_transforms(g, world, 2, 2, base, forced);
    EXPECT_FALSE(again.from_cache);
    EXPECT_EQ(again.measured.size(), 5u);
  });
  std::remove(path.c_str());
}

TEST(Autotune, EmptyCachePathMeasuresAndPersistsNothing) {
  run_world(4, [](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;  // no cache_path
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, 2, 2, base, opt);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.stored);
    // max_batch = 3 prunes the F = 5 candidates.
    EXPECT_EQ(rep.measured.size(), 3u);
    EXPECT_LE(rep.choice.batch, 3);
  });
}

TEST(Autotune, EveryRankOfA2x2CartGetsTheSameChoice) {
  // CommA and CommB each form two independent groups on a 2x2 cart; every
  // timing is max-reduced over the whole world, so all four ranks must
  // come back with one split, batch and depth even when the groups' own
  // timings would pick differently.
  run_world(4, [](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;  // no cache: every call measures
    opt.reps = 1;
    for (int trial = 0; trial < 3; ++trial) {
      const tune_report rep = autotune_transforms(g, world, 0, 0, base, opt);
      const double mine[4] = {static_cast<double>(rep.choice.pa),
                              static_cast<double>(rep.choice.pb),
                              static_cast<double>(rep.choice.batch),
                              static_cast<double>(rep.choice.pipeline_depth)};
      double mx[4], mn[4];
      world.allreduce_max(mine, mx, 4);
      world.allreduce_min(mine, mn, 4);
      for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mx[i], mn[i]) << "trial " << trial << " word " << i;
    }
  });
}

TEST(Autotune, OneRankTimesNothingAndKeepsBaseBatchAndDepth) {
  // One rank runs no exchange, so batch width and depth only re-chunk the
  // same FFT lines: the tune keeps base's values and times nothing, for a
  // given and for a measured split alike. A depth past the batch is
  // clamped to it, so the choice still fits its own key on reload.
  run_world(1, [](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    base.pipeline_depth = 2;
    tune_options opt;
    opt.reps = 1;
    for (const int p : {0, 1}) {
      const tune_report rep = autotune_transforms(g, world, p, p, base, opt);
      EXPECT_TRUE(rep.measured.empty()) << "split " << p;
      EXPECT_FALSE(rep.from_cache);
      EXPECT_EQ(rep.choice, (tune_choice{3, 2, 1, 1})) << "split " << p;
    }
    base.pipeline_depth = 5;
    const tune_report deep = autotune_transforms(g, world, 1, 1, base, opt);
    EXPECT_TRUE(deep.measured.empty());
    EXPECT_EQ(deep.choice, (tune_choice{3, 3, 1, 1}));
  });
}

TEST(TuningCache, RoundTripsDecompositionEntries) {
  // A measured-split entry keys under the requested 0 x 0 split and
  // carries the winning split in its choice, next to the transform knobs.
  const std::string path = cache_path("decomp_roundtrip");
  tune_entry e;
  e.key = key_for(16);
  e.key.pa = 0;
  e.key.pb = 0;
  e.choice = {3, 2, 1, 4};
  save_tuning_cache(path, {e});

  std::vector<std::string> warnings;
  const auto out = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(warnings.empty());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, e.key);
  EXPECT_EQ(out[0].choice, e.choice);

  // The requested split is part of the key: a fixed 2 x 2 entry and a
  // measured-split entry at the same grid never collide.
  EXPECT_EQ(find_tuning_entry(out, key_for(16)), nullptr);
  EXPECT_NE(find_tuning_entry(out, e.key), nullptr);
  std::remove(path.c_str());
}

TEST(AutotuneDecomp, ExplicitLayoutIsPlannedNotMeasured) {
  // A given split is the choice's split: only the transform knobs are
  // timed, with no split rows in the report.
  run_world(4, [](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, 1, 4, base, opt);
    EXPECT_EQ(rep.choice.pa, 1);
    EXPECT_EQ(rep.choice.pb, 4);
    EXPECT_EQ(rep.measured.size(), 3u);  // F in {1, 3} x depth, depth <= F
    for (const auto& m : rep.measured) {
      EXPECT_EQ(m.pa, 1);
      EXPECT_EQ(m.pb, 4);
    }
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.stored);
  });
}

TEST(AutotuneDecomp, TunedMeasuresPersistsAndReplays) {
  const std::string path = cache_path("decomp_flow");
  run_world(4, [&](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;

    const tune_report cold = autotune_transforms(g, world, 0, 0, base, opt);
    EXPECT_FALSE(cold.from_cache);
    // Split rows first: 2 x 2, 1 x 4, 4 x 1 at 4 ranks on this grid, timed
    // at the base config; then the 5-row batch/depth sweep on the winner.
    ASSERT_EQ(cold.measured.size(), 3u + 5u);
    EXPECT_EQ(cold.measured[0].pa, 2);
    EXPECT_EQ(cold.measured[0].pb, 2);
    EXPECT_EQ(cold.choice.pa * cold.choice.pb, 4);
    // Strict-< argmin with candidate 0 first: the chosen split is never
    // slower than candidate 0 as measured.
    double chosen_s = -1.0;
    for (std::size_t i = 0; i < 3; ++i)
      if (cold.measured[i].pa == cold.choice.pa &&
          cold.measured[i].pb == cold.choice.pb)
        chosen_s = cold.measured[i].seconds;
    EXPECT_GT(cold.measured[0].seconds, 0.0);
    EXPECT_GE(chosen_s, 0.0);
    EXPECT_LE(chosen_s, cold.measured[0].seconds);
    for (std::size_t i = 3; i < cold.measured.size(); ++i) {
      EXPECT_EQ(cold.measured[i].pa, cold.choice.pa);
      EXPECT_EQ(cold.measured[i].pb, cold.choice.pb);
    }
    if (world.rank() == 0) {
      EXPECT_TRUE(cold.stored);
      // One entry holds both the split and the transform knobs.
      const auto entries = load_tuning_cache(path);
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(entries[0].key, cold.key);
      EXPECT_EQ(entries[0].key.pa, 0u);
      EXPECT_EQ(entries[0].choice, cold.choice);
    }

    // Every rank agreed on the same choice.
    const double mine[4] = {static_cast<double>(cold.choice.pa),
                            static_cast<double>(cold.choice.pb),
                            static_cast<double>(cold.choice.batch),
                            static_cast<double>(cold.choice.pipeline_depth)};
    double mx[4], mn[4];
    world.allreduce_max(mine, mx, 4);
    world.allreduce_min(mine, mn, 4);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(mx[i], mn[i]) << i;

    // Warm call replays the persisted winner without re-measuring.
    const tune_report warm = autotune_transforms(g, world, 0, 0, base, opt);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.measured.empty());
    EXPECT_EQ(warm.choice, cold.choice);
  });
  std::remove(path.c_str());
}

TEST(Autotune, TunedConfigConstructsWithoutRemeasuring) {
  const std::string path = cache_path("construct");
  run_world(4, [&](communicator& world) {
    cart2d cart(world, 2, 2);
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 5;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, 2, 2, base, opt);
    const kernel_config tuned = apply_tuning(base, rep.choice);
    parallel_fft pf(g, cart, tuned);
    EXPECT_EQ(pf.config().max_batch, rep.choice.batch);
    EXPECT_EQ(pf.config().pipeline_depth, rep.choice.pipeline_depth);
  });
  std::remove(path.c_str());
}

}  // namespace
