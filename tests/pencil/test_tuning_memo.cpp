// The in-process tuning memo that fronts the on-disk cache: concurrent
// simulations tuning the same config measure once and share the choice,
// and distinct configs merging into one cache file cannot drop each
// other's entries (the load-merge-store race this memo layer fixed).
#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pencil/autotune.hpp"
#include "pencil/pencil.hpp"

namespace {

using pcf::pencil::autotune_transforms;
using pcf::pencil::find_tuning_entry;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::load_tuning_cache;
using pcf::pencil::make_tune_key;
using pcf::pencil::tune_options;
using pcf::pencil::tune_report;
using pcf::pencil::tuning_memo_reset;
using pcf::pencil::tuning_memo_statistics;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

std::string cache_path(const std::string& tag) {
  const std::string p = ::testing::TempDir() + "/pcf_memo_" + tag + ".bin";
  std::remove(p.c_str());
  return p;
}

/// One tuning call on a fresh world of `ranks` ranks; pa = pb = 0 there
/// measures the split. Returns rank 0's report.
tune_report tune_once(const grid& g, const std::string& path,
                      bool force = false, int ranks = 1, int pa = 1,
                      int pb = 1) {
  tune_report rep;
  run_world(ranks, [&](communicator& world) {
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;
    opt.force_retune = force;
    const tune_report r = autotune_transforms(g, world, pa, pb, base, opt);
    if (world.rank() == 0) rep = r;
  });
  return rep;
}

TEST(TuningMemo, ConcurrentSameKeyCallersMeasureOnceAndAgree) {
  tuning_memo_reset();
  const std::string path = cache_path("samekey");
  const grid g{8, 9, 8};

  // Six independent single-rank worlds (the campaign's tenant shape) tune
  // the same config against the same cache file at once. The memo makes
  // one of them the owner; the rest block until it publishes.
  constexpr int kCallers = 6;
  std::vector<tune_report> reps(kCallers);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kCallers; ++i)
      threads.emplace_back([&, i] { reps[i] = tune_once(g, path); });
    for (auto& t : threads) t.join();
  }

  // The owner resolves the key (untimed on one rank: no exchange to
  // shape); every other caller is served by the memo (the file was still
  // being written or just written by the owner).
  int owners = 0;
  for (const tune_report& r : reps) {
    if (!r.from_cache) ++owners;
    EXPECT_TRUE(r.measured.empty());
    EXPECT_EQ(r.choice, reps[0].choice);
  }
  EXPECT_EQ(owners, 1);

  const auto stats = tuning_memo_statistics();
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kCallers - 1));
  EXPECT_GE(stats.entries, 1u);

  // Exactly one entry landed in the file: the owner's store, un-raced.
  const auto entries = load_tuning_cache(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].choice, reps[0].choice);
  std::remove(path.c_str());
}

TEST(TuningMemo, DistinctKeysMergingIntoOneFileKeepEveryEntry) {
  tuning_memo_reset();
  const std::string path = cache_path("merge");
  // Four distinct configs (different grids), one cache file, all storing
  // concurrently. Without the per-path file mutex the load-merge-store
  // cycles race and the last writer drops earlier winners.
  const std::vector<grid> grids = {
      {8, 9, 8}, {16, 9, 8}, {8, 9, 16}, {16, 9, 16}};
  {
    std::vector<std::thread> threads;
    for (const grid& g : grids)
      threads.emplace_back([&, g] { (void)tune_once(g, path); });
    for (auto& t : threads) t.join();
  }
  const auto entries = load_tuning_cache(path);
  EXPECT_EQ(entries.size(), grids.size());
  for (const grid& g : grids) {
    kernel_config base;
    base.max_batch = 3;
    EXPECT_NE(find_tuning_entry(entries, make_tune_key(g, base, 1, 1, 1)),
              nullptr)
        << "entry for nx=" << g.nx << " nz=" << g.nz << " was dropped";
  }
  std::remove(path.c_str());
}

// Cold measure, memo hit, file hit after a memo reset, memo re-seeded:
// on one rank with a given split (resolved untimed), and on four ranks
// measuring the split (the whole choice, split included, rides the same
// tiers).
TEST(TuningMemo, MemoFrontsTheFileCache) {
  const grid g{8, 9, 8};
  struct shape {
    int ranks, pa, pb;
  };
  for (const shape sh : {shape{1, 1, 1}, shape{4, 0, 0}}) {
    tuning_memo_reset();
    const std::string path = cache_path("tiers");
    auto tune = [&] {
      return tune_once(g, path, false, sh.ranks, sh.pa, sh.pb);
    };

    const tune_report cold = tune();
    EXPECT_FALSE(cold.from_cache);
    EXPECT_FALSE(cold.from_memo);
    EXPECT_EQ(cold.choice.pa * cold.choice.pb, sh.ranks);
    EXPECT_EQ(cold.measured.empty(), sh.ranks == 1);
    if (sh.ranks == 1) {
      EXPECT_EQ(cold.choice.batch, 3);  // tune_once's base max_batch
      EXPECT_EQ(cold.choice.pipeline_depth, 1);
    }

    // Warm: served by the memo, no file I/O.
    const tune_report warm = tune();
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.from_memo);
    EXPECT_EQ(warm.choice, cold.choice);

    // Memo dropped: falls through to the file tier, which re-seeds the
    // memo.
    tuning_memo_reset();
    const tune_report file = tune();
    EXPECT_TRUE(file.from_cache);
    EXPECT_FALSE(file.from_memo);
    EXPECT_EQ(file.choice, cold.choice);

    const tune_report reseeded = tune();
    EXPECT_TRUE(reseeded.from_memo);
    EXPECT_EQ(reseeded.choice, cold.choice);
    std::remove(path.c_str());
  }
}

TEST(TuningMemo, ForceRetuneRemeasuresAndRepublishes) {
  tuning_memo_reset();
  const std::string path = cache_path("force");
  const grid g{8, 9, 8};

  // Two ranks, so the forced re-tune really times its candidates.
  (void)tune_once(g, path, false, 2, 2, 1);
  const tune_report forced = tune_once(g, path, /*force=*/true, 2, 2, 1);
  EXPECT_FALSE(forced.from_cache);
  EXPECT_FALSE(forced.measured.empty());

  // The re-measured choice was republished into the memo.
  const tune_report warm = tune_once(g, path, false, 2, 2, 1);
  EXPECT_TRUE(warm.from_memo);
  EXPECT_EQ(warm.choice, forced.choice);
  std::remove(path.c_str());
}

}  // namespace
