// Fault-injection matrix for the tuning cache (ctest label: faults).
//
// The cache is advisory: every damaged state — truncated header or body,
// flipped bits, version skew, a crash mid-store — must degrade to
// re-measurement with a warning. Nothing here may abort a run, and a
// failed store must leave the previous cache intact (the store goes
// through io::atomic_file_writer, same guarantee as the checkpoints).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/atomic_file.hpp"
#include "pencil/autotune.hpp"
#include "util/crc.hpp"

namespace {

using pcf::io::fault_injection_scope;
using pcf::io::fault_kind;
using pcf::io::fault_policy;
using pcf::io::injected_crash;
using pcf::pencil::autotune_transforms;
using pcf::pencil::find_tuning_entry;
using pcf::pencil::grid;
using pcf::pencil::kernel_config;
using pcf::pencil::load_tuning_cache;
using pcf::pencil::save_tuning_cache;
using pcf::pencil::tune_choice;
using pcf::pencil::tune_entry;
using pcf::pencil::tune_key;
using pcf::pencil::tune_options;
using pcf::pencil::tune_report;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

std::string cache_path(const std::string& tag) {
  const std::string p =
      ::testing::TempDir() + "/pcf_tunefault_" + tag + ".bin";
  std::remove(p.c_str());
  return p;
}

tune_key some_key(std::uint32_t nx = 16) {
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

std::vector<tune_entry> two_entries() {
  return {{some_key(16), {5, 2, 2, 2}}, {some_key(32), {3, 1, 2, 2}}};
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TuningFaults, TruncatedHeaderFallsBackWithWarning) {
  const std::string path = cache_path("hdr");
  dump(path, {'P', 'F'});
  std::vector<std::string> warnings;
  EXPECT_TRUE(load_tuning_cache(path, &warnings).empty());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TuningFaults, BadMagicFallsBackWithWarning) {
  const std::string path = cache_path("magic");
  dump(path, std::vector<char>(64, 'x'));
  std::vector<std::string> warnings;
  EXPECT_TRUE(load_tuning_cache(path, &warnings).empty());
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("magic"), std::string::npos);
  std::remove(path.c_str());
}

// Two skewed inputs: a current file whose version word says 99, and a
// version-3 file — the layout that also stored an exchange strategy per
// communicator: 16 payload words (10 key + {pa, pb, strategy A, strategy
// B, batch, depth}) and a CRC, 68 bytes an entry. Neither is ever read as
// a version-4 choice, even with a valid CRC and a key this run asks for:
// each warns, and the tuner re-measures and rewrites the file.
TEST(TuningFaults, VersionSkewFallsBackWithWarning) {
  const std::string path = cache_path("version");
  const grid g{8, 9, 8};
  kernel_config base;
  base.max_batch = 3;
  const tune_key key = pcf::pencil::make_tune_key(g, base, 4, 2, 2);

  save_tuning_cache(path, {{key, {3, 1, 2, 2}}});
  std::vector<char> future = slurp(path);
  const std::uint32_t v99 = 99;
  std::memcpy(future.data() + 4, &v99, 4);  // version word

  std::uint32_t entry[17] = {key.nx, key.ny, key.nz, key.ranks,
                             key.pa, key.pb, key.fft_threads,
                             key.reorder_threads, key.max_batch, key.flags,
                             2, 2, 1, 0, 3, 1};  // strategy codes 1, 0
  entry[16] = pcf::crc32(entry, 16 * sizeof(std::uint32_t));
  const std::uint32_t hdr[3] = {0x50465443, 3, 1};
  std::vector<char> v3(sizeof(hdr) + sizeof(entry));
  std::memcpy(v3.data(), hdr, sizeof(hdr));
  std::memcpy(v3.data() + sizeof(hdr), entry, sizeof(entry));
  ASSERT_EQ(v3.size(), 12u + 68u);

  for (const std::vector<char>& bytes : {future, v3}) {
    pcf::pencil::tuning_memo_reset();  // the file, not the memo, answers
    dump(path, bytes);
    std::vector<std::string> warnings;
    EXPECT_TRUE(load_tuning_cache(path, &warnings).empty());
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("version"), std::string::npos);

    run_world(4, [&](communicator& world) {
      tune_options opt;
      opt.cache_path = path;
      opt.reps = 1;
      const tune_report rep = autotune_transforms(g, world, 2, 2, base, opt);
      EXPECT_EQ(rep.key, key);
      EXPECT_FALSE(rep.from_cache);
      EXPECT_FALSE(rep.measured.empty());
      if (world.rank() == 0) {
        ASSERT_FALSE(rep.warnings.empty());
        EXPECT_NE(rep.warnings[0].find("version"), std::string::npos);
        EXPECT_TRUE(rep.stored);
      }
    });
    // The rewritten file is version 4: 60 bytes an entry, read back clean.
    EXPECT_EQ(slurp(path).size(), 12u + 60u);
    warnings.clear();
    const auto entries = load_tuning_cache(path, &warnings);
    EXPECT_TRUE(warnings.empty());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, key);
  }
  std::remove(path.c_str());
}

TEST(TuningFaults, FlippedEntryBitIsSkippedOthersSurvive) {
  const std::string path = cache_path("flip");
  save_tuning_cache(path, two_entries());
  auto bytes = slurp(path);
  bytes[12 + 3] ^= 0x10;  // a payload byte of entry 0
  dump(path, bytes);
  std::vector<std::string> warnings;
  const auto entries = load_tuning_cache(path, &warnings);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("CRC"), std::string::npos);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(find_tuning_entry(entries, some_key(16)), nullptr);
  EXPECT_NE(find_tuning_entry(entries, some_key(32)), nullptr);
  std::remove(path.c_str());
}

TEST(TuningFaults, TruncatedBodyKeepsValidPrefix) {
  const std::string path = cache_path("body");
  save_tuning_cache(path, two_entries());
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 20);  // cut into the second entry
  dump(path, bytes);
  std::vector<std::string> warnings;
  const auto entries = load_tuning_cache(path, &warnings);
  ASSERT_EQ(warnings.size(), 1u);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(find_tuning_entry(entries, some_key(16)), nullptr);
  std::remove(path.c_str());
}

TEST(TuningFaults, InjectedShortWriteIsDetectedOnLoad) {
  const std::string path = cache_path("short");
  {
    fault_policy p;
    p.kind = fault_kind::short_write;
    p.byte = 40;  // inside the first entry's payload
    p.path_match = "pcf_tunefault_short";
    fault_injection_scope scope(p);
    save_tuning_cache(path, two_entries());  // commits a truncated file
  }
  std::vector<std::string> warnings;
  const auto entries = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(entries.empty());
  EXPECT_FALSE(warnings.empty());
  std::remove(path.c_str());
}

TEST(TuningFaults, InjectedBitFlipIsDetectedOnLoad) {
  const std::string path = cache_path("bitflip");
  {
    fault_policy p;
    p.kind = fault_kind::bit_flip;
    p.byte = 16;  // a payload byte of entry 0
    p.path_match = "pcf_tunefault_bitflip";
    fault_injection_scope scope(p);
    save_tuning_cache(path, two_entries());
  }
  std::vector<std::string> warnings;
  const auto entries = load_tuning_cache(path, &warnings);
  ASSERT_EQ(entries.size(), 1u);  // damaged entry dropped, other kept
  EXPECT_FALSE(warnings.empty());
  std::remove(path.c_str());
}

TEST(TuningFaults, CrashMidStoreLeavesPreviousCacheIntact) {
  const std::string path = cache_path("crash");
  save_tuning_cache(path, {two_entries()[0]});
  {
    fault_policy p;
    p.kind = fault_kind::crash_after_n;
    p.byte = 30;
    p.path_match = "pcf_tunefault_crash";
    fault_injection_scope scope(p);
    EXPECT_THROW(save_tuning_cache(path, two_entries()), injected_crash);
  }
  std::vector<std::string> warnings;
  const auto entries = load_tuning_cache(path, &warnings);
  EXPECT_TRUE(warnings.empty());  // the old cache survived bit for bit
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(find_tuning_entry(entries, some_key(16)), nullptr);
  std::remove(path.c_str());
}

// A CRC-valid entry whose choice its own key could never have produced —
// a batch over the key's ceiling, a depth over the batch, a split that
// does not cover the key's ranks — is skipped with a warning, and the
// tuner re-measures under that key instead of sizing a run from it.
TEST(TuningFaults, ChoiceOutsideItsKeyIsSkippedAndRemeasured) {
  const std::string path = cache_path("hostile");
  const grid g{8, 9, 8};
  kernel_config base;
  base.max_batch = 3;
  tune_key key;
  key.nx = 8;
  key.ny = 9;
  key.nz = 8;
  key.ranks = 4;
  key.pa = 2;
  key.pb = 2;
  key.max_batch = 3;
  key.flags = 3;  // kernel_config defaults: drop_nyquist, dealias
  tune_choice over_ceiling;
  over_ceiling.batch = 1000;
  over_ceiling.pa = 2;
  over_ceiling.pb = 2;
  tune_choice deep = over_ceiling;
  deep.batch = 2;
  deep.pipeline_depth = 3;
  tune_choice split = over_ceiling;
  split.batch = 3;
  split.pb = 1;  // 2 x 1 does not cover 4 ranks

  for (const tune_choice& bad : {over_ceiling, deep, split}) {
    save_tuning_cache(path, {tune_entry{key, bad}});
    std::vector<std::string> warnings;
    EXPECT_TRUE(load_tuning_cache(path, &warnings).empty());
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("skipping"), std::string::npos);
  }

  save_tuning_cache(path, {tune_entry{key, over_ceiling}});
  run_world(4, [&](communicator& world) {
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;
    const tune_report rep = autotune_transforms(g, world, 2, 2, base, opt);
    EXPECT_EQ(rep.key, key);
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.measured.empty());
    EXPECT_LE(rep.choice.batch, 3);
    if (world.rank() == 0) {
      EXPECT_FALSE(rep.warnings.empty());
    }
  });
  std::remove(path.c_str());
}

// The full-flow guarantee: a cache that cannot be read *or* written still
// produces a usable tuning choice — measurement proceeds, the failure
// surfaces as warnings, and nothing throws out of autotune_transforms.
TEST(TuningFaults, AutotuneSurvivesUnreadableAndUnwritableCache) {
  const std::string path = cache_path("flow");
  dump(path, std::vector<char>(64, 'x'));  // unreadable: bad magic
  run_world(4, [&](communicator& world) {
    const grid g{8, 9, 8};
    kernel_config base;
    base.max_batch = 3;
    tune_options opt;
    opt.cache_path = path;
    opt.reps = 1;

    fault_policy p;
    p.kind = fault_kind::fail_open;  // unwritable: temp creation fails
    p.path_match = "pcf_tunefault_flow";
    fault_injection_scope scope(p);

    tune_report rep;
    ASSERT_NO_THROW(rep = autotune_transforms(g, world, 2, 2, base, opt));
    EXPECT_FALSE(rep.from_cache);
    EXPECT_FALSE(rep.stored);
    EXPECT_GE(rep.choice.batch, 1);
    if (world.rank() == 0) {
      // One warning for the unreadable load, one for the failed store.
      EXPECT_GE(rep.warnings.size(), 2u);
    }
  });
  std::remove(path.c_str());
}

}  // namespace
