#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "io/atomic_file.hpp"
#include "util/check.hpp"

namespace {

using pcf::io::atomic_file_writer;
using pcf::io::fault_injection_scope;
using pcf::io::fault_kind;
using pcf::io::fault_policy;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << content;
}

std::string tmp_target(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(AtomicFile, CommitReplacesTargetAtomically) {
  const std::string path = tmp_target("af_commit.bin");
  spit(path, "previous checkpoint");
  {
    atomic_file_writer w(path);
    w.write("new data", 8);
    // Until commit, the target still holds the old bytes.
    EXPECT_EQ(slurp(path), "previous checkpoint");
    w.commit();
  }
  EXPECT_EQ(slurp(path), "new data");
  // The temp file is gone after commit.
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, AbandonedWriterLeavesTargetUntouched) {
  const std::string path = tmp_target("af_abandon.bin");
  spit(path, "previous checkpoint");
  {
    atomic_file_writer w(path);
    w.write("half-written garb", 17);
    // Destroyed without commit(): models a crash mid-save.
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, WriteAtPlacesBytesAtAbsoluteOffsets) {
  const std::string path = tmp_target("af_offsets.bin");
  {
    atomic_file_writer w(path);
    w.write_at(4, "BBBB", 4);
    w.write_at(0, "AAAA", 4);
    w.commit();
  }
  EXPECT_EQ(slurp(path), "AAAABBBB");
  std::remove(path.c_str());
}

TEST(AtomicFile, JoinerWritesIntoOwnersTempFile) {
  const std::string path = tmp_target("af_join.bin");
  {
    atomic_file_writer owner(path);
    owner.write_at(0, "XXXX----", 8);
    owner.flush();
    {
      auto joiner = atomic_file_writer::join(path);
      joiner.write_at(4, "YYYY", 4);
      joiner.close();
    }
    owner.commit();
  }
  EXPECT_EQ(slurp(path), "XXXXYYYY");
  std::remove(path.c_str());
}

TEST(AtomicFile, FailOpenFaultThrowsBeforeTouchingAnything) {
  const std::string path = tmp_target("af_failopen.bin");
  spit(path, "previous checkpoint");
  {
    fault_injection_scope fault({fault_kind::fail_open, 0, "af_failopen"});
    EXPECT_THROW(atomic_file_writer w(path), pcf::precondition_error);
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  std::remove(path.c_str());
}

TEST(AtomicFile, ShortWriteFaultDropsBytesPastTheLimit) {
  const std::string path = tmp_target("af_short.bin");
  {
    fault_injection_scope fault({fault_kind::short_write, 5, "af_short"});
    atomic_file_writer w(path);
    w.write("0123456789", 10);
    w.commit();  // the writer itself does not notice the torn write
  }
  EXPECT_EQ(slurp(path), "01234");
  std::remove(path.c_str());
}

TEST(AtomicFile, BitFlipFaultInvertsExactlyOneBit) {
  const std::string path = tmp_target("af_flip.bin");
  {
    fault_injection_scope fault({fault_kind::bit_flip, 2, "af_flip"});
    atomic_file_writer w(path);
    w.write("abcdef", 6);
    w.commit();
  }
  EXPECT_EQ(slurp(path), std::string("ab") +
                             static_cast<char>('c' ^ 1) + "def");
  std::remove(path.c_str());
}

TEST(AtomicFile, CrashFaultAbandonsTheTempAndKeepsTheTarget) {
  const std::string path = tmp_target("af_crash.bin");
  spit(path, "previous checkpoint");
  {
    fault_injection_scope fault({fault_kind::crash_after_n, 3, "af_crash"});
    EXPECT_THROW(
        {
          atomic_file_writer w(path);
          w.write("0123456789", 10);
          w.commit();
        },
        pcf::io::injected_crash);
  }
  EXPECT_EQ(slurp(path), "previous checkpoint");
  EXPECT_TRUE(slurp(atomic_file_writer::temp_path(path)).empty());
  std::remove(path.c_str());
}

TEST(AtomicFile, FaultPolicyOnlyFiresOnMatchingPaths) {
  const std::string path = tmp_target("af_other.bin");
  {
    fault_injection_scope fault(
        {fault_kind::crash_after_n, 0, "some_other_file"});
    atomic_file_writer w(path);
    w.write("safe", 4);
    w.commit();
  }
  EXPECT_EQ(slurp(path), "safe");
  std::remove(path.c_str());
}

TEST(AtomicFile, GenerationNamingRoundTrips) {
  EXPECT_EQ(pcf::io::generation_path("run/ckpt", 1500), "run/ckpt.g1500");
}

TEST(AtomicFile, ListAndPruneGenerations) {
  const std::string prefix = tmp_target("af_gen");
  for (long g : {400L, 100L, 300L, 200L})
    spit(pcf::io::generation_path(prefix, g), "x");
  // An in-flight temp file is not a generation.
  const std::string tmp =
      atomic_file_writer::temp_path(pcf::io::generation_path(prefix, 999));
  spit(tmp, "x");
  auto gens = pcf::io::list_generations(prefix);
  ASSERT_EQ(gens.size(), 4u);
  EXPECT_EQ(gens.front(), 100);
  EXPECT_EQ(gens.back(), 400);

  pcf::io::prune_generations(prefix, 2);
  gens = pcf::io::list_generations(prefix);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 300);
  EXPECT_EQ(gens[1], 400);
  // The temp file survives pruning.
  EXPECT_EQ(slurp(tmp), "x");

  for (long g : {300L, 400L})
    std::remove(pcf::io::generation_path(prefix, g).c_str());
  std::remove(tmp.c_str());
}

}  // namespace
