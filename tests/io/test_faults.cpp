// Deterministic fault-injection matrix for the checkpoint file (ctest
// label: faults).
//
// Every injected fault must be either *invisible* — the crash hit before
// commit, so the previous checkpoint survives bit for bit — or *detected*
// on load with an error naming the damage (a section CRC mismatch or a
// truncation). A fault that a loader silently accepts is the failure mode
// these tests exist to rule out.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/atomic_file.hpp"
#include "util/check.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::io::fault_injection_scope;
using pcf::io::fault_kind;
using pcf::io::fault_policy;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.dt = 1e-4;
  return cfg;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return {};
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

// Header: magic, nx/ny/nz, time, steps, {section count, 0}.
constexpr std::size_t kHeader = 8 + 3 * 8 + 8 + 8 + 2 * 4;
constexpr std::size_t kEntry = 24;  // table entry: name[8], bytes, crc, 0

std::uint32_t section_count(const std::vector<char>& bytes) {
  std::uint32_t n = 0;
  std::memcpy(&n, bytes.data() + kHeader - 8, sizeof(n));
  return n;
}

/// File offset of the first payload byte of the named section, found
/// through the section table; 0 if absent.
std::uint64_t section_payload_offset(const std::vector<char>& bytes,
                                     const char* name) {
  char key[8] = {};
  std::snprintf(key, sizeof(key), "%s", name);
  const std::uint32_t n = section_count(bytes);
  std::uint64_t at = kHeader + n * kEntry;
  for (std::uint32_t t = 0; t < n; ++t) {
    const char* e = bytes.data() + kHeader + t * kEntry;
    if (std::memcmp(e, key, sizeof(key)) == 0) return at;
    std::uint64_t sz = 0;
    std::memcpy(&sz, e + 8, sizeof(sz));
    at += sz;
  }
  return 0;
}

class FaultMatrix : public ::testing::TestWithParam<fault_kind> {};

TEST_P(FaultMatrix, EveryFaultIsInvisibleOrDetected) {
  const fault_kind kind = GetParam();
  const std::string path = ::testing::TempDir() + "/pcf_fault_" +
                           std::to_string(static_cast<int>(kind)) + ".ckpt";
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 3);
    dns.step();
    // A known-good previous checkpoint generation.
    dns.save_checkpoint(path);
    const auto good = slurp(path);
    ASSERT_FALSE(good.empty());

    // Aim the fault at real payload bytes: inside the c_om section, found
    // through the section table.
    std::uint64_t target = section_payload_offset(good, "c_om") + 16;
    ASSERT_GT(target, std::uint64_t{16});
    if (kind == fault_kind::short_write)
      target = good.size() - 48;  // drop the file's tail

    dns.step();  // a different state, so a torn overwrite is observable
    bool save_crashed = false;
    {
      fault_injection_scope fault({kind, target, path});
      try {
        dns.save_checkpoint(path);
      } catch (const pcf::io::injected_crash&) {
        save_crashed = true;
      }
    }

    if (save_crashed) {
      // Atomicity: the interrupted save must be invisible — the previous
      // generation survives bit for bit and still loads.
      EXPECT_EQ(kind, fault_kind::crash_after_n);
      const auto after = slurp(path);
      ASSERT_EQ(after.size(), good.size());
      EXPECT_EQ(std::memcmp(after.data(), good.data(), good.size()), 0);
      channel_dns dns2(cfg, world);
      dns2.load_checkpoint(path);
      EXPECT_EQ(dns2.step_count(), 1);
      return;
    }

    // The fault corrupted the committed file: the loader must refuse it
    // with an error that names the damage — never accept it silently.
    ASSERT_TRUE(kind == fault_kind::short_write ||
                kind == fault_kind::bit_flip);
    channel_dns dns2(cfg, world);
    try {
      dns2.load_checkpoint(path);
      FAIL() << "corrupted checkpoint was silently accepted";
    } catch (const pcf::precondition_error& e) {
      const std::string what = e.what();
      if (kind == fault_kind::bit_flip) {
        EXPECT_NE(what.find("CRC mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("c_om"), std::string::npos) << what;
      } else {
        EXPECT_NE(what.find("truncated"), std::string::npos) << what;
      }
    }
  });
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SingleFile, FaultMatrix,
    ::testing::Values(fault_kind::short_write, fault_kind::bit_flip,
                      fault_kind::crash_after_n),
    [](const ::testing::TestParamInfo<fault_kind>& info) {
      switch (info.param) {
        case fault_kind::short_write: return std::string("ShortWrite");
        case fault_kind::bit_flip: return std::string("BitFlip");
        default: return std::string("CrashAfterN");
      }
    });

TEST(Faults, SectionTableBitFlipIsRejected) {
  // The table is not covered by the payload CRCs, so the loader checks
  // every byte of every entry against the layout it expects: flipping a
  // bit anywhere in the table must be refused, never silently accepted.
  const std::string path = ::testing::TempDir() + "/pcf_fault_table.ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.1, 3);
    dns.step();
    dns.save_checkpoint(path);
    const auto good = slurp(path);
    const std::size_t table_end = kHeader + section_count(good) * kEntry;
    for (std::size_t at = kHeader; at < table_end; ++at) {
      auto bad = good;
      bad[at] = static_cast<char>(bad[at] ^ 1);
      std::ofstream(path, std::ios::binary)
          .write(bad.data(), static_cast<std::streamsize>(bad.size()));
      channel_dns dns2(cfg_small(), world);
      EXPECT_THROW(dns2.load_checkpoint(path), pcf::precondition_error)
          << "flip at table byte " << at - kHeader << " was accepted";
    }
  });
  std::remove(path.c_str());
}

TEST(Faults, FailOpenLeavesThePreviousCheckpointLoadable) {
  const std::string path = ::testing::TempDir() + "/pcf_fault_open.ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.1, 3);
    dns.step();
    dns.save_checkpoint(path);
    const auto good = slurp(path);
    dns.step();
    {
      fault_injection_scope fault({fault_kind::fail_open, 0, path});
      EXPECT_THROW(dns.save_checkpoint(path), pcf::precondition_error);
    }
    const auto after = slurp(path);
    ASSERT_EQ(after.size(), good.size());
    EXPECT_EQ(std::memcmp(after.data(), good.data(), good.size()), 0);
    channel_dns dns2(cfg_small(), world);
    dns2.load_checkpoint(path);
    EXPECT_EQ(dns2.step_count(), 1);
  });
  std::remove(path.c_str());
}

}  // namespace
