#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "util/crc.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

// Checkpoint header: magic, nx/ny/nz, time, steps, {section count, 0};
// the 24-byte section table entries {name[8], bytes, crc, 0} follow.
constexpr std::size_t kHeader = 8 + 3 * 8 + 8 + 8 + 2 * 4;

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.dt = 1e-4;
  return cfg;
}

TEST(Checkpoint, SaveLoadResumesExactly) {
  const std::string path = ::testing::TempDir() + "/pcf_ckpt.bin";
  std::vector<double> direct, resumed;
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 5);
    dns.step();
    dns.step();
    dns.save_checkpoint(path);
    dns.step();
    direct = dns.mean_profile();
  });
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.load_checkpoint(path);
    EXPECT_EQ(dns.step_count(), 2);
    dns.step();
    resumed = dns.mean_profile();
  });
  ASSERT_EQ(direct.size(), resumed.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_DOUBLE_EQ(direct[i], resumed[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMismatchedGrid) {
  const std::string path = ::testing::TempDir() + "/pcf_ckpt2.bin";
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    dns.save_checkpoint(path);
  });
  EXPECT_THROW(
      run_world(1,
                [&](communicator& world) {
                  auto cfg = cfg_small();
                  cfg.nx = 16;
                  channel_dns dns(cfg, world);
                  dns.load_checkpoint(path);
                }),
      pcf::precondition_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, BitwiseIdenticalResumeUnderV2) {
  // Save/load/step must reproduce the direct run bit for bit, not just to
  // rounding: the restart path may not perturb the trajectory at all.
  const std::string path = ::testing::TempDir() + "/pcf_ckpt_bitwise.bin";
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 7);
    for (int i = 0; i < 3; ++i) dns.step();
    dns.save_checkpoint(path);

    channel_dns dns2(cfg, world);
    dns2.load_checkpoint(path);
    EXPECT_EQ(dns2.time(), dns.time());
    EXPECT_EQ(dns2.step_count(), dns.step_count());
    dns.step();
    dns2.step();

    const auto direct = dns.mean_profile();
    const auto resumed = dns2.mean_profile();
    ASSERT_EQ(direct.size(), resumed.size());
    EXPECT_EQ(std::memcmp(direct.data(), resumed.data(),
                          direct.size() * sizeof(double)),
              0);
    const auto va = dns.mode_v(1, 2);
    const auto vb = dns2.mode_v(1, 2);
    ASSERT_EQ(va.size(), vb.size());
    ASSERT_FALSE(va.empty());
    EXPECT_EQ(std::memcmp(va.data(), vb.data(),
                          va.size() * sizeof(std::complex<double>)),
              0);
  });
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  const std::string path = ::testing::TempDir() + "/pcf_ckpt_trail.bin";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    dns.step();
    dns.save_checkpoint(path);
    {
      std::ofstream os(path, std::ios::binary | std::ios::app);
      os << "extra bytes past the payload";
    }
    channel_dns dns2(cfg_small(), world);
    try {
      dns2.load_checkpoint(path);
      FAIL() << "trailing garbage was silently accepted";
    } catch (const pcf::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("trailing garbage"),
                std::string::npos)
          << e.what();
    }
  });
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsInvalidControllerState) {
  // A ctl section whose CRC matches but whose dt is not positive must still
  // be refused: the loader validates the values, not only the checksum.
  const std::string path = ::testing::TempDir() + "/pcf_ckpt_ctl.bin";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    dns.save_checkpoint(path);
    std::vector<char> bytes = slurp(path);
    // ctl is the last section: the file's last five doubles, dt first.
    const std::size_t ctl = bytes.size() - 5 * sizeof(double);
    const double bad_dt = -1e-4;
    std::memcpy(bytes.data() + ctl, &bad_dt, sizeof(bad_dt));
    const std::uint32_t crc =
        pcf::crc32(bytes.data() + ctl, 5 * sizeof(double));
    std::uint32_t count = 0;
    std::memcpy(&count, bytes.data() + kHeader - 8, sizeof(count));
    std::memcpy(bytes.data() + kHeader + 24 * (count - 1) + 16, &crc,
                sizeof(crc));
    std::ofstream(path, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    channel_dns dns2(cfg_small(), world);
    try {
      dns2.load_checkpoint(path);
      FAIL() << "invalid dt controller state was accepted";
    } catch (const pcf::precondition_error& e) {
      EXPECT_NE(std::string(e.what()).find("ctl"), std::string::npos)
          << e.what();
    }
  });
  std::remove(path.c_str());
}

#ifdef PCF_SOURCE_DIR
TEST(Checkpoint, CommittedArtifactLoads) {
  // The repository ships the checkpoint of the minimal Re_tau = 180 run
  // (results/README.md); the loader must keep accepting it.
  channel_config cfg;
  cfg.nx = 32;
  cfg.nz = 16;
  cfg.ny = 49;
  cfg.lx = 3.14159265;
  cfg.lz = 0.94247779;
  cfg.re_tau = 180.0;
  cfg.dt = 2e-4;
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.load_checkpoint(std::string(PCF_SOURCE_DIR) +
                        "/results/minimal_channel.ckpt");
    EXPECT_EQ(dns.step_count(), 20000);
    EXPECT_NEAR(dns.time(), 4.0, 1e-9);
    const double ke = dns.kinetic_energy();
    EXPECT_TRUE(std::isfinite(ke));
    EXPECT_GT(ke, 0.0);
    // The state is a statistically steady turbulent channel; its bulk
    // velocity must sit near the value logged at step 20000.
    EXPECT_NEAR(dns.bulk_velocity(), 15.474, 0.01);
  });
}
#endif

TEST(Checkpoint, RejectsGarbageFile) {
  const std::string path = ::testing::TempDir() + "/pcf_ckpt3.bin";
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a checkpoint";
  }
  EXPECT_THROW(run_world(1,
                         [&](communicator& world) {
                           auto cfg = cfg_small();
                           channel_dns dns(cfg, world);
                           dns.load_checkpoint(path);
                         }),
               pcf::precondition_error);
  std::remove(path.c_str());
}

}  // namespace
