// Energy-balance diagnostics and decomposition-independent checkpoints.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "core/simulation.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 28;
  cfg.dt = 1e-4;
  return cfg;
}

TEST(Dissipation, LaminarBalanceIsExact) {
  // Laminar Poiseuille: dissipation nu <(dU/dy)^2> equals the power input
  // F * U_bulk = Re/3 exactly (up to quadrature error).
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    const double eps = dns.dissipation();
    const double input = cfg.forcing * dns.bulk_velocity();
    EXPECT_NEAR(eps, input, 2e-2 * input);  // trapezoid-quadrature error
    EXPECT_NEAR(input, cfg.re_tau / 3.0, 1e-6);
  });
}

TEST(Dissipation, PositiveAndDecompositionIndependent) {
  auto cfg = cfg_small();
  double ref = 0.0;
  for (auto [pa, pb] : {std::pair{1, 1}, std::pair{2, 2}}) {
    cfg.pa = pa;
    cfg.pb = pb;
    double got = 0.0;
    std::mutex m;
    run_world(pa * pb, [&](communicator& world) {
      channel_dns dns(cfg, world);
      dns.initialize(0.2, 5);
      dns.step();
      const double e = dns.dissipation();
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lk(m);
        got = e;
      }
    });
    EXPECT_GT(got, 0.0);
    if (ref == 0.0)
      ref = got;
    else
      EXPECT_NEAR(got, ref, 1e-9 * ref);
  }
}

TEST(Dissipation, FluctuationsIncreaseDissipation) {
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    channel_dns lam(cfg, world), turb(cfg, world);
    lam.initialize(0.0);
    turb.initialize(0.0);
    // Same mean in both, add fluctuations to one by re-initializing with
    // perturbations and copying the laminar mean back.
    turb.initialize(0.3, 7);
    turb.set_mean_profile(lam.mean_profile());
    EXPECT_GT(turb.dissipation(), lam.dissipation());
  });
}

TEST(GlobalCheckpoint, RestartOnDifferentDecomposition) {
  const std::string path = ::testing::TempDir() + "/pcf_gckpt.bin";
  auto cfg = cfg_small();
  // Run 2 + 1 steps on a 2x2 grid, saving after step 2.
  std::vector<double> direct;
  cfg.pa = 2;
  cfg.pb = 2;
  run_world(4, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 3);
    dns.step();
    dns.step();
    dns.save_checkpoint(path);
    dns.step();
    auto prof = dns.mean_profile();  // collective: every rank participates
    if (world.rank() == 0) direct = prof;
  });
  // Restart the saved state on a single rank and take the same third step.
  std::vector<double> resumed;
  cfg.pa = 1;
  cfg.pb = 1;
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.load_checkpoint(path);
    EXPECT_EQ(dns.step_count(), 2);
    dns.step();
    resumed = dns.mean_profile();
  });
  ASSERT_EQ(direct.size(), resumed.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct[i], resumed[i], 1e-10);
  std::remove(path.c_str());
}

TEST(ParallelCheckpoint, SingleFileRestartAcrossDecompositions) {
  const std::string path = ::testing::TempDir() + "/pcf_pckpt.bin";
  auto cfg = cfg_small();
  std::vector<double> direct;
  cfg.pa = 2;
  cfg.pb = 2;
  run_world(4, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(0.1, 13);
    dns.step();
    dns.save_checkpoint(path);
    dns.step();
    auto prof = dns.mean_profile();  // collective: every rank participates
    if (world.rank() == 0) direct = prof;
  });
  std::vector<double> resumed;
  cfg.pa = 1;
  cfg.pb = 2;
  run_world(2, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.load_checkpoint(path);
    EXPECT_EQ(dns.step_count(), 1);
    dns.step();
    resumed = dns.mean_profile();
  });
  ASSERT_EQ(direct.size(), resumed.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    EXPECT_NEAR(direct[i], resumed[i], 1e-10);
  std::remove(path.c_str());
}

TEST(ParallelCheckpoint, RejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/pcf_pckpt_bad.bin";
  auto cfg = cfg_small();
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg, world);
    dns.initialize(0.0);
    dns.save_checkpoint(path);
  });
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');  // first byte of the magic
  }
  EXPECT_THROW(run_world(1,
                         [&](communicator& world) {
                           channel_dns dns(cfg, world);
                           dns.load_checkpoint(path);
                         }),
               pcf::precondition_error);
  std::remove(path.c_str());
}

}  // namespace
