#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/runner.hpp"
#include "io/atomic_file.hpp"

namespace {

using pcf::core::channel_config;
using pcf::core::channel_dns;
using pcf::core::run_campaign;
using pcf::core::run_plan;
using pcf::vmpi::communicator;
using pcf::vmpi::run_world;

channel_config cfg_small() {
  channel_config cfg;
  cfg.nx = 8;
  cfg.nz = 8;
  cfg.ny = 24;
  cfg.dt = 1e-3;
  return cfg;
}

TEST(Runner, FlowThroughTimeFromBulkVelocity) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.0);
    // Laminar: U_b = Re/3 = 60, Lx = 4 pi -> t_ft = 4 pi / 60.
    EXPECT_NEAR(pcf::core::flow_through_time(dns),
                4.0 * 3.14159265358979 / 60.0, 1e-6);
  });
}

TEST(Runner, RunsRequestedDurationAndSamplesStats) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.1);
    const double t_ft = pcf::core::flow_through_time(dns);
    run_plan plan;
    plan.flow_throughs = 0.05;  // keep it quick
    plan.warmup_fraction = 0.5;
    plan.stats_every = 2;
    plan.diag_every = 5;
    auto rep = run_campaign(dns, world, plan);
    EXPECT_FALSE(rep.hit_time_budget);
    EXPECT_NEAR(dns.time(), 0.05 * t_ft, cfg_small().dt + 1e-12);
    EXPECT_GT(rep.steps_run, 0);
    EXPECT_GT(rep.profiles.samples, 0);
    // Statistics must only come from after the warmup (~half the steps,
    // every 2nd step).
    EXPECT_LE(rep.profiles.samples, rep.steps_run / 2 / 2 + 2);
    EXPECT_EQ(static_cast<long>(rep.series.size()), rep.steps_run / 5);
  });
}

TEST(Runner, DiagnosticsSeriesIsMonotone) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    run_plan plan;
    plan.flow_throughs = 0.03;
    plan.diag_every = 3;
    plan.stats_every = 0;
    int callbacks = 0;
    auto rep = run_campaign(dns, world, plan,
                            [&](const pcf::core::diag_sample&) { ++callbacks; });
    ASSERT_GE(rep.series.size(), 2u);
    EXPECT_EQ(callbacks, static_cast<int>(rep.series.size()));
    for (std::size_t i = 1; i < rep.series.size(); ++i) {
      EXPECT_GT(rep.series[i].step, rep.series[i - 1].step);
      EXPECT_GT(rep.series[i].time, rep.series[i - 1].time);
    }
    for (const auto& d : rep.series) {
      EXPECT_TRUE(std::isfinite(d.kinetic_energy));
      EXPECT_GT(d.bulk_velocity, 0.0);
    }
  });
}

TEST(Runner, WallClockBudgetStopsEarly) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.0);
    run_plan plan;
    plan.flow_throughs = 1e6;  // absurdly long
    plan.max_seconds = 0.2;
    auto rep = run_campaign(dns, world, plan);
    EXPECT_TRUE(rep.hit_time_budget);
    EXPECT_GT(rep.steps_run, 0);
  });
}

void remove_generations(const std::string& prefix) {
  for (long g : pcf::io::list_generations(prefix))
    std::remove(pcf::io::generation_path(prefix, g).c_str());
  std::remove((prefix + ".blowup.txt").c_str());
}

TEST(Runner, CheckpointsOnCadenceWithRotation) {
  const std::string path = ::testing::TempDir() + "/pcf_runner_ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    run_plan plan;
    plan.flow_throughs = 0.03;
    plan.checkpoint_every = 4;
    plan.checkpoint_keep = 2;
    plan.checkpoint_path = path;
    auto rep = run_campaign(dns, world, plan);
    EXPECT_EQ(rep.checkpoints_written, rep.steps_run / 4);
    // Rotation keeps exactly the newest two generations, named by step.
    auto gens = pcf::io::list_generations(path);
    ASSERT_EQ(gens.size(), 2u);
    EXPECT_EQ(gens.back(), (rep.steps_run / 4) * 4);
    EXPECT_EQ(gens.front(), gens.back() - 4);
    std::ifstream is(pcf::io::generation_path(path, gens.back()),
                     std::ios::binary);
    EXPECT_TRUE(is.good());
  });
  remove_generations(path);
}

TEST(Runner, ResumeOrInitializeRestoresNewestGeneration) {
  const std::string path = ::testing::TempDir() + "/pcf_resume_ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    // No checkpoints on disk yet: must fall back to initialize().
    EXPECT_EQ(pcf::core::resume_or_initialize(dns, world, path, 0.05), -1);
    run_plan plan;
    plan.flow_throughs = 0.02;
    plan.checkpoint_every = 4;
    plan.checkpoint_keep = 2;
    plan.checkpoint_path = path;
    auto rep = run_campaign(dns, world, plan);
    ASSERT_GT(rep.checkpoints_written, 0);
    const double t_saved = dns.time();

    channel_dns dns2(cfg_small(), world);
    const long g = pcf::core::resume_or_initialize(dns2, world, path, 0.05);
    EXPECT_EQ(g, (rep.steps_run / 4) * 4);
    // The newest generation was written at the last multiple of 4 steps.
    EXPECT_NEAR(dns2.time(), t_saved,
                4 * cfg_small().dt + 1e-12);
  });
  remove_generations(path);
}

TEST(Runner, FallsBackToOlderGenerationWhenNewestCorrupt) {
  const std::string path = ::testing::TempDir() + "/pcf_fallback_ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    run_plan plan;
    plan.flow_throughs = 0.02;
    plan.checkpoint_every = 4;
    plan.checkpoint_keep = 2;
    plan.checkpoint_path = path;
    run_campaign(dns, world, plan);
    auto gens = pcf::io::list_generations(path);
    ASSERT_EQ(gens.size(), 2u);
    // Flip one payload byte in the newest generation: its section CRC must
    // reject it and the loader must fall back to the older one.
    const std::string newest =
        pcf::io::generation_path(path, gens.back());
    {
      std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(-64, std::ios::end);
      char c = 0;
      f.seekg(f.tellp());
      f.get(c);
      f.seekp(-1, std::ios::cur);
      f.put(static_cast<char>(c ^ 1));
    }
    channel_dns dns2(cfg_small(), world);
    EXPECT_EQ(pcf::core::restore_newest_generation(dns2, world, path),
              gens.front());
  });
  remove_generations(path);
}

TEST(Runner, RecoversFromBlowupWithReducedDt) {
  const std::string path = ::testing::TempDir() + "/pcf_recover_ckpt";
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.05);
    // Phase 1: a stable segment that leaves rotated checkpoints behind.
    run_plan plan;
    plan.flow_throughs = 0.02;
    plan.checkpoint_every = 4;
    plan.checkpoint_keep = 2;
    plan.checkpoint_path = path;
    auto rep1 = run_campaign(dns, world, plan);
    ASSERT_GT(rep1.checkpoints_written, 0);
    EXPECT_FALSE(rep1.went_nonfinite);

    // Phase 2: "kill" the run deterministically — at the first diagnostic,
    // overscale the mean profile so the energy overflows to inf at the
    // next one. The runner must detect the blow-up, restore the newest
    // good generation, scale dt down, and complete the (short) campaign.
    plan.checkpoint_every = 0;  // keep phase-1 generations untouched
    plan.diag_every = 1;
    plan.max_blowup_retries = 3;
    plan.retry_dt_factor = 0.5;
    plan.max_seconds = 60.0;  // backstop
    bool poisoned_once = false;
    auto rep2 = run_campaign(dns, world, plan,
                             [&](const pcf::core::diag_sample&) {
                               if (poisoned_once) return;
                               poisoned_once = true;
                               auto profile = dns.mean_profile();
                               for (std::size_t i = 1; i + 1 < profile.size();
                                    ++i)
                                 profile[i] *= 1e160;
                               dns.set_mean_profile(profile);
                             });
    EXPECT_GE(rep2.blowup_recoveries, 1);
    EXPECT_GE(rep2.restored_generation, 0);
    EXPECT_FALSE(rep2.went_nonfinite);
    EXPECT_FALSE(rep2.hit_time_budget);
    EXPECT_TRUE(rep2.wrote_report);
    EXPECT_NEAR(dns.dt(), 0.5 * cfg_small().dt, 1e-15);

    // The report names the restored generation and the comm statistics.
    std::ifstream is(path + ".blowup.txt");
    ASSERT_TRUE(is.good());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("vmpi comm stats"), std::string::npos);
    EXPECT_NE(text.find("restored generation"), std::string::npos);
  });
  remove_generations(path);
}

TEST(Runner, BlowupWithoutRetriesWritesReportAndHalts) {
  const std::string path = ::testing::TempDir() + "/pcf_noretry_ckpt";
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    cfg.dt = 1.0;  // wildly unstable
    channel_dns dns(cfg, world);
    dns.initialize(0.3);
    run_plan plan;
    plan.flow_throughs = 10.0;
    plan.diag_every = 1;
    plan.checkpoint_path = path;  // gives the report its default path
    plan.max_seconds = 30.0;      // backstop
    auto rep = run_campaign(dns, world, plan);
    ASSERT_TRUE(rep.went_nonfinite);
    EXPECT_EQ(rep.blowup_recoveries, 0);
    EXPECT_TRUE(rep.wrote_report);
    std::ifstream is(path + ".blowup.txt");
    ASSERT_TRUE(is.good());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("halting (recovery disabled)"), std::string::npos);
  });
  remove_generations(path);
}

TEST(Runner, SeriesCsvRoundTrips) {
  const std::string path = ::testing::TempDir() + "/pcf_series.csv";
  std::vector<pcf::core::diag_sample> series(3);
  for (int i = 0; i < 3; ++i) {
    series[static_cast<std::size_t>(i)].step = 10 * (i + 1);
    series[static_cast<std::size_t>(i)].time = 0.1 * (i + 1);
    series[static_cast<std::size_t>(i)].bulk_velocity = 15.0 + i;
  }
  pcf::core::write_series_csv(path, series);
  std::ifstream is(path);
  std::string header, l1;
  std::getline(is, header);
  std::getline(is, l1);
  EXPECT_EQ(header, "step,time,bulk_velocity,kinetic_energy,wall_shear,cfl");
  EXPECT_EQ(l1.substr(0, 3), "10,");
  std::remove(path.c_str());
}

TEST(Runner, HaltsOnBlowup) {
  // A grossly unstable configuration (huge dt) must be caught by the
  // non-finite monitor instead of running to the end.
  run_world(1, [&](communicator& world) {
    auto cfg = cfg_small();
    cfg.dt = 1.0;  // wildly unstable
    channel_dns dns(cfg, world);
    dns.initialize(0.3);
    run_plan plan;
    plan.flow_throughs = 10.0;
    plan.diag_every = 1;
    plan.max_seconds = 30.0;  // backstop
    auto rep = run_campaign(dns, world, plan);
    EXPECT_TRUE(rep.went_nonfinite || rep.hit_time_budget);
    if (rep.went_nonfinite) {
      EXPECT_LT(rep.steps_run, 10000);
    }
  });
}

TEST(Runner, RejectsBadPlans) {
  run_world(1, [&](communicator& world) {
    channel_dns dns(cfg_small(), world);
    dns.initialize(0.0);
    run_plan plan;
    plan.flow_throughs = -1.0;
    EXPECT_THROW(run_campaign(dns, world, plan), pcf::precondition_error);
    plan.flow_throughs = 0.01;
    plan.checkpoint_every = 1;  // no path
    EXPECT_THROW(run_campaign(dns, world, plan), pcf::precondition_error);
  });
}

}  // namespace
