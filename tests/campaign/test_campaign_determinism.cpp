// The campaign determinism contract: scheduling is data movement, not
// physics. A 64-run sweep time-sliced over a shared pool — with a
// residency cap harsh enough that runs are repeatedly evicted to spill
// checkpoints and readmitted — must reproduce, per step and per run, the
// exact fingerprints of the same configurations executed solo.
//
// The sweep deliberately mixes everything the scheduler can reorder:
// priorities (so service order differs from enqueue order), seeds and
// perturbations (distinct trajectories), dt policies including the
// adaptive CFL controller (dt evolution must survive spill/readmit), and
// identical grids (so runs share FFT plans — sharing must not leak bits
// between tenants either).
//
// Labels: `determinism` (runs under the determinism, determinism-tsan
// and ubsan presets) + `campaign`. Under TSan the sweep shrinks,
// matching the rest of the determinism suite's TSan policy.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "campaign/campaign.hpp"
#include "core/simulation.hpp"
#include "util/block_pool.hpp"
#include "vmpi/vmpi.hpp"

#if defined(__SANITIZE_THREAD__)
#define PCF_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PCF_UNDER_TSAN 1
#endif
#endif
#ifndef PCF_UNDER_TSAN
#define PCF_UNDER_TSAN 0
#endif

namespace {

using namespace pcf;

#if PCF_UNDER_TSAN
constexpr int kRuns = 16;
constexpr int kSteps = 4;
#else
constexpr int kRuns = 64;
constexpr int kSteps = 6;
#endif

std::vector<campaign::job_spec> sweep_jobs() {
  const double res[] = {180.0, 360.0};
  const double dts[] = {1e-4, 2e-4};
  std::vector<campaign::job_spec> jobs;
  jobs.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    campaign::job_spec j;
    j.name = "run" + std::to_string(i);
    j.config.nx = 16;
    j.config.nz = 16;
    j.config.ny = 33;
    j.config.re_tau = res[i % 2];
    j.config.dt = dts[(i / 2) % 2];
    j.seed = 1 + static_cast<std::uint64_t>(i / 4) % 8;
    j.perturbation = 1e-3 * (1 + i % 3);
    j.priority = i % 3;  // service order != enqueue order
    j.steps = kSteps;
    if (i % 8 == 7) {
      // Adaptive dt: the evolving dt is part of the fingerprint, so a
      // spill/readmit cycle must hand the controller back bit-identical
      // state.
      j.cfl_target = 0.5;
      j.dt_min = j.config.dt * 0.25;
      j.dt_max = j.config.dt * 4.0;
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// The reference: the same job executed alone, with the campaign's
/// per-tenant config override (single-rank world) mirrored,
/// fingerprinting after every step exactly as the campaign observer does.
determinism::trace solo_trace(const campaign::job_spec& j) {
  determinism::trace tr;
  core::channel_config cc = j.config;
  cc.pa = 1;
  cc.pb = 1;
  vmpi::run_world(1, [&](vmpi::communicator& world) {
    core::channel_dns dns(cc, world);
    dns.initialize(j.perturbation, j.seed);
    if (j.cfl_target > 0.0)
      dns.set_cfl_target(j.cfl_target, j.dt_min, j.dt_max);
    for (long s = 0; s < j.steps; ++s) {
      dns.step();
      tr.steps.push_back(determinism::fingerprint(dns));
    }
  });
  return tr;
}

}  // namespace

TEST(CampaignDeterminism, SweepMatchesSoloTracesThroughEviction) {
  const std::string scratch =
      testing::TempDir() + "pcf_campaign_determinism";
  std::filesystem::create_directories(scratch);
  const std::vector<campaign::job_spec> jobs = sweep_jobs();

  // Solo baselines first; the block-pool peak after the first one is the
  // single-run footprint the campaign's peak is budgeted against.
  std::vector<determinism::trace> solo(jobs.size());
  std::uint64_t single_run_peak = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    solo[i] = solo_trace(jobs[i]);
    if (i == 0) single_run_peak = block_pool::global().stats().blocks_peak;
  }
  ASSERT_GT(single_run_peak, 0u);

  // The campaign: a pool wider than one, slices narrower than a run, and
  // a residency cap far below the tenant count → constant eviction churn.
  campaign::campaign_config cfg;
  cfg.workers = 4;
  cfg.slice_steps = 2;
  cfg.max_resident = 6;
  cfg.spill_dir = scratch;
  campaign::campaign_server server(cfg);

  std::vector<std::uint64_t> ids;
  ids.reserve(jobs.size());
  for (const auto& j : jobs) ids.push_back(server.enqueue(j));

  // ids are dense and enqueue-ordered; preallocate so concurrent workers
  // append to disjoint vectors with no reallocation of the outer one.
  std::vector<determinism::trace> campaign_traces(jobs.size());
  server.set_step_observer([&](std::uint64_t id, core::channel_dns& dns) {
    campaign_traces[id - ids.front()].steps.push_back(
        determinism::fingerprint(dns));
  });

  const campaign::campaign_report rep = server.run();

  // Scheduling sanity: everything finished, and the cap actually bit.
  int evicted_runs = 0;
  for (const auto& j : rep.jobs) {
    EXPECT_EQ(j.state, campaign::job_state::done) << j.name << " " << j.error;
    EXPECT_EQ(j.steps_done, kSteps) << j.name;
    if (j.evictions > 0) ++evicted_runs;
  }
  EXPECT_GT(rep.evictions, 0u) << "the sweep must exercise eviction";
  EXPECT_EQ(rep.evictions, rep.readmissions);
  EXPECT_GT(evicted_runs, 0);
  EXPECT_GT(rep.plan_cache_hits, 0u) << "identical grids must share plans";
  EXPECT_EQ(rep.stranded_blocks, 0u);

  // The memory story: suspended tenants hold no workspace, so the pool
  // peak of 64 interleaved runs stays a small multiple (bounded by the
  // worker count, not the tenant count) of one run's footprint.
  const std::uint64_t campaign_peak = block_pool::global().stats().blocks_peak;
  EXPECT_LT(campaign_peak, 8 * single_run_peak)
      << "campaign peak " << campaign_peak << " blocks vs single run "
      << single_run_peak;

  // The contract itself: every run's per-step fingerprints — including
  // every evicted-and-readmitted run's — are bit-identical to solo.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto divs = compare(solo[i], campaign_traces[i]);
    EXPECT_TRUE(divs.empty())
        << jobs[i].name << " diverged from its solo execution (evictions="
        << rep.jobs[i].evictions << "):\n"
        << determinism::describe(divs);
  }
}
