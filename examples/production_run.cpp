// A scaled-down version of the paper's production campaign (Section 6):
// run the channel for a number of flow-throughs with the campaign runner —
// warmup, statistics cadence, periodic checkpoints, a diagnostics time
// series — then write profiles, the series CSV, and a full 3-D VTK field.
//
//   ./production_run [flow_throughs] [ranks]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "io/profiles.hpp"
#include "io/slices.hpp"
#include "io/vtk.hpp"

int main(int argc, char** argv) {
  const double fts = argc > 1 ? std::atof(argv[1]) : 0.25;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 1;

  pcf::core::channel_config cfg;
  cfg.nx = 24;
  cfg.nz = 24;
  cfg.ny = 33;
  cfg.re_tau = 180.0;
  cfg.dt = 2e-4;
  cfg.pa = ranks;

  pcf::vmpi::run_world(ranks, [&](pcf::vmpi::communicator& world) {
    pcf::core::channel_dns dns(cfg, world);

    pcf::core::run_plan plan;
    plan.flow_throughs = fts;
    plan.warmup_fraction = 0.4;
    plan.stats_every = 5;
    plan.diag_every = 50;
    plan.checkpoint_every = 500;
    plan.checkpoint_path = "production.ckpt";
    plan.checkpoint_keep = 3;       // rotated generations on disk
    plan.max_blowup_retries = 2;    // restore + halve dt, at most twice
    plan.retry_dt_factor = 0.5;

    // Rolling per-stage timing windows: every 250 steps print the
    // hierarchical phase breakdown accumulated since the previous window.
    plan.timings_every = 250;
    plan.on_timings = [&](const pcf::core::step_timings& t) {
      if (world.rank() != 0) return;
      std::printf("  -- stage timings (last %ld steps) --\n",
                  plan.timings_every);
      for (const auto& p : t.phases)
        std::printf("     %*s%-14s %9.3fs  %8ld calls\n", 2 * p.depth, "",
                    p.name.c_str(), p.seconds, p.calls);
    };

    // Resume from the newest good checkpoint generation if a previous
    // (possibly killed) campaign left one behind; otherwise start fresh.
    const long resumed = pcf::core::resume_or_initialize(
        dns, world, plan.checkpoint_path, 0.15);
    if (world.rank() == 0 && resumed >= 0)
      std::printf("resumed from checkpoint generation %ld (t = %.3f)\n",
                  resumed, dns.time());

    if (world.rank() == 0)
      std::printf("running %.2f flow-throughs (flow-through time %.3f)\n",
                  fts, pcf::core::flow_through_time(dns));
    auto rep = pcf::core::run_campaign(
        dns, world, plan, [&](const pcf::core::diag_sample& d) {
          if (world.rank() == 0)
            std::printf("  step %6ld t %.3f Ub %.3f KE %.2f shear %.3f "
                        "CFL %.2f\n",
                        d.step, d.time, d.bulk_velocity, d.kinetic_energy,
                        d.wall_shear, d.cfl);
        });

    if (world.rank() == 0) {
      std::printf("ran %ld steps, %ld checkpoints%s\n", rep.steps_run,
                  rep.checkpoints_written,
                  rep.hit_time_budget ? " (hit wall-clock budget)" : "");
      if (rep.blowup_recoveries > 0)
        std::printf("recovered from %ld blow-up(s); last restore from "
                    "generation %ld (see production.ckpt.blowup.txt)\n",
                    rep.blowup_recoveries, rep.restored_generation);
      if (rep.went_nonfinite)
        std::printf("halted on non-finite energy; diagnostics in "
                    "production.ckpt.blowup.txt\n");
      pcf::core::write_series_csv("production_series.csv", rep.series);
      if (rep.profiles.samples > 0)
        pcf::io::write_profiles_csv("production_profiles.csv", rep.profiles,
                                    cfg.re_tau);
    }

    // Full 3-D field to VTK: gather plane by plane.
    std::vector<double> u, v, w;
    dns.physical_velocity(u, v, w);
    const auto& d = dns.dec();
    std::vector<double> gu;
    gu.reserve(d.nzf * d.g.ny * d.nxf);
    for (std::size_t zg = 0; zg < d.nzf; ++zg) {
      auto plane = pcf::io::gather_xy_slice(world, d, u, zg);
      gu.insert(gu.end(), plane.begin(), plane.end());
    }
    if (world.rank() == 0) {
      std::vector<double> xs(d.nxf), zs(d.nzf);
      for (std::size_t i = 0; i < d.nxf; ++i)
        xs[i] = cfg.lx * static_cast<double>(i) / static_cast<double>(d.nxf);
      for (std::size_t i = 0; i < d.nzf; ++i)
        zs[i] = cfg.lz * static_cast<double>(i) / static_cast<double>(d.nzf);
      pcf::io::write_vtk_rectilinear("production_u.vtk", xs,
                                     dns.operators().points(), zs,
                                     {{"u", &gu}});
      std::printf("wrote production_series.csv, production_profiles.csv, "
                  "production_u.vtk\n");
    }
  });
  return 0;
}
