// Full channel-flow DNS driver — the scientific workload of the paper
// (Section 6), scaled to a single machine.
//
// Runs a turbulent channel at the configured friction Reynolds number from
// a perturbed laminar state, time-averages the statistics of Figures 5-6
// into a CSV, and optionally dumps instantaneous flow slices (Figures 7-8)
// as PPM images.
//
// Usage:
//   ./channel_dns [options]
//     --nx N --nz N --ny N        resolution (default 32 x 33 x 32)
//     --re R                      friction Reynolds number (default 180)
//     --dt T                      time step (default 2e-4)
//     --steps N                   time steps to run (default 2000)
//     --warmup N                  steps before statistics (default half)
//     --ranks P                   virtual MPI ranks, as PA x PB (default 1)
//     --pa A --pb B               explicit process grid
//     --stats FILE.csv            profile output (default channel_stats.csv)
//     --slices PREFIX             write PREFIX_u.ppm / PREFIX_wz.ppm
//     --checkpoint FILE           save state at the end (one file, any
//                                 rank count)
//     --restart FILE              load a --checkpoint file before running
//                                 (on any process grid; continues with the
//                                 saved dt)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "io/ppm.hpp"
#include "io/profiles.hpp"
#include "io/slices.hpp"

namespace {

struct options {
  pcf::core::channel_config cfg;
  long steps = 2000;
  long warmup = -1;
  int ranks = 1;
  std::string stats_path = "channel_stats.csv";
  std::string slice_prefix;
  std::string checkpoint_path;
  std::string restart_path;
};

options parse(int argc, char** argv) {
  options o;
  o.cfg.nx = 32;
  o.cfg.nz = 32;
  o.cfg.ny = 33;
  o.cfg.dt = 2e-4;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (!std::strcmp(a, "--nx")) o.cfg.nx = std::strtoul(next(i), nullptr, 10);
    else if (!std::strcmp(a, "--nz")) o.cfg.nz = std::strtoul(next(i), nullptr, 10);
    else if (!std::strcmp(a, "--ny")) o.cfg.ny = std::atoi(next(i));
    else if (!std::strcmp(a, "--re")) o.cfg.re_tau = std::atof(next(i));
    else if (!std::strcmp(a, "--lx")) o.cfg.lx = std::atof(next(i));
    else if (!std::strcmp(a, "--lz")) o.cfg.lz = std::atof(next(i));
    else if (!std::strcmp(a, "--dt")) o.cfg.dt = std::atof(next(i));
    else if (!std::strcmp(a, "--steps")) o.steps = std::atol(next(i));
    else if (!std::strcmp(a, "--warmup")) o.warmup = std::atol(next(i));
    else if (!std::strcmp(a, "--ranks")) o.ranks = std::atoi(next(i));
    else if (!std::strcmp(a, "--pa")) o.cfg.pa = std::atoi(next(i));
    else if (!std::strcmp(a, "--pb")) o.cfg.pb = std::atoi(next(i));
    else if (!std::strcmp(a, "--stats")) o.stats_path = next(i);
    else if (!std::strcmp(a, "--slices")) o.slice_prefix = next(i);
    else if (!std::strcmp(a, "--checkpoint")) o.checkpoint_path = next(i);
    else if (!std::strcmp(a, "--restart")) o.restart_path = next(i);
    else {
      std::fprintf(stderr, "unknown option %s\n", a);
      std::exit(2);
    }
  }
  if (o.warmup < 0) o.warmup = o.steps / 2;
  if (o.cfg.pa == 0 && o.cfg.pb == 0) {
    o.cfg.pa = o.ranks;
    o.cfg.pb = 1;
  }
  return o;
}

void write_slices(pcf::core::channel_dns& dns,
                  pcf::vmpi::communicator& world, const std::string& prefix) {
  // Global x-y slice at z = 0 (streamwise velocity and spanwise vorticity,
  // as in Figures 7 and 8), gathered across the decomposition.
  std::vector<double> u, v, w, wz;
  dns.physical_velocity(u, v, w);
  dns.physical_vorticity_z(wz);
  const auto& d = dns.dec();
  auto gu = pcf::io::gather_xy_slice(world, d, u, 0);
  auto gw = pcf::io::gather_xy_slice(world, d, wz, 0);
  if (world.rank() != 0) return;
  const std::size_t nx = d.nxf, ny = d.g.ny;
  std::vector<double> su(nx * ny), sw(nx * ny);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x) {
      // image row 0 = top of channel
      su[(ny - 1 - y) * nx + x] = gu[y * nx + x];
      sw[(ny - 1 - y) * nx + x] = gw[y * nx + x];
    }
  auto minmax = [](const std::vector<double>& f) {
    double lo = f[0], hi = f[0];
    for (double v2 : f) {
      lo = std::min(lo, v2);
      hi = std::max(hi, v2);
    }
    return std::pair{lo, hi};
  };
  auto [ulo, uhi] = minmax(su);
  auto [wlo, whi] = minmax(sw);
  pcf::io::write_ppm(prefix + "_u.ppm", su, nx, ny, ulo, uhi);
  pcf::io::write_ppm(prefix + "_wz.ppm", sw, nx, ny, wlo, whi);
  std::printf("wrote %s_u.ppm and %s_wz.ppm (%zu x %zu)\n", prefix.c_str(),
              prefix.c_str(), nx, ny);
}

}  // namespace

int main(int argc, char** argv) {
  options o = parse(argc, argv);
  pcf::vmpi::run_world(o.ranks, [&](pcf::vmpi::communicator& world) {
    pcf::core::channel_dns dns(o.cfg, world);
    if (!o.restart_path.empty()) {
      dns.load_checkpoint(o.restart_path);
      if (world.rank() == 0)
        std::printf("restarted from step %ld (t = %.4f)\n", dns.step_count(),
                    dns.time());
    } else {
      dns.initialize(0.15);
    }

    if (world.rank() == 0) {
      std::printf("channel DNS at Re_tau = %.0f: %zu x %d x %zu modes "
                  "(%zu x %d x %zu dealiased grid), dt = %g, %ld steps\n",
                  o.cfg.re_tau, o.cfg.nx, o.cfg.ny, o.cfg.nz, dns.dec().nxf,
                  o.cfg.ny, dns.dec().nzf, dns.dt(), o.steps);
      std::printf("%8s %12s %12s %12s %10s\n", "step", "bulk U", "KE",
                  "wall shear", "CFL");
    }
    const long report = std::max<long>(1, o.steps / 20);
    for (long s = 0; s < o.steps; ++s) {
      dns.step();
      if (dns.step_count() > o.warmup && dns.step_count() % 10 == 0)
        dns.accumulate_stats();
      if ((s + 1) % report == 0) {
        // The diagnostics are collective: every rank computes them.
        const double ub = dns.bulk_velocity(), ke = dns.kinetic_energy(),
                     tau = dns.wall_shear_stress();
        if (world.rank() == 0)
          std::printf("%8ld %12.5f %12.5f %12.6f %10.4f\n", dns.step_count(),
                      ub, ke, tau, dns.cfl());
      }
    }

    auto prof = dns.stats();
    if (world.rank() == 0 && prof.samples > 0) {
      pcf::io::write_profiles_csv(o.stats_path, prof, o.cfg.re_tau);
      std::printf("wrote %s (%ld samples)\n", o.stats_path.c_str(),
                  prof.samples);
    }
    if (!o.slice_prefix.empty()) write_slices(dns, world, o.slice_prefix);
    if (!o.checkpoint_path.empty()) {
      dns.save_checkpoint(o.checkpoint_path);
      if (world.rank() == 0)
        std::printf("checkpoint written to %s\n", o.checkpoint_path.c_str());
    }
    if (world.rank() == 0) {
      std::printf("per-stage times on rank 0 (parents include children):\n");
      for (const auto& p : dns.timings().phases)
        std::printf("  %*s%-14s %9.2fs\n", 2 * p.depth, "", p.name.c_str(),
                    p.seconds);
    }
  });
  return 0;
}
