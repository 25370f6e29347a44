// Quickstart: the smallest useful channel DNS.
//
// Builds a coarse Re_tau = 180 channel, runs a few hundred time steps from
// a perturbed laminar state, and prints the flow diagnostics every few
// steps. Takes a couple of seconds on one core.
//
//   ./quickstart [steps]
#include <cstdio>
#include <cstdlib>

#include "core/simulation.hpp"

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 200;

  pcf::core::channel_config cfg;
  cfg.nx = 16;         // streamwise Fourier modes
  cfg.nz = 16;         // spanwise Fourier modes
  cfg.ny = 33;         // wall-normal B-spline basis functions (degree 7)
  cfg.re_tau = 180.0;  // nu = 1 / Re_tau; driven by dP/dx = -1
  cfg.dt = 1e-4;

  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& world) {
    pcf::core::channel_dns dns(cfg, world);
    dns.initialize(/*perturbation=*/0.1);

    std::printf("channel DNS: %zu x %d x %zu modes, Re_tau = %.0f\n", cfg.nx,
                cfg.ny, cfg.nz, cfg.re_tau);
    std::printf("%8s %12s %12s %12s %10s\n", "step", "bulk U", "KE",
                "wall shear", "CFL");
    for (int s = 0; s <= steps; ++s) {
      if (s % (steps / 10 > 0 ? steps / 10 : 1) == 0) {
        std::printf("%8ld %12.5f %12.5f %12.6f %10.4f\n", dns.step_count(),
                    dns.bulk_velocity(), dns.kinetic_energy(),
                    dns.wall_shear_stress(), dns.cfl());
      }
      if (s < steps) dns.step();
    }

    auto t = dns.timings();
    std::printf("\nper-stage breakdown (parents include children; the "
                "transforms split into\ntheir pack, exchange and FFT "
                "stages):\n");
    for (const auto& p : t.phases)
      std::printf("  %*s%-14s %9.3fs  %8ld calls\n", 2 * p.depth, "",
                  p.name.c_str(), p.seconds, p.calls);

    std::printf("\nworkspace high-water:\n");
    for (const auto& u : t.workspace)
      std::printf("  %-12s %8.1f KiB peak of %8.1f KiB (%5.1f%%)\n",
                  u.name.c_str(),
                  static_cast<double>(u.peak_bytes) / 1024.0,
                  static_cast<double>(u.capacity_bytes) / 1024.0,
                  u.capacity_bytes
                      ? 100.0 * static_cast<double>(u.peak_bytes) /
                            static_cast<double>(u.capacity_bytes)
                      : 0.0);
    std::printf("  block pool: %llu blocks live (peak %llu), "
                  "%llu leases (%llu cache hits), %llu holes\n",
                  static_cast<unsigned long long>(t.pool.blocks_leased),
                  static_cast<unsigned long long>(t.pool.blocks_peak),
                  static_cast<unsigned long long>(t.pool.leases),
                  static_cast<unsigned long long>(t.pool.cache_hits),
                  static_cast<unsigned long long>(t.pool.holes));
  });
  return 0;
}
