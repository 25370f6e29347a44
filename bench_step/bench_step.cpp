// bench_step: end-to-end and per-layer benchmark of the channel DNS.
//
//   bench_step --workload <name> --seed <u64> [--seconds <s>] [--trace <file>]
//              [--tmpdir <dir>] [--smoke]
//
// One workload per process, closed loop, one rank. The untraced run
// measures what a DNS user pays (wall time per RK3 step, set-up time,
// memory); a --trace run of the same workload and seed keeps spans in memory
// around every call the bench makes into a layer, replays each layer on the
// workload's shapes (the exchange layers on a 2x2 rank split), and writes the
// spans as Chrome trace-event JSON. Correctness (divergence, finite
// diagnostics, flow-rate target, fingerprint agreement) is checked outside
// the timed window on every run; the process exits non-zero if any check
// fails. README.md documents the workloads, the metrics and the comparison
// protocol.
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numbers>
#include <optional>

#include "analysis/determinism.hpp"
#include "banded/compact.hpp"
#include "core/mode_solver.hpp"
#include "core/simulation.hpp"
#include "fft/fft.hpp"
#include "fft/plan_cache.hpp"
#include "harness.hpp"
#include "pencil/pencil.hpp"
#include "util/block_pool.hpp"
#include "util/counters.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/vmpi.hpp"

namespace {

using namespace pcf;
using bench_step::clk;
using bench_step::metric_group;
using bench_step::seconds_between;
using bench_step::span;
using bench_step::tracer;

constexpr double kPerturbation = 0.1;

// ---------------------------------------------------------------------------
// Workloads. Each one puts a different layer in charge of the step time (see
// README.md for the measured shares), so a change to one layer can show its
// gain on one workload and "no change" on another. All run on one rank: on
// the shared host a multi-rank step runs at one of two speeds about 1.5x
// apart, switching with the host's load every few tens of seconds, which no
// statistic inside a run can separate from the program's own cost
// (README.md). The exchange layers are measured by the --trace replays on
// 2x2 instead.

struct workload {
  std::string name;
  core::channel_config cfg;
};

core::channel_config quickstart_config() {
  core::channel_config c;
  c.nx = 16;
  c.nz = 16;
  c.ny = 33;
  c.re_tau = 180.0;
  c.dt = 1e-4;
  return c;
}

std::optional<workload> find_workload(const std::string& name) {
  workload w{name, quickstart_config()};
  if (name == "channel_1r") return w;
  if (name == "large_1r") {
    w.cfg.nx = 32;
    w.cfg.ny = 49;
    w.cfg.nz = 16;
    return w;
  }
  if (name == "scalars_1r") {
    w.cfg.scenario.forcing = core::forcing_mode::flow_rate;
    w.cfg.scenario.scalars = {{0.71, 0.0, 1.0}, {0.71, -1.0, 1.0},
                              {7.0, 0.0, 0.0}};
    return w;
  }
  return std::nullopt;
}

/// The rank split of the exchange replays (pencil, vmpi): the smallest one
/// with real exchanges on both communicators.
constexpr int kReplayPa = 2, kReplayPb = 2;

struct run_sizes {
  // Short sub-worlds, many of them: the host's noise comes in bursts of
  // about a second, so spreading samples over many fresh worlds (and
  // interleaving the set-up-only worlds with the timed ones) keeps medians
  // steady from run to run.
  int steps = 50;          // timed steps per sub-world
  int min_worlds = 2;      // timed sub-worlds run even past the budget
  int max_worlds = 0;      // 0: as many as the time budget allows
  double replay_s = 0.25;  // time budget of each layer replay (--trace)
  int io_rounds = 5;
  std::size_t dram_bytes = 0;  // per memcpy array; 0 = 4x the LLC
};

run_sizes smoke_sizes() {
  run_sizes z;
  z.steps = 5;
  z.max_worlds = 2;
  z.replay_s = 0.005;
  z.io_rounds = 1;
  z.dram_bytes = std::size_t{16} << 20;
  return z;
}

/// Fingerprints pinned at --seed 1: (workload, timed steps after the set-up
/// step) -> determinism::step_fingerprint::combined() at the end of the
/// sub-world. large_1r's values are also those of the same grid split 2x2:
/// the decomposition changes no bit of the result.
struct pinned_fingerprint {
  const char* workload;
  int steps;
  std::uint32_t combined;
};
constexpr pinned_fingerprint kPinned[] = {
    {"channel_1r", 50, 0x3d621d61u},  {"channel_1r", 5, 0xcd9c9f96u},
    {"large_1r", 50, 0xebcc96f9u},    {"large_1r", 5, 0x9eadc47fu},
    {"scalars_1r", 50, 0x4188e155u},  {"scalars_1r", 5, 0x5a083ce0u},
};

std::optional<std::uint32_t> pinned(const std::string& w, int steps) {
  for (const auto& p : kPinned)
    if (w == p.workload && steps == p.steps) return p.combined;
  return std::nullopt;
}

/// Failed correctness checks, in the order they were found.
struct checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// One DNS sub-world: a fresh one-rank vmpi world, set-up (constructor +
// initialize + first step), then `steps` timed steps, then the correctness
// probes.

struct world_options {
  core::channel_config cfg;
  std::uint64_t seed = 1;
  int steps = 0;  // 0: set-up only
  int io_rounds = 0;
  tracer* tr = nullptr;
  int group = 0;
  std::string scratch;
};

struct world_result {
  double setup_s = 0.0;
  std::vector<double> step_s;  // intervals between consecutive step ends
  std::vector<double> call_s;  // step() call durations
  std::vector<core::step_timings::phase_report> phases;  // timed window
  std::vector<std::uint64_t> lane_bytes;  // workspace lane capacities
  double workspace_peak_kib = 0.0;
  op_counts ops;  // timed window
  std::uint32_t fingerprint = 0;
  double fingerprint_s = 0.0;
  double max_div = 0.0, ke = 0.0, bulk = 0.0, flow_target = 0.0;
  std::vector<double> ckpt_write_s, ckpt_read_s;
  double ckpt_mib = 0.0;
};

world_result run_world(const world_options& o) {
  world_result res;
  vmpi::run_world(1, [&](vmpi::communicator& world) {
    span sw(o.tr, o.steps > 0 ? "subworld" : "setup_world", "core", 0,
            o.group, 0);
    const auto t0 = clk::now();
    std::unique_ptr<core::channel_dns> dns;
    {
      span s(o.tr, "setup", "core", sw.id(), o.group, 0);
      dns = std::make_unique<core::channel_dns>(o.cfg, world);
      dns->initialize(kPerturbation, o.seed);
      dns->step();
    }
    res.setup_s = seconds_between(t0, clk::now());
    if (o.steps == 0) return;

    dns->reset_timings();
    counters::drain();
    const op_counts ops0 = counters::total();
    auto prev = clk::now();
    for (int k = 0; k < o.steps; ++k) {
      const auto ts = clk::now();
      {
        span s(o.tr, "step", "core", sw.id(), o.group, 0);
        dns->step();
      }
      const auto te = clk::now();
      res.call_s.push_back(seconds_between(ts, te));
      res.step_s.push_back(seconds_between(prev, te));
      prev = te;
    }
    counters::drain();
    const op_counts ops1 = counters::total();
    res.ops.flops = ops1.flops - ops0.flops;
    res.ops.bytes_read = ops1.bytes_read - ops0.bytes_read;
    res.ops.bytes_written = ops1.bytes_written - ops0.bytes_written;
    const core::step_timings t = dns->timings();
    res.phases = t.phases;
    for (const auto& lane : t.workspace) {
      res.lane_bytes.push_back(lane.capacity_bytes);
      res.workspace_peak_kib += static_cast<double>(lane.peak_bytes) / 1024.0;
    }

    // Correctness probes, outside the timed window.
    res.max_div = dns->max_divergence();
    res.ke = dns->kinetic_energy();
    res.bulk = dns->bulk_velocity();
    if (o.cfg.scenario.constant_flow_rate())
      res.flow_target = dns->flow_rate_target();
    const auto tf = clk::now();
    {
      span s(o.tr, "fingerprint", "analysis", sw.id(), o.group, 0);
      res.fingerprint =
          determinism::fingerprint(*dns, o.scratch + "/fingerprint.ckpt")
              .combined();
    }
    res.fingerprint_s = seconds_between(tf, clk::now());

    const std::string path = o.scratch + "/io.ckpt";
    for (int i = 0; i < o.io_rounds; ++i) {
      const auto tw = clk::now();
      {
        span s(o.tr, "checkpoint_write", "io", sw.id(), o.group, 0);
        dns->save_checkpoint(path);
      }
      const auto tr = clk::now();
      {
        span s(o.tr, "checkpoint_read", "io", sw.id(), o.group, 0);
        dns->load_checkpoint(path);
      }
      res.ckpt_write_s.push_back(seconds_between(tw, tr));
      res.ckpt_read_s.push_back(seconds_between(tr, clk::now()));
    }
    if (o.io_rounds > 0)
      res.ckpt_mib = static_cast<double>(std::filesystem::file_size(path)) /
                     (1 << 20);
  });
  return res;
}

// ---------------------------------------------------------------------------
// A series of sub-worlds of the workload: timed worlds until the budget is
// spent, each preceded by a set-up-only world, so there are two set-up
// samples per timed world spread over the whole run. The first set-up of
// the process is the cold one. With a tracer, even worlds record spans and
// odd ones do not, so the same process measures the tracing overhead.

struct series_result {
  double cold_setup_s = 0.0;
  std::vector<double> setups;  // warm set-up samples
  std::vector<world_result> worlds;
  std::vector<bool> traced;
  std::uint64_t attempted = 0, failed = 0;
};

series_result run_series(const workload& w, std::uint64_t seed,
                         const run_sizes& z, double budget_s, tracer* tr,
                         const std::string& scratch, checks& chk) {
  series_result out;
  const auto start = clk::now();
  const auto attempt = [&](world_options o, bool traced) {
    o.cfg = w.cfg;
    o.seed = seed;
    o.scratch = scratch;
    o.tr = traced ? tr : nullptr;
    const std::uint64_t n = o.steps > 0 ? static_cast<std::uint64_t>(o.steps) : 1;
    out.attempted += n;
    try {
      return std::optional<world_result>(run_world(o));
    } catch (const std::exception& e) {
      out.failed += n;
      chk.require(false, w.name + ": sub-world threw: " + e.what());
      return std::optional<world_result>();
    }
  };

  bool cold = true;
  const auto add_setup = [&](double s) {
    if (cold)
      out.cold_setup_s = s;
    else
      out.setups.push_back(s);
    cold = false;
  };

  double last_s = 0.0;
  for (int k = 0; z.max_worlds == 0 || k < z.max_worlds; ++k) {
    const double elapsed = seconds_between(start, clk::now());
    if (k >= z.min_worlds && elapsed + last_s > budget_s) break;
    const bool traced = tr != nullptr && k % 2 == 0;
    const auto t0 = clk::now();
    {
      world_options o;
      o.group = 500 + k;
      if (const auto r = attempt(o, traced)) add_setup(r->setup_s);
    }
    world_options o;
    o.steps = z.steps;
    o.group = k;
    o.io_rounds = traced && k == 0 ? z.io_rounds : 0;
    auto r = attempt(o, traced);
    last_s = seconds_between(t0, clk::now());
    if (!r) continue;
    add_setup(r->setup_s);
    out.worlds.push_back(std::move(*r));
    out.traced.push_back(traced);
  }
  return out;
}

/// The DNS invariants every timed sub-world must satisfy.
void check_series(const workload& w, const series_result& s,
                  std::uint64_t seed, int steps, checks& chk) {
  chk.require(!s.worlds.empty(), w.name + ": no sub-world completed");
  std::optional<std::uint32_t> first;
  for (const auto& r : s.worlds) {
    chk.require(r.max_div < 1e-10, w.name + ": max_divergence " +
                                       std::to_string(r.max_div) + " >= 1e-10");
    chk.require(std::isfinite(r.ke) && std::isfinite(r.bulk),
                w.name + ": kinetic energy or bulk velocity not finite");
    if (w.cfg.scenario.constant_flow_rate())
      chk.require(std::abs(r.bulk - r.flow_target) < 1e-10,
                  w.name + ": bulk velocity misses the flow-rate target");
    if (!first) first = r.fingerprint;
    chk.require(r.fingerprint == *first,
                w.name + ": fingerprints differ across sub-worlds");
  }
  if (first) std::printf("fingerprint %s steps %d: 0x%08x\n", w.name.c_str(),
                         steps, *first);
  const auto pin = pinned(w.name, steps);
  if (seed == 1 && first && pin)
    chk.require(*first == *pin, w.name + ": seed-1 fingerprint differs from "
                                          "the pinned value");
}

// ---------------------------------------------------------------------------
// Layer replays (--trace only): each layer driven alone, from outside, on
// the workload's shapes, for about `budget_s`. The exchange layers (pencil,
// vmpi) run on a kReplayPa x kReplayPb world so that their exchanges are
// real; on the workloads' one rank they are buffer forwards.

/// Repetitions that fill `budget_s` given one warm-up call's duration.
int reps_for(double budget_s, double one_s, int lo, int hi) {
  const double n = one_s > 0.0 ? budget_s / one_s : lo;
  return static_cast<int>(std::clamp(n, static_cast<double>(lo),
                                     static_cast<double>(hi)));
}

/// Agree on a repetition count across the ranks of a world: rank 0 measures
/// one warm-up call of `fn` (collective) and broadcasts the count.
template <class F>
int agreed_reps(vmpi::communicator& world, double budget_s, F&& fn) {
  world.barrier();
  const auto t0 = clk::now();
  fn();
  world.barrier();
  int reps = reps_for(budget_s, seconds_between(t0, clk::now()), 3, 100000);
  world.bcast(&reps, 1, 0);
  return reps;
}

struct pencil_numbers {
  double substep_s = 0, comm_s = 0, reorder_s = 0, fft_s = 0;
  double exchanges = 0, bytes_exchanged = 0, bytes_packed = 0;
};

/// One RK3 substep's transforms: to_physical_batch(3 + S) and
/// to_spectral_batch(5 + 3S) on the workload's grid, split 2x2.
pencil_numbers pencil_replay(const workload& w, double budget_s, tracer* tr) {
  const auto& c = w.cfg;
  const pencil::grid g{c.nx, static_cast<std::size_t>(c.ny), c.nz};
  const std::size_t S = c.scenario.scalars.size();
  const std::size_t down = 3 + S, up = 5 + 3 * S;
  pencil_numbers out;
  constexpr int ranks = kReplayPa * kReplayPb;
  std::vector<double> cross_bytes(ranks, 0.0);
  std::vector<double> packed_bytes(ranks, 0.0);

  vmpi::run_world(ranks, [&](vmpi::communicator& world) {
    const int r = world.rank();
    vmpi::cart2d cart(world, kReplayPa, kReplayPb);
    pencil::kernel_config kc{true, true, c.fft_threads, c.reorder_threads};
    kc.max_batch = c.max_batch;
    kc.pipeline_depth = c.pipeline_depth;
    pencil::parallel_fft pf(g, cart, kc);
    const pencil::decomp& d = pf.dec();

    std::vector<std::vector<pencil::cplx>> spec(up);
    std::vector<std::vector<double>> phys(up);
    std::vector<pencil::cplx*> sp(up);
    std::vector<double*> pp(up);
    for (std::size_t f = 0; f < up; ++f) {
      spec[f].resize(d.y_pencil_elems());
      phys[f].resize(d.x_pencil_real_elems());
      for (std::size_t i = 0; i < spec[f].size(); ++i)
        spec[f][i] = {std::sin(0.01 * static_cast<double>(i + f)), 0.0};
      for (std::size_t i = 0; i < phys[f].size(); ++i)
        phys[f][i] = std::cos(0.01 * static_cast<double>(i + f));
      sp[f] = spec[f].data();
      pp[f] = phys[f].data();
    }
    const auto substep = [&] {
      pf.to_physical_batch(sp.data(), pp.data(), down);
      pf.to_spectral_batch(pp.data(), sp.data(), up);
    };
    const int reps = agreed_reps(world, budget_s, substep);
    pf.reset_timers();
    const pencil::batch_stats b0 = pf.batching();
    world.barrier();
    const auto t0 = clk::now();
    for (int k = 0; k < reps; ++k) {
      span s(tr, "substep_transforms", "pencil", 0, 901, r);
      substep();
    }
    world.barrier();
    const double el = seconds_between(t0, clk::now());

    // Bytes that cross between ranks, both transposes, both directions
    // (each direction moves the same global volume): computed from the
    // block layout, the rank's own block excluded.
    const double per_field =
        16.0 * static_cast<double>(
                   d.xs.count * d.zs.count * (g.ny - d.yb.count) +
                   d.xs.count * d.yb.count * (d.nzf - d.zp.count));
    cross_bytes[static_cast<std::size_t>(r)] =
        per_field * static_cast<double>(down + up);
    // Every packed and unpacked byte, the rank's own block included.
    packed_bytes[static_cast<std::size_t>(r)] =
        16.0 * static_cast<double>(d.y_pencil_elems() + d.z_pencil_elems()) *
        static_cast<double>(down + up);
    if (r == 0) {
      const double n = reps;
      out.substep_s = el / n;
      out.comm_s = pf.comm_seconds() / n;
      out.reorder_s = pf.reorder_seconds() / n;
      out.fft_s = pf.fft_seconds() / n;
      out.exchanges =
          static_cast<double>(pf.batching().exchanges - b0.exchanges) / n;
    }
  });
  for (double b : cross_bytes) out.bytes_exchanged += b;
  for (double b : packed_bytes) out.bytes_packed += b;
  return out;
}

struct fft_numbers {
  double r2c_ns = 0, c2r_ns = 0, c2c_ns = 0, bluestein_ns = 0, gflops = 0;
};

/// Shared-cache plans at the workload's physical line lengths (x: 3nx/2
/// real, z: 3nz/2 complex), plus n = 111 = 3 x 37, which only Bluestein
/// handles; 64 contiguous lines per call.
fft_numbers fft_replay(const workload& w, double budget_s, tracer* tr) {
  constexpr std::size_t lines = 64;
  const std::size_t nx = 3 * w.cfg.nx / 2, nz = 3 * w.cfg.nz / 2;
  const auto r2c = fft::shared_r2c(nx);
  const auto c2r = fft::shared_c2r(nx);
  const auto c2c = fft::shared_c2c(nz, fft::direction::forward);
  const auto blu = fft::shared_c2c(111, fft::direction::forward);

  std::vector<double> real(lines * nx);
  std::vector<fft::cplx> half(lines * (nx / 2 + 1));
  std::vector<fft::cplx> cin(lines * 111), cout(lines * 111);
  for (std::size_t i = 0; i < real.size(); ++i)
    real[i] = std::sin(0.1 * static_cast<double>(i));
  for (std::size_t i = 0; i < cin.size(); ++i)
    cin[i] = {std::cos(0.1 * static_cast<double>(i)), 0.0};

  // ns per line of `fn` (one call = `lines` lines).
  double flops = 0.0, busy = 0.0;
  const auto per_line = [&](const char* name, double line_flops, auto&& fn) {
    const auto w0 = clk::now();
    fn();
    const int reps = reps_for(budget_s / 4, seconds_between(w0, clk::now()),
                              10, 1000000);
    span s(tr, name, "fft", 0, 902, 0);
    const auto t0 = clk::now();
    for (int k = 0; k < reps; ++k) fn();
    const double el = seconds_between(t0, clk::now());
    if (line_flops > 0.0) {
      flops += line_flops * static_cast<double>(lines) * reps;
      busy += el;
    }
    return 1e9 * el / (static_cast<double>(reps) * lines);
  };
  const auto nominal = [](std::size_t n, double scale) {
    return scale * static_cast<double>(n) * std::log2(static_cast<double>(n));
  };

  fft_numbers out;
  out.r2c_ns = per_line("r2c", nominal(nx, 2.5), [&] {
    r2c->execute_many(real.data(), nx, half.data(), nx / 2 + 1, lines);
  });
  out.c2r_ns = per_line("c2r", nominal(nx, 2.5), [&] {
    c2r->execute_many(half.data(), nx / 2 + 1, real.data(), nx, lines);
  });
  out.c2c_ns = per_line("c2c", c2c->flops_per_execute(), [&] {
    c2c->execute_many(cin.data(), nz, cout.data(), nz, lines);
  });
  out.bluestein_ns = per_line("c2c_bluestein111", 0.0, [&] {
    blu->execute_many(cin.data(), 111, cout.data(), 111, lines);
  });
  out.gflops = busy > 0.0 ? flops / busy / 1e9 : 0.0;
  return out;
}

struct banded_numbers {
  double solve2_ns = 0, solve_gbs = 0, arena_build_s = 0;
};

/// The blocked 2-complex-RHS solve at n = ny, h = 7 (the fused omega/phi
/// panel), and a cold solver_arena build over rank 0's modes — what every
/// resume and every dt change pays.
banded_numbers banded_replay(const workload& w, double budget_s, tracer* tr) {
  const auto& c = w.cfg;
  const int n = c.ny, h = 7;
  banded::compact_banded a(n, h);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&] {  // xorshift: deterministic, in [-0.5, 0.5)
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  };
  for (int i = 0; i < n; ++i)
    for (int j = a.row_start(i); j <= a.row_start(i) + 2 * h; ++j)
      a.at(i, j) = i == j ? 4.0 + 2 * h : next();  // diagonally dominant
  a.factorize();

  const auto un = static_cast<std::size_t>(n);
  std::vector<banded::cplx> rhs(2 * un), x(2 * un);
  for (auto& v : rhs) v = {next(), next()};
  // Each solve restores the panel first: repeated in-place solves would
  // shrink it into denormals.
  const auto solve = [&] {
    std::copy(rhs.begin(), rhs.end(), x.begin());
    a.solve_many(x.data(), 2, un);
  };
  banded_numbers out;
  {
    const auto w0 = clk::now();
    solve();
    const int reps = reps_for(budget_s / 2, seconds_between(w0, clk::now()),
                              100, 10000000);
    span s(tr, "solve_many_2rhs", "banded", 0, 903, 0);
    const auto t0 = clk::now();
    for (int k = 0; k < reps; ++k) solve();
    const double per = seconds_between(t0, clk::now()) / reps;
    // Computed traffic: the factored band streamed by the forward and the
    // backward sweep, the panel read and written by each.
    const double bytes = 2.0 * static_cast<double>(a.storage_bytes()) +
                         4.0 * static_cast<double>(2 * un * sizeof(banded::cplx));
    out.solve2_ns = 1e9 * per;
    out.solve_gbs = bytes / per / 1e9;
  }

  const core::wall_normal_operators ops(c.ny, c.degree, c.stretch);
  const pencil::block xs = pencil::block_range(c.nx / 2, c.pa, 0);
  const pencil::block zs = pencil::block_range(c.nz, c.pb, 0);
  std::vector<double> k2s;
  for (std::size_t jx = xs.offset; jx < xs.offset + xs.count; ++jx)
    for (std::size_t jz = zs.offset; jz < zs.offset + zs.count; ++jz) {
      const double kx = 2.0 * std::numbers::pi / c.lx * static_cast<double>(jx);
      const double mz = jz < c.nz / 2 ? static_cast<double>(jz)
                                      : static_cast<double>(jz) -
                                            static_cast<double>(c.nz);
      const double kz = 2.0 * std::numbers::pi / c.lz * mz;
      k2s.push_back(kx * kx + kz * kz);
    }
  thread_pool pool(1);
  core::solver_arena arena;
  const double coeff = 0.5 * c.dt / c.re_tau;  // a beta * nu * dt magnitude
  std::vector<double> builds;
  const auto b0 = clk::now();
  while (builds.size() < 3 ||
         (seconds_between(b0, clk::now()) < budget_s / 2 && builds.size() < 1000)) {
    arena.reset();
    span s(tr, "arena_build", "banded", 0, 903, 0);
    const auto t0 = clk::now();
    arena.build(ops, coeff, k2s, pool);
    builds.push_back(seconds_between(t0, clk::now()));
  }
  out.arena_build_s = bench_step::median(builds);
  return out;
}

struct vmpi_numbers {
  double alltoallv_s = 0, alltoallv_gbs = 0, rendezvous_us = 0;
};

/// One aggregated exchange per transpose (max_batch fields) at the CommB
/// (y<->z) and CommA (z<->x) counts of the workload's grid split 2x2, then
/// 1000 empty world barriers.
vmpi_numbers vmpi_replay(const workload& w, double budget_s, tracer* tr) {
  const auto& c = w.cfg;
  const pencil::grid g{c.nx, static_cast<std::size_t>(c.ny), c.nz};
  const std::size_t fields = static_cast<std::size_t>(c.max_batch);
  constexpr int ranks = kReplayPa * kReplayPb;
  vmpi_numbers out;
  std::vector<double> sent(ranks, 0.0);

  vmpi::run_world(ranks, [&](vmpi::communicator& world) {
    const int r = world.rank();
    vmpi::cart2d cart(world, kReplayPa, kReplayPb);
    const pencil::decomp d(g, pencil::kernel_config{}, kReplayPa, kReplayPb,
                           cart.coord_a(), cart.coord_b());
    struct plan {
      vmpi::communicator* comm;
      std::vector<std::size_t> sc, sd, rc, rd;
      std::vector<pencil::cplx> sbuf, rbuf;
    };
    plan pb{&cart.comm_b(), {}, {}, {}, {}, {}, {}};
    plan pa{&cart.comm_a(), {}, {}, {}, {}, {}, {}};
    for (int q = 0; q < kReplayPb; ++q) {  // y-pencil -> z-pencil
      pb.sc.push_back(fields * d.xs.count * d.zs.count *
                      pencil::block_range(g.ny, kReplayPb, q).count);
      pb.rc.push_back(fields * d.xs.count *
                      pencil::block_range(g.nz, kReplayPb, q).count *
                      d.yb.count);
    }
    for (int p = 0; p < kReplayPa; ++p) {  // z-pencil -> x-pencil
      pa.sc.push_back(fields * d.xs.count * d.yb.count *
                      pencil::block_range(d.nzf, kReplayPa, p).count);
      pa.rc.push_back(fields * pencil::block_range(d.nxs, kReplayPa, p).count *
                      d.yb.count * d.zp.count);
    }
    double bytes = 0.0;
    for (plan* p : {&pb, &pa}) {
      std::size_t so = 0, ro = 0;
      for (std::size_t i = 0; i < p->sc.size(); ++i) {
        p->sd.push_back(so);
        p->rd.push_back(ro);
        so += p->sc[i];
        ro += p->rc[i];
      }
      p->sbuf.assign(so, {1.0, -1.0});
      p->rbuf.assign(ro, {});
      bytes += 16.0 * static_cast<double>(so);
    }
    const auto exchange = [&] {
      for (plan* p : {&pb, &pa})
        p->comm->alltoallv(p->sbuf.data(), p->sc.data(), p->sd.data(),
                           p->rbuf.data(), p->rc.data(), p->rd.data());
    };
    const int reps = agreed_reps(world, budget_s / 2, exchange);
    world.barrier();
    const auto t0 = clk::now();
    for (int k = 0; k < reps; ++k) {
      span s(tr, "alltoallv_pair", "vmpi", 0, 904, r);
      exchange();
    }
    world.barrier();
    const double per = seconds_between(t0, clk::now()) / reps;
    sent[static_cast<std::size_t>(r)] = bytes;

    constexpr int kBarriers = 1000;
    world.barrier();
    const auto b0 = clk::now();
    {
      span s(tr, "rendezvous_x1000", "vmpi", 0, 904, r);
      for (int k = 0; k < kBarriers; ++k) world.barrier();
    }
    if (r == 0) {
      out.alltoallv_s = per;
      out.rendezvous_us = 1e6 * seconds_between(b0, clk::now()) / kBarriers;
    }
  });
  double bytes = 0.0;
  for (double b : sent) bytes += b;
  out.alltoallv_gbs = bytes / out.alltoallv_s / 1e9;
  return out;
}

/// Lease and release the workload's workspace lane sizes on the global
/// block pool (the path a pooled lane or a resumed tenant takes).
void pool_replay(const std::vector<std::uint64_t>& lanes, double budget_s,
                 tracer* tr) {
  auto& pool = block_pool::global();
  span s(tr, "lease_release", "util", 0, 905, 0);
  const auto t0 = clk::now();
  int rounds = 0;
  while (rounds < 10 ||
         (seconds_between(t0, clk::now()) < budget_s && rounds < 100000)) {
    for (std::uint64_t bytes : lanes) {
      block_pool::lease l = pool.acquire(static_cast<std::size_t>(bytes));
      pool.release(l);
    }
    ++rounds;
  }
}

/// memcpy bandwidth, counting bytes read plus bytes written (the convention
/// of the kernels' byte counters).
double memcpy_gbs(std::size_t bytes, double budget_s, int min_reps,
                  const char* name, tracer* tr) {
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  std::memcpy(dst.data(), src.data(), bytes);
  span s(tr, name, "host", 0, 906, 0);
  const auto t0 = clk::now();
  int reps = 0;
  while (reps < min_reps || seconds_between(t0, clk::now()) < budget_s) {
    src[static_cast<std::size_t>(reps) % bytes] = static_cast<char>(reps);
    std::memcpy(dst.data(), src.data(), bytes);
    ++reps;
  }
  const double el = seconds_between(t0, clk::now());
  volatile char sink = dst[bytes / 2];
  (void)sink;
  return 2.0 * static_cast<double>(bytes) * reps / el / 1e9;
}

std::size_t cache_bytes(int name, std::size_t fallback) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : fallback;
}

// ---------------------------------------------------------------------------
// Metric assembly.

constexpr double kMiB = 1024.0 * 1024.0;
constexpr auto e2e = metric_group::end_to_end;
constexpr auto layer = metric_group::per_layer;

std::vector<double> pooled(const series_result& s,
                           std::vector<double> world_result::*field) {
  std::vector<double> out;
  for (const auto& w : s.worlds)
    out.insert(out.end(), (w.*field).begin(), (w.*field).end());
  return out;
}

/// The step time a DNS user sees, over every timed step of `s`.
void add_end_to_end(bench_step::metric_sink& m, const series_result& s) {
  const auto steps = pooled(s, &world_result::step_s);
  m.add(e2e, "step_s_p50", "s", bench_step::quantile(steps, 0.50), steps);
  m.add(e2e, "setup_s", "s", bench_step::median(s.setups), s.setups);
}

/// core.*, trace.overhead_frac, io.* and analysis.fingerprint_s from the
/// timed sub-worlds of `s`.
void add_dns_layers(bench_step::metric_sink& m, const series_result& s,
                    double dram_gbs) {
  std::map<std::string, double> phase_s;
  std::vector<double> step_s, call_s, fp_s, wr_s, rd_s;
  std::vector<double> traced_s, untraced_s;
  double peak_kib = 0.0, ckpt_mib = 0.0, flops = 0.0, bytes = 0.0;
  for (std::size_t k = 0; k < s.worlds.size(); ++k) {
    const world_result& w = s.worlds[k];
    for (const auto& p : w.phases) phase_s[p.name] += p.seconds;
    step_s.insert(step_s.end(), w.step_s.begin(), w.step_s.end());
    call_s.insert(call_s.end(), w.call_s.begin(), w.call_s.end());
    auto& side = s.traced[k] ? traced_s : untraced_s;
    side.insert(side.end(), w.step_s.begin(), w.step_s.end());
    fp_s.push_back(w.fingerprint_s);
    wr_s.insert(wr_s.end(), w.ckpt_write_s.begin(), w.ckpt_write_s.end());
    rd_s.insert(rd_s.end(), w.ckpt_read_s.begin(), w.ckpt_read_s.end());
    ckpt_mib = std::max(ckpt_mib, w.ckpt_mib);
    peak_kib = std::max(peak_kib, w.workspace_peak_kib);
    flops += static_cast<double>(w.ops.flops);
    bytes += static_cast<double>(w.ops.bytes_read + w.ops.bytes_written);
  }
  const double n = static_cast<double>(step_s.size());
  const double step = bench_step::mean(call_s);
  m.add(layer, "core.step_s", "s", step, call_s);
  const auto per_step = [&](const char* metric, const char* phase) {
    m.add(layer, metric, "s", phase_s[phase] / n);
  };
  per_step("core.nonlinear_s", "nonlinear");
  per_step("core.nonlinear.velocities_s", "velocities");
  per_step("core.nonlinear.to_physical_s", "to_physical");
  per_step("core.nonlinear.products_s", "products");
  per_step("core.nonlinear.to_spectral_s", "to_spectral");
  per_step("core.nonlinear.assemble_s", "assemble");
  per_step("core.implicit_s", "implicit");
  per_step("core.mean_flow_s", "mean_flow");
  per_step("core.reduce_s", "reduce");
  const double attributed = phase_s["nonlinear"] + phase_s["implicit"] +
                            phase_s["mean_flow"] + phase_s["reduce"];
  m.add(layer, "core.unattributed_frac", "1",
        1.0 - attributed / bench_step::sum(call_s));
  const auto sps = [](const std::vector<double>& v) {
    return static_cast<double>(v.size()) / bench_step::sum(v);
  };
  // Throughput and the tail of the step time: on a shared host they move
  // with the neighbours' load by more than a bound could allow (README.md),
  // so they are diagnostics here, not end-to-end metrics.
  m.add(layer, "core.steps_per_s", "steps/s", sps(step_s));
  m.add(layer, "core.step_s_p95", "s", bench_step::quantile(step_s, 0.95),
        step_s);
  m.add(layer, "core.step_s_p99", "s", bench_step::quantile(step_s, 0.99),
        step_s);
  m.add(layer, "core.setup_cold_s", "s", s.cold_setup_s);
  m.add(layer, "core.workspace_peak_kib", "KiB", peak_kib);
  // Counts from the kernels' own flop/byte accounting: computed, not
  // measured traffic. The DNS working sets fit in cache, so achieved
  // bandwidth can exceed the DRAM memcpy roof (dram_roof_frac > 1).
  const double fps = flops / n, bps = bytes / n;
  const double gbs = bps / step / 1e9;
  m.add(layer, "core.flops_per_step", "flop", fps);
  m.add(layer, "core.bytes_per_step", "bytes", bps);
  m.add(layer, "core.flop_per_byte", "flop/byte", fps / bps);
  m.add(layer, "core.achieved_gbs", "GB/s", gbs);
  m.add(layer, "core.dram_roof_frac", "1", gbs / dram_gbs);
  m.add(layer, "trace.overhead_frac", "1",
        untraced_s.empty() ? 0.0 : 1.0 - sps(traced_s) / sps(untraced_s));
  m.add(layer, "io.checkpoint_write_s", "s", bench_step::median(wr_s), wr_s);
  m.add(layer, "io.checkpoint_read_s", "s", bench_step::median(rd_s), rd_s);
  m.add(layer, "io.checkpoint_mb", "MiB", ckpt_mib);
  m.add(layer, "analysis.fingerprint_s", "s", bench_step::median(fp_s), fp_s);
}

// ---------------------------------------------------------------------------

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;
  std::string trace;  // Chrome trace output; empty = untraced run
  std::string tmpdir = ".";
  bool smoke = false;
};

constexpr const char* kUsage =
    "usage: bench_step --workload channel_1r|large_1r|scalars_1r "
    "--seed <u64> [--seconds <s>] [--trace <file>] [--tmpdir <dir>] "
    "[--smoke]\n";

options parse_args(int argc, char** argv) {
  options o;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = bench_step::parse_u64(flag, v);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = bench_step::parse_positive(flag, v);
    } else if (flag == "--trace") {
      o.trace = v;
    } else if (flag == "--tmpdir") {
      o.tmpdir = v;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!find_workload(o.workload))
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  return o;
}

int run(const workload& w, const options& opt) {
  const run_sizes z = opt.smoke ? smoke_sizes() : run_sizes{};
  const bench_step::scratch_dir scratch(opt.tmpdir);
  std::unique_ptr<tracer> owned_tracer;
  if (!opt.trace.empty()) owned_tracer = std::make_unique<tracer>();
  tracer* tr = owned_tracer.get();
  const block_pool::stats_t pool0 = block_pool::global().stats();
  // A traced run leaves a quarter of its budget to the layer replays.
  const double budget = tr != nullptr ? 0.75 * opt.seconds : opt.seconds;

  checks chk;
  bench_step::metric_sink m;
  const series_result dns =
      run_series(w, opt.seed, z, budget, tr, scratch.path(), chk);
  check_series(w, dns, opt.seed, z.steps, chk);
  add_end_to_end(m, dns);
  m.add(e2e, "peak_rss_mb", "MiB", bench_step::peak_rss_mib());

  if (tr != nullptr) {
    const std::vector<std::uint64_t> lanes =
        dns.worlds.empty() ? std::vector<std::uint64_t>{}
                           : dns.worlds.front().lane_bytes;
    const double rs = z.replay_s;
    const pencil_numbers pn = pencil_replay(w, rs, tr);
    m.add(layer, "pencil.substep_transform_s", "s", pn.substep_s);
    m.add(layer, "pencil.comm_s", "s", pn.comm_s);
    m.add(layer, "pencil.reorder_s", "s", pn.reorder_s);
    m.add(layer, "pencil.fft_s", "s", pn.fft_s);
    m.add(layer, "pencil.exchanges_per_substep", "count", pn.exchanges);
    m.add(layer, "pencil.bytes_exchanged_per_substep", "bytes",
          pn.bytes_exchanged);
    // Pack and unpack each read and write every transposed byte once per
    // stage: a computed lower bound on the reorder traffic.
    m.add(layer, "pencil.reorder_gbs", "GB/s",
          4.0 * pn.bytes_packed / pn.reorder_s / 1e9);

    const fft_numbers fn = fft_replay(w, rs, tr);
    m.add(layer, "fft.r2c_ns_per_line", "ns", fn.r2c_ns);
    m.add(layer, "fft.c2r_ns_per_line", "ns", fn.c2r_ns);
    m.add(layer, "fft.c2c_ns_per_line", "ns", fn.c2c_ns);
    m.add(layer, "fft.bluestein111_ns_per_line", "ns", fn.bluestein_ns);
    m.add(layer, "fft.gflops", "GFlop/s", fn.gflops);
    const fft::plan_cache_stats pc = fft::plan_cache_statistics();
    m.add(layer, "fft.plan_cache_hit_rate", "1",
          static_cast<double>(pc.hits) /
              static_cast<double>(std::max<std::uint64_t>(1, pc.hits + pc.misses)));

    const banded_numbers bn = banded_replay(w, rs, tr);
    m.add(layer, "banded.solve2_ns", "ns", bn.solve2_ns);
    m.add(layer, "banded.solve_gbs", "GB/s", bn.solve_gbs);
    m.add(layer, "banded.arena_build_s", "s", bn.arena_build_s);

    const vmpi_numbers vn = vmpi_replay(w, rs, tr);
    m.add(layer, "vmpi.alltoallv_s", "s", vn.alltoallv_s);
    m.add(layer, "vmpi.alltoallv_gbs", "GB/s", vn.alltoallv_gbs);
    m.add(layer, "vmpi.rendezvous_us", "us", vn.rendezvous_us);

    pool_replay(lanes, rs, tr);
    const block_pool::stats_t pool1 = block_pool::global().stats();
    const double leases = static_cast<double>(pool1.leases - pool0.leases);
    m.add(layer, "util.pool_lease_ns", "ns",
          static_cast<double>(pool1.lease_ns - pool0.lease_ns) / leases);
    m.add(layer, "util.pool_cache_hit_rate", "1",
          static_cast<double>(pool1.cache_hits - pool0.cache_hits) / leases);
    m.add(layer, "util.pool_peak_mb", "MiB",
          static_cast<double>(pool1.blocks_peak) *
              static_cast<double>(block_pool::global().config().block_bytes) /
              kMiB);
    m.add(layer, "util.pool_holes", "count", static_cast<double>(pool1.holes));

    // Roofs: DRAM arrays at 4x the last-level cache, L2 arrays at a quarter
    // of one core's L2 (source + destination fit in it).
    const std::size_t llc = cache_bytes(_SC_LEVEL3_CACHE_SIZE, 256u << 20);
    const std::size_t l2 = cache_bytes(_SC_LEVEL2_CACHE_SIZE, 2u << 20);
    const std::size_t dram_bytes =
        z.dram_bytes > 0 ? z.dram_bytes
                         : std::min<std::size_t>(4 * llc, std::size_t{2} << 30);
    const double dram = memcpy_gbs(dram_bytes, 0.0, 3, "memcpy_dram", tr);
    const double l2gbs = memcpy_gbs(l2 / 4, rs, 10, "memcpy_l2", tr);
    std::printf("host roofs: DRAM memcpy %.0f MiB arrays (LLC %.0f MiB), "
                "L2 memcpy %.0f KiB arrays (L2 %.0f KiB)\n",
                static_cast<double>(dram_bytes) / kMiB,
                static_cast<double>(llc) / kMiB, static_cast<double>(l2 / 4) / 1024,
                static_cast<double>(l2) / 1024);
    m.add(layer, "host.memcpy_dram_gbs", "GB/s", dram);
    m.add(layer, "host.memcpy_l2_gbs", "GB/s", l2gbs);

    add_dns_layers(m, dns, dram);

    chk.require(tr->write_chrome(opt.trace),
                "cannot write the trace to " + opt.trace);
  }

  for (const auto& name : m.non_finite())
    chk.require(false, "metric " + name + " is not finite");
  for (const auto& f : chk.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  const bool correct = chk.failures.empty();
  m.print_lines(w.name);
  std::printf("%s\n", m.json(tr != nullptr ? layer : e2e, correct,
                             dns.attempted, dns.failed)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_step: %s\n%s", e.what(), kUsage);
    return 2;
  }
  try {
    return run(*find_workload(opt.workload), opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_step: %s\n", e.what());
    return 1;
  }
}
