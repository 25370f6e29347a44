// Internal definition of channel_dns::impl, shared by the simulation's
// translation units (simulation.cpp: lifecycle + stepping, observables.cpp:
// diagnostics/statistics/spectra, checkpoint.cpp: the single-file
// checkpoint). Not installed; include only from src/core.
//
// The impl is a thin composition root: it owns the communicator, the
// decomposition, the workspace arena, the pencil kernel, the operators and
// the field state, and wires them into the four pipeline stages through one
// stage_context. Stepping is the stage sequence; everything else delegates.
#pragma once

#include <algorithm>
#include <optional>

#include "core/simulation.hpp"
#include "core/stages/diagnostics_stage.hpp"
#include "core/stages/implicit_stage.hpp"
#include "core/stages/mean_flow_stage.hpp"
#include "core/stages/nonlinear_stage.hpp"
#include "core/stages/stage_context.hpp"
#include "util/block_pool.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"

namespace pcf::core {

struct channel_dns::impl {
  channel_config cfg;
  vmpi::communicator world;
  vmpi::cart2d cart;
  pencil::decomp d;
  // The workspace must be constructed before the pencil kernel (which
  // permanently checks its transpose/FFT buffers out of the transform
  // lane) and before the stages (permanent shared-/thread-lane checkouts).
  field_workspace ws;
  pencil::parallel_fft pf;
  wall_normal_operators ops;
  thread_pool adv_pool;
  mode_tables modes;
  field_state state;
  profile_accumulator stats_acc;
  // Per-stage phase tree. Op attribution only on single-rank runs: the
  // counter buckets are process-global and vmpi ranks are threads of one
  // process (see phase_timer's file comment).
  phase_timer timers;
  phase_timer::id ph_step;
  stage_context ctx;
  nonlinear_stage nonlinear;
  implicit_stage implicit;
  mean_flow_stage mean_flow;
  diagnostics_stage diagnostics;

  double time = 0.0;
  long steps = 0;
  bool suspended_ = false;

  /// The Cartesian split of the *resolved* configuration: resolve_tuning
  /// rewrites cfg's split and transform knobs (collective measurement when
  /// cfg.autotune is set) before any communicator is split, so the one cart
  /// below is already the production layout and every member after it is
  /// sized from the resolved cfg — in particular the workspace's transform
  /// lane, which pf permanently checks its buffers out of. A plain
  /// init-list call would read cfg.pa/cfg.pb at unspecified times relative
  /// to the resolution; the helper sequences it.
  static vmpi::cart2d make_cart(channel_config& c, vmpi::communicator& w) {
    resolve_tuning(c, w);
    return {w, c.pa, c.pb};
  }

  impl(const channel_config& c, vmpi::communicator& w)
      : cfg(c),
        world(w),
        cart(make_cart(cfg, w)),
        d(pencil::grid{cfg.nx, static_cast<std::size_t>(cfg.ny), cfg.nz},
          dns_kernel_config(cfg), cart.pa(), cart.pb(), cart.coord_a(),
          cart.coord_b()),
        ws(dns_workspace_sizes(cfg, d), block_pool::global()),
        pf(pencil::grid{cfg.nx, static_cast<std::size_t>(cfg.ny), cfg.nz},
           cart, dns_kernel_config(cfg), ws.transform()),
        ops(cfg.ny, cfg.degree, cfg.stretch),
        adv_pool(std::max(1, cfg.advance_threads)),
        modes(make_mode_tables(cfg, d)),
        state(modes, d.x_pencil_real_elems(), ws,
              cfg.scenario.scalars.size()),
        stats_acc(d.yb.count, d.yb.offset, modes.n),
        timers(world.size() == 1),
        ph_step(timers.add("step")),
        ctx{cfg, d,     ops, pf, adv_pool, world,
            modes, state, ws, timers},
        nonlinear(ctx, ph_step),
        implicit(ctx, ph_step),
        mean_flow(ctx, ph_step),
        diagnostics(ctx, ph_step) {}

  void invalidate_solvers() {
    implicit.invalidate();
    mean_flow.invalidate();
  }

  /// Park this instance: free the factored-solver slabs and hand every
  /// workspace slab back to the block pool. Evolved state, statistics and
  /// timers are untouched. Legal only at a step boundary; the permanent
  /// workspace checkouts (pencil exchange buffers, hU/hW, CFL maxima)
  /// are all contents-dead there — each is zero-filled or fully rewritten
  /// before its next read.
  void suspend() {
    if (suspended_) return;
    implicit.drop_arenas();
    mean_flow.invalidate();
    ws.release();
    suspended_ = true;
  }

  /// Reacquire the workspace slabs (possibly different pool blocks) and
  /// re-establish every permanent checkout in construction order, so each
  /// lands at its construction offset on the new base: transform lane —
  /// pf's exchange buffers; shared lane — field_state's hU/hW then the
  /// nonlinear stage's CFL maxima. The thread lanes hold no permanent
  /// checkout. Solver arenas rebuild lazily on the next step (the
  /// dt-change path already proves that bit-identical).
  void resume() {
    if (!suspended_) return;
    ws.reacquire();
    pf.rebind_workspace();
    state.rebind_workspace(ws);
    nonlinear.rebind_workspace();
    suspended_ = false;
  }

  /// Implicit-resume guard for every state-touching entry point.
  void ensure_resumed() {
    if (suspended_) resume();
  }

  /// One full RK3 time step: three substeps through the stage pipeline,
  /// then the end-of-step diagnostics (CFL reduction + dt controller).
  void step() {
    ensure_resumed();
    phase_timer::section sec(timers, ph_step);
    for (int i = 0; i < 3; ++i) {
      nonlinear.run();
      implicit.run(i);
      mean_flow.run(i);
    }
    time += cfg.dt;
    ++steps;
    const double next = diagnostics.finish_step();
    if (next > 0.0) {
      cfg.dt = next;
      invalidate_solvers();
    }
  }

  // Checkpoint layout (checkpoint.cpp).
  /// The distributed field buffers in file order: v, omega_y, phi, then
  /// one theta per passive scalar.
  [[nodiscard]] std::vector<aligned_buffer<cplx>*> checkpoint_fields();
  /// Global line index jx * nz + jz of local mode m.
  [[nodiscard]] std::size_t global_line(std::size_t m) const;
  /// Section names and payload sizes in file order (CRCs left zero).
  [[nodiscard]] std::vector<checkpoint_section> checkpoint_layout() const;
  /// The rank-0 tail payloads behind the distributed fields (mean
  /// profiles, scalar means, forcing state, dt controller), gathered onto
  /// every rank. Collective.
  [[nodiscard]] std::vector<double> checkpoint_tail();
  /// checkpoint_layout() with each CRC filled in from memory: per-line
  /// CRCs of the distributed fields stitched in global order, and the
  /// `tail` slices. Collective.
  [[nodiscard]] std::vector<checkpoint_section> checkpoint_sections(
      const std::vector<double>& tail);

  // Convenience forwarders used across the TUs.
  [[nodiscard]] cplx* line(aligned_buffer<cplx>& b, std::size_t m) {
    return state.line(b, m);
  }
  [[nodiscard]] const cplx* line(const aligned_buffer<cplx>& b,
                                 std::size_t m) const {
    return state.line(b, m);
  }
};

}  // namespace pcf::core
