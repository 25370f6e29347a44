#include "core/stages/stage_context.hpp"

#include <algorithm>
#include <numbers>

#include "core/stages/implicit_stage.hpp"

namespace pcf::core {

pencil::kernel_config dns_kernel_config(const channel_config& c) {
  pencil::kernel_config k{true, true, c.fft_threads, c.reorder_threads};
  k.max_batch = std::max(1, c.max_batch);
  k.pipeline_depth = c.pipeline_depth;
  return k;
}

pencil::tune_key dns_tune_key(const channel_config& c, int ranks) {
  const pencil::grid g{c.nx, static_cast<std::size_t>(c.ny), c.nz};
  return pencil::make_tune_key(g, dns_kernel_config(c), ranks, c.pa, c.pb);
}

channel_config& resolve_tuning(channel_config& c, vmpi::communicator& world) {
  if (!c.autotune) return c;
  const pencil::grid g{c.nx, static_cast<std::size_t>(c.ny), c.nz};
  pencil::tune_options opt;
  opt.cache_path = c.tuning_cache;
  const pencil::tune_report rep = pencil::autotune_transforms(
      g, world, c.pa, c.pb, dns_kernel_config(c), opt);
  c.pa = rep.choice.pa;
  c.pb = rep.choice.pb;
  c.max_batch = rep.choice.batch;
  c.pipeline_depth = rep.choice.pipeline_depth;
  c.autotune = false;  // resolved: reconstruction must not re-measure
  return c;
}

mode_tables make_mode_tables(const channel_config& c,
                             const pencil::decomp& d) {
  mode_tables t;
  t.n = static_cast<std::size_t>(c.ny);
  t.nmodes = d.xs.count * d.zs.count;
  const double ax = 2.0 * std::numbers::pi / c.lx;
  const double az = 2.0 * std::numbers::pi / c.lz;
  t.kx.resize(t.nmodes);
  t.kz.resize(t.nmodes);
  t.skip.assign(t.nmodes, 0);
  t.has_mean = false;
  for (std::size_t x = 0; x < d.xs.count; ++x) {
    for (std::size_t z = 0; z < d.zs.count; ++z) {
      const std::size_t m = x * d.zs.count + z;
      const std::size_t jx = d.xs.offset + x;
      const std::size_t jz = d.zs.offset + z;
      t.kx[m] = ax * static_cast<double>(jx);
      const long mz = jz < c.nz / 2
                          ? static_cast<long>(jz)
                          : static_cast<long>(jz) - static_cast<long>(c.nz);
      t.kz[m] = az * static_cast<double>(mz);
      if (jz == c.nz / 2) t.skip[m] = 1;  // spanwise Nyquist
      if (jx == 0 && jz == 0) {
        t.skip[m] = 1;  // mean mode handled by mean_flow_stage
        t.has_mean = true;
        t.mean_idx = m;
      }
    }
  }
  t.k2s.resize(t.nmodes);
  for (std::size_t m = 0; m < t.nmodes; ++m)
    t.k2s[m] = t.skip[m] ? 0.0 : t.kx[m] * t.kx[m] + t.kz[m] * t.kz[m];
  return t;
}

field_state::field_state(const mode_tables& modes, std::size_t phys_elems,
                         field_workspace& ws, std::size_t nscalars)
    : n(modes.n) {
  const std::size_t sz = modes.nmodes * n;
  c_v.reset(sz);
  c_om.reset(sz);
  c_phi.reset(sz);
  hv_prev.reset(sz);
  hg_prev.reset(sz);
  u_s.reset(sz);
  v_s.reset(sz);
  w_s.reset(sz);
  q1.reset(sz);
  q2.reset(sz);
  q3.reset(sz);
  q4.reset(sz);
  q5.reset(sz);
  u_p.reset(phys_elems);
  v_p.reset(phys_elems);
  w_p.reset(phys_elems);
  f1.reset(phys_elems);
  f2.reset(phys_elems);
  f3.reset(phys_elems);
  f4.reset(phys_elems);
  f5.reset(phys_elems);
  c_U.assign(n, 0.0);
  c_W.assign(n, 0.0);
  hU_prev.assign(n, 0.0);
  hW_prev.assign(n, 0.0);
  scalars.resize(nscalars);
  for (scalar_state& sc : scalars) {
    sc.c_th.reset(sz);
    sc.hth_prev.reset(sz);
    sc.th_s.reset(sz);
    sc.qu.reset(sz);
    sc.qv.reset(sz);
    sc.qw.reset(sz);
    sc.th_p.reset(phys_elems);
    sc.gu.reset(phys_elems);
    sc.gv.reset(phys_elems);
    sc.gw.reset(phys_elems);
    sc.c_T.assign(n, 0.0);
    sc.hT_prev.assign(n, 0.0);
    sc.hT.assign(n, 0.0);
  }
  hU = ws.shared().alloc<double>(n);
  hW = ws.shared().alloc<double>(n);
  std::fill_n(hU, n, 0.0);
  std::fill_n(hW, n, 0.0);
}

void field_state::rebind_workspace(field_workspace& ws) {
  hU = ws.shared().alloc<double>(n);
  hW = ws.shared().alloc<double>(n);
  std::fill_n(hU, n, 0.0);
  std::fill_n(hW, n, 0.0);
}

void field_state::zero() {
  c_v.fill(cplx{0, 0});
  c_om.fill(cplx{0, 0});
  c_phi.fill(cplx{0, 0});
  hv_prev.fill(cplx{0, 0});
  hg_prev.fill(cplx{0, 0});
  std::fill(c_U.begin(), c_U.end(), 0.0);
  std::fill(c_W.begin(), c_W.end(), 0.0);
  std::fill(hU_prev.begin(), hU_prev.end(), 0.0);
  std::fill(hW_prev.begin(), hW_prev.end(), 0.0);
  for (scalar_state& sc : scalars) {
    sc.c_th.fill(cplx{0, 0});
    sc.hth_prev.fill(cplx{0, 0});
    std::fill(sc.c_T.begin(), sc.c_T.end(), 0.0);
    std::fill(sc.hT_prev.begin(), sc.hT_prev.end(), 0.0);
    std::fill(sc.hT.begin(), sc.hT.end(), 0.0);
  }
}

field_workspace::sizes dns_workspace_sizes(const channel_config& c,
                                           const pencil::decomp& d) {
  const std::size_t n = static_cast<std::size_t>(c.ny);
  const int threads = std::max(1, c.advance_threads);
  const std::size_t nbins = std::max(c.nx / 2, c.nz / 2 + 1);

  field_workspace::sizes s;
  s.num_threads = threads;
  // Shared lane. Permanent: field_state's hU/hW (2n doubles) and the
  // nonlinear stage's per-thread CFL maxima (threads doubles). Deepest
  // transient scopes: dissipation (trapezoid weights + 5 complex lines =
  // 11n doubles), initialize (4 complex lines = 8n), spectra accumulators
  // (6 * nbins), mean profile (2n). Capacity covers permanents plus the
  // worst scope, with per-checkout 64-byte alignment slack.
  s.shared_bytes = (2 * n + static_cast<std::size_t>(threads)) * sizeof(double)
                 + 16 * n * sizeof(double)
                 + 8 * nbins * sizeof(double)
                 + 40 * kAlignment;
  // Thread lanes hold no permanent checkout; capacity covers the deeper
  // of two transient scopes. The nonlinear assembly's 8 mode panels
  // (c1..c5, d1, d3, d5; the other four derivatives overwrite consumed
  // coefficient panels), each kModeBlock complex lines = 16 n doubles (the
  // scalars reuse c1/d1; the velocity sub-stage needs 5 panels + 1 real
  // line, under that): at ny = 49, 8 * 8 * 49 * 16 B = 49 KiB per thread.
  // The implicit stage's 3 block panels of kModeBlock lines per field, for
  // omega + phi or the widest Prandtl group of scalars: 48 n complex =
  // 36.75 KiB at ny = 49 for up to 2 scalars per group, deeper than the
  // assembly from 3 per group on.
  s.thread_bytes = std::max(8 * kModeBlock * n * sizeof(cplx)
                                + n * sizeof(double) + 20 * kAlignment,
                            implicit_stage::scratch_elems(c) * sizeof(cplx)
                                + 2 * kAlignment);
  s.transform_bytes = pencil::transform_workspace_bytes(d, dns_kernel_config(c));
  return s;
}

}  // namespace pcf::core
