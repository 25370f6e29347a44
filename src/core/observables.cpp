// channel_dns observables: diagnostics (energy, dissipation, divergence),
// running statistics, spectra and state accessors. All scratch comes from
// the workspace's shared lane (these are serial collective calls), so none
// of them allocates per call beyond their returned containers.
#include <algorithm>
#include <cmath>

#include "core/cmul.hpp"
#include "core/simulation.hpp"
#include "core/simulation_impl.hpp"

namespace pcf::core {

double channel_dns::bulk_velocity() {
  auto& s = *impl_;
  double local = 0.0;
  if (s.modes.has_mean)
    local = s.ops.b().integrate(s.state.c_U.data()) / 2.0;
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global;
}

double channel_dns::wall_shear_stress() {
  auto& s = *impl_;
  double local = 0.0;
  if (s.modes.has_mean)
    local = s.ops.dspline_lower(s.state.c_U.data()) / s.cfg.re_tau;
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global;
}

double channel_dns::kinetic_energy() {
  auto& s = *impl_;
  s.ensure_resumed();
  const std::size_t n = s.modes.n;
  s.nonlinear.compute_velocities();
  s.nonlinear.velocities_to_physical();
  // Trapezoid weights in y over the Greville points, uniform in x and z.
  const auto& pts = s.ops.points();
  workspace_lane::scope scratch(s.ws.shared());
  double* wy = s.ws.shared().alloc<double>(n);
  std::fill_n(wy, n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double h = pts[i + 1] - pts[i];
    wy[i] += 0.5 * h;
    wy[i + 1] += 0.5 * h;
  }
  double local = 0.0;
  for (std::size_t z = 0; z < s.d.zp.count; ++z)
    for (std::size_t y = 0; y < s.d.yb.count; ++y) {
      const std::size_t base = (z * s.d.yb.count + y) * s.d.nxf;
      double acc = 0.0;
      for (std::size_t x = 0; x < s.d.nxf; ++x) {
        const double u = s.state.u_p[base + x], v = s.state.v_p[base + x],
                     w = s.state.w_p[base + x];
        acc += u * u + v * v + w * w;
      }
      local += acc * wy[s.d.yb.offset + y];
    }
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  const double npts =
      static_cast<double>(s.d.nxf) * static_cast<double>(s.d.nzf);
  return 0.5 * global / npts / 2.0;  // volume average (y measure = 2)
}

double channel_dns::dissipation() {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  const std::size_t n = mt.n;
  s.nonlinear.compute_velocities();
  // Trapezoid quadrature weights over the Greville points.
  const auto& pts = s.ops.points();
  workspace_lane::scope scratch(s.ws.shared());
  double* wy = s.ws.shared().alloc<double>(n);
  std::fill_n(wy, n, 0.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double h = pts[i + 1] - pts[i];
    wy[i] += 0.5 * h;
    wy[i + 1] += 0.5 * h;
  }
  double local = 0.0;
  cplx* cu = s.ws.shared().alloc<cplx>(n);
  cplx* cw = s.ws.shared().alloc<cplx>(n);
  cplx* du = s.ws.shared().alloc<cplx>(n);
  cplx* dv = s.ws.shared().alloc<cplx>(n);
  cplx* dw = s.ws.shared().alloc<cplx>(n);
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    const bool is_mean = mt.has_mean && m == mt.mean_idx;
    if (mt.skip[m] && !is_mean) continue;
    // y-derivatives at the points: u and w need an interpolation solve,
    // v's spline coefficients are state.
    std::copy_n(s.line(s.state.u_s, m), n, cu);
    std::copy_n(s.line(s.state.w_s, m), n, cw);
    s.ops.to_coefficients(cu);
    s.ops.to_coefficients(cw);
    s.ops.deriv1_points(cu, du);
    s.ops.deriv1_points(cw, dw);
    if (is_mean) {
      std::fill_n(dv, n, cplx{0, 0});
    } else {
      s.ops.deriv1_points(s.line(s.state.c_v, m), dv);
    }
    const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
    const double weight =
        (s.d.xs.offset + m / s.d.zs.count) == 0 ? 1.0 : 2.0;
    const cplx* us = s.line(s.state.u_s, m);
    const cplx* vs = s.line(s.state.v_s, m);
    const cplx* ws = s.line(s.state.w_s, m);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double grad2 =
          k2 * (std::norm(us[i]) + std::norm(vs[i]) + std::norm(ws[i])) +
          std::norm(du[i]) + std::norm(dv[i]) + std::norm(dw[i]);
      acc += wy[i] * grad2;
    }
    local += weight * acc;
  }
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global / s.cfg.re_tau / 2.0;  // nu * integral / (y measure 2)
}

double channel_dns::max_divergence() {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  const std::size_t n = mt.n;
  double local = 0.0;
  workspace_lane::scope scratch(s.ws.shared());
  cplx* dv = s.ws.shared().alloc<cplx>(n);
  cplx* om = s.ws.shared().alloc<cplx>(n);
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    if (mt.skip[m]) continue;
    const double k2 = mt.kx[m] * mt.kx[m] + mt.kz[m] * mt.kz[m];
    s.ops.deriv1_points(s.line(s.state.c_v, m), dv);
    s.ops.to_points(s.line(s.state.c_om, m), om);
    const double kx = mt.kx[m], kz = mt.kz[m];
    for (std::size_t i = 0; i < n; ++i) {
      const cplx us = cmul(0.0, kx / k2, dv[i]) - cmul(0.0, kz / k2, om[i]);
      const cplx ws = cmul(0.0, kz / k2, dv[i]) + cmul(0.0, kx / k2, om[i]);
      const cplx dval = cmul(0.0, kx, us) + dv[i] + cmul(0.0, kz, ws);
      local = std::max(local, std::abs(dval));
    }
  }
  double global = 0.0;
  s.world.allreduce_max(&local, &global, 1);
  return global;
}

void channel_dns::accumulate_stats() {
  auto& s = *impl_;
  s.ensure_resumed();
  s.nonlinear.compute_velocities();
  s.nonlinear.velocities_to_physical();
  s.stats_acc.add_sample(s.state.u_p.data(), s.state.v_p.data(),
                         s.state.w_p.data(), s.d.zp.count, s.d.yb.count,
                         s.d.nxf);
}

profile_data channel_dns::stats() {
  auto& s = *impl_;
  return s.stats_acc.finalize(s.world, s.ops.points(), s.d.nxf * s.d.nzf);
}

void channel_dns::reset_stats() { impl_->stats_acc.reset(); }

void channel_dns::physical_velocity(std::vector<double>& u,
                                    std::vector<double>& v,
                                    std::vector<double>& w) {
  auto& s = *impl_;
  s.ensure_resumed();
  s.nonlinear.compute_velocities();
  s.nonlinear.velocities_to_physical();
  u.assign(s.state.u_p.begin(), s.state.u_p.end());
  v.assign(s.state.v_p.begin(), s.state.v_p.end());
  w.assign(s.state.w_p.begin(), s.state.w_p.end());
}

std::vector<double> channel_dns::mean_profile() {
  auto& s = *impl_;
  s.ensure_resumed();
  const std::size_t n = s.modes.n;
  workspace_lane::scope scratch(s.ws.shared());
  double* local = s.ws.shared().alloc<double>(n);
  std::fill_n(local, n, 0.0);
  if (s.modes.has_mean) s.ops.to_points(s.state.c_U.data(), local);
  std::vector<double> global(n, 0.0);
  s.world.allreduce_sum(local, global.data(), n);
  return global;
}

void channel_dns::set_mean_profile(const std::vector<double>& values) {
  auto& s = *impl_;
  PCF_REQUIRE(values.size() == s.modes.n, "profile size mismatch");
  if (!s.modes.has_mean) return;
  std::copy(values.begin(), values.end(), s.state.c_U.begin());
  s.ops.to_coefficients(s.state.c_U.data());
}

std::vector<cplx> channel_dns::mode_v(std::size_t jx, std::size_t jz) {
  auto& s = *impl_;
  if (jx < s.d.xs.offset || jx >= s.d.xs.offset + s.d.xs.count ||
      jz < s.d.zs.offset || jz >= s.d.zs.offset + s.d.zs.count)
    return {};
  const std::size_t m =
      (jx - s.d.xs.offset) * s.d.zs.count + (jz - s.d.zs.offset);
  return std::vector<cplx>(s.line(s.state.c_v, m),
                           s.line(s.state.c_v, m) + s.modes.n);
}

std::vector<cplx> channel_dns::mode_omega(std::size_t jx, std::size_t jz) {
  auto& s = *impl_;
  if (jx < s.d.xs.offset || jx >= s.d.xs.offset + s.d.xs.count ||
      jz < s.d.zs.offset || jz >= s.d.zs.offset + s.d.zs.count)
    return {};
  const std::size_t m =
      (jx - s.d.xs.offset) * s.d.zs.count + (jz - s.d.zs.offset);
  return std::vector<cplx>(s.line(s.state.c_om, m),
                           s.line(s.state.c_om, m) + s.modes.n);
}

spectrum_data channel_dns::streamwise_spectra(int y_index) {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  PCF_REQUIRE(y_index >= 0 && y_index < static_cast<int>(mt.n),
              "y index out of range");
  s.nonlinear.compute_velocities();
  const std::size_t nbins = s.cfg.nx / 2;
  workspace_lane::scope scratch(s.ws.shared());
  double* local = s.ws.shared().alloc<double>(3 * nbins);
  double* global = s.ws.shared().alloc<double>(3 * nbins);
  std::fill_n(local, 3 * nbins, 0.0);
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    if (mt.skip[m]) continue;
    const std::size_t jx = s.d.xs.offset + m / s.d.zs.count;
    const double w = jx == 0 ? 1.0 : 2.0;  // conjugate (negative-kx) half
    const auto yi = static_cast<std::size_t>(y_index);
    local[0 * nbins + jx] += w * std::norm(s.line(s.state.u_s, m)[yi]);
    local[1 * nbins + jx] += w * std::norm(s.line(s.state.v_s, m)[yi]);
    local[2 * nbins + jx] += w * std::norm(s.line(s.state.w_s, m)[yi]);
  }
  s.world.allreduce_sum(local, global, 3 * nbins);
  spectrum_data out;
  out.euu.assign(global, global + nbins);
  out.evv.assign(global + nbins, global + 2 * nbins);
  out.eww.assign(global + 2 * nbins, global + 3 * nbins);
  return out;
}

spectrum_data channel_dns::spanwise_spectra(int y_index) {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  PCF_REQUIRE(y_index >= 0 && y_index < static_cast<int>(mt.n),
              "y index out of range");
  s.nonlinear.compute_velocities();
  const std::size_t nbins = s.cfg.nz / 2 + 1;
  workspace_lane::scope scratch(s.ws.shared());
  double* local = s.ws.shared().alloc<double>(3 * nbins);
  double* global = s.ws.shared().alloc<double>(3 * nbins);
  std::fill_n(local, 3 * nbins, 0.0);
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    if (mt.skip[m]) continue;
    const std::size_t jx = s.d.xs.offset + m / s.d.zs.count;
    const std::size_t jz = s.d.zs.offset + m % s.d.zs.count;
    const std::size_t mz = jz < s.cfg.nz / 2 ? jz : s.cfg.nz - jz;
    const double w = jx == 0 ? 1.0 : 2.0;
    const auto yi = static_cast<std::size_t>(y_index);
    local[0 * nbins + mz] += w * std::norm(s.line(s.state.u_s, m)[yi]);
    local[1 * nbins + mz] += w * std::norm(s.line(s.state.v_s, m)[yi]);
    local[2 * nbins + mz] += w * std::norm(s.line(s.state.w_s, m)[yi]);
  }
  s.world.allreduce_sum(local, global, 3 * nbins);
  spectrum_data out;
  out.euu.assign(global, global + nbins);
  out.evv.assign(global + nbins, global + 2 * nbins);
  out.eww.assign(global + 2 * nbins, global + 3 * nbins);
  return out;
}

void channel_dns::physical_vorticity_z(std::vector<double>& wz) {
  auto& s = *impl_;
  s.ensure_resumed();
  const auto& mt = s.modes;
  const std::size_t n = mt.n;
  s.nonlinear.compute_velocities();
  // omega_z hat = i kx v hat - d(u hat)/dy at the collocation points; u at
  // points must be interpolated to spline coefficients first.
  workspace_lane::scope scratch(s.ws.shared());
  cplx* cu = s.ws.shared().alloc<cplx>(n);
  cplx* du = s.ws.shared().alloc<cplx>(n);
  for (std::size_t m = 0; m < mt.nmodes; ++m) {
    cplx* out = s.line(s.state.q1, m);
    std::copy_n(s.line(s.state.u_s, m), n, cu);
    s.ops.to_coefficients(cu);
    s.ops.deriv1_points(cu, du);
    const double kx = mt.kx[m];
    const cplx* vs = s.line(s.state.v_s, m);
    for (std::size_t i = 0; i < n; ++i) out[i] = cmul(0.0, kx, vs[i]) - du[i];
  }
  s.pf.to_physical(s.state.q1.data(), s.state.f1.data());
  wz.assign(s.state.f1.begin(), s.state.f1.end());
}

std::size_t channel_dns::num_scalars() const {
  return impl_->cfg.scenario.scalars.size();
}

std::vector<double> channel_dns::scalar_profile(std::size_t sc) {
  auto& s = *impl_;
  s.ensure_resumed();
  PCF_REQUIRE(sc < s.state.scalars.size(), "scalar index out of range");
  const std::size_t n = s.modes.n;
  workspace_lane::scope scratch(s.ws.shared());
  double* local = s.ws.shared().alloc<double>(n);
  std::fill_n(local, n, 0.0);
  if (s.modes.has_mean)
    s.ops.to_points(s.state.scalars[sc].c_T.data(), local);
  std::vector<double> global(n, 0.0);
  s.world.allreduce_sum(local, global.data(), n);
  return global;
}

void channel_dns::set_scalar_profile(std::size_t sc,
                                     const std::vector<double>& values) {
  auto& s = *impl_;
  PCF_REQUIRE(sc < s.state.scalars.size(), "scalar index out of range");
  PCF_REQUIRE(values.size() == s.modes.n, "profile size mismatch");
  if (!s.modes.has_mean) return;
  auto& th = s.state.scalars[sc].c_T;
  std::copy(values.begin(), values.end(), th.begin());
  s.ops.to_coefficients(th.data());
}

double channel_dns::scalar_wall_flux(std::size_t sc) {
  auto& s = *impl_;
  PCF_REQUIRE(sc < s.state.scalars.size(), "scalar index out of range");
  const double kappa =
      1.0 / (s.cfg.re_tau * s.cfg.scenario.scalars[sc].prandtl);
  double local = 0.0;
  if (s.modes.has_mean)
    local = kappa * s.ops.dspline_lower(s.state.scalars[sc].c_T.data());
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global;
}

std::vector<cplx> channel_dns::mode_scalar(std::size_t sc, std::size_t jx,
                                           std::size_t jz) {
  auto& s = *impl_;
  PCF_REQUIRE(sc < s.state.scalars.size(), "scalar index out of range");
  if (jx < s.d.xs.offset || jx >= s.d.xs.offset + s.d.xs.count ||
      jz < s.d.zs.offset || jz >= s.d.zs.offset + s.d.zs.count)
    return {};
  const std::size_t m =
      (jx - s.d.xs.offset) * s.d.zs.count + (jz - s.d.zs.offset);
  auto& th = s.state.scalars[sc].c_th;
  return std::vector<cplx>(s.line(th, m), s.line(th, m) + s.modes.n);
}

double channel_dns::current_forcing() {
  auto& s = *impl_;
  if (!s.cfg.scenario.constant_flow_rate()) return s.cfg.forcing;
  double local = s.modes.has_mean ? s.mean_flow.last_forcing() : 0.0;
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global;
}

double channel_dns::flow_rate_target() {
  auto& s = *impl_;
  if (!s.cfg.scenario.constant_flow_rate()) return 0.0;
  double local = s.modes.has_mean ? s.mean_flow.flow_target() : 0.0;
  double global = 0.0;
  s.world.allreduce_sum(&local, &global, 1);
  return global;
}

}  // namespace pcf::core
