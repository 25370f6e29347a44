#include "core/runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>

#include "io/atomic_file.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pcf::core {

double flow_through_time(channel_dns& dns) {
  const double ub = dns.bulk_velocity();
  PCF_REQUIRE(ub > 0.0, "flow-through time needs positive bulk velocity");
  return dns.config().lx / ub;
}

namespace {

// Append one blow-up entry to the report file (rank 0 only; append mode so
// repeated blow-ups in one campaign stay visible).
void append_blowup_report(const std::string& path, const run_report& rep,
                          const diag_sample& at, double dt_at_blowup,
                          const vmpi::comm_stats& stats, int ranks,
                          long restored_generation, double new_dt,
                          long retries_used, long max_retries) {
  std::ofstream os(path, std::ios::app);
  PCF_REQUIRE(os.good(), "cannot open blow-up report file: " + path);
  os.precision(12);
  os << "== blow-up report ==\n"
     << "step:           " << at.step << "\n"
     << "time:           " << at.time << "\n"
     << "dt at blow-up:  " << dt_at_blowup << "\n"
     << "kinetic energy: " << at.kinetic_energy << "\n"
     << "bulk velocity:  " << at.bulk_velocity << "\n"
     << "wall shear:     " << at.wall_shear << "\n"
     << "cfl:            " << at.cfl << "\n";
  os << "recent diagnostics (step, time, Ub, KE, tau_w, CFL):\n";
  const std::size_t n = rep.series.size();
  for (std::size_t i = n > 5 ? n - 5 : 0; i < n; ++i) {
    const auto& d = rep.series[i];
    os << "  " << d.step << ' ' << d.time << ' ' << d.bulk_velocity << ' '
       << d.kinetic_energy << ' ' << d.wall_shear << ' ' << d.cfl << '\n';
  }
  os << "vmpi comm stats: ranks=" << ranks
     << " alltoall_calls=" << stats.alltoall_calls
     << " reduce_calls=" << stats.reduce_calls
     << " bytes_sent=" << stats.bytes_sent << "\n";
  if (restored_generation >= 0) {
    os << "action: restored generation " << restored_generation
       << ", dt reduced to " << new_dt << " (retry " << retries_used
       << " of " << max_retries << ")\n";
  } else if (max_retries <= 0) {
    os << "action: halting (recovery disabled)\n";
  } else if (retries_used >= max_retries) {
    os << "action: halting (retry budget of " << max_retries
       << " exhausted)\n";
  } else {
    os << "action: halting (no usable checkpoint generation)\n";
  }
  os << '\n';
  PCF_REQUIRE(os.good(), "blow-up report write failed");
}

}  // namespace

long restore_newest_generation(channel_dns& dns, vmpi::communicator& world,
                               const std::string& prefix) {
  // Candidate list from rank 0's view of the directory, broadcast so every
  // rank walks the identical sequence of collectives.
  std::vector<long> gens;
  if (world.rank() == 0) gens = io::list_generations(prefix);
  auto ngen = static_cast<std::uint64_t>(gens.size());
  world.bcast(&ngen, 1, 0);
  gens.resize(static_cast<std::size_t>(ngen));
  if (ngen > 0) world.bcast(gens.data(), gens.size(), 0);

  for (std::size_t i = gens.size(); i-- > 0;) {
    const long g = gens[i];
    double ok = 1.0;
    try {
      dns.load_checkpoint(io::generation_path(prefix, g));
    } catch (const std::exception&) {
      ok = 0.0;  // missing, truncated, or failed a section CRC
    }
    double all_ok = 0.0;
    world.allreduce_min(&ok, &all_ok, 1);
    if (all_ok == 0.0) continue;  // some rank rejected this generation
    // A checkpoint saved after the field already went non-finite cannot
    // rescue the run; fall back to the next-older generation.
    if (std::isfinite(dns.kinetic_energy())) return g;
  }
  return -1;
}

long resume_or_initialize(channel_dns& dns, vmpi::communicator& world,
                          const std::string& prefix, double perturbation,
                          std::uint64_t seed) {
  const long g = restore_newest_generation(dns, world, prefix);
  if (g < 0) dns.initialize(perturbation, seed);
  return g;
}

run_report run_campaign(channel_dns& dns, vmpi::communicator& world,
                        const run_plan& plan,
                        const std::function<void(const diag_sample&)>& on_diag) {
  PCF_REQUIRE(plan.flow_throughs > 0.0, "plan must run forward in time");
  PCF_REQUIRE(plan.warmup_fraction >= 0.0 && plan.warmup_fraction <= 1.0,
              "warmup fraction must be in [0, 1]");
  PCF_REQUIRE(plan.checkpoint_every <= 0 || plan.checkpoint_keep >= 1,
              "checkpoint rotation must keep at least one generation");
  PCF_REQUIRE(plan.max_blowup_retries <= 0 ||
                  (plan.retry_dt_factor > 0.0 && plan.retry_dt_factor <= 1.0),
              "retry dt factor must be in (0, 1]");
  run_report rep;
  const double t_ft = flow_through_time(dns);
  const double t_end = dns.time() + plan.flow_throughs * t_ft;
  const double t_stats = dns.time() +
                         plan.warmup_fraction * plan.flow_throughs * t_ft;
  const std::string report_path =
      !plan.report_path.empty()
          ? plan.report_path
          : (plan.checkpoint_path.empty() ? std::string{}
                                          : plan.checkpoint_path + ".blowup.txt");
  wall_timer clock;

  while (dns.time() < t_end) {
    if (plan.max_seconds > 0.0 && clock.seconds() >= plan.max_seconds) {
      rep.hit_time_budget = true;
      break;
    }
    dns.step();
    ++rep.steps_run;

    if (dns.time() >= t_stats && plan.stats_every > 0 &&
        dns.step_count() % plan.stats_every == 0) {
      dns.accumulate_stats();
    }
    if (plan.diag_every > 0 && dns.step_count() % plan.diag_every == 0) {
      diag_sample d;
      d.step = dns.step_count();
      d.time = dns.time();
      d.bulk_velocity = dns.bulk_velocity();
      d.kinetic_energy = dns.kinetic_energy();
      d.wall_shear = dns.wall_shear_stress();
      d.cfl = dns.cfl();
      rep.series.push_back(d);
      if (on_diag) on_diag(d);
      if (plan.stop_on_nonfinite && !std::isfinite(d.kinetic_energy)) {
        const double dt_at_blowup = dns.dt();
        long restored = -1;
        double new_dt = dt_at_blowup;
        if (rep.blowup_recoveries < plan.max_blowup_retries &&
            !plan.checkpoint_path.empty()) {
          restored =
              restore_newest_generation(dns, world, plan.checkpoint_path);
          if (restored >= 0) {
            // Scale the dt that blew up, not the restored one, so repeated
            // retries keep shrinking it.
            new_dt = dt_at_blowup * plan.retry_dt_factor;
            dns.set_dt(new_dt);
          }
        }
        if (!report_path.empty()) {
          if (world.rank() == 0)
            append_blowup_report(report_path, rep, d, dt_at_blowup,
                                 world.stats(), world.size(), restored, new_dt,
                                 rep.blowup_recoveries + (restored >= 0),
                                 plan.max_blowup_retries);
          rep.wrote_report = true;
        }
        if (restored >= 0) {
          ++rep.blowup_recoveries;
          rep.restored_generation = restored;
          continue;  // resume stepping from the restored state
        }
        rep.went_nonfinite = true;
        break;
      }
    }
    if (plan.timings_every > 0 &&
        dns.step_count() % plan.timings_every == 0) {
      if (plan.on_timings) plan.on_timings(dns.timings());
      dns.reset_timings();
    }
    if (plan.checkpoint_every > 0 &&
        dns.step_count() % plan.checkpoint_every == 0) {
      PCF_REQUIRE(!plan.checkpoint_path.empty(),
                  "checkpoint cadence set without a path");
      dns.save_checkpoint(
          io::generation_path(plan.checkpoint_path, dns.step_count()));
      if (world.rank() == 0)
        io::prune_generations(plan.checkpoint_path, plan.checkpoint_keep);
      ++rep.checkpoints_written;
    }
  }
  rep.profiles = dns.stats();
  return rep;
}

void write_series_csv(const std::string& path,
                      const std::vector<diag_sample>& series) {
  std::ofstream os(path);
  PCF_REQUIRE(os.good(), "cannot open series output file");
  os << "step,time,bulk_velocity,kinetic_energy,wall_shear,cfl\n";
  os.precision(12);
  for (const auto& d : series)
    os << d.step << ',' << d.time << ',' << d.bulk_velocity << ','
       << d.kinetic_energy << ',' << d.wall_shear << ',' << d.cfl << '\n';
  PCF_REQUIRE(os.good(), "series write failed");
}

}  // namespace pcf::core
