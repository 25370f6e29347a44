#include "campaign/job_file.hpp"

#include <cstddef>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pcf::campaign {

namespace {

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& what) {
  throw std::runtime_error(origin + ":" + std::to_string(line) + ": " + what);
}

std::string trim(const std::string& s) {
  const char* ws = " \t\r";
  const std::size_t b = s.find_first_not_of(ws);
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(ws);
  return s.substr(b, e - b + 1);
}

double parse_num(const std::string& origin, int line, const std::string& key,
                 const std::string& value) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (value.empty() || used != value.size())
    fail(origin, line, "key '" + key + "': malformed number '" + value + "'");
  return v;
}

long parse_int(const std::string& origin, int line, const std::string& key,
               const std::string& value) {
  // Parsed directly as an integer, NOT through parse_num: a double cannot
  // represent every long (anything above 2^53 loses bits), so a
  // stod-then-truncate round trip would silently corrupt large values
  // like seeds. std::stol also rejects "1e3" / "3.5" spellings, which are
  // numbers but not integers.
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(value, &used, 10);
  } catch (const std::out_of_range&) {
    fail(origin, line, "key '" + key + "': integer out of range '" + value +
                           "'");
  } catch (const std::exception&) {
    used = 0;
  }
  if (value.empty() || used != value.size())
    fail(origin, line, "key '" + key + "': expected an integer, got '" +
                           value + "'");
  return v;
}

bool parse_bool(const std::string& origin, int line, const std::string& key,
                const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  fail(origin, line, "key '" + key + "': expected a boolean, got '" + value +
                         "'");
}

/// Job keys apply both inside a section and at top level (where they set
/// the defaults every later section starts from). Returns false when the
/// key is not a job key.
bool apply_job_key(job_spec& j, const std::string& key,
                   const std::string& value, const std::string& origin,
                   int line) {
  auto num = [&] { return parse_num(origin, line, key, value); };
  auto integer = [&] { return parse_int(origin, line, key, value); };
  if (key == "nx") j.config.nx = static_cast<std::size_t>(integer());
  else if (key == "nz") j.config.nz = static_cast<std::size_t>(integer());
  else if (key == "ny") j.config.ny = static_cast<int>(integer());
  else if (key == "degree") j.config.degree = static_cast<int>(integer());
  else if (key == "stretch") j.config.stretch = num();
  else if (key == "lx") j.config.lx = num();
  else if (key == "lz") j.config.lz = num();
  else if (key == "re_tau") j.config.re_tau = num();
  else if (key == "dt") j.config.dt = num();
  else if (key == "forcing") j.config.forcing = num();
  else if (key == "max_batch") j.config.max_batch = static_cast<int>(integer());
  else if (key == "pipeline_depth")
    j.config.pipeline_depth = static_cast<int>(integer());
  else if (key == "fft_threads")
    j.config.fft_threads = static_cast<int>(integer());
  else if (key == "reorder_threads")
    j.config.reorder_threads = static_cast<int>(integer());
  else if (key == "advance_threads")
    j.config.advance_threads = static_cast<int>(integer());
  else if (key == "autotune")
    j.config.autotune = parse_bool(origin, line, key, value);
  else if (key == "wall_u_lo") j.config.scenario.wall_u_lo = num();
  else if (key == "wall_u_hi") j.config.scenario.wall_u_hi = num();
  else if (key == "wall_w_lo") j.config.scenario.wall_w_lo = num();
  else if (key == "wall_w_hi") j.config.scenario.wall_w_hi = num();
  else if (key == "target_bulk") j.config.scenario.target_bulk = num();
  else if (key == "forcing_mode") {
    if (value == "pressure_gradient")
      j.config.scenario.forcing = core::forcing_mode::pressure_gradient;
    else if (value == "flow_rate")
      j.config.scenario.forcing = core::forcing_mode::flow_rate;
    else
      fail(origin, line,
           "key 'forcing_mode': expected 'pressure_gradient' or "
           "'flow_rate', got '" +
               value + "'");
  } else if (key == "scalar") {
    // Repeatable: each occurrence appends one passive scalar, given as
    // "<prandtl>" or "<prandtl> <wall_lo> <wall_hi>".
    std::istringstream ss(value);
    std::vector<std::string> tok;
    std::string w;
    while (ss >> w) tok.push_back(w);
    if (tok.size() != 1 && tok.size() != 3)
      fail(origin, line,
           "key 'scalar': expected '<prandtl> [<wall_lo> <wall_hi>]', "
           "got '" +
               value + "'");
    core::scalar_spec sp;
    sp.prandtl = parse_num(origin, line, "scalar.prandtl", tok[0]);
    if (tok.size() == 3) {
      sp.wall_lo = parse_num(origin, line, "scalar.wall_lo", tok[1]);
      sp.wall_hi = parse_num(origin, line, "scalar.wall_hi", tok[2]);
    }
    j.config.scenario.scalars.push_back(sp);
  }
  else if (key == "steps") j.steps = integer();
  else if (key == "priority") j.priority = static_cast<int>(integer());
  else if (key == "perturbation") j.perturbation = num();
  else if (key == "seed") j.seed = static_cast<std::uint64_t>(integer());
  else if (key == "cfl_target") j.cfl_target = num();
  else if (key == "dt_min") j.dt_min = num();
  else if (key == "dt_max") j.dt_max = num();
  else if (key == "stats_every") j.stats_every = static_cast<int>(integer());
  else return false;
  return true;
}

/// Campaign keys are only legal at top level. Returns false when the key
/// is not a campaign key.
bool apply_campaign_key(campaign_config& c, const std::string& key,
                        const std::string& value, const std::string& origin,
                        int line) {
  auto integer = [&] { return parse_int(origin, line, key, value); };
  if (key == "workers") c.workers = static_cast<int>(integer());
  else if (key == "slice_steps") c.slice_steps = static_cast<int>(integer());
  else if (key == "max_resident") c.max_resident = static_cast<int>(integer());
  else if (key == "memory_budget_mb")
    c.memory_budget_bytes =
        static_cast<std::uint64_t>(integer()) * 1024 * 1024;
  else if (key == "spill_dir") c.spill_dir = value;
  else if (key == "tuning_cache") c.tuning_cache = value;
  else if (key == "collect_series")
    c.collect_series = parse_bool(origin, line, key, value);
  else return false;
  return true;
}

}  // namespace

job_file parse_job_text(const std::string& text, const std::string& origin) {
  job_file out;
  job_spec defaults;  // top-level job keys accumulate here
  bool in_section = false;

  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const std::size_t comment = raw.find_first_of("#;");
    std::string s = trim(comment == std::string::npos
                             ? raw
                             : raw.substr(0, comment));
    if (s.empty()) continue;

    if (s.front() == '[') {
      if (s.back() != ']')
        fail(origin, line, "unterminated section header '" + s + "'");
      const std::string name = trim(s.substr(1, s.size() - 2));
      if (name.empty()) fail(origin, line, "empty job name");
      for (const job_spec& j : out.jobs)
        if (j.name == name)
          fail(origin, line, "duplicate job name '" + name + "'");
      job_spec j = defaults;  // inherit the top-level job defaults
      j.name = name;
      out.jobs.push_back(std::move(j));
      in_section = true;
      continue;
    }

    const std::size_t eq = s.find('=');
    if (eq == std::string::npos)
      fail(origin, line, "expected 'key = value', got '" + s + "'");
    const std::string key = trim(s.substr(0, eq));
    const std::string value = trim(s.substr(eq + 1));
    if (key.empty()) fail(origin, line, "empty key");

    if (in_section) {
      if (!apply_job_key(out.jobs.back(), key, value, origin, line))
        fail(origin, line, "unknown job key '" + key + "'");
    } else {
      if (!apply_campaign_key(out.config, key, value, origin, line) &&
          !apply_job_key(defaults, key, value, origin, line))
        fail(origin, line, "unknown key '" + key + "'");
    }
  }

  for (const job_spec& j : out.jobs) {
    if (j.steps < 1)
      throw std::runtime_error(origin + ": job '" + j.name +
                               "' never sets steps >= 1");
    // Reject impossible configurations at parse time, naming the job, so
    // a bad campaign file fails before any simulation is constructed.
    try {
      j.config.validate();
    } catch (const std::exception& e) {
      throw std::runtime_error(origin + ": job '" + j.name + "': " +
                               e.what());
    }
  }
  return out;
}

job_file parse_job_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open())
    throw std::runtime_error("cannot open job file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_job_text(buf.str(), path);
}

}  // namespace pcf::campaign
