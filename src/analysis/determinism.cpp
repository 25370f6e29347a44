#include "analysis/determinism.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/crc.hpp"

namespace pcf::determinism {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

}  // namespace

std::uint32_t step_fingerprint::combined() const {
  std::uint32_t c = crc32_init();
  c = crc32_update(c, &step, sizeof(step));
  c = crc32_update(c, &time_bits, sizeof(time_bits));
  c = crc32_update(c, &dt_bits, sizeof(dt_bits));
  c = crc32_update(c, &crc_v, sizeof(crc_v));
  c = crc32_update(c, &crc_om, sizeof(crc_om));
  c = crc32_update(c, &crc_phi, sizeof(crc_phi));
  c = crc32_update(c, &crc_mean, sizeof(crc_mean));
  // Scenario sections join the digest only when present, so default-
  // channel combined values (and their golden CSVs) stay frozen.
  if (crc_scalars != 0)
    c = crc32_update(c, &crc_scalars, sizeof(crc_scalars));
  return crc32_final(c);
}

step_fingerprint fingerprint(core::channel_dns& dns,
                             const std::string& /*unused*/) {
  // The checkpoint's section table is the decomposition-independent view
  // of the state: each section CRC covers the global array, stitched from
  // every rank's own mode lines, so it matches across any pa x pb split.
  const std::vector<core::checkpoint_section> table =
      dns.checkpoint_sections();
  auto crc_of = [&](const std::string& name) -> const std::uint32_t* {
    for (const auto& e : table)
      if (e.name == name) return &e.crc;
    return nullptr;
  };

  step_fingerprint fp;
  fp.step = dns.step_count();
  fp.time_bits = bits_of(dns.time());
  fp.dt_bits = bits_of(dns.dt());
  fp.crc_v = *crc_of("c_v");
  fp.crc_om = *crc_of("c_om");
  fp.crc_phi = *crc_of("c_phi");
  fp.crc_mean = *crc_of("mean");
  // Scenario sections (passive scalars, flow-rate forcing state) fold in
  // the order sc0, scm0, sc1, scm1, ..., frc — each scalar's field next
  // to its mean, the order the committed scenario traces were recorded
  // in, not the file's table order. Stays 0 when there are none.
  std::vector<const std::uint32_t*> scenario;
  for (std::size_t i = 0; i < dns.num_scalars(); ++i) {
    scenario.push_back(crc_of("sc" + std::to_string(i)));
    scenario.push_back(crc_of("scm" + std::to_string(i)));
  }
  if (const std::uint32_t* frc = crc_of("frc")) scenario.push_back(frc);
  if (!scenario.empty()) {
    std::uint32_t c = crc32_init();
    for (const std::uint32_t* crc : scenario)
      c = crc32_update(c, crc, sizeof(*crc));
    fp.crc_scalars = crc32_final(c);
  }
  return fp;
}

trace record_trace(core::channel_dns& dns, int nsteps) {
  trace t;
  t.steps.reserve(static_cast<std::size_t>(nsteps) + 1);
  t.steps.push_back(fingerprint(dns));
  for (int s = 0; s < nsteps; ++s) {
    dns.step();
    t.steps.push_back(fingerprint(dns));
  }
  return t;
}

std::vector<divergence> compare(const trace& expected, const trace& actual) {
  std::vector<divergence> divs;
  if (expected.steps.size() != actual.steps.size()) {
    divergence d;
    d.row = std::min(expected.steps.size(), actual.steps.size());
    d.field = "rows";
    d.expected = expected.steps.size();
    d.actual = actual.steps.size();
    divs.push_back(d);
  }
  const std::size_t n = std::min(expected.steps.size(), actual.steps.size());
  for (std::size_t i = 0; i < n; ++i) {
    const step_fingerprint& e = expected.steps[i];
    const step_fingerprint& a = actual.steps[i];
    if (e == a) continue;
    divergence d;
    d.row = i;
    d.step = e.step;
    // Attribute the first differing field in evolution order: the step/
    // time/dt bookkeeping first (a restart that re-counts steps differs
    // there before any field does), then the evolved fields.
    if (e.step != a.step) {
      d.field = "step";
      d.expected = static_cast<std::uint64_t>(e.step);
      d.actual = static_cast<std::uint64_t>(a.step);
    } else if (e.time_bits != a.time_bits) {
      d.field = "time";
      d.expected = e.time_bits;
      d.actual = a.time_bits;
    } else if (e.dt_bits != a.dt_bits) {
      d.field = "dt";
      d.expected = e.dt_bits;
      d.actual = a.dt_bits;
    } else if (e.crc_v != a.crc_v) {
      d.field = "c_v";
      d.expected = e.crc_v;
      d.actual = a.crc_v;
    } else if (e.crc_om != a.crc_om) {
      d.field = "c_om";
      d.expected = e.crc_om;
      d.actual = a.crc_om;
    } else if (e.crc_phi != a.crc_phi) {
      d.field = "c_phi";
      d.expected = e.crc_phi;
      d.actual = a.crc_phi;
    } else if (e.crc_mean != a.crc_mean) {
      d.field = "mean";
      d.expected = e.crc_mean;
      d.actual = a.crc_mean;
    } else {
      d.field = "scalars";
      d.expected = e.crc_scalars;
      d.actual = a.crc_scalars;
    }
    divs.push_back(d);
  }
  return divs;
}

std::string describe(const std::vector<divergence>& divs) {
  if (divs.empty()) return "traces are bit-identical";
  std::ostringstream os;
  os << std::hex;
  for (const auto& d : divs)
    os << "row " << std::dec << d.row << " (step " << d.step << "): " << d.field
       << " expected 0x" << std::hex << d.expected << " got 0x" << d.actual
       << "\n";
  return os.str();
}

void write_trace_csv(const std::string& path, const trace& t) {
  std::ofstream os(path);
  PCF_REQUIRE(os.good(), "cannot open trace file for writing: " + path);
  // The extended header (with crc_scalars) is written only when some row
  // carries scenario state, so default-channel golden CSVs keep their
  // frozen byte layout.
  bool scalars = false;
  for (const auto& fp : t.steps) scalars = scalars || fp.crc_scalars != 0;
  os << (scalars ? "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                   "crc_scalars,combined\n"
                 : "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                   "combined\n");
  os << std::hex;
  for (const auto& fp : t.steps) {
    os << std::dec << fp.step << std::hex << ',' << fp.time_bits << ','
       << fp.dt_bits << ',' << fp.crc_v << ',' << fp.crc_om << ','
       << fp.crc_phi << ',' << fp.crc_mean << ',';
    if (scalars) os << fp.crc_scalars << ',';
    os << fp.combined() << '\n';
  }
  PCF_REQUIRE(os.good(), "trace write failed: " + path);
}

trace read_trace_csv(const std::string& path) {
  std::ifstream is(path);
  PCF_REQUIRE(is.good(), "cannot open trace file for reading: " + path);
  std::string line;
  PCF_REQUIRE(static_cast<bool>(std::getline(is, line)),
              "trace file header missing: " + path);
  const bool scalars =
      line ==
      "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,crc_scalars,"
      "combined";
  PCF_REQUIRE(scalars ||
                  line ==
                      "step,time_bits,dt_bits,crc_v,crc_om,crc_phi,crc_mean,"
                      "combined",
              "trace file header mismatch: " + path);
  trace t;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    step_fingerprint fp;
    char c = 0;
    std::uint64_t combined = 0;
    ls >> std::dec >> fp.step >> c >> std::hex >> fp.time_bits >> c >>
        fp.dt_bits >> c >> fp.crc_v >> c >> fp.crc_om >> c >> fp.crc_phi >>
        c >> fp.crc_mean >> c;
    if (scalars) ls >> fp.crc_scalars >> c;
    ls >> combined;
    PCF_REQUIRE(!ls.fail(), "malformed trace row in " + path + ": " + line);
    PCF_REQUIRE(combined == fp.combined(),
                "trace row self-check failed in " + path + ": " + line);
    t.steps.push_back(fp);
  }
  return t;
}

std::uint32_t file_crc32(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PCF_REQUIRE(is.good(), "cannot open file for checksumming: " + path);
  char buf[1 << 16];
  std::uint32_t crc = crc32_init();
  while (is) {
    is.read(buf, sizeof(buf));
    crc = crc32_update(crc, buf, static_cast<std::size_t>(is.gcount()));
  }
  PCF_REQUIRE(is.eof(), "file read failed while checksumming: " + path);
  return crc32_final(crc);
}

}  // namespace pcf::determinism
