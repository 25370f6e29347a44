// channel_dns checkpointing: one decomposition-independent file.
//
// Layout (frozen — tests hash whole checkpoint files to pin bit-identity
// of the time advance across refactors):
//   header   magic u64, {nx, ny, nz} u64[3], time double, steps long,
//            {section count, 0} u32[2]
//   table    one 24-byte {name, bytes, crc} entry per section, in file
//            order: c_v, c_om, c_phi, "sc<i>" per passive scalar, mean,
//            "scm<i>" per scalar, "frc" under constant flow rate, ctl
//   payload  the sections in table order at fixed global offsets
// The distributed field sections come first, each a global array of mode
// lines; every rank writes its own lines in place, MPI-IO style, so no
// rank ever holds more than its local state. The tail (mean profiles,
// scalar means, forcing state, dt controller) is written by rank 0.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include "core/simulation.hpp"
#include "core/simulation_impl.hpp"
#include "io/atomic_file.hpp"
#include "util/crc.hpp"

namespace pcf::core {

namespace {

constexpr std::uint64_t kCheckpointMagic = 0x50434644'4e533034ull;

struct section_header {
  char name[8];           // zero-padded section name
  std::uint64_t bytes;    // payload size
  std::uint32_t crc;      // CRC-32 of the payload
  std::uint32_t reserved; // zero
};
static_assert(sizeof(section_header) == 24, "section header must be packed");

constexpr std::size_t kHeaderBytes = 4 * sizeof(std::uint64_t) +
                                     sizeof(double) + sizeof(long) +
                                     2 * sizeof(std::uint32_t);

// The "ctl" section: the dt controller state {dt, CFL target, dt_min,
// dt_max, last CFL}, so a restored run steps with the dt the controller
// had evolved to and keeps adapting it exactly as the uninterrupted run.
constexpr std::size_t kCtlElems = 5;

section_header make_header(const checkpoint_section& e) {
  section_header h{};
  std::snprintf(h.name, sizeof(h.name), "%s", e.name.c_str());
  h.bytes = e.bytes;
  h.crc = e.crc;
  return h;
}

std::string sc_name(const char* stem, std::size_t i) {
  return std::string(stem) + std::to_string(i);
}

std::size_t payload_base(std::size_t nsections) {
  return kHeaderBytes + nsections * sizeof(section_header);
}

}  // namespace

std::vector<aligned_buffer<cplx>*> channel_dns::impl::checkpoint_fields() {
  std::vector<aligned_buffer<cplx>*> f = {&state.c_v, &state.c_om,
                                          &state.c_phi};
  for (auto& sc : state.scalars) f.push_back(&sc.c_th);
  return f;
}

std::size_t channel_dns::impl::global_line(std::size_t m) const {
  return (d.xs.offset + m / d.zs.count) * cfg.nz + d.zs.offset +
         m % d.zs.count;
}

std::vector<checkpoint_section> channel_dns::impl::checkpoint_layout() const {
  const std::size_t n = modes.n;
  const std::size_t field = cfg.nx / 2 * cfg.nz * n * sizeof(cplx);
  const std::size_t nsc = state.scalars.size();
  std::vector<checkpoint_section> t = {
      {"c_v", field}, {"c_om", field}, {"c_phi", field}};
  for (std::size_t i = 0; i < nsc; ++i) t.push_back({sc_name("sc", i), field});
  t.push_back({"mean", 2 * n * sizeof(double)});
  for (std::size_t i = 0; i < nsc; ++i)
    t.push_back({sc_name("scm", i), n * sizeof(double)});
  if (cfg.scenario.constant_flow_rate())
    t.push_back({"frc", 2 * sizeof(double)});
  t.push_back({"ctl", kCtlElems * sizeof(double)});
  return t;
}

std::vector<double> channel_dns::impl::checkpoint_tail() {
  const std::size_t n = modes.n;
  const std::size_t nsc = state.scalars.size();
  const bool fr = cfg.scenario.constant_flow_rate();
  std::vector<double> local((2 + nsc) * n + (fr ? 2 : 0), 0.0),
      tail(local.size());
  if (modes.has_mean) {
    auto out = std::copy(state.c_U.begin(), state.c_U.end(), local.begin());
    out = std::copy(state.c_W.begin(), state.c_W.end(), out);
    for (const auto& sc : state.scalars)
      out = std::copy(sc.c_T.begin(), sc.c_T.end(), out);
    if (fr) {
      *out++ = mean_flow.flow_target();
      *out = mean_flow.last_forcing();
    }
  }
  // The mean mode has a single owner, so gather by bitwise OR over the raw
  // words: it reproduces the owner's bits exactly. A floating-point sum
  // would turn an owned -0.0 into +0.0 whenever a non-owner's +0.0 joins
  // in, making the file depend on the decomposition.
  world.allreduce_bor(reinterpret_cast<const std::uint64_t*>(local.data()),
                      reinterpret_cast<std::uint64_t*>(tail.data()),
                      local.size());
  // The controller state is identical on every rank (cfl_global is
  // reduced), so it needs no gather.
  tail.insert(tail.end(), {cfg.dt, diagnostics.cfl_target(),
                           diagnostics.dt_min(), diagnostics.dt_max(),
                           state.cfl_global});
  return tail;
}

std::vector<checkpoint_section> channel_dns::impl::checkpoint_sections(
    const std::vector<double>& tail) {
  std::vector<checkpoint_section> table = checkpoint_layout();
  const auto fields = checkpoint_fields();
  const std::size_t n = modes.n;
  const std::size_t lines = cfg.nx / 2 * cfg.nz;
  const std::size_t line_bytes = n * sizeof(cplx);
  // Section CRCs come from the in-memory state (reading a file back would
  // checksum whatever a fault left there). Each rank checksums its own
  // mode lines; the lines are stitched together in global offset order
  // with crc32_combiner. The u32 values ride in doubles through the sum
  // reduction — each line has exactly one owner.
  std::vector<double> crc_l(fields.size() * lines, 0.0), crc_g(crc_l.size());
  for (std::size_t m = 0; m < modes.nmodes; ++m) {
    const std::size_t line = global_line(m);
    for (std::size_t f = 0; f < fields.size(); ++f)
      crc_l[f * lines + line] = static_cast<double>(
          crc32(fields[f]->data() + m * n, line_bytes));
  }
  world.allreduce_sum(crc_l.data(), crc_g.data(), crc_l.size());
  const crc32_combiner append_line(line_bytes);
  for (std::size_t f = 0; f < fields.size(); ++f) {
    std::uint32_t crc = 0;  // crc32 of the empty prefix
    for (std::size_t line = 0; line < lines; ++line)
      crc = append_line(crc,
                        static_cast<std::uint32_t>(crc_g[f * lines + line]));
    table[f].crc = crc;
  }
  // The tail sections are consecutive slices of `tail`, in table order.
  const char* p = reinterpret_cast<const char*>(tail.data());
  for (std::size_t t = fields.size(); t < table.size(); ++t) {
    table[t].crc = crc32(p, table[t].bytes);
    p += table[t].bytes;
  }
  return table;
}

std::vector<checkpoint_section> channel_dns::checkpoint_sections() const {
  auto& s = *impl_;
  return s.checkpoint_sections(s.checkpoint_tail());
}

void channel_dns::save_checkpoint(const std::string& path) const {
  auto& s = *impl_;
  const std::vector<double> tail = s.checkpoint_tail();
  const std::vector<checkpoint_section> table = s.checkpoint_sections(tail);
  const auto fields = s.checkpoint_fields();
  const std::size_t payload = payload_base(table.size());
  const std::size_t field_bytes = table[0].bytes;
  const std::size_t line_bytes = s.modes.n * sizeof(cplx);

  std::optional<io::atomic_file_writer> owner;
  if (s.world.rank() == 0) {
    owner.emplace(path);
    const std::uint64_t dims[3] = {
        s.cfg.nx, static_cast<std::uint64_t>(s.cfg.ny), s.cfg.nz};
    const std::uint32_t meta[2] = {static_cast<std::uint32_t>(table.size()),
                                   0};
    owner->write(&kCheckpointMagic, sizeof(kCheckpointMagic));
    owner->write(dims, sizeof(dims));
    owner->write(&s.time, sizeof(s.time));
    owner->write(&s.steps, sizeof(s.steps));
    owner->write(meta, sizeof(meta));
    for (const auto& e : table) {
      const section_header h = make_header(e);
      owner->write(&h, sizeof(h));
    }
    // The tail comes last in the file; writing it first also sizes it.
    owner->write_at(payload + fields.size() * field_bytes, tail.data(),
                    tail.size() * sizeof(double));
    owner->flush();
  }
  s.world.barrier();
  {
    std::optional<io::atomic_file_writer> joiner;
    io::atomic_file_writer& os =
        s.world.rank() == 0 ? *owner
                            : joiner.emplace(io::atomic_file_writer::join(path));
    // A rank's lines of one x row are z-consecutive both in memory and in
    // the file: one write per row and field.
    const std::size_t row = s.d.zs.count;
    for (std::size_t m = 0; m < s.modes.nmodes; m += row) {
      const std::size_t at = payload + s.global_line(m) * line_bytes;
      for (std::size_t f = 0; f < fields.size(); ++f)
        os.write_at(at + f * field_bytes, fields[f]->data() + m * s.modes.n,
                    row * line_bytes);
    }
    if (joiner) joiner->close();
  }
  s.world.barrier();
  if (owner) owner->commit();
  s.world.barrier();
}

void channel_dns::load_checkpoint(const std::string& path) {
  auto& s = *impl_;
  s.ensure_resumed();
  auto& st = s.state;
  const std::vector<checkpoint_section> layout = s.checkpoint_layout();
  const std::size_t payload = payload_base(layout.size());
  std::size_t expected_size = payload;
  for (const auto& e : layout) expected_size += e.bytes;

  // Every rank runs the identical verification on the shared file, so all
  // ranks reach the same accept/reject decision without extra collectives.
  // Nothing is restored until the whole file has verified.
  std::ifstream is(path, std::ios::binary);
  PCF_REQUIRE(is.good(), "cannot open checkpoint for reading: " + path);
  auto get = [&](void* p, std::size_t bytes) {
    is.read(static_cast<char*>(p), static_cast<std::streamsize>(bytes));
  };
  std::uint64_t magic = 0, dims[3];
  double saved_time = 0.0;
  long saved_steps = 0;
  std::uint32_t meta[2] = {0, 0};
  get(&magic, sizeof(magic));
  PCF_REQUIRE(!is.fail() && magic == kCheckpointMagic,
              "not a checkpoint file: " + path);
  get(dims, sizeof(dims));
  get(&saved_time, sizeof(saved_time));
  get(&saved_steps, sizeof(saved_steps));
  get(meta, sizeof(meta));
  PCF_REQUIRE(!is.fail(), "checkpoint header truncated");
  PCF_REQUIRE(dims[0] == s.cfg.nx &&
                  dims[1] == static_cast<std::uint64_t>(s.cfg.ny) &&
                  dims[2] == s.cfg.nz,
              "checkpoint grid mismatch");
  PCF_REQUIRE(meta[0] == layout.size(), "checkpoint section count mismatch");
  is.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(is.tellg());
  PCF_REQUIRE(size >= expected_size, "checkpoint truncated");
  PCF_REQUIRE(size == expected_size,
              "trailing garbage after checkpoint payload");

  std::vector<section_header> table(layout.size());
  is.seekg(static_cast<std::streamoff>(kHeaderBytes));
  get(table.data(), table.size() * sizeof(section_header));
  PCF_REQUIRE(!is.fail(), "checkpoint section table truncated");
  std::vector<char> buf(1 << 16);
  for (std::size_t t = 0; t < layout.size(); ++t) {
    // The table itself carries no checksum, so every byte of an entry is
    // checked: the zero-padded name, the size and the reserved word.
    const section_header want = make_header(layout[t]);
    const std::string name(table[t].name,
                           strnlen(table[t].name, sizeof(table[t].name)));
    PCF_REQUIRE(std::memcmp(table[t].name, want.name, sizeof(want.name)) ==
                        0 &&
                    table[t].bytes == want.bytes && table[t].reserved == 0,
                "checkpoint section '" + name + "' unexpected (expected '" +
                    layout[t].name + "')");
    std::uint32_t crc = crc32_init();
    for (std::size_t left = layout[t].bytes; left > 0;) {
      const std::size_t chunk = std::min(left, buf.size());
      get(buf.data(), chunk);
      PCF_REQUIRE(!is.fail(),
                  "checkpoint section '" + name + "' truncated");
      crc = crc32_update(crc, buf.data(), chunk);
      left -= chunk;
    }
    PCF_REQUIRE(crc32_final(crc) == table[t].crc,
                "checkpoint section '" + name + "' CRC mismatch");
  }

  const auto fields = s.checkpoint_fields();
  const std::size_t n = s.modes.n;
  const std::size_t field_bytes = layout[0].bytes;
  const std::size_t tail_at = payload + fields.size() * field_bytes;
  std::vector<double> tail((expected_size - tail_at) / sizeof(double));
  is.seekg(static_cast<std::streamoff>(tail_at));
  get(tail.data(), tail.size() * sizeof(double));
  PCF_REQUIRE(!is.fail(), "checkpoint read failed");
  // The CRC proves the bytes are the ones written, not that a crafted file
  // holds a usable controller: check it like set_dt/set_cfl_target would.
  const double* ctl = tail.data() + tail.size() - kCtlElems;
  PCF_REQUIRE(std::isfinite(ctl[0]) && ctl[0] > 0.0 &&
                  std::isfinite(ctl[1]) &&
                  (ctl[1] <= 0.0 || (ctl[2] > 0.0 && std::isfinite(ctl[3]) &&
                                     ctl[3] >= ctl[2])),
              "checkpoint section 'ctl' holds an invalid dt controller");
  const std::size_t row = s.d.zs.count;  // z-consecutive lines, as saved
  for (std::size_t m = 0; m < s.modes.nmodes; m += row) {
    const std::size_t at = payload + s.global_line(m) * n * sizeof(cplx);
    for (std::size_t f = 0; f < fields.size(); ++f) {
      is.seekg(static_cast<std::streamoff>(at + f * field_bytes));
      get(fields[f]->data() + m * n, row * n * sizeof(cplx));
    }
  }
  PCF_REQUIRE(is.good(), "checkpoint read failed");

  s.time = saved_time;
  s.steps = saved_steps;
  const double* in = tail.data();
  if (s.modes.has_mean) {
    std::copy_n(in, n, st.c_U.begin());
    std::copy_n(in + n, n, st.c_W.begin());
    for (std::size_t i = 0; i < st.scalars.size(); ++i)
      std::copy_n(in + (2 + i) * n, n, st.scalars[i].c_T.begin());
  }
  in += (2 + st.scalars.size()) * n;
  if (s.cfg.scenario.constant_flow_rate()) {
    s.mean_flow.restore_forcing(in[0], in[1]);
    in += 2;
  }
  s.cfg.dt = in[0];
  s.diagnostics.set_cfl_target(in[1], in[2], in[3]);
  st.cfl_global = in[4];
  st.hv_prev.fill(cplx{0, 0});
  st.hg_prev.fill(cplx{0, 0});
  std::fill(st.hU_prev.begin(), st.hU_prev.end(), 0.0);
  std::fill(st.hW_prev.begin(), st.hW_prev.end(), 0.0);
  for (auto& sc : st.scalars) {
    sc.hth_prev.fill(cplx{0, 0});
    std::fill(sc.hT_prev.begin(), sc.hT_prev.end(), 0.0);
  }
  // The restored dt may differ from the one the factored bands were built
  // for, and the caller may still change it before the first step (the
  // runner's reduced-dt retry does); drop the bands so they are rebuilt
  // against the dt actually in effect.
  s.invalidate_solvers();
  s.world.barrier();
}

}  // namespace pcf::core
