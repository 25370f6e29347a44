// Measurement plumbing for bench_step: strict argument parsing, sample
// statistics, the metric writer (METRIC lines + one JSON object), the
// in-memory span recorder with its Chrome trace-event writer, and a private
// scratch directory. Nothing here knows about the DNS.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace bench_step {

using clk = std::chrono::steady_clock;

inline double seconds_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Strict parsing: the whole token must be consumed, so "12x", "" or "-1"
// are errors instead of silently becoming 12, 0 or 2^64 - 1.

inline std::uint64_t parse_u64(const std::string& flag, const std::string& s) {
  if (s.empty() || s[0] < '0' || s[0] > '9')
    throw std::invalid_argument(flag + " needs an unsigned integer, got '" +
                                s + "'");
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used, 10);
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + " is out of range: '" + s + "'");
  }
  if (used != s.size())
    throw std::invalid_argument(flag + " has trailing characters: '" + s +
                                "'");
  return static_cast<std::uint64_t>(v);
}

inline double parse_positive(const std::string& flag, const std::string& s) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument(flag + " needs a number, got '" + s + "'");
  }
  if (used != s.size() || !std::isfinite(v) || v <= 0.0)
    throw std::invalid_argument(flag + " needs a positive number, got '" + s +
                                "'");
  return v;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolation quantile (the "type 7" rule numpy and most
/// spreadsheets use) of an unsorted sample; q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Metrics. Every metric carries its unit, the number of samples behind it
// and their quartiles (a single measurement has samples = 1 and all three
// quartiles equal to the value).

enum class metric_group { end_to_end, per_layer };

struct metric {
  metric_group group;
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 1;
  double p25 = 0.0, p50 = 0.0, p75 = 0.0;
};

class metric_sink {
 public:
  /// One number (a count, a ratio, or a single measurement).
  void add(metric_group g, const std::string& name, const std::string& unit,
           double value) {
    metrics_.push_back({g, name, unit, value, 1, value, value, value});
  }

  /// A value derived from `samples` (median, percentile, mean ...), reported
  /// with the sample count and quartiles.
  void add(metric_group g, const std::string& name, const std::string& unit,
           double value, const std::vector<double>& samples) {
    metrics_.push_back({g, name, unit, value, samples.size(),
                        quantile(samples, 0.25), quantile(samples, 0.5),
                        quantile(samples, 0.75)});
  }

  /// Names of metrics whose value is not a finite number (JSON cannot hold
  /// them, and a NaN/inf timing is a harness bug, not a measurement).
  [[nodiscard]] std::vector<std::string> non_finite() const {
    std::vector<std::string> bad;
    for (const auto& m : metrics_)
      if (!std::isfinite(m.value) || !std::isfinite(m.p25) ||
          !std::isfinite(m.p75))
        bad.push_back(m.name);
    return bad;
  }

  /// `METRIC <workload> <name> <value> <unit>`, one line per metric.
  void print_lines(const std::string& workload) const {
    for (const auto& m : metrics_)
      std::printf("METRIC %s %s %.17g %s\n", workload.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
  }

  /// The result object on one line; `metrics` holds group `g` only.
  [[nodiscard]] std::string json(metric_group g, bool correct,
                                 std::uint64_t attempted,
                                 std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics_) {
      if (m.group != g) continue;
      if (!first) out += ", ";
      first = false;
      out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
             ", \"unit\": \"" + m.unit + "\", \"samples\": " +
             std::to_string(m.samples) + ", \"p25\": " + num(m.p25) +
             ", \"p50\": " + num(m.p50) + ", \"p75\": " + num(m.p75) + "}";
    }
    out += "}}";
    return out;
  }

 private:
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::vector<metric> metrics_;
};

// ---------------------------------------------------------------------------
// Spans. Kept in memory (one mutex-guarded vector; the busiest producer is
// one span per rank per step) and written once, at exit, as Chrome
// trace-event JSON: pid = sub-world or tenant, tid = rank or worker.

struct span_record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  const char* layer = "";
  clk::time_point start, end;
  int group = 0;
  int rank = 0;
};

class tracer {
 public:
  tracer() : origin_(clk::now()) {}

  std::uint64_t next_id() { return ++ids_; }

  void record(const span_record& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }

  /// Write every span; false when the file cannot be written.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      const double ts = 1e6 * seconds_between(origin_, s.start);
      const double dur = 1e6 * seconds_between(s.start, s.end);
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                   s.name, s.layer, ts, dur, s.group, s.rank,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  clk::time_point origin_;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<span_record> spans_;
};

/// RAII span around one call into a layer; a no-op without a tracer.
class span {
 public:
  span(tracer* t, const char* name, const char* layer, std::uint64_t parent,
       int group, int rank)
      : t_(t) {
    if (t_ == nullptr) return;
    rec_.id = t_->next_id();
    rec_.parent = parent;
    rec_.name = name;
    rec_.layer = layer;
    rec_.group = group;
    rec_.rank = rank;
    rec_.start = clk::now();
  }
  ~span() {
    if (t_ == nullptr) return;
    rec_.end = clk::now();
    t_->record(rec_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  tracer* t_;
  span_record rec_;
};

// ---------------------------------------------------------------------------

/// A private mkdtemp directory under `parent`, removed with its contents on
/// destruction, so concurrent bench processes never share spill or
/// fingerprint files.
class scratch_dir {
 public:
  explicit scratch_dir(const std::string& parent) {
    std::string tmpl = parent + "/bench_step.XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr)
      throw std::runtime_error("cannot create a scratch directory under " +
                               parent);
    path_ = tmpl;
  }
  ~scratch_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  scratch_dir(const scratch_dir&) = delete;
  scratch_dir& operator=(const scratch_dir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace bench_step
