#include "io/atomic_file.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <utility>

#include "util/check.hpp"

namespace pcf::io {

namespace {

std::mutex g_policy_mutex;
fault_policy g_policy;

/// Snapshot of the global policy if it targets `path`, else kind none.
fault_policy policy_for(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_policy_mutex);
  if (g_policy.kind == fault_kind::none) return {};
  if (!g_policy.path_match.empty() &&
      path.find(g_policy.path_match) == std::string::npos)
    return {};
  return g_policy;
}

}  // namespace

void set_fault_policy(const fault_policy& policy) {
  std::lock_guard<std::mutex> lk(g_policy_mutex);
  g_policy = policy;
}

void clear_fault_policy() {
  std::lock_guard<std::mutex> lk(g_policy_mutex);
  g_policy = {};
}

fault_policy current_fault_policy() {
  std::lock_guard<std::mutex> lk(g_policy_mutex);
  return g_policy;
}

std::string atomic_file_writer::temp_path(const std::string& path) {
  return path + ".tmp";
}

atomic_file_writer::atomic_file_writer(const std::string& path)
    : atomic_file_writer(path, /*owner=*/true) {}

atomic_file_writer atomic_file_writer::join(const std::string& path) {
  return atomic_file_writer(path, /*owner=*/false);
}

atomic_file_writer::atomic_file_writer(const std::string& path, bool owner)
    : path_(path), tmp_(temp_path(path)), policy_(policy_for(path)),
      owner_(owner) {
  PCF_REQUIRE(policy_.kind != fault_kind::fail_open,
              "cannot open checkpoint temp file (injected fail-open): " + tmp_);
  // The owner truncates; joiners attach to the owner's in-progress temp.
  const auto mode = owner_
                        ? std::ios::binary | std::ios::out | std::ios::trunc
                        : std::ios::binary | std::ios::in | std::ios::out;
  os_.open(tmp_, mode);
  PCF_REQUIRE(os_.good(), "cannot open checkpoint temp file: " + tmp_);
}

atomic_file_writer::atomic_file_writer(atomic_file_writer&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      os_(std::move(other.os_)),
      policy_(std::move(other.policy_)),
      owner_(other.owner_),
      committed_(other.committed_),
      closed_(other.closed_) {
  other.committed_ = true;  // moved-from shell must not clean up
  other.owner_ = false;
}

atomic_file_writer::~atomic_file_writer() {
  if (committed_ || !owner_) return;
  // Abandoned before commit: the target was never touched; drop the temp.
  os_.close();
  std::error_code ec;
  std::filesystem::remove(tmp_, ec);
}

void atomic_file_writer::checked_write(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  const auto* p = static_cast<const char*>(data);
  const auto off = static_cast<std::uint64_t>(os_.tellp());
  switch (policy_.kind) {
    case fault_kind::short_write: {
      // Bytes past the policy offset vanish; the stream still reports
      // success, like a filesystem acknowledging a torn write.
      if (off >= policy_.byte) return;
      const std::uint64_t writable = std::min<std::uint64_t>(
          bytes, policy_.byte - off);
      os_.write(p, static_cast<std::streamsize>(writable));
      break;
    }
    case fault_kind::bit_flip: {
      if (policy_.byte >= off && policy_.byte < off + bytes) {
        std::string copy(p, bytes);
        copy[static_cast<std::size_t>(policy_.byte - off)] ^= 1;
        os_.write(copy.data(), static_cast<std::streamsize>(bytes));
      } else {
        os_.write(p, static_cast<std::streamsize>(bytes));
      }
      break;
    }
    case fault_kind::crash_after_n: {
      if (off + bytes > policy_.byte) {
        const std::uint64_t writable = policy_.byte > off
                                           ? policy_.byte - off
                                           : 0;
        os_.write(p, static_cast<std::streamsize>(writable));
        os_.flush();
        throw injected_crash("injected crash after " +
                             std::to_string(policy_.byte) +
                             " bytes writing " + tmp_);
      }
      os_.write(p, static_cast<std::streamsize>(bytes));
      break;
    }
    case fault_kind::none:
    case fault_kind::fail_open:  // handled at open; behaves as none here
      os_.write(p, static_cast<std::streamsize>(bytes));
      break;
  }
  PCF_REQUIRE(os_.good(), "write failed on checkpoint temp file: " + tmp_);
}

void atomic_file_writer::write(const void* data, std::size_t bytes) {
  checked_write(data, bytes);
}

void atomic_file_writer::write_at(std::uint64_t offset, const void* data,
                                  std::size_t bytes) {
  seek(offset);
  checked_write(data, bytes);
}

void atomic_file_writer::seek(std::uint64_t offset) {
  os_.seekp(static_cast<std::streamoff>(offset));
  PCF_REQUIRE(os_.good(), "seek failed on checkpoint temp file: " + tmp_);
}

std::uint64_t atomic_file_writer::tell() {
  return static_cast<std::uint64_t>(os_.tellp());
}

void atomic_file_writer::flush() {
  os_.flush();
  PCF_REQUIRE(os_.good(), "flush failed on checkpoint temp file: " + tmp_);
}

void atomic_file_writer::close() {
  if (closed_) return;
  flush();
  os_.close();
  PCF_REQUIRE(!os_.fail(), "close failed on checkpoint temp file: " + tmp_);
  closed_ = true;
}

void atomic_file_writer::commit() {
  PCF_REQUIRE(owner_, "only the creating writer may commit");
  PCF_REQUIRE(!committed_, "checkpoint already committed");
  close();
  std::error_code ec;
  std::filesystem::rename(tmp_, path_, ec);
  PCF_REQUIRE(!ec, "cannot rename checkpoint into place: " + tmp_ + " -> " +
                       path_ + " (" + ec.message() + ")");
  committed_ = true;
}

// --- generations -----------------------------------------------------------

std::string generation_path(const std::string& prefix, long generation) {
  return prefix + ".g" + std::to_string(generation);
}

std::vector<long> list_generations(const std::string& prefix) {
  const std::filesystem::path p(prefix);
  std::filesystem::path dir = p.parent_path();
  if (dir.empty()) dir = ".";
  const std::string stem = p.filename().string() + ".g";
  std::vector<long> gens;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= stem.size() || name.compare(0, stem.size(), stem) != 0)
      continue;
    const std::string digits = name.substr(stem.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    gens.push_back(std::stol(digits));
  }
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

void prune_generations(const std::string& prefix, int keep) {
  PCF_REQUIRE(keep >= 1, "must keep at least one checkpoint generation");
  auto gens = list_generations(prefix);
  if (gens.size() <= static_cast<std::size_t>(keep)) return;
  for (std::size_t i = 0; i + static_cast<std::size_t>(keep) < gens.size();
       ++i) {
    std::error_code ec;
    std::filesystem::remove(generation_path(prefix, gens[i]), ec);
  }
}

}  // namespace pcf::io
