#include "svc/store.hpp"

#include <cstdio>
#include <filesystem>

#include "ckpt/state_io.hpp"
#include "svc/result_io.hpp"

namespace gpuqos::svc {

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw ckpt::CkptError("result store: cannot create '" + dir_ +
                            "': " + ec.message());
    }
  }
}

std::string ResultStore::result_path(const JobSpec& spec) const {
  return dir_ + "/" + job_key_hex(spec) + ".gqr";
}

std::string ResultStore::warm_path(const JobSpec& spec) const {
  return dir_ + "/" + u64_hex(warm_key(spec)) + ".gqw";
}

template <typename Decode>
std::optional<std::vector<std::uint8_t>> ResultStore::read_valid(
    const std::string& path, Decode decode) {
  if (!std::filesystem::exists(path)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return std::nullopt;
  }
  try {
    std::vector<std::uint8_t> bytes = decode(ckpt::read_snapshot_file(path));
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
    return bytes;
  } catch (const ckpt::CkptError& e) {
    // Corruption or a key collision: treat as a miss so the caller re-runs
    // and overwrites the bad file. Never serve unvalidated bytes.
    std::fprintf(stderr, "[svc.store] rejecting %s: %s\n", path.c_str(),
                 e.what());
    std::lock_guard<std::mutex> lock(mu_);
    ++rejects_;
    ++misses_;
    return std::nullopt;
  }
}

std::optional<std::vector<std::uint8_t>> ResultStore::get(const JobSpec& spec) {
  if (!enabled()) return std::nullopt;
  return read_valid(result_path(spec), [&spec](std::vector<std::uint8_t> bytes) {
    (void)decode_result(spec, bytes);  // CRC + identity check
    return bytes;
  });
}

void ResultStore::put(const JobSpec& spec, const std::vector<std::uint8_t>& bytes) {
  if (!enabled()) return;
  ckpt::write_snapshot_file(result_path(spec), bytes);
}

std::optional<std::vector<std::uint8_t>> ResultStore::get_warm(
    const JobSpec& spec) {
  if (!enabled()) return std::nullopt;
  return read_valid(warm_path(spec), [&spec](std::vector<std::uint8_t> bytes) {
    return decode_warm(spec, std::move(bytes));
  });
}

void ResultStore::put_warm(const JobSpec& spec,
                           const std::vector<std::uint8_t>& snapshot) {
  if (!enabled()) return;
  ckpt::write_snapshot_file(warm_path(spec), encode_warm(spec, snapshot));
}

std::uint64_t ResultStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t ResultStore::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t ResultStore::rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejects_;
}

}  // namespace gpuqos::svc
