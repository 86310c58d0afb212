// Persistent content-addressed result store (docs/SERVICE.md §store).
//
// Layout: one file per job, `<dir>/<16-hex job_key>.gqr`, holding the
// CRC-guarded container from result_io, plus one file per warm snapshot,
// `<dir>/<16-hex warm_key>.gqw`, so a later process forks from the saved
// warm-up instead of simulating it again. Lookups decode + validate, so a
// corrupt or mismatched file behaves as a miss (and is logged), never as a
// silently-served wrong result. Writes go through a uniquely named temp file
// + rename (ckpt::write_snapshot_file), so a process killed mid-write leaves
// either the old file or none, and several stores — in one process or many —
// can share a directory. That is what makes crash-resume work: after a
// restart, every job that finished before the kill is served from here
// without re-simulation.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "svc/jobspec.hpp"

namespace gpuqos::svc {

class ResultStore {
 public:
  /// `dir` is created if missing (empty string = store disabled: every get
  /// misses and puts are dropped, for pure in-memory runs).
  explicit ResultStore(std::string dir);

  /// Stored container bytes for this job, already CRC- and identity-checked
  /// against `spec`; nullopt on miss or on a corrupt/mismatched file.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const JobSpec& spec);

  /// Persist encoded result bytes for this job (atomic temp + rename).
  void put(const JobSpec& spec, const std::vector<std::uint8_t>& bytes);

  /// Warm snapshot for `spec`'s warm_canonical, validated the same way;
  /// nullopt on miss or on a corrupt/mismatched .gqw file.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get_warm(
      const JobSpec& spec);

  /// Persist a warm snapshot (wrapped by result_io's encode_warm).
  void put_warm(const JobSpec& spec, const std::vector<std::uint8_t>& snapshot);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  // Lifetime counters over both file kinds (monotonic, any thread).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t rejects() const;  // corrupt/mismatched files

 private:
  [[nodiscard]] std::string result_path(const JobSpec& spec) const;
  [[nodiscard]] std::string warm_path(const JobSpec& spec) const;

  /// Read + decode `path`; nullopt (counted, rejects logged) on a missing
  /// or invalid file.
  template <typename Decode>
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_valid(
      const std::string& path, Decode decode);

  std::string dir_;
  mutable std::mutex mu_;  // guards the counters
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejects_ = 0;
};

}  // namespace gpuqos::svc
