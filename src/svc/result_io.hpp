// HeteroResult <-> CRC-guarded container bytes (docs/SERVICE.md §store).
//
// A stored result reuses the snapshot container (ckpt::StateWriter: magic +
// version header, CRC-guarded sections), so a corrupted store file is
// rejected with a ckpt::CkptError naming the bad section instead of being
// silently served. Two sections:
//
//   "svc.job"    — format version + the canonical job line the result was
//                  computed for. Decoding verifies it against the requesting
//                  spec, so an FNV key collision (or a renamed file) can
//                  never serve the wrong job's numbers.
//   "svc.result" — every HeteroResult field, fixed order.
//
// encode is deterministic: byte-identical results <=> identical simulations,
// which is what the dedup/byte-identity acceptance checks compare.
//
// A warm snapshot (the store's .gqw file) is wrapped the same way: section
// "svc.warm" carries the format version + warm_canonical(spec), section
// "svc.snapshot" the ckpt snapshot bytes verbatim. Decoding checks both CRCs
// and the binding, so a torn or foreign file never reaches run_hetero.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/runner.hpp"
#include "svc/jobspec.hpp"

namespace gpuqos::svc {

inline constexpr std::uint32_t kResultFormat = 1;
inline constexpr std::uint32_t kWarmFormat = 1;

[[nodiscard]] std::vector<std::uint8_t> encode_result(const JobSpec& spec,
                                                      const HeteroResult& r);

/// Decode + validate: container framing, CRCs, format version, and the
/// canonical-job binding. Throws ckpt::CkptError on any mismatch.
[[nodiscard]] HeteroResult decode_result(const JobSpec& spec,
                                         const std::vector<std::uint8_t>& bytes);

/// Warm snapshot <-> container bound to warm_canonical(spec). decode_warm
/// returns the snapshot bytes and throws ckpt::CkptError on any mismatch.
[[nodiscard]] std::vector<std::uint8_t> encode_warm(
    const JobSpec& spec, const std::vector<std::uint8_t>& snapshot);
[[nodiscard]] std::vector<std::uint8_t> decode_warm(
    const JobSpec& spec, std::vector<std::uint8_t> bytes);

/// FNV-1a64 over the encoded container — the digest reported per job and
/// compared by the byte-identity tests.
[[nodiscard]] std::uint64_t result_digest(const std::vector<std::uint8_t>& bytes);

}  // namespace gpuqos::svc
