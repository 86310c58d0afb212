#include "svc/result_io.hpp"

#include <limits>
#include <string>
#include <utility>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos::svc {

std::vector<std::uint8_t> encode_result(const JobSpec& spec,
                                        const HeteroResult& r) {
  ckpt::StateWriter w;
  w.begin_section("svc.job");
  w.u32(kResultFormat);
  w.str(canonical(spec));
  w.end_section();

  w.begin_section("svc.result");
  w.str(r.mix_id);
  w.str(to_string(r.policy));
  w.u64(r.spec_ids.size());
  for (int id : r.spec_ids) w.i64(id);
  w.u64(r.cpu_ipc.size());
  for (double v : r.cpu_ipc) w.f64(v);
  w.f64(r.fps);
  w.f64(r.gpu_frame_cycles);
  w.f64(r.seconds);
  w.boolean(r.hit_cycle_cap);
  w.f64(r.est_error_pct);
  w.u64(r.est_samples);
  w.u64(r.est_relearns);
  w.u64(r.stat_delta.size());
  for (const auto& [name, value] : r.stat_delta) {  // std::map: sorted, stable
    w.str(name);
    w.u64(value);
  }
  w.end_section();
  return w.finish();
}

HeteroResult decode_result(const JobSpec& spec,
                           const std::vector<std::uint8_t>& bytes) {
  ckpt::StateReader reader(bytes);
  if (!reader.next_section() || reader.tag() != "svc.job") {
    throw ckpt::CkptError("svc.result: expected svc.job section first");
  }
  const std::uint32_t format = reader.u32();
  if (format != kResultFormat) {
    reader.fail("svc.job: unsupported result format " + std::to_string(format));
  }
  const std::string stored = reader.str();
  const std::string wanted = canonical(spec);
  if (stored != wanted) {
    reader.fail("svc.job: stored result is for '" + stored +
                "', requested '" + wanted + "'");
  }
  reader.expect_section_end();

  if (!reader.next_section() || reader.tag() != "svc.result") {
    throw ckpt::CkptError("svc.result: missing svc.result section");
  }
  HeteroResult r;
  r.mix_id = reader.str();
  const std::string policy_name = reader.str();
  if (!policy_from_string(policy_name, r.policy)) {
    reader.fail("svc.result: unknown policy '" + policy_name + "'");
  }
  const std::uint64_t n_spec = reader.u64();
  if (n_spec > reader.remaining()) reader.fail("svc.result: spec_ids overrun");
  r.spec_ids.reserve(static_cast<std::size_t>(n_spec));
  for (std::uint64_t i = 0; i < n_spec; ++i) {
    const std::int64_t sid = reader.i64();
    if (sid < 0 || sid > std::numeric_limits<int>::max()) {
      reader.fail("svc.result: spec id " + std::to_string(sid) +
                  " out of range");
    }
    r.spec_ids.push_back(static_cast<int>(sid));
  }
  const std::uint64_t n_ipc = reader.u64();
  if (n_ipc > reader.remaining()) reader.fail("svc.result: cpu_ipc overrun");
  r.cpu_ipc.reserve(static_cast<std::size_t>(n_ipc));
  for (std::uint64_t i = 0; i < n_ipc; ++i) r.cpu_ipc.push_back(reader.f64());
  r.fps = reader.f64();
  r.gpu_frame_cycles = reader.f64();
  r.seconds = reader.f64();
  r.hit_cycle_cap = reader.boolean();
  r.est_error_pct = reader.f64();
  r.est_samples = reader.u64();
  r.est_relearns = reader.u64();
  const std::uint64_t n_stats = reader.u64();
  if (n_stats > reader.remaining()) {
    reader.fail("svc.result: stat_delta overrun");
  }
  for (std::uint64_t i = 0; i < n_stats; ++i) {
    std::string name = reader.str();
    const std::uint64_t value = reader.u64();
    r.stat_delta.emplace(std::move(name), value);
  }
  reader.expect_section_end();
  return r;
}

std::vector<std::uint8_t> encode_warm(const JobSpec& spec,
                                      const std::vector<std::uint8_t>& snapshot) {
  ckpt::StateWriter w;
  w.begin_section("svc.warm");
  w.u32(kWarmFormat);
  w.str(warm_canonical(spec));
  w.end_section();
  w.begin_section("svc.snapshot");
  w.bytes(snapshot.data(), snapshot.size());
  w.end_section();
  return w.finish();
}

std::vector<std::uint8_t> decode_warm(const JobSpec& spec,
                                      std::vector<std::uint8_t> bytes) {
  ckpt::StateReader reader(std::move(bytes));
  if (!reader.next_section() || reader.tag() != "svc.warm") {
    throw ckpt::CkptError("svc.warm: expected svc.warm section first");
  }
  const std::uint32_t format = reader.u32();
  if (format != kWarmFormat) {
    reader.fail("svc.warm: unsupported warm format " + std::to_string(format));
  }
  const std::string stored = reader.str();
  const std::string wanted = warm_canonical(spec);
  if (stored != wanted) {
    reader.fail("svc.warm: stored snapshot is for '" + stored +
                "', requested '" + wanted + "'");
  }
  reader.expect_section_end();

  if (!reader.next_section() || reader.tag() != "svc.snapshot") {
    throw ckpt::CkptError("svc.warm: missing svc.snapshot section");
  }
  std::vector<std::uint8_t> snapshot(reader.remaining());
  reader.bytes(snapshot.data(), snapshot.size());
  if (reader.next_section()) {
    reader.fail("svc.warm: unexpected section after svc.snapshot");
  }
  return snapshot;
}

std::uint64_t result_digest(const std::vector<std::uint8_t>& bytes) {
  Fnv1a64 h;
  for (std::uint8_t b : bytes) h.mix_byte(b);
  return h.value();
}

}  // namespace gpuqos::svc
