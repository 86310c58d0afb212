// One DDR3 channel: banks, shared data bus, read queue (policy-scheduled) and
// write queue with watermark-based draining.
//
// A channel driving its own engine ticker (attach_ticker) parks it while
// both queues are empty, woken by enqueue(). When no queued entry's bank is
// ready it sleeps until the earliest such bank's ready_at — for write
// service always, for read service only under a scheduler that
// idles_until_bank_ready(). Either way every skipped tick would have picked
// nothing and changed nothing.
#pragma once

#include <cstdint>
#include <memory>

#include "check/auditors.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/stats.hpp"
#include "dram/bank.hpp"
#include "dram/scheduler.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;
class Telemetry;

class Channel {
 public:
  Channel(Engine& engine, const DramConfig& cfg, unsigned index,
          StatRegistry& stats);

  /// Policy is owned by the controller (shared across channels is allowed for
  /// stateless policies; stateful ones get one instance per channel).
  void set_scheduler(IDramScheduler* sched) { sched_ = sched; }
  void set_telemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// While attached, every enqueue/completion feeds the conservation ledger
  /// (Flow::DramRead / Flow::DramWrite: injected = retired exactly once).
  void set_check(CheckContext* check) { check_ = check; }

  /// Register this channel's ticker at the DRAM command clock with the
  /// given phase. Only a channel registered this way parks.
  void attach_ticker(Cycle phase);

  /// Enqueue a request already mapped to this channel (bank/row decoded).
  void enqueue(DramQueueEntry entry);

  /// Advance one DRAM command cycle (the attach_ticker callback; or called
  /// directly by tests, in which case the channel never parks).
  void tick();

  [[nodiscard]] std::size_t read_queue_depth() const { return reads_.size(); }
  [[nodiscard]] std::size_t write_queue_depth() const { return writes_.size(); }
  [[nodiscard]] bool idle() const {
    return reads_.empty() && writes_.empty() && in_service_ == 0;
  }

  /// Snapshot for audit_channel. `read_bound` is typically the LLC MSHR pool
  /// feeding this controller; 0 disables a bound.
  [[nodiscard]] ChannelAuditView audit_view(std::size_t read_bound,
                                            std::size_t write_bound,
                                            Cycle starvation_bound) const;

  /// FNV-1a digest of queues, banks, bus reservation, and service state.
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint bank/bus state (docs/CHECKPOINT.md). Queued entries hold
  /// completion closures, so save() requires idle() — guaranteed by the
  /// barrier drain (the write queue drains once the read queue empties).
  void save(ckpt::StateWriter& w) const;
  void load(ckpt::StateReader& r);

 private:
  void service_cas(DramQueueEntry&& entry, Bank& bank);
  [[nodiscard]] std::int64_t pick_write(Cycle now) const;
  /// After a tick that picked nothing: park or sleep the ticker when the
  /// following ticks would pick nothing either.
  void park_idle(bool serve_writes);

  Engine& engine_;
  DramConfig cfg_;       // ckpt:skip digest:skip: construction parameter
  ScaledTiming timing_;  // ckpt:skip digest:skip: derived from cfg_
  unsigned index_;       // ckpt:skip digest:skip: construction identity
  StatRegistry& stats_;
  std::vector<Bank> banks_;
  DramQueue reads_;   // ckpt:skip: drained at the barrier
  DramQueue writes_;  // ckpt:skip: drained at the barrier
  IDramScheduler* sched_ = nullptr;
  Telemetry* telemetry_ = nullptr;
  Profiler* prof_ = nullptr;
  // Sampled-profiling decimation counter (obs/profiler.hpp).
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  CheckContext* check_ = nullptr;
  Engine::TickerId ticker_ = Engine::kNoTicker;  // ckpt:skip digest:skip: wiring
  Cycle bus_free_at_ = 0;
  bool draining_writes_ = false;
  std::uint64_t next_id_ = 0;
  std::uint64_t in_service_ = 0;  // ckpt:skip: zero at the barrier

  std::uint64_t* st_row_hits_ = nullptr;
  std::uint64_t* st_row_misses_ = nullptr;
  std::uint64_t* st_bytes_[2][2] = {};  // [write][gpu]
  std::uint64_t* st_reads_ = nullptr;
  std::uint64_t* st_writes_ = nullptr;
  std::uint64_t* st_read_lat_ = nullptr;
  std::uint64_t* st_read_lat_src_[2] = {};  // [gpu]
  std::uint64_t* st_reads_src_[2] = {};
  // Per-channel activity counters (obs/counters.hpp): DDR command mix for
  // the power proxy. Registered eagerly; bumped unconditionally.
  std::uint64_t* st_act_ = nullptr;   // "dram.ch<i>.act"
  std::uint64_t* st_pre_ = nullptr;   // "dram.ch<i>.pre"
  std::uint64_t* st_rd_ = nullptr;    // "dram.ch<i>.rd"
  std::uint64_t* st_wr_ = nullptr;    // "dram.ch<i>.wr"

  friend class DramController;
};

}  // namespace gpuqos
