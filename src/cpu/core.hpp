// Interval-model out-of-order CPU core.
//
// The core commits up to `commit_width` instructions per cycle from a
// synthetic stream. Loads that miss the private hierarchy become outstanding
// LLC requests; commit stalls when (a) a dependent load is unresolved,
// (b) the reorder window past the oldest outstanding miss is exhausted, or
// (c) L2 MSHRs are full. This captures the latency/bandwidth sensitivity the
// paper's policies act on without simulating a full pipeline.
//
// The core works in intervals: once it stalls on (a) or (b) nothing changes
// until a demand miss completes, and a fixed-latency stall ends at a known
// cycle. A core driving its own engine ticker (attach_ticker) parks the
// ticker through such stalls — woken by the miss completion, or asleep until
// resume_at_ — and credits the skipped cycles to the stall counter lazily;
// StatRegistry settles that credit before any read. Structural (MSHR-full)
// stalls still retry every cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/engine.hpp"
#include "common/mem_request.hpp"
#include "common/stats.hpp"
#include "cpu/stream.hpp"

namespace gpuqos {

class CheckContext;
class Profiler;

class CpuCore {
 public:
  using MemPort = std::function<void(MemRequest&&)>;

  CpuCore(Engine& engine, const CpuCoreConfig& cfg, unsigned index,
          std::unique_ptr<CpuStream> stream, StatRegistry& stats);

  void set_mem_port(MemPort port) { port_ = std::move(port); }

  /// While attached, every LLC read this core issues feeds the conservation
  /// ledger (Flow::CpuRead), with duplicate-completion detection.
  void set_check(CheckContext* check) { check_ = check; }
  void set_profiler(Profiler* prof) { prof_ = prof; }

  /// Register this core's period-1 ticker on the engine and its stall
  /// settler on the StatRegistry. Only a core registered this way parks.
  void attach_ticker();

  /// Advance one CPU cycle (the attach_ticker callback; or called directly
  /// by tests, in which case the core never parks).
  void tick(Cycle now);

  /// Drop `addr` from the private hierarchy (LLC back-invalidation).
  /// Returns true when a dirty copy existed (the LLC then owns writing it
  /// back to DRAM).
  bool back_invalidate(Addr addr);

  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] unsigned index() const { return index_; }
  [[nodiscard]] std::uint64_t outstanding_misses() const {
    return outstanding_.size();
  }
  /// Structural ceiling on this core's in-flight LLC reads (demand misses
  /// plus stream prefetches) — the conservation ledger's CpuRead bound.
  [[nodiscard]] std::uint64_t max_reads_in_flight() const {
    return cfg_.l2_mshrs + kMaxPrefetchInFlight;
  }
  [[nodiscard]] const SetAssocCache& l1d() const { return *l1d_; }
  [[nodiscard]] const SetAssocCache& l2() const { return *l2_; }

  /// FNV-1a digest of the core's architectural state (commit count, stall
  /// bookkeeping, private caches, outstanding misses, prefetch trackers).
  [[nodiscard]] std::uint64_t digest() const;

  /// Checkpoint barrier support (docs/CHECKPOINT.md): a frozen core's tick()
  /// returns immediately — no commits, no new misses, no stat bumps — while
  /// in-flight completions still land (they only mark outstanding_ entries
  /// done and fill caches). Freezing all injectors lets the engine drain.
  /// A parked core settles its stall credit and unparks first: frozen cycles
  /// are not stall cycles.
  void freeze();
  void unfreeze() { frozen_ = false; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// True when no LLC read of this core is still in flight.
  [[nodiscard]] bool quiescent() const {
    if (prefetches_in_flight_ > 0) return false;
    for (const Miss& m : outstanding_) {
      if (!m.done) return false;
    }
    return true;
  }

  /// Checkpoint the architectural state; requires quiescent(). load()
  /// targets a freshly-constructed core with the same configuration.
  void save(ckpt::StateWriter& w) const;
  void load(ckpt::StateReader& r);

 private:
  struct Miss {
    std::uint64_t seq;   // committed-instruction count at issue
    bool done = false;
  };

  /// Why the ticker is parked; names the stall counter skipped cycles go to.
  enum class Park : std::uint8_t { None, Fixed, Dependent, Rob };

  /// Park the ticker after a stalled tick at `now` (no-op when hand-ticked).
  void park(Park why, Cycle now);
  /// Credit cycles [credit_from_, upto) to the parking stall's counter.
  void credit_stalls(Cycle upto);
  /// Credit the cycles skipped so far (up to the engine's next nominal
  /// cycle); the StatRegistry settler.
  void settle_stalls();
  /// Attempt to execute the pending memory op; false on a structural or
  /// dependency stall (commit cannot proceed this cycle).
  bool execute_mem_op(Cycle now);
  void send_llc_read(Addr block, Cycle now, std::size_t miss_slot);
  void send_llc_write(Addr block, Cycle now);
  [[nodiscard]] bool rob_full() const;
  void l2_insert(Addr block, bool dirty, Cycle now);

  Engine& engine_;
  CpuCoreConfig cfg_;  // ckpt:skip digest:skip: construction parameter
  unsigned index_;     // ckpt:skip digest:skip: construction identity
  std::unique_ptr<CpuStream> stream_;
  StatRegistry& stats_;
  MemPort port_;  // ckpt:skip digest:skip: wiring callbacks to the LLC
  CheckContext* check_ = nullptr;

  std::unique_ptr<SetAssocCache> l1d_;
  std::unique_ptr<SetAssocCache> l2_;

  MicroOp pending_{};
  bool has_pending_ = false;
  // Checkpoint barrier: tick() is a no-op while set, managed around save().
  bool frozen_ = false;  // ckpt:skip digest:skip: barrier flag
  // Interval ticking. Host-side schedule only: the skipped cycles' stall
  // credit is settled before every stats read, and freeze() unparks before
  // any checkpoint, so none of it is simulated state.
  Engine::TickerId ticker_ = Engine::kNoTicker;  // ckpt:skip digest:skip: wiring
  Park park_ = Park::None;  // ckpt:skip digest:skip: None at the barrier
  Cycle credit_from_ = 0;   // ckpt:skip digest:skip: first uncredited cycle
  std::uint32_t gap_left_ = 0;

  std::uint64_t committed_ = 0;
  Cycle resume_at_ = 0;                  // short fixed-latency stalls
  std::vector<Miss> outstanding_;        // in-flight LLC reads
  std::int64_t blocking_miss_ = -1;      // index into outstanding_, or -1
  // digest:skip: resolved-entry count awaiting compaction, derived from
  // outstanding_ (whose per-entry done flags are digested).
  unsigned done_misses_ = 0;  // digest:skip

  // Stream prefetcher: detects ascending block streams on L2 misses and
  // runs ahead, hiding DRAM latency for streaming workloads the way the L2
  // prefetchers of real cores do.
  struct StreamTracker {
    Addr next = 0;
    bool valid = false;
  };
  static constexpr unsigned kStreamTrackers = 4;
  static constexpr unsigned kPrefetchDegree = 4;
  static constexpr unsigned kMaxPrefetchInFlight = 12;
  StreamTracker trackers_[kStreamTrackers] = {};
  unsigned tracker_rr_ = 0;
  unsigned prefetches_in_flight_ = 0;  // ckpt:skip: zero at the barrier
  void maybe_prefetch(Addr miss_block, Cycle now);

  std::string stat_prefix_;  // ckpt:skip digest:skip: diagnostic label
  Profiler* prof_ = nullptr;
  // Host-side decimation counter for the sampled profiler scope; never
  // touches simulated state.
  std::uint32_t prof_decim_ = 0;  // ckpt:skip digest:skip: host-side only
  std::uint64_t* st_stall_fixed_ = nullptr;
  std::uint64_t* st_stall_dep_ = nullptr;
  std::uint64_t* st_stall_rob_ = nullptr;
  std::uint64_t* st_stall_struct_ = nullptr;
  std::uint64_t* st_llc_reads_ = nullptr;
  std::uint64_t* st_llc_writes_ = nullptr;
  std::uint64_t* st_read_lat_ = nullptr;
  std::uint64_t* st_prefetches_ = nullptr;
  std::uint64_t* st_committed_ = nullptr;  // activity counter
};

}  // namespace gpuqos
