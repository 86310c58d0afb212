// Cycle-driven simulation engine.
//
// The engine owns the base clock (CPU cycles). Components interact two ways:
//  * Tickers: registered callbacks invoked every `period` base cycles with a
//    fixed phase — used by CPU cores (period 1), the GPU pipeline (period 4),
//    and the DRAM channels (period 4).
//  * Events: one-shot callbacks scheduled `delay` cycles in the future — used
//    for message delivery, cache lookup completion, and DRAM data return.
//
// Events scheduled for the same cycle run in scheduling order (stable), and
// all events of a cycle run before that cycle's tickers.
//
// Interval tickers (docs/PERFORMANCE.md "Interval tickers"): a ticker with
// nothing to do can park itself from inside its own callback — with no
// deadline (park) or until a given cycle (sleep_until) — and another module
// re-arms it with wake() when the event that unblocks it happens. A parked
// ticker keeps its nominal schedule: wake() re-arms it at its next nominal
// cycle that has not yet ticked, which is exactly the cycle a never-parked
// ticker would next observe the change on. wake() schedules no event, so the
// event sequence counter and the engine digest do not move. A module that
// parks owns the exactness of the cycles it skipped (CpuCore credits them
// to its stall counters lazily; Channel only parks when a skipped tick would
// have been a no-op).
//
// Internals (docs/PERFORMANCE.md has the full story; engine_ref.hpp keeps the
// original priority-queue implementation as a semantic oracle):
//  * Near-future events (delay < kWheelSize) go straight into a 256-bucket
//    timing wheel — one bucket per cycle, append-ordered, so same-cycle FIFO
//    ordering is free and draining a cycle is a linear vector walk instead of
//    log(n) heap pops.
//  * Far-future events wait in a (when, seq) min-heap and are refilled into
//    the wheel as the horizon reaches them — eagerly by the run loop, and on
//    demand by schedule() when the far heap intrudes into the horizon (the
//    clock can jump via idle skip-ahead) — so bucket append order always
//    equals global (when, seq) order.
//  * Event callbacks are SmallFn, not std::function: payloads up to 104 bytes
//    (a MemRequest-capturing closure) live inline in the event node — zero
//    heap traffic per event in steady state, since buckets recycle capacity.
//  * Tickers carry a precomputed absolute `next_fire` cycle instead of being
//    modulo-tested every cycle, and the engine caches the minimum across
//    active tickers, so a cycle with no due ticker costs one comparison.
//  * run_for skips ahead over idle gaps (no due event, no due active
//    ticker), parked tickers included. run_until evaluates its predicate on
//    exactly the cycles a never-parking engine would: a parked ticker still
//    counts as due on its nominal cycles there, so a parked period-1 ticker
//    means no skip, and a now()-dependent predicate stops where it always
//    did. Where run_until does skip (no ticker has a nominal cycle in the
//    gap), the predicate is not evaluated, so one on now() alone may
//    overshoot by up to the smallest ticker period minus one.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/smallfn.hpp"
#include "common/types.hpp"

namespace gpuqos {

namespace ckpt {
class StateWriter;
class StateReader;
}  // namespace ckpt

class Engine {
 public:
  /// Inline capacity covers a closure capturing a MemRequest plus a pointer;
  /// larger (or potentially-throwing) payloads fall back to the heap.
  using Action = SmallFn<void(), 104>;
  using TickFn = SmallFn<void(Cycle)>;
  /// Registration index of a ticker (add_ticker's return value).
  using TickerId = std::size_t;
  /// "No ticker registered" (a module ticked by hand never parks).
  static constexpr TickerId kNoTicker = ~TickerId{0};

  static constexpr std::uint32_t kWheelBits = 8;
  static constexpr Cycle kWheelSize = Cycle{1} << kWheelBits;
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Cycle now() const { return now_; }

  /// Schedule `fn` to run `delay` cycles from now (delay 0 = later this cycle
  /// if scheduled from an event, or next event phase if from a ticker).
  void schedule(Cycle delay, Action fn);

  /// Register a periodic ticker. Tickers fire on cycles where
  /// (cycle % period) == phase, in registration order.
  TickerId add_ticker(Cycle period, Cycle phase, TickFn fn);

  /// Park ticker `id` with no deadline; only wake() re-arms it. Called from
  /// inside the ticker's own callback.
  void park(TickerId id);

  /// Park ticker `id` until its first nominal cycle at or after `when`
  /// (wake() may pull it earlier). Called from inside its own callback; a
  /// deadline no later than the next nominal cycle leaves it active.
  void sleep_until(TickerId id, Cycle when);

  /// Re-arm a parked ticker at its next nominal cycle that has not yet
  /// ticked: this cycle when woken before its turn in this cycle's ticker
  /// sweep (from an event, or from an earlier-registered ticker), otherwise
  /// the nominal cycle after. No-op on an active ticker.
  void wake(TickerId id);

  [[nodiscard]] bool parked(TickerId id) const {
    return tickers_[id].parked_from != kNoCycle;
  }

  /// The next nominal cycle of ticker `id` whose turn has not yet come:
  /// cycles before it have ticked (or were skipped while parked).
  [[nodiscard]] Cycle next_nominal(TickerId id) const;

  /// Run until `pred` returns true or `max_cycles` elapse. Returns cycles run.
  /// Idle gaps are skipped without re-evaluating `pred`; a parked ticker's
  /// nominal cycles are not idle here (see header comment).
  Cycle run_until(const std::function<bool()>& pred, Cycle max_cycles);

  /// Run a fixed number of cycles (idle gaps, including the nominal cycles
  /// of parked tickers, skipped; end cycle exact).
  void run_for(Cycle cycles);

  [[nodiscard]] std::size_t pending_events() const {
    return near_count_ + far_.size();
  }

  /// Cycle of the earliest pending event, or kNoCycle if none.
  [[nodiscard]] Cycle next_event_cycle() const;

  /// Total events executed / ticker callbacks fired since construction
  /// (perf accounting for bench/perf_engine; not part of the digest). Turns
  /// a parked ticker sat out are not counted.
  [[nodiscard]] std::uint64_t events_run() const { return events_run_; }
  [[nodiscard]] std::uint64_t ticks_run() const { return ticks_run_; }

  /// FNV-1a digest of the engine clock and queue state (determinism
  /// auditing). Event payloads are closures, so the schedule *shape* folds
  /// in: clock, sequence counter, near/far queue sizes, next-due cycle, and
  /// per-bucket occupancy of the timing wheel.
  [[nodiscard]] std::uint64_t digest() const;

  /// Serialize the clock and ticker phases (docs/CHECKPOINT.md). Event
  /// payloads are closures and cannot be serialized, so save() requires the
  /// engine to be drained (pending_events() == 0) — HeteroCmp's barrier
  /// drain guarantees this. A parked ticker is written as its nominal
  /// schedule, and the tick count as a never-parking engine would have it,
  /// so the bytes do not depend on parking; load() restores every ticker
  /// active (its module re-parks on its next tick).
  void save(ckpt::StateWriter& w) const;

  /// Restore into a freshly-constructed engine whose tickers have already
  /// been registered. The ticker list must match the saved one (same count,
  /// same periods in registration order); a mismatch means the resumed run
  /// attached different instrumentation and is rejected with CkptError.
  void load(ckpt::StateReader& r);

 private:
  struct EventNode {
    std::uint64_t seq;
    Action fn;
  };
  struct FarEvent {
    Cycle when;
    std::uint64_t seq;
    Action fn;
    // min-heap via std::push_heap/pop_heap with std::greater-style compare
    bool operator>(const FarEvent& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  struct Ticker {
    Cycle period;
    Cycle phase;  // nominal cycles are phase + k * period
    // First nominal cycle skipped by the current park; kNoCycle if active.
    Cycle parked_from;
    TickFn fn;
  };

  /// Move far events whose cycle entered the wheel horizon into buckets.
  void refill_wheel();
  /// Run every event in the current cycle's bucket (including ones appended
  /// mid-drain by zero-delay schedules), then release the bucket.
  void drain_bucket(std::vector<EventNode>& bucket);
  /// Fire tickers due at now_ (registration order) and recompute the
  /// cached minimum next_fire.
  void fire_tickers();
  /// First nominal cycle of `t` at or after `c`.
  [[nodiscard]] static Cycle align_up(const Ticker& t, Cycle c);
  /// True when ticker `id`'s turn in the current cycle's sweep has passed.
  [[nodiscard]] bool turn_passed(TickerId id) const {
    return swept_cycle_ == now_ && id < swept_;
  }
  /// Earliest nominal cycle of any parked ticker (kNoCycle if none); the
  /// run_until skip bound.
  [[nodiscard]] Cycle parked_nominal_min() const;
  /// Earliest pending event cycle, or `limit` if none comes before it. Scans
  /// at most limit - now_ wheel buckets.
  [[nodiscard]] Cycle next_event_before(Cycle limit) const;
  /// Unpark `t`, re-armed at nominal cycle `at`; counts the skipped turns.
  void unpark(Ticker& t, Cycle at);
  /// One full cycle at now_ (events, tickers, trailing events), then
  /// advance. The caller refills the wheel first.
  void step_cycle();

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_run_ = 0;  // digest:skip: perf accounting only
  std::uint64_t ticks_run_ = 0;   // digest:skip: perf accounting only
  // Turns parked tickers sat out, settled at unpark; save() adds them back
  // so the snapshot holds the never-parking tick count.
  std::uint64_t ticks_skipped_ = 0;  // ckpt:skip digest:skip: folded on save
  // Wheel/heap contents are digested (in-flight events must match between
  // runs) but never serialized: save() requires the quiescent barrier.
  std::size_t near_count_ = 0;                   // ckpt:skip: zero at barrier
  std::vector<std::vector<EventNode>> buckets_;  // ckpt:skip: wheel, drained
  std::vector<FarEvent> far_;                    // ckpt:skip: heap, drained
  // Ticker registrations differ between instrumented and plain runs, so they
  // are excluded from the digest; their schedule is recomputed on load.
  std::vector<Ticker> tickers_;     // digest:skip: instrumentation varies
  // Absolute cycle of each ticker's next firing (kNoCycle while parked with
  // no deadline), apart from tickers_ so the per-cycle scan reads one lane.
  std::vector<Cycle> next_fire_;  // digest:skip: instrumentation varies
  Cycle min_next_fire_ = kNoCycle;  // ckpt:skip digest:skip: cached minimum
  // Ticker sweep position: tickers [0, swept_) have had their turn at
  // swept_cycle_. Decides whether wake() re-arms this cycle or the next.
  Cycle swept_cycle_ = kNoCycle;  // ckpt:skip digest:skip: intra-cycle cursor
  std::size_t swept_ = 0;         // ckpt:skip digest:skip: intra-cycle cursor
  std::size_t parked_count_ = 0;  // ckpt:skip digest:skip: derived, cleared
};

}  // namespace gpuqos
