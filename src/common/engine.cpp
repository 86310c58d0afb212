#include "common/engine.hpp"

#include <algorithm>
#include <utility>

#include "check/digest.hpp"
#include "ckpt/state_io.hpp"

namespace gpuqos {

Engine::Engine() : buckets_(kWheelSize) {}

void Engine::schedule(Cycle delay, Action fn) {
  const Cycle when = now_ + delay;
  if (delay < kWheelSize) {
    // Direct insert: the bucket for `when` can only hold events of `when`
    // (it was drained when the wheel last passed it). Appending preserves
    // global (when, seq) order only if every far event for `when` (all of
    // which carry smaller seqs) is already in the bucket — normally true
    // because the run loop refills each cycle, but now_ can also advance by
    // an idle skip-ahead, so top up the wheel if the far heap intrudes into
    // the horizon. One compare in the common case.
    if (!far_.empty() && far_.front().when <= now_ + kWheelMask) {
      refill_wheel();
    }
    buckets_[when & kWheelMask].push_back(EventNode{seq_++, std::move(fn)});
    ++near_count_;
  } else {
    far_.push_back(FarEvent{when, seq_++, std::move(fn)});
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
}

Engine::TickerId Engine::add_ticker(Cycle period, Cycle phase, TickFn fn) {
  const Cycle ph = phase % period;
  const Cycle rem = now_ % period;
  const Cycle first = now_ + (ph >= rem ? ph - rem : period - (rem - ph));
  tickers_.push_back(Ticker{period, ph, kNoCycle, std::move(fn)});
  next_fire_.push_back(first);
  min_next_fire_ = std::min(min_next_fire_, first);
  return tickers_.size() - 1;
}

Cycle Engine::align_up(const Ticker& t, Cycle c) {
  if (t.period == 1) return c;  // every cycle is nominal; skip the divide
  return c + (t.phase + t.period - c % t.period) % t.period;
}

Cycle Engine::next_nominal(TickerId id) const {
  const Ticker& t = tickers_[id];
  if (t.parked_from == kNoCycle) return next_fire_[id];
  const Cycle c = align_up(t, now_);
  return c == now_ && turn_passed(id) ? c + t.period : c;
}

void Engine::park(TickerId id) {
  Ticker& t = tickers_[id];
  if (t.parked_from == kNoCycle) {
    t.parked_from = next_fire_[id];
    ++parked_count_;
  }
  // A stale (early) min_next_fire_ only costs one sweep that finds nothing.
  next_fire_[id] = kNoCycle;
}

void Engine::sleep_until(TickerId id, Cycle when) {
  const Cycle nominal = next_nominal(id);
  if (when <= nominal) {
    wake(id);
    return;
  }
  Ticker& t = tickers_[id];
  if (t.parked_from == kNoCycle) {
    t.parked_from = nominal;
    ++parked_count_;
  }
  next_fire_[id] = align_up(t, when);
  min_next_fire_ = std::min(min_next_fire_, next_fire_[id]);
}

void Engine::wake(TickerId id) {
  Ticker& t = tickers_[id];
  if (t.parked_from == kNoCycle) return;
  const Cycle at = next_nominal(id);
  unpark(t, at);
  next_fire_[id] = at;
  // Re-armed for now_ in the middle of the sweep: the ticker is still ahead
  // of the sweep position, which fires it and folds in its next cycle.
  // Lowering the cached minimum to now_ here would leave it stale.
  if (at != now_ || swept_cycle_ != now_) {
    min_next_fire_ = std::min(min_next_fire_, at);
  }
}

void Engine::unpark(Ticker& t, Cycle at) {
  ticks_skipped_ += (at - t.parked_from) / t.period;
  t.parked_from = kNoCycle;
  --parked_count_;
}

void Engine::refill_wheel() {
  const Cycle horizon = now_ + kWheelMask;  // wheel now covers [now_, horizon]
  while (!far_.empty() && far_.front().when <= horizon) {
    std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
    FarEvent ev = std::move(far_.back());
    far_.pop_back();
    buckets_[ev.when & kWheelMask].push_back(
        EventNode{ev.seq, std::move(ev.fn)});
    ++near_count_;
  }
}

void Engine::drain_bucket(std::vector<EventNode>& bucket) {
  // Index loop, size re-read each iteration: an action may schedule a
  // zero-delay event, which appends to this same bucket and (matching the
  // original engine's "run everything due" loop) still runs this cycle.
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    // Move out before calling: the action may grow the bucket (reallocating)
    // while this node is live.
    Action fn = std::move(bucket[i].fn);
    fn();
    ++events_run_;
  }
  near_count_ -= bucket.size();
  bucket.clear();  // keeps capacity — steady state does no allocation
}

void Engine::fire_tickers() {
  // The scan reads only the packed next_fire_ lane. next_fire is advanced
  // before the callback so the callback may park or sleep its own ticker;
  // swept_ is set first so wake() sees this ticker's turn as taken. Wakes
  // during the sweep lower min_next_fire_, hence the reset and final merge.
  swept_cycle_ = now_;
  min_next_fire_ = kNoCycle;
  Cycle next_min = kNoCycle;
  // Callbacks never register tickers, so the lane does not move under us.
  Cycle* const next_fire = next_fire_.data();
  const std::size_t n = next_fire_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (next_fire[i] == now_) {
      Ticker& t = tickers_[i];
      if (t.parked_from != kNoCycle) unpark(t, now_);  // sleep deadline
      next_fire[i] = now_ + t.period;
      swept_ = i + 1;
      t.fn(now_);
      ++ticks_run_;
    }
    next_min = std::min(next_min, next_fire[i]);
  }
  swept_ = n;
  min_next_fire_ = std::min(min_next_fire_, next_min);
}

void Engine::step_cycle() {
  // The caller has refilled the wheel for now_.
  auto& bucket = buckets_[now_ & kWheelMask];
  if (!bucket.empty()) drain_bucket(bucket);
  if (min_next_fire_ == now_) fire_tickers();
  // Zero-delay events scheduled by tickers still belong to this cycle. With
  // no ticker fired the bucket is still empty: the first drain ran every
  // event, including those appended during it.
  if (!bucket.empty()) drain_bucket(bucket);
  ++now_;
}

Cycle Engine::next_event_cycle() const {
  if (near_count_ > 0) {
    for (Cycle k = 0; k < kWheelSize; ++k) {
      if (!buckets_[(now_ + k) & kWheelMask].empty()) return now_ + k;
    }
  }
  return far_.empty() ? kNoCycle : far_.front().when;
}

Cycle Engine::next_event_before(Cycle limit) const {
  if (near_count_ > 0) {
    // Wheel events all lie within kWheelSize of now_ and before any far one.
    const Cycle span = std::min(limit - now_, kWheelSize);
    for (Cycle k = 0; k < span; ++k) {
      if (!buckets_[(now_ + k) & kWheelMask].empty()) return now_ + k;
    }
    return limit;
  }
  return far_.empty() ? limit : std::min(limit, far_.front().when);
}

Cycle Engine::parked_nominal_min() const {
  if (parked_count_ == 0) return kNoCycle;
  Cycle m = kNoCycle;
  for (TickerId i = 0; i < tickers_.size(); ++i) {
    if (tickers_[i].parked_from == kNoCycle) continue;
    m = std::min(m, next_nominal(i));
    if (m == now_) break;
  }
  return m;
}

Cycle Engine::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  const Cycle start = now_;
  const Cycle end = start + max_cycles;
  while (now_ < end) {
    if (pred()) break;
    refill_wheel();
    if (buckets_[now_ & kWheelMask].empty() && min_next_fire_ > now_) {
      // Idle cycle: nothing can run until the next event or ticker. Jump
      // there (capped at `end`) without burning a loop iteration per cycle.
      // A parked ticker's nominal cycles bound the jump too, so pred is
      // evaluated on the same cycles as if nothing ever parked; on such a
      // cycle itself nothing runs, so the clock just moves on.
      const Cycle bound =
          std::min({end, min_next_fire_, parked_nominal_min()});
      now_ = bound > now_ ? next_event_before(bound) : now_ + 1;
      continue;
    }
    step_cycle();
  }
  return now_ - start;
}

void Engine::run_for(Cycle cycles) {
  const Cycle end = now_ + cycles;
  while (now_ < end) {
    refill_wheel();
    if (buckets_[now_ & kWheelMask].empty() && min_next_fire_ > now_) {
      now_ = next_event_before(std::min(end, min_next_fire_));
      continue;
    }
    step_cycle();
  }
}

std::uint64_t Engine::digest() const {
  Fnv1a64 h;
  h.mix(now_);
  h.mix(seq_);
  h.mix(near_count_);
  h.mix(far_.size());
  // Ticker count is deliberately NOT folded: audit/digest/telemetry tickers
  // vary with instrumentation flags, and a digest must compare equal across
  // a --check run and a plain --digest-out run of the same simulation.
  h.mix(next_event_cycle());
  // Wheel occupancy: (slot, size) for each populated bucket, walked in cycle
  // order from now_ so the fold is a function of queue *state*, not of where
  // the wheel happens to be positioned modulo 256.
  for (Cycle k = 0; k < kWheelSize; ++k) {
    const auto& b = buckets_[(now_ + k) & kWheelMask];
    if (!b.empty()) {
      h.mix(k);
      h.mix(b.size());
      h.mix(b.front().seq);
    }
  }
  return h.value();
}

void Engine::save(ckpt::StateWriter& w) const {
  if (pending_events() != 0) {
    throw ckpt::CkptError(
        "engine save() with events still pending: the simulation was not "
        "drained before checkpointing");
  }
  w.u64(now_);
  w.u64(seq_);
  w.u64(events_run_);
  // Parked tickers are written as a never-parking engine would hold them:
  // tick count including the turns they sat out, nominal next_fire.
  std::uint64_t ticks = ticks_run_ + ticks_skipped_;
  for (TickerId i = 0; i < tickers_.size(); ++i) {
    const Ticker& t = tickers_[i];
    if (t.parked_from != kNoCycle) {
      ticks += (next_nominal(i) - t.parked_from) / t.period;
    }
  }
  w.u64(ticks);
  w.u64(tickers_.size());
  for (TickerId i = 0; i < tickers_.size(); ++i) {
    const Ticker& t = tickers_[i];
    w.u64(t.period);
    w.u64(t.parked_from == kNoCycle ? next_fire_[i] : next_nominal(i));
  }
}

void Engine::load(ckpt::StateReader& r) {
  if (pending_events() != 0) {
    r.fail("engine load() target already has scheduled events");
  }
  now_ = r.u64();
  seq_ = r.u64();
  events_run_ = r.u64();
  ticks_run_ = r.u64();
  ticks_skipped_ = 0;
  swept_cycle_ = kNoCycle;
  parked_count_ = 0;
  const std::uint64_t count = r.u64();
  if (count != tickers_.size()) {
    r.fail("ticker count mismatch (snapshot has " + std::to_string(count) +
           ", this run registered " + std::to_string(tickers_.size()) +
           "); a resumed run must attach the same instrumentation "
           "(telemetry/check intervals, policy, mix) as the run that "
           "produced the snapshot");
  }
  min_next_fire_ = kNoCycle;
  for (TickerId i = 0; i < tickers_.size(); ++i) {
    Ticker& t = tickers_[i];
    const Cycle period = r.u64();
    const Cycle next_fire = r.u64();
    if (period != t.period) {
      r.fail("ticker period mismatch (snapshot has " + std::to_string(period) +
             ", this run registered " + std::to_string(t.period) +
             "); tickers must be registered in the same order with the same "
             "periods as the run that produced the snapshot");
    }
    next_fire_[i] = next_fire;
    t.parked_from = kNoCycle;
    min_next_fire_ = std::min(min_next_fire_, next_fire);
  }
}

}  // namespace gpuqos
