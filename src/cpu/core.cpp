#include "cpu/core.hpp"

#include <algorithm>

#include "check/check.hpp"
#include "check/context.hpp"
#include "check/digest.hpp"
#include "ckpt/state_io.hpp"
#include "obs/profiler.hpp"

namespace gpuqos {
namespace {
/// Extra cycles a dependent load pays on an L2 hit (L1-miss/L2-hit path).
constexpr Cycle kL2HitPenalty = 8;
}  // namespace

CpuCore::CpuCore(Engine& engine, const CpuCoreConfig& cfg, unsigned index,
                 std::unique_ptr<CpuStream> stream, StatRegistry& stats)
    : engine_(engine),
      cfg_(cfg),
      index_(index),
      stream_(std::move(stream)),
      stats_(stats),
      l1d_(std::make_unique<SetAssocCache>(cfg.l1d, "l1d")),
      l2_(std::make_unique<SetAssocCache>(cfg.l2, "l2")),
      stat_prefix_("cpu" + std::to_string(index) + ".") {
  outstanding_.reserve(cfg.l2_mshrs + 1);
  st_stall_fixed_ = stats_.counter_ptr(stat_prefix_ + "stall_fixed");
  st_stall_dep_ = stats_.counter_ptr(stat_prefix_ + "stall_dependent");
  st_stall_rob_ = stats_.counter_ptr(stat_prefix_ + "stall_rob");
  st_stall_struct_ = stats_.counter_ptr(stat_prefix_ + "stall_structural");
  st_llc_reads_ = stats_.counter_ptr(stat_prefix_ + "llc_reads");
  st_llc_writes_ = stats_.counter_ptr(stat_prefix_ + "llc_writes");
  st_read_lat_ = stats_.counter_ptr(stat_prefix_ + "llc_read_latency");
  st_prefetches_ = stats_.counter_ptr(stat_prefix_ + "prefetches");
  // Activity counter (obs/counters.hpp): unconditional, so the stats digest
  // is identical with and without observability attached.
  st_committed_ = stats_.counter_ptr(stat_prefix_ + "committed_instrs");
}

bool CpuCore::rob_full() const {
  std::uint64_t oldest = ~std::uint64_t{0};
  for (const auto& m : outstanding_) {
    if (!m.done) oldest = std::min(oldest, m.seq);
  }
  if (oldest == ~std::uint64_t{0}) return false;
  return committed_ - oldest >= cfg_.rob_size;
}

void CpuCore::attach_ticker() {
  ticker_ = engine_.add_ticker(1, 0, [this](Cycle now) { tick(now); });
  stats_.add_settler([this] { settle_stalls(); });
}

void CpuCore::park(Park why, Cycle now) {
  if (ticker_ == Engine::kNoTicker) return;
  park_ = why;
  credit_from_ = now + 1;
  if (why == Park::Fixed) {
    engine_.sleep_until(ticker_, resume_at_);
  } else {
    engine_.park(ticker_);
  }
}

void CpuCore::credit_stalls(Cycle upto) {
  std::uint64_t* counter = park_ == Park::Fixed       ? st_stall_fixed_
                           : park_ == Park::Dependent ? st_stall_dep_
                                                      : st_stall_rob_;
  *counter += upto - credit_from_;
  credit_from_ = upto;
}

void CpuCore::settle_stalls() {
  if (park_ != Park::None) credit_stalls(engine_.next_nominal(ticker_));
}

void CpuCore::freeze() {
  if (park_ != Park::None) {
    settle_stalls();
    park_ = Park::None;
    engine_.wake(ticker_);
  }
  frozen_ = true;
}

void CpuCore::tick(Cycle now) {
  if (frozen_) return;
  if (park_ != Park::None) {
    // Woken (or a fixed stall's deadline): every skipped cycle before this
    // one repeated the stall that parked the core.
    credit_stalls(now);
    park_ = Park::None;
  }
  // Sampled (1-in-16) scope: a full rdtsc pair per core per base cycle
  // would dominate the <10% telemetry-overhead budget.
  SampledProfScope<16> prof(prof_, ProfModule::CpuCore, prof_decim_);
  if (now < resume_at_) {
    ++*st_stall_fixed_;
    park(Park::Fixed, now);
    return;
  }
  if (blocking_miss_ >= 0) {
    const auto id = static_cast<std::uint64_t>(blocking_miss_);
    auto it = std::find_if(outstanding_.begin(), outstanding_.end(),
                           [id](const Miss& m) { return m.seq == id; });
    // blocking_miss_ stores the miss seq (unique per miss: committed_ count
    // at issue is strictly increasing between mem ops... see execute_mem_op).
    if (it != outstanding_.end() && !it->done) {
      ++*st_stall_dep_;
      park(Park::Dependent, now);
      return;
    }
    blocking_miss_ = -1;
  }
  // Compact resolved misses (safe: no live references right now). Guarded by
  // the done-count so the common all-in-flight tick skips the vector walk.
  if (done_misses_ > 0) {
    std::erase_if(outstanding_, [](const Miss& m) { return m.done; });
    done_misses_ = 0;
  }

  unsigned budget = cfg_.commit_width;
  while (budget > 0) {
    if (!has_pending_) {
      pending_ = stream_->next();
      gap_left_ = pending_.gap;
      has_pending_ = true;
    }
    if (gap_left_ > 0) {
      const std::uint32_t c =
          std::min<std::uint32_t>(budget, gap_left_);
      committed_ += c;
      *st_committed_ += c;
      gap_left_ -= c;
      budget -= c;
      continue;
    }
    if (rob_full()) {
      ++*st_stall_rob_;
      park(Park::Rob, now);
      break;
    }
    if (!execute_mem_op(now)) {
      ++*st_stall_struct_;
      break;
    }
    ++committed_;
    ++*st_committed_;
    --budget;
    has_pending_ = false;
    if (blocking_miss_ >= 0) break;  // dependent load: stop committing
    if (now < resume_at_) break;     // L2-hit penalty starts next cycle
  }
}

bool CpuCore::execute_mem_op(Cycle now) {
  const Addr block = l1d_->block_base(pending_.addr);
  const SourceId src = SourceId::cpu(static_cast<std::uint8_t>(index_));

  bool l1_hit = false;
  auto ev1 = l1d_->access(block, pending_.is_store, src,
                          GpuAccessClass::None, l1_hit);
  if (ev1 && ev1->dirty) l2_insert(ev1->block_addr, /*dirty=*/true, now);
  if (l1_hit) return true;

  if (l2_->lookup(block, /*write=*/false)) {
    if (pending_.dependent) resume_at_ = now + kL2HitPenalty;
    return true;
  }

  // L2 miss: needs an LLC round trip (loads and store-fills alike).
  unsigned in_flight = 0;
  for (const auto& m : outstanding_) {
    if (!m.done) ++in_flight;
  }
  if (in_flight >= cfg_.l2_mshrs) return false;

  // `seq` doubles as a unique miss id: committed_ is strictly increasing and
  // at most one miss is issued per committed_ value (the mem op commits
  // right after issuing, bumping committed_).
  const std::uint64_t id = committed_;
  outstanding_.push_back(Miss{id, false});
  send_llc_read(block, now, outstanding_.size() - 1);
  if (pending_.dependent) blocking_miss_ = static_cast<std::int64_t>(id);
  ++*st_llc_reads_;
  maybe_prefetch(block, now);
  return true;
}

void CpuCore::maybe_prefetch(Addr miss_block, Cycle now) {
  // Find (or allocate) a tracker expecting this block.
  int hit = -1;
  for (unsigned t = 0; t < kStreamTrackers; ++t) {
    if (trackers_[t].valid && trackers_[t].next == miss_block) {
      hit = static_cast<int>(t);
      break;
    }
  }
  if (hit < 0) {
    // Train: remember the successor; prefetch fires on the next hit.
    trackers_[tracker_rr_] = {miss_block + 64, true};
    tracker_rr_ = (tracker_rr_ + 1) % kStreamTrackers;
    return;
  }
  // Confirmed stream: run ahead by kPrefetchDegree blocks.
  Addr next = miss_block + 64;
  for (unsigned d = 0; d < kPrefetchDegree; ++d, next += 64) {
    if (prefetches_in_flight_ >= kMaxPrefetchInFlight) break;
    if (l2_->probe(next)) continue;
    ++prefetches_in_flight_;
    ++*st_prefetches_;
    MemRequest req;
    req.addr = next;
    req.is_write = false;
    req.source = SourceId::cpu(static_cast<std::uint8_t>(index_));
    req.issued_at = now;
    req.on_complete = [this, next](Cycle when) {
      if (prefetches_in_flight_ > 0) --prefetches_in_flight_;
      l2_insert(next, /*dirty=*/false, when);
    };
    if (check_ != nullptr) {
      check_->on_inject(CheckContext::Flow::CpuRead);
      req.on_complete = check_->guard_retire(std::move(req.on_complete),
                                             CheckContext::Flow::CpuRead);
    }
    port_(std::move(req));
  }
  trackers_[hit].next = next;
}

void CpuCore::send_llc_read(Addr block, Cycle now, std::size_t miss_slot) {
  (void)miss_slot;
  GPUQOS_CHECK(port_, "core " << index_ << " has no LLC port wired");
  const std::uint64_t id = outstanding_.back().seq;
  const bool dirty_fill = pending_.is_store;

  MemRequest req;
  req.addr = block;
  req.is_write = false;
  req.source = SourceId::cpu(static_cast<std::uint8_t>(index_));
  req.issued_at = now;
  req.on_complete = [this, id, block, dirty_fill, now](Cycle when) {
    auto it = std::find_if(outstanding_.begin(), outstanding_.end(),
                           [id](const Miss& m) { return m.seq == id; });
    if (it != outstanding_.end() && !it->done) {
      it->done = true;
      ++done_misses_;
    }
    *st_read_lat_ += when - now;
    l2_insert(block, dirty_fill, when);
    auto ev1 = l1d_->fill(block,
                          SourceId::cpu(static_cast<std::uint8_t>(index_)),
                          GpuAccessClass::None, dirty_fill);
    if (ev1 && ev1->dirty) l2_insert(ev1->block_addr, /*dirty=*/true, when);
    // A ROB stall may end with any completion, and the next tick compacts
    // the resolved entry either way; a dependent stall ends only with its
    // own miss (it returns before compaction).
    if (park_ == Park::Rob ||
        (park_ == Park::Dependent &&
         blocking_miss_ == static_cast<std::int64_t>(id))) {
      engine_.wake(ticker_);
    }
  };
  if (check_ != nullptr) {
    check_->on_inject(CheckContext::Flow::CpuRead);
    req.on_complete = check_->guard_retire(std::move(req.on_complete),
                                           CheckContext::Flow::CpuRead);
  }
  port_(std::move(req));
}

void CpuCore::l2_insert(Addr block, bool dirty, Cycle now) {
  auto ev = l2_->fill(block, SourceId::cpu(static_cast<std::uint8_t>(index_)),
                      GpuAccessClass::None, dirty);
  if (ev && ev->dirty) send_llc_write(ev->block_addr, now);
}

void CpuCore::send_llc_write(Addr block, Cycle now) {
  GPUQOS_CHECK(port_, "core " << index_ << " has no LLC port wired");
  MemRequest req;
  req.addr = block;
  req.is_write = true;
  req.source = SourceId::cpu(static_cast<std::uint8_t>(index_));
  req.issued_at = now;
  ++*st_llc_writes_;
  if (check_ != nullptr) check_->on_inject(CheckContext::Flow::CpuWrite);
  port_(std::move(req));
}

bool CpuCore::back_invalidate(Addr addr) {
  bool dirty = false;
  if (auto ev = l1d_->invalidate(addr)) dirty |= ev->dirty;
  if (auto ev = l2_->invalidate(addr)) dirty |= ev->dirty;
  return dirty;
}

std::uint64_t CpuCore::digest() const {
  Fnv1a64 h;
  h.mix(committed_);
  h.mix(resume_at_);
  h.mix_signed(blocking_miss_);
  h.mix_bool(has_pending_);
  h.mix(pending_.addr);
  h.mix_bool(pending_.is_store);
  h.mix_bool(pending_.dependent);
  h.mix(gap_left_);
  h.mix(outstanding_.size());
  for (const Miss& m : outstanding_) {
    h.mix(m.seq);
    h.mix_bool(m.done);
  }
  for (const StreamTracker& t : trackers_) {
    h.mix(t.next);
    h.mix_bool(t.valid);
  }
  h.mix(tracker_rr_);
  h.mix(prefetches_in_flight_);
  h.mix(l1d_->digest());
  h.mix(l2_->digest());
  h.mix(stream_->digest());
  return h.value();
}

void CpuCore::save(ckpt::StateWriter& w) const {
  if (!quiescent()) {
    throw ckpt::CkptError("cpu core save() with misses in flight: the "
                          "simulation was not drained before checkpointing");
  }
  w.u64(committed_);
  w.u64(resume_at_);
  w.i64(blocking_miss_);
  w.boolean(has_pending_);
  w.u32(pending_.gap);
  w.u64(pending_.addr);
  w.boolean(pending_.is_store);
  w.boolean(pending_.dependent);
  w.u32(gap_left_);
  // Resolved-but-uncompacted misses carry no closures; serialize them so the
  // next tick's compaction (and the digest until then) replays identically.
  w.u64(outstanding_.size());
  for (const Miss& m : outstanding_) {
    w.u64(m.seq);
    w.boolean(m.done);
  }
  w.u32(done_misses_);
  for (const StreamTracker& t : trackers_) {
    w.u64(t.next);
    w.boolean(t.valid);
  }
  w.u32(tracker_rr_);
  l1d_->save(w);
  l2_->save(w);
  stream_->save(w);
}

void CpuCore::load(ckpt::StateReader& r) {
  committed_ = r.u64();
  resume_at_ = r.u64();
  blocking_miss_ = r.i64();
  has_pending_ = r.boolean();
  pending_.gap = r.u32();
  pending_.addr = r.u64();
  pending_.is_store = r.boolean();
  pending_.dependent = r.boolean();
  gap_left_ = r.u32();
  const std::uint64_t n = r.u64();
  outstanding_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    Miss m;
    m.seq = r.u64();
    m.done = r.boolean();
    if (!m.done) r.fail("outstanding miss not done in snapshot");
    outstanding_.push_back(m);
  }
  done_misses_ = r.u32();
  for (StreamTracker& t : trackers_) {
    t.next = r.u64();
    t.valid = r.boolean();
  }
  tracker_rr_ = r.u32();
  l1d_->load(r);
  l2_->load(r);
  stream_->load(r);
}

}  // namespace gpuqos
