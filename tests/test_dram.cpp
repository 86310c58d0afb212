#include "dram/controller.hpp"

#include <gtest/gtest.h>

#include "common/qos_signals.hpp"
#include "common/rng.hpp"
#include "dram/bank.hpp"
#include "dram/frfcfs.hpp"
#include "sched/cpu_prio.hpp"

namespace gpuqos {
namespace {

ScaledTiming timing() {
  return ScaledTiming::from(DramTiming{}, kDramClockDivider);
}

TEST(Bank, RowHitFasterThanConflict) {
  const ScaledTiming t = timing();
  Bank hit_bank, conflict_bank;
  hit_bank.begin_activate(5, 0, t);
  conflict_bank.begin_activate(9, 0, t);
  // Warm CAS so tRAS accounting is comparable; measure the second access.
  const Cycle now = 400;
  // Row hit: CAS can go as soon as the bank is ready.
  EXPECT_TRUE(hit_bank.is_row_hit(5));
  const Cycle hit_done = hit_bank.cas(false, now, t);
  // Conflict: needs precharge + activate first.
  conflict_bank.begin_activate(5, now, t);
  EXPECT_GT(conflict_bank.ready_at(), now + t.tRP);
  const Cycle conflict_done =
      conflict_bank.cas(false, conflict_bank.ready_at(), t);
  EXPECT_LT(hit_done, conflict_done);
}

TEST(Bank, ActivateRespectsTras) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(1, 0, t);
  const Cycle first_ready = b.ready_at();
  // Immediately conflicting activate must wait out tRAS from the first
  // activate before precharging.
  b.begin_activate(2, first_ready, t);
  EXPECT_GE(b.ready_at(), t.tRAS + t.tRP + t.tRCD);
}

TEST(Bank, ReadLatencyIsClPlusBurst) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(0, 0, t);
  const Cycle cas_at = b.ready_at();
  const Cycle done = b.cas(false, cas_at, t);
  EXPECT_EQ(done - cas_at, t.tCL + t.tBurst);
}

TEST(Bank, WriteRecoveryDelaysNextCas) {
  const ScaledTiming t = timing();
  Bank b;
  b.begin_activate(0, 0, t);
  const Cycle cas_at = b.ready_at();
  (void)b.cas(true, cas_at, t);
  EXPECT_GE(b.ready_at(), cas_at + t.tBurst + t.tWTR);
}

TEST(FrFcfs, PrefersIssuableRowHit) {
  // Bank 1 has row 7 open and is ready; bank 0 is closed.
  const std::vector<Bank> bank_state{Bank{}, Bank::for_test(true, 7, 0)};
  const BankView banks(bank_state);
  FrFcfsScheduler sched;
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 3;
  a.arrival = 0;
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 7;
  b.arrival = 5;
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(sched.pick(q, banks, 10), 2);  // row hit wins over older conflict
}

TEST(FrFcfs, StarvationCapPromotesOldest) {
  const std::vector<Bank> bank_state{Bank{}, Bank::for_test(true, 7, 0)};
  const BankView banks(bank_state);
  FrFcfsScheduler sched(/*starvation_cap=*/100);
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 3;
  a.arrival = 0;
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 7;
  b.arrival = 5;
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(sched.pick(q, banks, 200), 1);  // aged past the cap
}

TEST(FrFcfs, SkipsBusyBanks) {
  // Bank 0 has row 1 open but is mid-activate until cycle 1000.
  const std::vector<Bank> bank_state{Bank::for_test(true, 1, 1000), Bank{}};
  const BankView banks(bank_state);
  FrFcfsScheduler sched;
  DramQueue q;
  DramQueueEntry a;
  a.id = 1;
  a.bank = 0;
  a.row = 1;  // row hit but bank busy
  DramQueueEntry b;
  b.id = 2;
  b.bank = 1;
  b.row = 9;  // conflict on a free bank
  q.push_back(a);
  q.push_back(b);
  EXPECT_EQ(sched.pick(q, banks, 10), 2);
}

TEST(Controller, AddressMappingIsConsistent) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  // Consecutive blocks interleave across channels.
  EXPECT_NE(dram.channel_of(0), dram.channel_of(64));
  EXPECT_EQ(dram.channel_of(0), dram.channel_of(128));
  // Blocks within one row share bank and row.
  const Addr a = 0x100000;
  EXPECT_EQ(dram.bank_of(a), dram.bank_of(a + 128));
  EXPECT_EQ(dram.row_of(a), dram.row_of(a + 128));
  // Rows differ eventually.
  bool row_changed = false;
  for (Addr off = 0; off < 64 * MiB; off += 1 * MiB) {
    if (dram.row_of(a + off) != dram.row_of(a)) row_changed = true;
  }
  EXPECT_TRUE(row_changed);
}

TEST(Controller, ReadCompletesWithPlausibleLatency) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  Cycle done = kNoCycle;
  MemRequest req;
  req.addr = 0x4000;
  req.is_write = false;
  req.source = SourceId::cpu(0);
  req.on_complete = [&](Cycle c) { done = c; };
  dram.request(std::move(req));
  engine.run_for(2000);
  ASSERT_NE(done, kNoCycle);
  // Cold access: activate (tRCD) + CAS (tCL) + burst, all x4 base cycles,
  // plus up to one DRAM tick of alignment.
  const ScaledTiming t = timing();
  EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
  EXPECT_LE(done, t.tRP + t.tRCD + t.tCL + t.tBurst + 16);
  EXPECT_TRUE(dram.idle());
}

TEST(Controller, RowHitStreamBeatsRandomAccesses) {
  auto run = [](bool sequential) {
    Engine engine;
    StatRegistry stats;
    DramConfig cfg;
    cfg.channels = 1;
    DramController dram(engine, cfg, stats, [](unsigned) {
      return std::make_unique<FrFcfsScheduler>();
    });
    Rng rng(3);
    int done = 0;
    for (int i = 0; i < 64; ++i) {
      MemRequest req;
      req.addr = sequential ? static_cast<Addr>(i) * 64
                            : rng.next_below(1 << 20) * 64;
      req.is_write = false;
      req.source = SourceId::cpu(0);
      req.on_complete = [&](Cycle) { ++done; };
      dram.request(std::move(req));
    }
    const Cycle t = engine.run_until([&] { return done == 64; }, 200000);
    return t;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Controller, WriteDrainServesWrites) {
  Engine engine;
  StatRegistry stats;
  DramConfig cfg;
  cfg.channels = 1;
  DramController dram(engine, cfg, stats, [](unsigned) {
    return std::make_unique<FrFcfsScheduler>();
  });
  for (int i = 0; i < 60; ++i) {
    MemRequest req;
    req.addr = static_cast<Addr>(i) * 64;
    req.is_write = true;
    req.source = SourceId::gpu();
    dram.request(std::move(req));
  }
  engine.run_until([&] { return dram.idle(); }, 500000);
  EXPECT_TRUE(dram.idle());
  EXPECT_EQ(stats.counter("dram.writes"), 60u);
}

/// The same seeded request stream through a DramController-registered
/// (parking) channel and a hand-ticked one; bursts alternate with quiet
/// stretches so both the empty-queue park and the bank-busy sleep occur.
void expect_parking_channel_matches(bool cpu_prio) {
  DramConfig cfg;
  cfg.channels = 1;
  QosSignals signals;
  auto make_sched = [&]() -> std::unique_ptr<IDramScheduler> {
    if (cpu_prio) return std::make_unique<CpuPriorityScheduler>(&signals);
    return std::make_unique<FrFcfsScheduler>();
  };

  Engine pe;
  StatRegistry pstats;
  DramController dram(pe, cfg, pstats, [&](unsigned) { return make_sched(); });

  Engine te;
  StatRegistry tstats;
  Channel ticked(te, cfg, 0, tstats);
  const std::unique_ptr<IDramScheduler> tsched = make_sched();
  ticked.set_scheduler(tsched.get());
  te.add_ticker(kDramClockDivider, 0, [&](Cycle) { ticked.tick(); });

  Rng rng(cpu_prio ? 21 : 22);
  int pdone = 0;
  int tdone = 0;
  for (Cycle c = 0; c < 60000; ++c) {
    if (c % 700 == 0) signals.cpu_prio_boost = !signals.cpu_prio_boost;
    const double rate = c % 4000 < 1500 ? 0.12 : 0.004;
    if (rng.bernoulli(rate)) {
      MemRequest req;
      req.addr = rng.next_below(1 << 14) * 64;
      req.is_write = rng.bernoulli(0.3);
      req.source = rng.bernoulli(0.5) ? SourceId::gpu() : SourceId::cpu(1);
      DramQueueEntry e;
      e.bank = dram.bank_of(req.addr);
      e.row = dram.row_of(req.addr);
      e.req = req;
      if (!req.is_write) {
        req.on_complete = [&pdone](Cycle) { ++pdone; };
        e.req.on_complete = [&tdone](Cycle) { ++tdone; };
      }
      dram.request(std::move(req));
      ticked.enqueue(std::move(e));
    }
    pe.run_for(1);
    te.run_for(1);
    ASSERT_EQ(dram.channel(0).digest(), ticked.digest()) << "cycle " << c;
    ASSERT_EQ(pstats.counters(), tstats.counters()) << "cycle " << c;
    ASSERT_EQ(pdone, tdone) << "cycle " << c;
  }
  EXPECT_GT(pdone, 1000);
  EXPECT_GT(pstats.counter("dram.ch0.act"), 0u);
  EXPECT_GT(pstats.counter("dram.ch0.wr"), 0u);
  EXPECT_LT(pe.ticks_run() * 4, te.ticks_run() * 3);  // it did park
}

TEST(ChannelParking, FrFcfsMatchesHandTickedChannel) {
  expect_parking_channel_matches(false);
}

TEST(ChannelParking, CpuPrioMatchesHandTickedChannelAcrossBoostFlips) {
  expect_parking_channel_matches(true);
}

}  // namespace
}  // namespace gpuqos
