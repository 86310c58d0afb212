#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include "cpu/stream.hpp"
#include "workloads/spec.hpp"

namespace gpuqos {
namespace {

SpecProfile simple_profile() {
  SpecProfile p;
  p.name = "test";
  p.mem_op_fraction = 0.25;
  p.store_fraction = 0.2;
  p.dependent_fraction = 0.3;
  p.llc_apki = 10.0;
  p.stream_fraction = 0.2;
  p.llc_ws_bytes = 256 * KiB;
  p.hot_bytes = 8 * KiB;
  p.stream_bytes = 4 * MiB;
  return p;
}

TEST(CpuStream, Deterministic) {
  CpuStream a(simple_profile(), 0x1000000, Rng(5));
  CpuStream b(simple_profile(), 0x1000000, Rng(5));
  for (int i = 0; i < 500; ++i) {
    const MicroOp x = a.next(), y = b.next();
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.gap, y.gap);
    EXPECT_EQ(x.is_store, y.is_store);
  }
}

TEST(CpuStream, MemOpFractionApproximatelyHolds) {
  CpuStream s(simple_profile(), 0, Rng(6));
  std::uint64_t instrs = 0;
  const int ops = 20000;
  for (int i = 0; i < ops; ++i) instrs += s.next().gap + 1;
  const double frac = static_cast<double>(ops) / static_cast<double>(instrs);
  EXPECT_NEAR(frac, 0.25, 0.02);
}

TEST(CpuStream, StoreFractionApproximatelyHolds) {
  CpuStream s(simple_profile(), 0, Rng(7));
  int stores = 0;
  const int ops = 20000;
  for (int i = 0; i < ops; ++i) stores += s.next().is_store ? 1 : 0;
  EXPECT_NEAR(stores / static_cast<double>(ops), 0.2, 0.02);
}

TEST(CpuStream, LlcApkiTargetRealized) {
  // Count accesses landing outside the hot set per kilo-instruction; this
  // should track the profile's llc_apki.
  SpecProfile p = simple_profile();
  CpuStream s(p, 0, Rng(8));
  std::uint64_t instrs = 0;
  std::uint64_t llc_blocks = 0;
  Addr last_stream_block = ~0ull;
  for (int i = 0; i < 200000; ++i) {
    const MicroOp op = s.next();
    instrs += op.gap + 1;
    const Addr block = op.addr / 64 * 64;
    const bool in_stream = op.addr < p.stream_bytes;
    const bool in_llc_ws =
        op.addr >= p.stream_bytes && op.addr < p.stream_bytes + p.llc_ws_bytes;
    if (in_stream) {
      if (block != last_stream_block) ++llc_blocks;  // one fetch per block
      last_stream_block = block;
    } else if (in_llc_ws) {
      ++llc_blocks;
    }
  }
  const double apki =
      static_cast<double>(llc_blocks) * 1000.0 / static_cast<double>(instrs);
  EXPECT_NEAR(apki, p.llc_apki, p.llc_apki * 0.2);
}

TEST(CpuStream, StoresAreNeverDependent) {
  CpuStream s(simple_profile(), 0, Rng(9));
  for (int i = 0; i < 5000; ++i) {
    const MicroOp op = s.next();
    if (op.is_store) {
      EXPECT_FALSE(op.dependent);
    }
  }
}

/// Core with a perfect (always-hit after fill) memory behind it.
struct CoreHarness {
  Engine engine;
  StatRegistry stats;
  CpuCoreConfig cfg;
  CpuCore core;
  std::vector<MemRequest> reqs;
  Cycle mem_latency = 50;

  explicit CoreHarness(const SpecProfile& p, CpuCoreConfig c = CpuCoreConfig{})
      : cfg(c),
        core(engine, cfg, 0, std::make_unique<CpuStream>(p, 0x1000000, Rng(4)),
             stats) {
    core.set_mem_port([this](MemRequest&& r) {
      if (r.on_complete) {
        auto cb = std::move(r.on_complete);
        engine.schedule(mem_latency, [cb, this] { cb(engine.now()); });
      }
      reqs.push_back(MemRequest{r.addr, r.is_write, r.source, r.gclass,
                                r.issued_at, r.miss_at, nullptr});
    });
    engine.add_ticker(1, 0, [this](Cycle now) { core.tick(now); });
  }
};

TEST(CpuCore, CommitsAtWidthWithCacheHits) {
  SpecProfile p = simple_profile();
  p.llc_apki = 0.0;       // everything in the hot set
  p.stream_fraction = 0;  // no streaming
  p.hot_bytes = 4 * KiB;  // fits L1
  CoreHarness h(p);
  h.engine.run_for(20000);
  const double ipc = static_cast<double>(h.core.committed()) / 20000.0;
  EXPECT_GT(ipc, 1.5);  // near-width commit once warm
}

TEST(CpuCore, MemoryLatencySlowsDependentLoads) {
  SpecProfile p = simple_profile();
  p.dependent_fraction = 1.0;
  p.llc_apki = 40.0;
  p.llc_ws_bytes = 2 * MiB;  // misses private caches

  CoreHarness fast(p);
  fast.mem_latency = 20;
  fast.engine.run_for(50000);

  CoreHarness slow(p);
  slow.mem_latency = 400;
  slow.engine.run_for(50000);

  EXPECT_GT(fast.core.committed(), slow.core.committed() * 2);
}

TEST(CpuCore, GeneratesLlcTraffic) {
  CoreHarness h(simple_profile());
  h.engine.run_for(100000);
  EXPECT_GT(h.reqs.size(), 0u);
  EXPECT_GT(h.stats.counter("cpu0.llc_reads"), 0u);
}

TEST(CpuCore, PrefetcherCoversStreams) {
  SpecProfile p = simple_profile();
  p.stream_fraction = 0.9;
  p.llc_apki = 30.0;
  CoreHarness h(p);
  h.engine.run_for(200000);
  EXPECT_GT(h.stats.counter("cpu0.prefetches"), 0u);
}

TEST(CpuCore, BackInvalidateDropsPrivateCopies) {
  SpecProfile p = simple_profile();
  p.llc_apki = 0.0;
  p.stream_fraction = 0.0;
  p.hot_bytes = 4 * KiB;
  CoreHarness h(p);
  h.engine.run_for(5000);
  // The hot set is cached privately; find one resident block.
  const Addr base = 0x1000000 + p.stream_bytes + p.llc_ws_bytes;
  bool found = false;
  for (Addr a = base; a < base + p.hot_bytes; a += 64) {
    if (h.core.l1d().probe(a)) {
      (void)h.core.back_invalidate(a);
      EXPECT_FALSE(h.core.l1d().probe(a));
      EXPECT_FALSE(h.core.l2().probe(a));
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CpuCore, MshrLimitBoundsOutstanding) {
  SpecProfile p = simple_profile();
  p.llc_apki = 200.0;  // everything misses
  p.llc_ws_bytes = 32 * MiB;
  p.dependent_fraction = 0.0;
  CpuCoreConfig cfg;
  cfg.l2_mshrs = 4;
  CoreHarness h(p, cfg);
  h.mem_latency = 5000;  // keep misses outstanding
  h.engine.run_for(20000);
  EXPECT_LE(h.core.outstanding_misses(), 5u);  // 4 live + compaction slack
}

/// A core whose memory holds every eighth miss for 600 cycles (60 for the
/// rest), either on its own parking ticker (attach_ticker) or ticked by hand
/// every cycle.
struct ParityHarness {
  Engine engine;
  StatRegistry stats;
  CpuCore core;
  unsigned reads = 0;

  ParityHarness(const SpecProfile& p, bool parking)
      : core(engine, CpuCoreConfig{}, 0,
             std::make_unique<CpuStream>(p, 0x1000000, Rng(11)), stats) {
    core.set_mem_port([this](MemRequest&& r) {
      if (!r.on_complete) return;
      const Cycle latency = reads++ % 8 == 0 ? 600 : 60;
      auto cb = std::move(r.on_complete);
      engine.schedule(latency, [cb, this] { cb(engine.now()); });
    });
    if (parking) {
      core.attach_ticker();
    } else {
      engine.add_ticker(1, 0, [this](Cycle now) { core.tick(now); });
    }
  }

  [[nodiscard]] std::vector<std::uint64_t> stalls() const {
    return {stats.counter("cpu0.stall_fixed"),
            stats.counter("cpu0.stall_dependent"),
            stats.counter("cpu0.stall_rob"),
            stats.counter("cpu0.stall_structural")};
  }
};

SpecProfile stall_heavy_profile() {
  SpecProfile p = simple_profile();
  p.llc_apki = 40.0;
  p.llc_ws_bytes = 2 * MiB;  // misses the private caches
  p.dependent_fraction = 0.5;
  return p;
}

TEST(CpuCoreParking, StallCountersMatchHandTickedCoreEveryCycle) {
  ParityHarness parked(stall_heavy_profile(), true);
  ParityHarness ticked(stall_heavy_profile(), false);
  for (Cycle c = 0; c < 30000; ++c) {
    parked.engine.run_for(1);
    ticked.engine.run_for(1);
    ASSERT_EQ(parked.stalls(), ticked.stalls()) << "after cycle " << c;
    if (c % 64 == 0) {  // the cache digests are the slow part
      ASSERT_EQ(parked.core.digest(), ticked.core.digest()) << "cycle " << c;
    }
  }
  // Every parking stall kind occurred, and parking skipped most ticks.
  const std::vector<std::uint64_t> st = ticked.stalls();
  EXPECT_GT(st[0], 0u);
  EXPECT_GT(st[1], 0u);
  EXPECT_GT(st[2], 0u);
  EXPECT_LT(parked.engine.ticks_run() * 2, ticked.engine.ticks_run());
  EXPECT_EQ(parked.stats.digest(), ticked.stats.digest());
}

TEST(CpuCoreParking, SparseReadsDuringHeldMissesMatch) {
  // Reads far apart, in the middle of held misses: the lazy credit must not
  // depend on how often it is settled.
  ParityHarness parked(stall_heavy_profile(), true);
  ParityHarness ticked(stall_heavy_profile(), false);
  for (int i = 0; i < 200; ++i) {
    parked.engine.run_for(317);
    ticked.engine.run_for(317);
    ASSERT_EQ(parked.stalls(), ticked.stalls()) << "read " << i;
    ASSERT_EQ(parked.stats.to_json(), ticked.stats.to_json()) << "read " << i;
  }
}

TEST(CpuCoreParking, FreezeSettlesAndUnparks) {
  ParityHarness parked(stall_heavy_profile(), true);
  ParityHarness ticked(stall_heavy_profile(), false);
  for (int i = 0; i < 20; ++i) {
    parked.engine.run_for(1000 + 37 * i);
    ticked.engine.run_for(1000 + 37 * i);
    parked.core.freeze();
    ticked.core.freeze();
    ASSERT_EQ(parked.stalls(), ticked.stalls()) << "at freeze " << i;
    // Frozen cycles are not stall cycles; held misses still land.
    parked.engine.run_for(700);
    ticked.engine.run_for(700);
    ASSERT_EQ(parked.stalls(), ticked.stalls()) << "while frozen " << i;
    ASSERT_TRUE(parked.core.quiescent());
    parked.core.unfreeze();
    ticked.core.unfreeze();
    ASSERT_EQ(parked.core.digest(), ticked.core.digest()) << "unfreeze " << i;
  }
  parked.engine.run_for(5000);
  ticked.engine.run_for(5000);
  EXPECT_EQ(parked.stalls(), ticked.stalls());
  EXPECT_EQ(parked.core.committed(), ticked.core.committed());
}

TEST(SpecProfiles, AllMixIdsHaveProfiles) {
  for (int id : {401, 403, 410, 429, 433, 434, 437, 450, 462, 470, 471, 481,
                 482}) {
    EXPECT_NO_THROW({
      const SpecProfile& p = spec_profile(id);
      EXPECT_EQ(p.spec_id, id);
      EXPECT_GT(p.mem_op_fraction, 0.0);
      EXPECT_GT(p.llc_apki, 0.0);
    });
  }
  EXPECT_THROW((void)spec_profile(999), std::out_of_range);
  EXPECT_EQ(spec_ids().size(), 13u);
}

}  // namespace
}  // namespace gpuqos
