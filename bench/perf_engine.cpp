// Engine/sweep performance harness (docs/PERFORMANCE.md). Three sections,
// written as BENCH_engine.json and summarized on stdout:
//
//   1. end_to_end — full HeteroCmp simulations (M1 and M8 under Baseline and
//      ThrotCPUprio) timed for a fixed simulated-cycle budget: simulated
//      kilocycles/sec plus engine event/ticker throughput on THIS build, and
//      ticks and events per simulated kilocycle (the interval tickers'
//      parked modules show up as the drop in ticks per kcycle).
//   2. engine_core_ab — the speedup claim. The same synthetic workload,
//      shaped like the M8 hetero run (ticker period multiset of the real
//      machine, event density and payload size measured from section 1),
//      drives both the frozen pre-overhaul ReferenceEngine
//      (common/engine_ref.hpp: priority_queue + heap std::function + modulo
//      ticker scan) and the production timing-wheel Engine. Both throughput
//      numbers and their ratio are recorded.
//   3. sweep_scaling — the same M1 job list through run_many() at one worker
//      vs. all hardware workers.
//
// GPUQOS_FAST=1 shrinks every budget for CI smoke runs. Usage:
//   perf_engine [--out BENCH_engine.json]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/engine.hpp"
#include "common/engine_ref.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "workloads/spec.hpp"

using namespace gpuqos;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---------------------------------------------------------------------------
// Section 1: end-to-end simulation throughput.

struct EndToEnd {
  std::string mix_id;
  Policy policy = Policy::Baseline;
  Cycle cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  double seconds = 0.0;

  [[nodiscard]] double kcycles_per_sec() const {
    return seconds > 0 ? static_cast<double>(cycles) / 1e3 / seconds : 0.0;
  }
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
  [[nodiscard]] double ticks_per_kcycle() const {
    return cycles > 0 ? static_cast<double>(ticks) * 1e3 / cycles : 0.0;
  }
  [[nodiscard]] double events_per_kcycle() const {
    return cycles > 0 ? static_cast<double>(events) * 1e3 / cycles : 0.0;
  }
};

EndToEnd run_end_to_end(const HeteroMix& m, Policy policy, Cycle budget) {
  SimConfig cfg = Presets::scaled();
  if (m.cpu_specs.size() == 1) cfg.cpu_cores = 1;

  std::vector<SpecProfile> profiles;
  for (int id : m.cpu_specs) profiles.push_back(spec_profile(id));
  const GpuAppDesc& app = gpu_app(m.gpu_app);
  HeteroCmp cmp(cfg, policy, std::move(profiles),
                build_frames(app, cfg.seed), app.fps_scale);
  cmp.gpu().set_repeat(true);

  EndToEnd r;
  r.mix_id = m.id;
  r.policy = policy;
  const auto t0 = std::chrono::steady_clock::now();
  cmp.engine().run_for(budget);
  r.seconds = seconds_since(t0);
  r.cycles = cmp.engine().now();
  r.events = cmp.engine().events_run();
  r.ticks = cmp.engine().ticks_run();
  return r;
}

// ---------------------------------------------------------------------------
// Section 2: engine-core A/B on an M8-shaped synthetic workload.
//
// Ticker multiset of the real 4-core hetero machine: four period-1 core
// tickers, two period-4 GPU tickers (memory interface + pipeline), one
// period-4 ticker per DRAM channel, and one long-period governor. Events are
// injected from a core ticker at `events_per_kcycle` (measured from the real
// M8 run) with latency-like delays, mostly inside the wheel horizon with a
// far-future tail. The payload is padded to the size of a MemRequest-carrying
// closure, which is exactly the case the SmallFn inline buffer was sized for
// — and the case where std::function must heap-allocate.

struct AbSide {
  Cycle cycles = 0;
  std::uint64_t events = 0;
  double seconds = 0.0;

  [[nodiscard]] double kcycles_per_sec() const {
    return seconds > 0 ? static_cast<double>(cycles) / 1e3 / seconds : 0.0;
  }
  [[nodiscard]] double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(events) / seconds : 0.0;
  }
};

struct Payload {  // mimics a captured MemRequest (addr, ids, cycle stamps)
  std::uint64_t words[9] = {};
};

template <typename E>
AbSide drive_ab(std::uint64_t events_per_kcycle, Cycle cycles,
                unsigned dram_channels, Cycle governor_period) {
  E eng;
  std::uint64_t sink = 0;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  auto rnd = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };

  std::uint64_t acc = 0;
  std::uint64_t events = 0;
  // Every callback below captures locals of this frame by reference: the
  // engine only runs them inside eng.run_for() below, while they all live.
  // Core 0 doubles as the event injector.
  /*cap:ok: frame locals outlive eng.run_for*/
  eng.add_ticker(1, 0, [&](Cycle) {
    acc += events_per_kcycle;
    while (acc >= 1000) {
      acc -= 1000;
      const std::uint64_t r = rnd();
      // Cache/ring/DRAM-like latencies; every 16th goes past the wheel
      // horizon so the far heap sees steady traffic.
      const Cycle delay =
          (r & 15u) == 0 ? 256 + (r >> 4) % 2048 : 4 + (r >> 4) % 200;
      Payload p;
      p.words[0] = r;
      /*cap:ok: frame locals outlive eng.run_for*/
      eng.schedule(delay, [&sink, &events, p] {
        sink += p.words[0];
        ++events;
      });
    }
  });
  auto sink_ticker = [&sink](Cycle c) { sink += c; };
  for (int core = 1; core < 4; ++core) {
    eng.add_ticker(1, 0, sink_ticker);
  }
  for (int g = 0; g < 2; ++g) {  // GPU memory interface + pipeline
    eng.add_ticker(4, 0, sink_ticker);
  }
  for (unsigned ch = 0; ch < dram_channels; ++ch) {
    eng.add_ticker(4, ch % 4, sink_ticker);
  }
  eng.add_ticker(governor_period, 1, sink_ticker);

  const auto t0 = std::chrono::steady_clock::now();
  eng.run_for(cycles);
  AbSide side;
  side.seconds = seconds_since(t0);
  side.cycles = cycles;
  side.events = events;
  if (sink == 42) std::fputc(' ', stderr);  // defeat dead-code elimination
  return side;
}

template <typename E>
AbSide best_of(int reps, std::uint64_t events_per_kcycle, Cycle cycles,
               unsigned dram_channels, Cycle governor_period) {
  AbSide best;
  for (int i = 0; i < reps; ++i) {
    AbSide s =
        drive_ab<E>(events_per_kcycle, cycles, dram_channels, governor_period);
    if (best.seconds == 0.0 || s.seconds < best.seconds) best = s;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Section 3: sweep-pool scaling.

double time_sweep(const HeteroMix& m, const RunScale& scale, unsigned jobs,
                  unsigned threads) {
  const SimConfig cfg = Presets::scaled();
  std::vector<std::function<double()>> work;
  for (unsigned j = 0; j < jobs; ++j) {
    work.push_back([&cfg, &m, &scale] {
      return run_hetero(cfg, m, Policy::Baseline, scale).fps;
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  (void)run_many(std::move(work), threads);
  return seconds_since(t0);
}

void json_end_to_end(std::ostream& os, const EndToEnd& r, bool last) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "    {\"mix\": \"%s\", \"policy\": \"%s\", \"sim_cycles\": "
                "%llu, \"events\": %llu, \"ticks\": %llu, \"seconds\": %.4f, "
                "\"sim_kcycles_per_sec\": %.1f, \"events_per_sec\": %.0f, "
                "\"ticks_per_kcycle\": %.1f, \"events_per_kcycle\": %.1f}%s\n",
                r.mix_id.c_str(), to_string(r.policy).c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.ticks), r.seconds,
                r.kcycles_per_sec(), r.events_per_sec(), r.ticks_per_kcycle(),
                r.events_per_kcycle(), last ? "" : ",");
  os << buf;
}

void json_ab_side(std::ostream& os, const char* name, const AbSide& s,
                  bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    \"%s\": {\"sim_cycles\": %llu, \"events\": %llu, "
                "\"seconds\": %.4f, \"sim_kcycles_per_sec\": %.1f, "
                "\"events_per_sec\": %.0f}%s\n",
                name, static_cast<unsigned long long>(s.cycles),
                static_cast<unsigned long long>(s.events), s.seconds,
                s.kcycles_per_sec(), s.events_per_sec(), last ? "" : ",");
  os << buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_engine.json";
  cli::OptionSet opts("[--out FILE]", "Engine/sweep performance harness (docs/PERFORMANCE.md);\nwrites BENCH_engine.json. GPUQOS_FAST=1 shrinks budgets.");
  opts.str("--out", "FILE", "report destination (default BENCH_engine.json)",
           &out);
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty()) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", argv[0],
                 positional.front());
    return 2;
  }

  const char* fast_env = std::getenv("GPUQOS_FAST");
  const bool fast = fast_env != nullptr && std::strcmp(fast_env, "0") != 0;
  const Cycle e2e_budget = fast ? 400'000 : 2'000'000;
  const Cycle ab_budget = fast ? 1'000'000 : 8'000'000;
  const int ab_reps = fast ? 2 : 3;
  const unsigned sweep_jobs = 4;

  std::printf("engine perf harness (%s budgets)\n\n", fast ? "fast" : "full");

  // --- 1. End-to-end simulation throughput.
  std::printf("end-to-end (budget %llu cycles):\n",
              static_cast<unsigned long long>(e2e_budget));
  std::vector<EndToEnd> e2e;
  for (const char* mix_id : {"M1", "M8"}) {
    for (Policy p : {Policy::Baseline, Policy::ThrottleCpuPrio}) {
      e2e.push_back(run_end_to_end(mix(mix_id), p, e2e_budget));
      const EndToEnd& r = e2e.back();
      std::printf("  %-3s %-13s %9.1f sim kcycles/s  %11.0f events/s  "
                  "%7.1f ticks/kcycle  %6.1f events/kcycle\n",
                  r.mix_id.c_str(), to_string(r.policy).c_str(),
                  r.kcycles_per_sec(), r.events_per_sec(),
                  r.ticks_per_kcycle(), r.events_per_kcycle());
    }
  }

  // --- 2. Engine-core A/B, shaped from the measured M8 ThrotCPUprio run.
  const EndToEnd& m8 = e2e.back();
  const std::uint64_t events_per_kcycle =
      m8.cycles > 0 ? m8.events * 1000 / m8.cycles : 60;
  const unsigned dram_channels = Presets::scaled().dram.channels;
  const Cycle governor_period = 5000;
  std::printf("\nengine core A/B (M8-shaped: %llu events/kcycle, "
              "%llu cycles):\n",
              static_cast<unsigned long long>(events_per_kcycle),
              static_cast<unsigned long long>(ab_budget));
  const AbSide ref = best_of<ReferenceEngine>(
      ab_reps, events_per_kcycle, ab_budget, dram_channels, governor_period);
  const AbSide wheel = best_of<Engine>(
      ab_reps, events_per_kcycle, ab_budget, dram_channels, governor_period);
  const double speedup =
      ref.seconds > 0 && wheel.seconds > 0 ? ref.seconds / wheel.seconds : 0.0;
  std::printf("  reference (pre-overhaul) %9.1f sim kcycles/s\n",
              ref.kcycles_per_sec());
  std::printf("  timing wheel (current)   %9.1f sim kcycles/s\n",
              wheel.kcycles_per_sec());
  std::printf("  speedup                  %9.2fx\n", speedup);

  // --- 3. Sweep-pool scaling.
  RunScale tiny;
  tiny.warm_instrs = 20'000;
  tiny.measure_instrs = fast ? 50'000 : 200'000;
  tiny.warm_frames = 1;
  tiny.measure_frames = 1;
  tiny.warm_min_cycles = 200'000;
  tiny.max_cycles = 50'000'000;
  const unsigned hw = sweep_thread_count(sweep_jobs);
  const double serial_s = time_sweep(mix("M1"), tiny, sweep_jobs, 1);
  const double pooled_s = time_sweep(mix("M1"), tiny, sweep_jobs, hw);
  std::printf("\nsweep pool (%u jobs): serial %.2fs, %u threads %.2fs "
              "(%.2fx)\n",
              sweep_jobs, serial_s, hw, pooled_s,
              pooled_s > 0 ? serial_s / pooled_s : 0.0);

  std::ofstream os(out);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  os << "{\n  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    json_end_to_end(os, e2e[i], i + 1 == e2e.size());
  }
  os << "  ],\n  \"engine_core_ab\": {\n";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "    \"workload\": \"M8-shaped synthetic: 4x p1 + 2x p4 gpu "
                "+ %ux p4 dram + 1x p%llu tickers, %llu events/kcycle, "
                "72-byte payloads\",\n",
                dram_channels,
                static_cast<unsigned long long>(governor_period),
                static_cast<unsigned long long>(events_per_kcycle));
  os << buf;
  json_ab_side(os, "reference_pre_overhaul", ref, false);
  json_ab_side(os, "timing_wheel", wheel, false);
  std::snprintf(buf, sizeof buf, "    \"speedup\": %.3f\n  },\n", speedup);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"sweep_scaling\": {\"jobs\": %u, \"serial_seconds\": "
                "%.3f, \"threads\": %u, \"pooled_seconds\": %.3f, "
                "\"speedup\": %.3f}\n}\n",
                sweep_jobs, serial_s, hw, pooled_s,
                pooled_s > 0 ? serial_s / pooled_s : 0.0);
  os << buf;
  os.flush();
  if (!os) {
    std::fprintf(stderr, "short write to %s (disk full?)\n", out.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
