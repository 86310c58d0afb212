// Host-throughput benchmark program (perfbench/README.md).
//
// One invocation runs one workload for a wall-clock budget and prints one
// JSON object of raw samples as its last stdout line; perfbench/run.py builds
// this program, runs it, checks the digests and derives every reported metric
// from those samples (perfbench/metrics.py). The simulator is driven only
// through its public calls. With --trace 1 the program also records its own
// spans around those calls (kept in memory, written to --spans-out at exit)
// and attaches the simulator's built-in profiler; nothing inside src/ is
// instrumented for the benchmark.
//
//   gpuqos_perfbench --workload m8-throt --seed 1 --seconds 30 --trace 0
//       --work-dir DIR [--spans-out FILE]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/state_io.hpp"
#include "common/cli.hpp"
#include "common/units.hpp"
#include "obs/telemetry.hpp"
#include "sim/runner.hpp"
#include "svc/exec.hpp"
#include "svc/json.hpp"
#include "workloads/spec.hpp"

using namespace gpuqos;
using svc::JsonValue;
using Clock = std::chrono::steady_clock;
using Counters = std::map<std::string, std::uint64_t>;

namespace {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads. Run lengths keep one unit a host second or two, so a run holds
// a dozen units or more and its median is steady (README.md "Workloads").

struct Workload {
  std::string name;
  std::string mix_id;  // single runs: the mix; sweep: the mix the layer probe
                       // drives
  Policy policy = Policy::ThrottleCpuPrio;
  bool sinks = false;  // telemetry sinks attached to every unit
  bool sweep = false;
  RunScale scale;
  // The sim.* rows' run: `scale` with at least one warm frame. A warm phase
  // that waits for no frame ends mid-frame, so the measured frame starts
  // early and its FPS over-reads.
  RunScale fidelity;
};

Workload workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "m8-throt") {
    // Half the default budgets: the governor still throttles on about half
    // of its control steps, and a unit takes about two host seconds. With
    // fewer frames, the frames a seed draws change a unit's work by ±10%.
    w.mix_id = "M8";
    w.scale.warm_instrs = 100'000;
    w.scale.measure_instrs = 500'000;
    w.scale.warm_frames = 3;
    w.scale.measure_frames = 2;
    w.scale.warm_min_cycles = 1'500'000;
  } else if (name == "m1-telemetry") {
    // M1's 3DMark06GT1 frames are long, so the warm phase waits for no
    // frame and the unit measures one, about a host second. Its FPS then
    // over-reads by about 30%; the sim.* rows use `fidelity`.
    w.mix_id = "M1";
    w.sinks = true;
    w.scale.warm_instrs = 60'000;
    w.scale.measure_instrs = 300'000;
    w.scale.warm_frames = 0;
    w.scale.measure_frames = 1;
    w.scale.warm_min_cycles = 900'000;
  } else if (name == "policy-sweep") {
    w.mix_id = "M8";
    w.sweep = true;
    w.scale.warm_instrs = 30'000;
    w.scale.measure_instrs = 150'000;
    w.scale.warm_frames = 1;
    w.scale.measure_frames = 1;
    w.scale.warm_min_cycles = 300'000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.fidelity = w.scale;
  w.fidelity.warm_frames = std::max(w.fidelity.warm_frames, 1u);
  return w;
}

// The sweep's job set: {M8, M10} x four policies, plus the standalone-CPU
// jobs weighted speedup needs (duplicates across mixes simulate once).
constexpr unsigned kSweepWorkers = 2;
const char* const kSweepMixes[] = {"M8", "M10"};
const Policy kSweepPolicies[] = {Policy::Baseline, Policy::Throttle,
                                 Policy::ThrottleCpuPrio, Policy::Helm};

std::vector<svc::JobSpec> sweep_jobs(const Workload& w, std::uint64_t seed) {
  std::vector<svc::JobSpec> jobs;
  for (const char* m : kSweepMixes) {
    for (Policy p : kSweepPolicies) {
      svc::JobSpec j = svc::hetero_job(m, to_string(p), w.scale);
      j.seed = seed;
      jobs.push_back(j);
    }
    for (int id : mix(m).cpu_specs) {
      svc::JobSpec j;
      j.kind = svc::JobKind::kCpuAlone;
      j.spec_id = id;
      j.scale = w.scale;
      j.seed = seed;
      jobs.push_back(j);
    }
  }
  for (const svc::JobSpec& j : jobs) svc::validate(j);
  return jobs;
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace, kept in memory and written at exit.

class Spans {
 public:
  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }

  /// Run `fn` inside a span named `name`; returns its duration in seconds.
  /// Timed either way; recorded only when tracing.
  double time(const char* name, const std::function<void()>& fn) {
    const int parent = open_.empty() ? -1 : open_.back();
    const auto t0 = Clock::now();
    if (on_) {
      open_.push_back(static_cast<int>(spans_.size()));
      spans_.push_back(
          {name, std::chrono::duration<double>(t0 - origin_).count(), 0.0,
           parent});
    }
    fn();
    const double d = since(t0);
    if (on_) {
      spans_[static_cast<std::size_t>(open_.back())].dur_s = d;
      open_.pop_back();
    }
    return d;
  }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue a = JsonValue::array();
    for (const Span& s : spans_) {
      a.push(JsonValue::object()
                 .add("name", JsonValue::str(s.name))
                 .add("start_s", JsonValue::num_f64(s.start_s))
                 .add("dur_s", JsonValue::num_f64(s.dur_s))
                 .add("parent", JsonValue::num_f64(s.parent)));
    }
    return a;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                    s.dur_s * 1e6, i, s.parent);
      os << buf;
    }
    os << "]}\n";
    if (!os) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

 private:
  struct Span {
    std::string name;
    double start_s;
    double dur_s;
    int parent;
  };
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Digests: FNV-1a over the simulated results, so two commits (or two units)
// can be compared statistic by statistic.

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte_range(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { byte_range(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    byte_range(s.data(), s.size());
  }
};

std::uint64_t counters_digest(const Counters& c) {
  Fnv f;
  for (const auto& [name, value] : c) {
    f.str(name);
    f.u64(value);
  }
  return f.h;
}

/// fps, per-application IPC and every stat_delta entry.
std::uint64_t hetero_digest(const HeteroResult& r) {
  Fnv f;
  f.f64(r.fps);
  for (double ipc : r.cpu_ipc) f.f64(ipc);
  f.u64(counters_digest(r.stat_delta));
  return f.h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Simulated cycles of a result's measured window: the latest of every
/// application's window (IPC = quota / window) and the GPU's frame window.
std::uint64_t window_cycles(const HeteroResult& r, const RunScale& scale) {
  double w = r.seconds * kCpuClockHz;
  for (double ipc : r.cpu_ipc) {
    if (ipc > 0) {
      w = std::max(w, static_cast<double>(scale.measure_instrs) / ipc);
    }
  }
  return static_cast<std::uint64_t>(std::llround(w));
}

JsonValue counters_json(const Counters& c) {
  JsonValue o = JsonValue::object();
  for (const auto& [name, value] : c) o.add(name, JsonValue::num_u64(value));
  return o;
}

JsonValue f64_array(const std::vector<double>& v) {
  JsonValue a = JsonValue::array();
  for (double d : v) a.push(JsonValue::num_f64(d));
  return a;
}

// ---------------------------------------------------------------------------
// Telemetry configurations.

TelemetryOptions telemetry_options(bool sinks, bool profile) {
  TelemetryOptions o;
  o.sample_interval = sinks ? 100'000 : 0;
  o.capture_trace = sinks;
  o.capture_journal = sinks;
  o.capture_histograms = sinks;
  o.capture_log = sinks;
  o.capture_profile = profile;
  return o;
}

/// Close the run's sinks and serialize them to memory, as a command-line
/// tool writing its output files would. Returns the serialized bytes.
std::uint64_t finish_telemetry(Telemetry& tel, HeteroCmp* cmp, Cycle now) {
  if (cmp != nullptr) {
    tel.finalize(now);
    tel.capture_stats(cmp->stats());
  }
  if (!tel.options().capture_trace) return 0;
  std::ostringstream os;
  tel.trace().write(os);
  tel.journal().write_jsonl(os);
  tel.sampler().write_jsonl(os);
  os << tel.histograms_json();
  return static_cast<std::uint64_t>(os.tellp());
}

// ---------------------------------------------------------------------------
// Single-run units.

struct Unit {
  double wall_s = 0.0;
  HeteroResult result;
  std::string error;
};

Unit run_unit(const SimConfig& cfg, const Workload& w, bool sinks) {
  Unit u;
  const auto t0 = Clock::now();
  try {
    std::unique_ptr<Telemetry> tel;
    RunHooks hooks;
    if (sinks) {
      tel = std::make_unique<Telemetry>(telemetry_options(true, false));
      hooks.telemetry = tel.get();
    }
    u.result = run_hetero(cfg, mix(w.mix_id), w.policy, w.scale, hooks);
    if (tel) (void)finish_telemetry(*tel, nullptr, 0);
  } catch (const std::exception& e) {
    u.error = e.what();
  }
  u.wall_s = since(t0);
  return u;
}

JsonValue unit_json(const Unit& u, std::uint64_t sim_cycles) {
  return JsonValue::object()
      .add("wall_s", JsonValue::num_f64(u.wall_s))
      .add("sim_cycles", JsonValue::num_u64(sim_cycles))
      .add("digest", JsonValue::str(hex(hetero_digest(u.result))))
      .add("delta_digest",
           JsonValue::str(hex(counters_digest(u.result.stat_delta))))
      .add("cap", JsonValue::boolean(u.result.hit_cycle_cap))
      .add("error", JsonValue::str(u.error));
}

std::vector<SpecProfile> profiles_of(const HeteroMix& m) {
  std::vector<SpecProfile> out;
  for (int id : m.cpu_specs) out.push_back(spec_profile(id));
  return out;
}

/// Set-up before the first simulated cycle: the CPU profiles, the GPU frame
/// sequence and the machine itself.
double time_setup(const SimConfig& cfg, const HeteroMix& m) {
  const auto t0 = Clock::now();
  const GpuAppDesc& app = gpu_app(m.gpu_app);
  HeteroCmp cmp(cfg, Policy::ThrottleCpuPrio, profiles_of(m),
                build_frames(app, cfg.seed), app.fps_scale);
  return since(t0);
}

// ---------------------------------------------------------------------------
// Calibration drive: the run_hetero procedure (RunScale contract: warm until
// every core commits its warm quota, the GPU renders its warm frames and
// warm_min_cycles pass; then measure until every core commits its quota and
// the GPU renders its measured frames) driven through HeteroCmp and
// Engine::run_until, to learn how many cycles one unit simulates.

struct Calibration {
  Cycle cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t ticks = 0;
  double run_s = 0.0;
  Counters delta;   // measured-window counter deltas (= stat_delta)
  Counters totals;  // counters at the last cycle
};

Calibration calibrate(const SimConfig& cfg, const Workload& w) {
  const HeteroMix& m = mix(w.mix_id);
  const GpuAppDesc& app = gpu_app(m.gpu_app);
  HeteroCmp cmp(cfg, w.policy, profiles_of(m), build_frames(app, cfg.seed),
                app.fps_scale);
  cmp.gpu().set_repeat(true);
  Engine& eng = cmp.engine();
  const RunScale& s = w.scale;
  const std::size_t n = cmp.num_cores();
  const unsigned measure_frames =
      s.measure_frames > 0 ? s.measure_frames : app.frames;

  Calibration c;
  const auto t0 = Clock::now();
  eng.run_until(
      [&] {
        if (eng.now() < s.warm_min_cycles) return false;
        for (std::size_t i = 0; i < n; ++i) {
          if (cmp.core(i).committed() < s.warm_instrs) return false;
        }
        return cmp.gpu().frames_completed() >= s.warm_frames;
      },
      s.max_cycles);
  const Counters snap = cmp.stats().counters();
  std::vector<std::uint64_t> start(n);
  for (std::size_t i = 0; i < n; ++i) start[i] = cmp.core(i).committed();
  const std::uint64_t frames0 = cmp.gpu().frames_completed();
  eng.run_until(
      [&] {
        for (std::size_t i = 0; i < n; ++i) {
          if (cmp.core(i).committed() < start[i] + s.measure_instrs) {
            return false;
          }
        }
        return cmp.gpu().frames_completed() >= frames0 + measure_frames;
      },
      s.max_cycles);
  c.run_s = since(t0);
  c.cycles = eng.now();
  c.events = eng.events_run();
  c.ticks = eng.ticks_run();
  c.totals = cmp.stats().counters();
  for (const auto& [name, value] : c.totals) {
    auto it = snap.find(name);
    const std::uint64_t before = it == snap.end() ? 0 : it->second;
    c.delta[name] = value >= before ? value - before : 0;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Traced drive: the same machine for the same cycle count, with the
// profiler attached and a span around every public call, then a checkpoint
// round trip of the final state.

struct TracedDrive {
  double unit_s = 0.0;
  double run_for_s = 0.0;
  std::map<std::string, double> prof_s;
  Counters totals;
  double finalize_s = 0.0;
  std::uint64_t trace_bytes = 0;
  double drain_s = 0.0, save_s = 0.0, load_s = 0.0;
  std::uint64_t snapshot_bytes = 0;
  bool ckpt_ok = false;
};

TracedDrive traced_drive(const SimConfig& cfg, const Workload& w, Cycle cycles,
                         bool sinks, Spans& spans) {
  const HeteroMix& m = mix(w.mix_id);
  const GpuAppDesc& app = gpu_app(m.gpu_app);
  TracedDrive d;
  Telemetry tel(telemetry_options(sinks, true));
  std::vector<SpecProfile> profiles;
  std::vector<SceneFrame> frames;
  std::unique_ptr<HeteroCmp> cmp;
  const auto t0 = Clock::now();
  spans.time("spec_profile", [&] { profiles = profiles_of(m); });
  spans.time("build_frames", [&] { frames = build_frames(app, cfg.seed); });
  spans.time("HeteroCmp", [&] {
    cmp = std::make_unique<HeteroCmp>(cfg, w.policy, std::move(profiles),
                                      std::move(frames), app.fps_scale);
  });
  cmp->gpu().set_repeat(true);
  spans.time("attach_telemetry", [&] { cmp->attach_telemetry(tel); });
  const std::uint64_t k0 = Profiler::now_ticks();
  d.run_for_s = spans.time("run_for", [&] { cmp->engine().run_for(cycles); });
  const std::uint64_t k1 = Profiler::now_ticks();
  d.finalize_s = spans.time("finalize", [&] {
    d.trace_bytes = finish_telemetry(tel, cmp.get(), cmp->engine().now());
  });
  d.unit_s = since(t0);
  d.totals = cmp->stats().counters();

  // The profiler's clock rate, measured over the run_for span.
  const double ticks_per_s =
      d.run_for_s > 0 ? static_cast<double>(k1 - k0) / d.run_for_s : 0.0;
  if (const Profiler* p = tel.profiler(); p != nullptr && ticks_per_s > 0) {
    for (int mi = 0; mi < kNumProfModules; ++mi) {
      const auto mod = static_cast<ProfModule>(mi);
      if (mod == ProfModule::Engine) continue;  // residual, not a scope
      std::uint64_t ticks = 0;
      for (int ph = 0; ph < kNumProfPhases; ++ph) {
        ticks += p->slot(static_cast<ProfPhase>(ph), mod).self_ticks;
      }
      d.prof_s[to_string(mod)] = static_cast<double>(ticks) / ticks_per_s;
    }
  }

  // Checkpoint round trip: drain, save, load into a fresh machine carrying
  // the same instrumentation (the ticker layout must match), and compare.
  std::vector<std::uint8_t> bytes;
  d.drain_s = spans.time("drain", [&] { cmp->drain(); });
  d.save_s = spans.time("save_state", [&] {
    ckpt::StateWriter wr;
    cmp->save_state(wr);
    bytes = wr.finish();
  });
  d.snapshot_bytes = bytes.size();
  Telemetry tel2(telemetry_options(sinks, true));
  HeteroCmp copy(cfg, w.policy, profiles_of(m), build_frames(app, cfg.seed),
                 app.fps_scale);
  copy.gpu().set_repeat(true);
  copy.attach_telemetry(tel2);
  d.load_s = spans.time("load_state", [&] {
    ckpt::StateReader rd(std::move(bytes));
    copy.load_state(rd, ckpt::RestoreMode::kResume);
  });
  d.ckpt_ok = copy.stats().counters() == cmp->stats().counters() &&
              copy.engine().now() == cmp->engine().now();
  return d;
}

JsonValue traced_json(const TracedDrive& d) {
  JsonValue prof = JsonValue::object();
  for (const auto& [name, s] : d.prof_s) prof.add(name, JsonValue::num_f64(s));
  return JsonValue::object()
      .add("unit_s", JsonValue::num_f64(d.unit_s))
      .add("run_for_s", JsonValue::num_f64(d.run_for_s))
      .add("prof_s", std::move(prof))
      .add("totals_digest", JsonValue::str(hex(counters_digest(d.totals))))
      .add("finalize_s", JsonValue::num_f64(d.finalize_s))
      .add("trace_bytes", JsonValue::num_u64(d.trace_bytes))
      .add("drain_s", JsonValue::num_f64(d.drain_s))
      .add("save_s", JsonValue::num_f64(d.save_s))
      .add("load_s", JsonValue::num_f64(d.load_s))
      .add("snapshot_bytes", JsonValue::num_u64(d.snapshot_bytes))
      .add("ckpt_ok", JsonValue::boolean(d.ckpt_ok));
}

// ---------------------------------------------------------------------------
// Sweep units: one run_batch on a fresh store, then the same batch again
// (every job a store hit). A traced batch also records when each pool worker
// finishes each job.

struct Batch {
  double first_s = 0.0;
  double resubmit_s = 0.0;
  std::vector<svc::JobResult> results;
  std::vector<std::uint64_t> resubmit_digests;
  svc::BatchStats first_stats, resubmit_stats;
  std::vector<std::pair<unsigned, double>> done;  // (worker, seconds)
  std::string error;
};

Batch run_batch_unit(const std::vector<svc::JobSpec>& jobs,
                     const std::filesystem::path& store, Spans& spans) {
  Batch b;
  std::filesystem::remove_all(store);
  try {
    svc::ExecOptions opts;
    opts.store_dir = store.string();
    opts.threads = kSweepWorkers;
    svc::Executor ex(opts);
    // In-batch duplicates are reported from the calling thread after the
    // pool drains; only pool workers' completions time jobs.
    const std::thread::id caller = std::this_thread::get_id();
    std::map<std::thread::id, unsigned> worker_of;
    std::mutex mu;
    const auto t0 = Clock::now();
    svc::Executor::Progress progress;
    if (spans.on()) {
      progress = [&](std::size_t, std::size_t, const svc::JobResult&) {
        const double t = since(t0);
        if (std::this_thread::get_id() == caller) return;
        std::lock_guard<std::mutex> lock(mu);
        const auto next = static_cast<unsigned>(worker_of.size());
        auto it = worker_of.try_emplace(std::this_thread::get_id(), next);
        b.done.emplace_back(it.first->second, t);
      };
    }
    b.first_s = spans.time("run_batch", [&] {
      b.results = ex.run_batch(jobs, progress, &b.first_stats);
    });
    b.resubmit_s = spans.time("run_batch.resubmit", [&] {
      for (const svc::JobResult& r :
           ex.run_batch(jobs, {}, &b.resubmit_stats)) {
        b.resubmit_digests.push_back(r.digest);
      }
    });
  } catch (const std::exception& e) {
    b.error = e.what();
  }
  std::filesystem::remove_all(store);
  return b;
}

JsonValue batch_json(const Batch& b, const RunScale& scale) {
  JsonValue jobs = JsonValue::array();
  std::uint64_t sim_cycles = 0;
  std::set<std::string> simulated;  // in-batch duplicates are copies
  for (std::size_t i = 0; i < b.results.size(); ++i) {
    const svc::JobResult& r = b.results[i];
    const std::uint64_t wc = window_cycles(r.result, scale);
    if (simulated.insert(svc::canonical(r.spec)).second) sim_cycles += wc;
    JsonValue ipc = f64_array(r.result.cpu_ipc);
    JsonValue specs = JsonValue::array();
    for (int id : r.result.spec_ids) {
      specs.push(JsonValue::num_u64(static_cast<std::uint64_t>(id)));
    }
    const bool hetero = r.spec.kind == svc::JobKind::kHetero;
    jobs.push(
        JsonValue::object()
            .add("kind", JsonValue::str(svc::to_string(r.spec.kind)))
            .add("mix", JsonValue::str(r.spec.mix_id))
            .add("policy", JsonValue::str(hetero ? r.spec.policy : ""))
            .add("spec_ids", std::move(specs))
            .add("digest", JsonValue::str(hex(r.digest)))
            .add("resubmit_digest",
                 JsonValue::str(i < b.resubmit_digests.size()
                                    ? hex(b.resubmit_digests[i])
                                    : ""))
            .add("cap", JsonValue::boolean(r.result.hit_cycle_cap))
            .add("fps", JsonValue::num_f64(r.result.fps))
            .add("paper_fps",
                 JsonValue::num_f64(hetero ? gpu_app(mix(r.spec.mix_id).gpu_app)
                                                 .paper_fps
                                           : 0.0))
            .add("est_error_pct", JsonValue::num_f64(r.result.est_error_pct))
            .add("cpu_ipc", std::move(ipc))
            .add("window_cycles", JsonValue::num_u64(wc)));
  }
  JsonValue done = JsonValue::array();
  for (const auto& [worker, t] : b.done) {
    done.push(JsonValue::array()
                  .push(JsonValue::num_u64(worker))
                  .push(JsonValue::num_f64(t)));
  }
  auto stats = [](const svc::BatchStats& s) {
    return JsonValue::object()
        .add("jobs", JsonValue::num_u64(s.jobs))
        .add("store_hits", JsonValue::num_u64(s.store_hits))
        .add("warm_forks", JsonValue::num_u64(s.warm_forks))
        .add("cold_runs", JsonValue::num_u64(s.cold_runs))
        .add("dup_jobs", JsonValue::num_u64(s.dup_jobs));
  };
  return JsonValue::object()
      .add("wall_s", JsonValue::num_f64(b.first_s + b.resubmit_s))
      .add("first_s", JsonValue::num_f64(b.first_s))
      .add("resubmit_s", JsonValue::num_f64(b.resubmit_s))
      .add("sim_cycles", JsonValue::num_u64(sim_cycles))
      .add("jobs", std::move(jobs))
      .add("first_stats", stats(b.first_stats))
      .add("resubmit_stats", stats(b.resubmit_stats))
      .add("done", std::move(done))
      .add("error", JsonValue::str(b.error));
}

// ---------------------------------------------------------------------------
// CPU placement. This host's CPUs change speed from minute to minute, and a
// closed loop stays wherever the scheduler first put it, so one run can sit
// on a slow CPU throughout. Each unit therefore runs on the next CPUs of the
// process's own set in turn (threads it starts inherit the placement), and a
// run's median samples every CPU instead of one.

class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }

  /// Place the calling thread on `width` CPUs, one further on than the
  /// previous call, and return them (empty when the process's set is
  /// unknown). Placement is best effort: a refusal leaves it as it was.
  std::vector<int> next(std::size_t width) {
    std::vector<int> chosen;
    if (cpus_.empty()) return chosen;
    for (std::size_t i = 0; i < std::min(width, cpus_.size()); ++i) {
      chosen.push_back(cpus_[(next_ + i) % cpus_.size()]);
    }
    next_ = (next_ + 1) % cpus_.size();
    pin(chosen);
    return chosen;
  }

  /// Place the calling thread on exactly `cpus`.
  static void pin(const std::vector<int>& cpus) {
    if (cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }

  /// Back to every CPU the process started with.
  void restore() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Host-speed probe. Other tenants of this host slow it down in phases that
// last from a minute to half an hour, by up to a third, and a phase longer
// than a run cannot be averaged out inside it. So right before and right
// after every unit the benchmark times a fixed reference computation on
// the unit's CPUs, and run.py scales the unit's host times by the probe's
// reference time over its measured time (README.md "Host-speed
// normalisation"). The probe is the benchmark's own code and never changes
// with the simulator: a balanced-tree build (allocation and pointer
// chasing) and a small set-associative cache model fed from an event heap,
// the kinds of work the simulator's ticks do.

class ProbeKernel {
 public:
  ProbeKernel() : lines_(kSets * kWays) {}

  /// Median time of kReps runs.
  double median_s() {
    std::vector<double> t;
    for (int i = 0; i < kReps; ++i) t.push_back(once());
    std::nth_element(t.begin(), t.begin() + kReps / 2, t.end());
    return t[kReps / 2];
  }

 private:
  static constexpr std::size_t kSets = 32 * 1024;
  static constexpr std::size_t kWays = 16;
  static constexpr int kReps = 9;

  struct Line {
    std::uint64_t tag = ~0ull;
    std::uint64_t lru = 0;
  };

  double once() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return x;
    };
    std::map<std::uint32_t, std::uint64_t> tree;
    for (std::uint64_t i = 0; i < 20'000; ++i) {
      tree[static_cast<std::uint32_t>(next() >> 40)] += i;
    }
    std::uint64_t acc = 0;
    for (const auto& [k, v] : tree) acc += k ^ v;

    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        events;
    for (std::uint64_t i = 0; i < 64; ++i) events.push(i);
    for (int i = 0; i < 60'000; ++i) {
      const std::uint64_t now = events.top();
      events.pop();
      const std::uint64_t r = next();
      // Mostly a streaming pattern, a quarter random over 256 MB.
      const std::uint64_t block = (r & 0x300) != 0
                                      ? (now & ((1ull << 16) - 1))
                                      : ((r >> 26) & ((1ull << 22) - 1));
      Line* set = &lines_[(block % kSets) * kWays];
      Line* victim = set;
      bool hit = false;
      for (std::size_t w = 0; w < kWays; ++w) {
        if (set[w].tag == block) {
          set[w].lru = ++clock_;
          hit = true;
          break;
        }
        if (set[w].lru < victim->lru) victim = &set[w];
      }
      if (!hit) *victim = {block, ++clock_};
      acc += hit ? 1 : 0;
      events.push(now + (hit ? 4 : 100 + (r & 63)));
    }
    sink_ = sink_ + acc;
    return since(t0);
  }

  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
  volatile std::uint64_t sink_ = 0;  // keeps the work observable
};

class HostProbe {
 public:
  /// The probe's median time on every CPU of `cpus` at once, one thread
  /// per CPU as the sweep's workers run, averaged over them; the calling
  /// thread is left on `cpus`. Runs where it is when `cpus` is empty.
  double measure(const std::vector<int>& cpus) {
    const std::size_t n = std::max<std::size_t>(cpus.size(), 1);
    while (kernels_.size() < n) kernels_.emplace_back();
    std::vector<double> t(n);
    std::vector<std::thread> others;
    for (std::size_t i = 1; i < n; ++i) {
      others.emplace_back([&, i] {
        CpuRotation::pin({cpus[i]});
        t[i] = kernels_[i].median_s();
      });
    }
    if (!cpus.empty()) CpuRotation::pin({cpus[0]});
    t[0] = kernels_[0].median_s();
    for (std::thread& th : others) th.join();
    CpuRotation::pin(cpus);
    double sum = 0.0;
    for (double v : t) sum += v;
    return sum / static_cast<double>(n);
  }

 private:
  std::vector<ProbeKernel> kernels_;
};

std::uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::uint32_t trace = 0;
  std::string work_dir = ".";
  std::string spans_out;
};

int run(const Args& a) {
  const Workload w = workload(a.workload);
  SimConfig cfg = Presets::scaled();
  cfg.seed = a.seed;
  const HeteroMix& m = mix(w.mix_id);
  const bool traced = a.trace != 0;
  Spans spans(traced);
  Spans untraced(false);
  const std::filesystem::path work(a.work_dir);
  std::filesystem::create_directories(work);

  JsonValue out = JsonValue::object();
  out.add("workload", JsonValue::str(w.name))
      .add("seed", JsonValue::num_u64(a.seed))
      .add("trace", JsonValue::boolean(traced))
      .add("host",
           JsonValue::object()
               .add("nproc",
                    JsonValue::num_u64(std::thread::hardware_concurrency()))
               .add("compiler", JsonValue::str(PERFBENCH_COMPILER))
               .add("build_type", JsonValue::str(PERFBENCH_BUILD_TYPE))
               .add("cxx_flags", JsonValue::str(PERFBENCH_CXX_FLAGS))
               .add("sweep_workers", JsonValue::num_u64(kSweepWorkers)));

  // Calibration first: it also warms the allocator and code before timing.
  const Calibration cal = calibrate(cfg, w);
  out.add("calibration",
          JsonValue::object()
              .add("cycles", JsonValue::num_u64(cal.cycles))
              .add("gpu_cycles",
                   JsonValue::num_u64(base_to_gpu_cycles(cal.cycles)))
              .add("cores", JsonValue::num_u64(m.cpu_specs.size()))
              .add("events", JsonValue::num_u64(cal.events))
              .add("ticks", JsonValue::num_u64(cal.ticks))
              .add("run_s", JsonValue::num_f64(cal.run_s))
              .add("delta_digest",
                   JsonValue::str(hex(counters_digest(cal.delta))))
              .add("totals_digest",
                   JsonValue::str(hex(counters_digest(cal.totals)))));

  // Set-up time: a batch of repetitions after each unit, so the median
  // (run.py) spans the whole run, each batch paired with the probe timed
  // right before it. The sweep also constructs its Executor, which opens
  // its store. The store directory is made once beforehand, because the
  // filesystem's time to create a directory varies far more between runs
  // than the set-up itself.
  std::vector<double> setup;
  std::vector<double> setup_probe;
  const std::filesystem::path setup_store = work / "setup-store";
  if (w.sweep) std::filesystem::create_directories(setup_store);
  auto measure_setup = [&](double probe_s) {
    for (int i = 0; i < 40; ++i) {
      double s = time_setup(cfg, m);
      if (w.sweep) {
        const auto t0 = Clock::now();
        {
          svc::ExecOptions opts;
          opts.store_dir = setup_store.string();
          opts.threads = kSweepWorkers;
          svc::Executor ex(opts);
        }
        s += since(t0);
      }
      setup.push_back(s);
      setup_probe.push_back(probe_s);
    }
  };

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(a.seconds));
  JsonValue units = JsonValue::array();
  JsonValue traced_units = JsonValue::array();
  JsonValue partners = JsonValue::array();
  const std::vector<svc::JobSpec> jobs =
      w.sweep ? sweep_jobs(w, a.seed) : std::vector<svc::JobSpec>{};
  CpuRotation placement;
  HostProbe probe;
  do {
    const std::vector<int> cpus = placement.next(w.sweep ? kSweepWorkers : 1);
    const double probe_before = probe.measure(cpus);
    if (w.sweep) {
      JsonValue batch =
          batch_json(run_batch_unit(jobs, work / "store", untraced), w.scale);
      const double probe_after = probe.measure(cpus);
      units.push(batch.add("probe_s",
                           JsonValue::num_f64((probe_before + probe_after) / 2)));
      measure_setup(probe_after);
      if (traced) {
        traced_units.push(
            batch_json(run_batch_unit(jobs, work / "store", spans), w.scale));
      }
    } else {
      Unit u;
      if (traced) {
        spans.time("run_hetero", [&] { u = run_unit(cfg, w, w.sinks); });
      } else {
        u = run_unit(cfg, w, w.sinks);
      }
      const double probe_after = probe.measure(cpus);
      units.push(unit_json(u, cal.cycles)
                     .add("probe_s", JsonValue::num_f64((probe_before +
                                                         probe_after) / 2)));
      measure_setup(probe_after);
      if (traced) {
        spans.time("traced_unit", [&] {
          traced_units.push(
              traced_json(traced_drive(cfg, w, cal.cycles, w.sinks, spans)));
        });
        // The same seed with the sinks flipped: the obs layer's cost.
        partners.push(unit_json(run_unit(cfg, w, !w.sinks), cal.cycles));
      }
    }
  } while (Clock::now() < deadline);
  placement.restore();
  out.add("setup_s", f64_array(setup));
  out.add("setup_probe_s", f64_array(setup_probe));
  // The batch's job count, so a batch that throws or comes back short
  // counts every job it should have returned as failed.
  out.add("sweep_jobs", JsonValue::num_u64(jobs.size()));
  out.add("units", std::move(units));

  if (traced) {
    JsonValue layers = JsonValue::object();
    layers.add("counters", counters_json(cal.totals));
    if (w.sweep) {
      // The sweep's per-module split comes from one traced drive of its
      // probe mix; its sinks pair from one run each way.
      layers.add("batches", std::move(traced_units));
      JsonValue one = JsonValue::array();
      spans.time("traced_unit", [&] {
        one.push(traced_json(traced_drive(cfg, w, cal.cycles, false, spans)));
      });
      layers.add("traced", std::move(one));
      for (const bool sinks : {false, true}) {
        layers.add(sinks ? "sinks_on" : "sinks_off",
                   JsonValue::array().push(
                       unit_json(run_unit(cfg, w, sinks), cal.cycles)));
      }
      // The service always warms under Baseline.
      const double warm_s = spans.time("warm_hetero_snapshot", [&] {
        (void)warm_hetero_snapshot(cfg, m, Policy::Baseline, w.scale);
      });
      layers.add("warm_s", JsonValue::num_f64(warm_s));
    } else {
      layers.add("traced", std::move(traced_units));
      layers.add(w.sinks ? "sinks_off" : "sinks_on", std::move(partners));
      const double warm_s = spans.time("warm_hetero_snapshot", [&] {
        (void)warm_hetero_snapshot(cfg, m, w.policy, w.scale);
      });
      layers.add("warm_s", JsonValue::num_f64(warm_s));
      HeteroResult fid;
      spans.time("fidelity_run_hetero", [&] {
        fid = run_hetero(cfg, m, w.policy, w.fidelity, RunHooks{});
      });
      std::vector<double> alone;
      spans.time("standalone_ipcs",
                 [&] { alone = standalone_ipcs(cfg, m, w.fidelity); });
      layers.add("result",
                 JsonValue::object()
                     .add("fps", JsonValue::num_f64(fid.fps))
                     .add("paper_fps",
                          JsonValue::num_f64(gpu_app(m.gpu_app).paper_fps))
                     .add("est_error_pct",
                          JsonValue::num_f64(fid.est_error_pct))
                     .add("cpu_ipc", f64_array(fid.cpu_ipc))
                     .add("alone_ipc", f64_array(alone)));
    }
    layers.add("spans", spans.to_json());
    out.add("layers", std::move(layers));
    if (!a.spans_out.empty()) spans.write_chrome(a.spans_out);
  }
  out.add("peak_rss_kb", JsonValue::num_u64(peak_rss_kb()));
  std::printf("%s\n", svc::json_write(out).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  cli::OptionSet opts(
      "--workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR "
      "[--spans-out FILE]",
      "Host-throughput benchmark program; perfbench/run.py runs it and turns "
      "its raw samples into metrics.");
  opts.str("--workload", "NAME", "m8-throt | m1-telemetry | policy-sweep",
           &a.workload);
  opts.u64("--seed", "N", "input seed (SimConfig::seed)", &a.seed);
  opts.f64("--seconds", "S", "measuring budget in host seconds", &a.seconds);
  opts.u32("--trace", "0|1", "record spans and the profiler", &a.trace);
  opts.str("--work-dir", "DIR", "scratch directory for result stores",
           &a.work_dir);
  opts.str("--spans-out", "FILE", "Chrome trace of the spans (--trace 1)",
           &a.spans_out);
  std::vector<const char*> positional;
  opts.parse(argc, argv, positional);
  if (!positional.empty() || a.workload.empty() || a.trace > 1) {
    opts.print_help(stderr, argv[0]);
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
