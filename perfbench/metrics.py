"""Metric derivation for the gpuqos host-throughput benchmark.

The benchmark program (perfbench.cpp) prints raw samples: unit wall times,
digests, counter totals, profiler seconds and spans. This module turns one
such record into the benchmark's correctness verdict, its end-to-end metrics
(untraced runs) and its per-layer metrics (traced runs). README.md gives the
definition of every metric and the workload each one should move.
"""

import re
import statistics
from collections import Counter

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# name -> unit
END_TO_END = {
    "wall_ref_s": "s",
    "sim_kcycles_per_ref_s": "kcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.events_per_kcycle": "1/kcycle",
    "engine.ticks_per_kcycle": "1/kcycle",
    "engine.ns_per_tick": "ns",
    "cpu.stall_share": "ratio",
    "cpu.stall_rob": "count",
    "cpu.stall_dependent": "count",
    "cpu.committed_instrs": "count",
    "prof.cpu_core_s": "s",
    "gpu.stall_no_context_share": "ratio",
    "gpu.fragments": "count",
    "gpu.frames": "count",
    "prof.gpu_pipeline_s": "s",
    "prof.gpu_mem_s": "s",
    "llc.miss_rate.cpu": "ratio",
    "llc.miss_rate.gpu": "ratio",
    "llc.mshr_coalesced": "count",
    "prof.llc_s": "s",
    "ring.messages": "count",
    "ring.queue_cycles": "cycles",
    "prof.ring_s": "s",
    "dram.row_hit_rate": "ratio",
    "dram.read_latency.cpu": "cycles",
    "dram.read_latency.gpu": "cycles",
    "prof.dram_s": "s",
    "qos.atu_token_denials": "count",
    "qos.control_steps_throttling": "count",
    "qos.est_error_pct": "%",
    "prof.governor_s": "s",
    "sim.cycles": "cycles",
    "sim.fps": "fps",
    "sim.weighted_speedup": "ratio",
    "sim.fps_error_vs_paper_pct": "%",
    "prof.unattributed_s": "s",
    "ckpt.drain_s": "s",
    "ckpt.save_s": "s",
    "ckpt.load_s": "s",
    "ckpt.snapshot_bytes": "bytes",
    "svc.cold_runs": "count",
    "svc.warm_forks": "count",
    "svc.store_hits": "count",
    "svc.warm_s": "s",
    "svc.store_hit_us": "us",
    "sweep.worker_busy_share": "ratio",
    "sweep.critical_job_s": "s",
    "obs.overhead_pct": "%",
    "obs.finalize_s": "s",
    "obs.trace_bytes": "bytes",
    "workloads.build_frames_s": "s",
    "trace.overhead_pct": "%",
    "host.probe_s": "s",
}

# The host-speed probe's time on the reference host (README.md "Host-speed
# normalisation"): host times are reported in seconds of a host on which the
# probe takes this long. Changing it rescales every baseline.
PROBE_REF_S = 0.006

# Profiler modules with a prof.<module>_s metric (ckpt does no work inside
# the run_for span).
PROFILED_MODULES = ("cpu_core", "gpu_pipeline", "gpu_mem", "llc", "ring",
                    "dram", "governor")
# svc rows that only a run_batch call produces, and the sweep pool's rows.
SWEEP_ONLY = ("svc.cold_runs", "svc.warm_forks", "svc.store_hits",
              "svc.store_hit_us", "sweep.worker_busy_share",
              "sweep.critical_job_s")
STALL_RE = re.compile(r"cpu\d+\.stall_(fixed|dependent|rob|structural)$")


def median(values):
    return statistics.median(values)


def spread(values):
    """(first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def ratio(num, den):
    return num / den if den else 0.0


# --- correctness -----------------------------------------------------------


def _mode(values):
    return Counter(values).most_common(1)[0][0]


def _check_batches(batches, njobs, problems):
    """Every batch must return all `njobs` jobs of the workload's job list;
    a batch that throws or comes back short fails all of them, both passes."""
    attempted = failed = 0
    ref = []
    for i in range(njobs):
        seen = [b["jobs"][i]["digest"] for b in batches if len(b["jobs"]) > i]
        ref.append(_mode(seen) if seen else "")
    for n, b in enumerate(batches):
        attempted += 2 * njobs
        if b["error"] or len(b["jobs"]) != njobs:
            failed += 2 * njobs
            problems.append(f"batch {n}: {b['error'] or 'missing jobs'}")
            continue
        for i, job in enumerate(b["jobs"]):
            if job["cap"] or job["digest"] != ref[i]:
                failed += 1
                problems.append(f"batch {n} job {i}: digest {job['digest']} "
                                f"!= {ref[i]} or cycle cap")
            if job["resubmit_digest"] != job["digest"]:
                failed += 1
                problems.append(f"batch {n} job {i}: store hit returned "
                                f"{job['resubmit_digest']}")
    return attempted, failed


def check(raw):
    """Count attempted and failed operations; returns (attempted, failed,
    problems). An operation fails when it throws, hits the cycle cap, or its
    digest disagrees with the other operations of the run (for single runs,
    also with the calibration drive of the same seed)."""
    problems = []
    cal = raw["calibration"]
    layers = raw.get("layers", {})
    attempted = failed = 0
    units = layers.get("sinks_on", []) + layers.get("sinks_off", [])
    if raw["workload"] == "policy-sweep":
        attempted, failed = _check_batches(
            raw["units"] + layers.get("batches", []), raw["sweep_jobs"],
            problems)
    else:
        units = raw["units"] + units
    ref = _mode([u["digest"] for u in units]) if units else ""
    for n, u in enumerate(units):
        attempted += 1
        why = (u["error"] or ("cycle cap" if u["cap"] else "")
               or (f"digest {u['digest']} != {ref}" if u["digest"] != ref
                   else "")
               or ("run_hetero stat_delta differs from the calibration drive"
                   if u["delta_digest"] != cal["delta_digest"] else ""))
        if why:
            failed += 1
            problems.append(f"unit {n}: {why}")
    for n, t in enumerate(layers.get("traced", [])):
        attempted += 1
        if t["totals_digest"] != cal["totals_digest"] or not t["ckpt_ok"]:
            failed += 1
            problems.append(f"traced drive {n}: counters differ from the "
                            "calibration drive or checkpoint round trip")
    return attempted, failed, problems


# --- end to end ------------------------------------------------------------


def to_ref_s(seconds, probe_s):
    """A host time measured beside a probe time, in reference seconds."""
    return ratio(seconds * PROBE_REF_S, probe_s)


def end_to_end(raw):
    """Samples of every END_TO_END metric from the run's untraced units, each
    host time scaled by the probe timed beside it: {name: [values]}; the
    report gives their medians."""
    units = raw["units"]  # failed units took their time too
    walls = [to_ref_s(u["wall_s"], u["probe_s"]) for u in units]
    rates = [ratio(u["sim_cycles"], w) / 1e3 for u, w in zip(units, walls)]
    return {
        "wall_ref_s": walls,
        "sim_kcycles_per_ref_s": rates,
        "setup_s": [to_ref_s(s, p) for s, p in zip(raw["setup_s"],
                                                   raw["setup_probe_s"])],
        "peak_rss_mb": [raw["peak_rss_kb"] / 1024.0],
    }


def measured(raw):
    """The unscaled medians beside the probe's: what the host gave this run."""
    return {
        "wall_s": median([u["wall_s"] for u in raw["units"]]),
        "setup_s": median(raw["setup_s"]),
        "probe_s": median([u["probe_s"] for u in raw["units"]]),
    }


# --- per layer -------------------------------------------------------------


def stall_share(counters, cycles, cores):
    """Sum of every core's stall counters over core-cycles."""
    stalls = sum(v for k, v in counters.items() if STALL_RE.match(k))
    return ratio(stalls, cycles * cores)


def per_core_sum(counters, suffix):
    return sum(v for k, v in counters.items()
               if re.fullmatch(r"cpu\d+\." + re.escape(suffix), k))


def unattributed_s(run_for_s, prof_s):
    """The benchmark's run_for span minus every profiled module's self time;
    negative when the sampled scopes over-attribute."""
    return run_for_s - sum(prof_s.values())


def worker_busy(done, workers, batch_s):
    """From (worker, completion seconds) pairs: the busy share of the pool
    over the batch and the longest job. Each worker starts its next job as
    it finishes one, so a job lasts from its worker's previous completion."""
    last = {}
    longest = 0.0
    for worker, t in sorted(done, key=lambda d: d[1]):
        longest = max(longest, t - last.get(worker, 0.0))
        last[worker] = t
    return ratio(sum(last.values()), workers * batch_s), longest


def weighted_speedup(ipc, alone):
    return sum(ratio(a, b) for a, b in zip(ipc, alone))


def fps_error_pct(fps, paper_fps):
    return ratio(fps - paper_fps, paper_fps) * 100.0


def _pct(num, den):
    return (ratio(num, den) - 1.0) * 100.0


def _sweep_sim(batch):
    hetero = [j for j in batch["jobs"] if j["kind"] == "hetero"]
    alone = {j["spec_ids"][0]: j["cpu_ipc"][0]
             for j in batch["jobs"] if j["kind"] != "hetero"}
    base = [j for j in hetero if j["policy"] == "Baseline"]
    return {
        "sim.fps": statistics.fmean(j["fps"] for j in hetero),
        "sim.weighted_speedup": statistics.fmean(
            weighted_speedup(j["cpu_ipc"], [alone[s] for s in j["spec_ids"]])
            for j in hetero),
        "sim.fps_error_vs_paper_pct": statistics.fmean(
            fps_error_pct(j["fps"], j["paper_fps"]) for j in base),
        "qos.est_error_pct": statistics.fmean(j["est_error_pct"]
                                              for j in hetero),
    }


def not_exercised(raw):
    """Per-layer metrics of layers the workload never enters. A single run
    makes no run_batch call, so it has no svc batch and no sweep pool. The
    output carries every per-layer metric on every workload, so these read 0
    there, and the report names them."""
    if raw["workload"] == "policy-sweep":
        return ()
    return SWEEP_ONLY


def per_layer(raw):
    """Every PER_LAYER metric from a traced run: {name: value}."""
    cal = raw["calibration"]
    layers = raw["layers"]
    c = layers["counters"]
    cycles, cores = cal["cycles"], cal["cores"]
    traced = layers["traced"]
    spans = layers["spans"]

    def med(key):
        return median([t[key] for t in traced])

    m = {
        "engine.events_per_kcycle": ratio(cal["events"], cycles) * 1e3,
        "engine.ticks_per_kcycle": ratio(cal["ticks"], cycles) * 1e3,
        "engine.ns_per_tick": ratio(cal["run_s"], cal["ticks"]) * 1e9,
        "cpu.stall_share": stall_share(c, cycles, cores),
        "cpu.stall_rob": per_core_sum(c, "stall_rob"),
        "cpu.stall_dependent": per_core_sum(c, "stall_dependent"),
        "cpu.committed_instrs": per_core_sum(c, "committed_instrs"),
        "gpu.stall_no_context_share": ratio(c.get("gpu.stall_no_context", 0),
                                            cal["gpu_cycles"]),
        "gpu.fragments": c.get("gpu.fragments", 0),
        "gpu.frames": c.get("gpu.frames", 0),
        "llc.miss_rate.cpu": ratio(c.get("llc.miss.cpu", 0),
                                   c.get("llc.access.cpu", 0)),
        "llc.miss_rate.gpu": ratio(c.get("llc.miss.gpu", 0),
                                   c.get("llc.access.gpu", 0)),
        "llc.mshr_coalesced": c.get("llc.mshr_coalesced", 0),
        "ring.messages": c.get("ring.messages", 0),
        "ring.queue_cycles": c.get("ring.queue_cycles", 0),
        "dram.row_hit_rate": ratio(
            c.get("dram.row_hits", 0),
            c.get("dram.row_hits", 0) + c.get("dram.row_misses", 0)),
        "dram.read_latency.cpu": ratio(c.get("dram.read_latency_sum.cpu", 0),
                                       c.get("dram.reads.cpu", 0)),
        "dram.read_latency.gpu": ratio(c.get("dram.read_latency_sum.gpu", 0),
                                       c.get("dram.reads.gpu", 0)),
        "qos.atu_token_denials": c.get("qos.atu_token_denials", 0),
        "qos.control_steps_throttling": c.get("qos.control_steps_throttling",
                                              0),
        "sim.cycles": cycles,
        "prof.unattributed_s": median([unattributed_s(t["run_for_s"],
                                                      t["prof_s"])
                                       for t in traced]),
        "ckpt.drain_s": med("drain_s"),
        "ckpt.save_s": med("save_s"),
        "ckpt.load_s": med("load_s"),
        "ckpt.snapshot_bytes": med("snapshot_bytes"),
        "svc.warm_s": layers["warm_s"],
        # A single run's own units form the side its partners do not.
        "obs.overhead_pct": _pct(
            median([u["wall_s"]
                     for u in layers.get("sinks_on", raw["units"])]),
            median([u["wall_s"]
                     for u in layers.get("sinks_off", raw["units"])])),
        "obs.finalize_s": med("finalize_s"),
        "obs.trace_bytes": med("trace_bytes"),
        "workloads.build_frames_s": median(
            [s["dur_s"] for s in spans if s["name"] == "build_frames"]),
        "host.probe_s": median([u["probe_s"] for u in raw["units"]]),
    }
    for mod in PROFILED_MODULES:
        m[f"prof.{mod}_s"] = median([t["prof_s"][mod] for t in traced])

    untraced = [u["wall_s"] for u in raw["units"]]
    if raw["workload"] == "policy-sweep":
        batches = layers["batches"]
        first = batches[0]
        busy, longest = zip(*(worker_busy(b["done"],
                                          raw["host"]["sweep_workers"],
                                          b["first_s"]) for b in batches))
        m.update({
            "svc.cold_runs": first["first_stats"]["cold_runs"],
            "svc.warm_forks": first["first_stats"]["warm_forks"],
            "svc.store_hits": first["resubmit_stats"]["store_hits"],
            "svc.store_hit_us": median(
                [ratio(b["resubmit_s"], len(b["jobs"])) * 1e6
                 for b in batches]),
            "sweep.worker_busy_share": median(busy),
            "sweep.critical_job_s": median(longest),
            "trace.overhead_pct": _pct(median([b["wall_s"] for b in batches]),
                                       median(untraced)),
            **_sweep_sim(first),
        })
    else:
        res = layers["result"]
        m.update({name: 0 for name in not_exercised(raw)})
        m.update({
            "trace.overhead_pct": _pct(med("unit_s"), median(untraced)),
            "sim.fps": res["fps"],
            "sim.weighted_speedup": weighted_speedup(res["cpu_ipc"],
                                                     res["alone_ipc"]),
            "sim.fps_error_vs_paper_pct": fps_error_pct(res["fps"],
                                                        res["paper_fps"]),
            "qos.est_error_pct": res["est_error_pct"],
        })
    return m
