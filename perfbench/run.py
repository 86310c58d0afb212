#!/usr/bin/env python3
"""gpuqos host-throughput benchmark: one command per workload run.

    python3 perfbench/run.py --workload m8-throt --seed 1 --seconds 30 --trace 0

Builds the simulator and the benchmark program from source into
.bench_build/perfbench (relative to the current directory), runs one workload
for --seconds of measurement, checks that every simulated result is correct,
prints a report and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced variant
and reports the per-layer metrics. README.md describes both.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("m8-throt", "m1-telemetry", "policy-sweep")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally. Returns the program's path or
    None when the sources do not build."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return build_dir / "gpuqos_perfbench"


def source_identity():
    """The commit when the checkout is a git repository, and a digest of the
    sources the benchmark builds either way."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def report(raw, values, units, attempted, failed, problems, commit, sources):
    host = raw["host"]
    log("")
    print(f"# gpuqos perfbench: workload {raw['workload']}, seed {raw['seed']}"
          f", {'traced' if raw['trace'] else 'untraced'}")
    print(f"# host: nproc {host['nproc']}, {host['compiler']}, build "
          f"{host['build_type']} [{host['cxx_flags']}], sweep workers "
          f"{host['sweep_workers']}")
    print(f"# commit {commit}, sources {sources}")
    cal = raw["calibration"]
    print(f"# calibration drive: {cal['cycles']} cycles, stat digest "
          f"{cal['delta_digest']}")
    if raw["workload"] == "policy-sweep":
        digests = sorted({",".join(j["digest"] for j in b["jobs"])
                          for b in raw["units"]})
    else:
        digests = sorted({u["digest"] for u in raw["units"]})
    print(f"# result digests ({len(digests)} distinct): {' '.join(digests)}")
    print(f"# operations: {attempted} attempted, {failed} failed")
    got = metrics.measured(raw)
    print(f"# as measured: unit wall {got['wall_s']:.6g} s, set-up "
          f"{got['setup_s']:.6g} s, host-speed probe {got['probe_s']:.6g} s "
          f"(reference {metrics.PROBE_REF_S:g} s; README.md \"Host-speed "
          f"normalisation\")")
    for p in problems:
        print(f"#   FAILED {p}")
    for name, v in values.items():
        if isinstance(v, list):
            q1, q3 = metrics.spread(v)
            print(f"{name:32s} {metrics.median(v):14.6g} {units[name]:10s}"
                  f" median of {len(v)}, quartiles {q1:.6g} .. {q3:.6g}")
        else:
            print(f"{name:32s} {v:14.6g} {units[name]}")
    if raw["trace"] and metrics.not_exercised(raw):
        print("# not exercised by this workload, reported as 0: "
              + ", ".join(metrics.not_exercised(raw)))
    if raw["trace"]:
        print("# sim.fps_error_vs_paper_pct compares against Table II "
              "(baseline FPS, the repository's only reference result); the "
              "model is otherwise unvalidated.")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    build_dir = Path.cwd() / ".bench_build" / "perfbench"
    program = build(build_dir)
    if program is None:
        return 1
    work = build_dir / f"work-{os.getpid()}"
    spans = build_dir / f"spans-{args.workload}-seed{args.seed}.json"
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        cmd += ["--spans-out", str(spans)]
    # A run measures for --seconds, plus its calibration drive, the unit in
    # flight at the deadline and, when traced, the layer runs after the loop.
    timeout_s = 2 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"perfbench: benchmark program exceeded {timeout_s:g} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log(f"perfbench: benchmark program exited {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed, problems = metrics.check(raw)
    if args.trace:
        units = metrics.PER_LAYER
        values = metrics.per_layer(raw)
        values = {name: values[name] for name in units}
    else:
        units = metrics.END_TO_END
        values = metrics.end_to_end(raw)
    commit, sources = source_identity()
    report(raw, values, units, attempted, failed, problems, commit, sources)
    if args.trace:
        print(f"# spans written to {spans}")
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics.median(v) if isinstance(v, list) else v,
                   "unit": units[name]}
            for name, v in values.items()
        },
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
