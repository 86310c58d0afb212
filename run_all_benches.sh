#!/bin/sh
# Regenerates every paper table/figure plus the substrate micro-benchmarks.
#
# Each figure harness warms the shared memoized store (gpuqos_bench_cache/,
# override with GPUQOS_BENCH_CACHE) through the parallel sweep pool before
# printing, so a harness runs the simulations it needs concurrently and later
# harnesses reuse the stored results and warm snapshots. Thread count comes
# from GPUQOS_THREADS (default: all hardware threads).
#
# The perf_* harnesses are skipped: they measure the simulator rather than
# reproduce the paper, write BENCH_*.json into the working directory, and
# some exit non-zero on their own gates. Run them explicitly
# (docs/PERFORMANCE.md).
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  case "$b" in
    */perf_*) continue ;;
  esac
  echo "### $b"
  "$b"
  echo
done
