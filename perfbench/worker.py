"""Child process of run.py: generates a workload's files, or runs its loop.

    worker.py gen --workload NAME --seed N --dir DIR
    worker.py run --workload NAME --seed N --dir DIR --seconds S --trace 0|1 --out FILE

``gen`` is timed from outside as one set-up.  ``run`` is the workload
process: a closed loop (each iteration starts when the last one ends) of
as many iterations as fill ``--seconds`` at the workload's nominal
iteration length, then peak RSS.  The count depends on ``--seconds`` only,
never on how fast this run happens to be.  With ``--trace 1`` it then
installs the tracer, performs one traced set-up and one traced iteration,
and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import lw3d
from workloads import WORKLOADS

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def run_record(seed: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "lw3d": lw3d.__file__,
    }


def closed_loop(wl, seed: int, data_dir: str, iterations: int) -> tuple[list, list]:
    times, outputs = [], []
    for _ in range(iterations):
        t0 = time.perf_counter()
        outputs.append(wl.spec.iterate(seed, data_dir))
        times.append(time.perf_counter() - t0)
    return times, outputs


def traced(wl, seed: int, data_dir: str, untraced_times, trace_path):
    from tracer import PER_LAYER, Tracer, layer_values

    tr = Tracer()
    tr.install()
    try:
        wl.spec.generate(seed, os.path.join(data_dir, "traced-setup"))
        mark = len(tr.names)
        counts_setup = dict(tr.counts)
        times, outputs = closed_loop(wl, seed, data_dir, 1)
    finally:
        tr.uninstall()
    counts_loop = {k: v - counts_setup.get(k, 0.0) for k, v in tr.counts.items()}
    values = layer_values(
        tr.totals(0, mark), tr.totals(mark, len(tr.names)), len(times),
        counts_setup, counts_loop,
    )
    values["autodiff.forward.retained_bytes"] = float(tr.retained_peak)
    values["trace.untraced_clips_per_s"] = wl.spec.clips / statistics.median(untraced_times)
    values["trace.traced_clips_per_s"] = wl.spec.clips / statistics.median(times)
    values["trace.overhead_ratio"] = statistics.median(times) / statistics.median(untraced_times)
    checked, mismatches = tr.mac_check()
    values["mac_check.conv_layers"] = float(checked)
    tr.write(trace_path)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {
        "iterations": times,
        "outputs": outputs,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "mac_checked": checked,
        "mac_mismatches": mismatches,
        "spans": len(tr.names),
        "trace_file": trace_path,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("mode", choices=("gen", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "gen":
        wl.spec.generate(args.seed, args.dir)
        return 0
    iterations = max(1, round(args.seconds / wl.iteration_s))
    times, outputs = closed_loop(wl, args.seed, args.dir, iterations)
    result = {
        "record": run_record(args.seed),
        "iterations": times,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": None,
    }
    if args.trace:
        result["trace"] = traced(wl, args.seed, args.dir, times, args.trace_file)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
