"""lw3d benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the program is the
source under ``src/lw3d``.  The set-up (a fresh process that imports lw3d
and writes the workload's files) runs five times and ``setup_s`` is its
median wall time.  A second fresh process runs the workload's closed loop
(see worker.py); the outputs are checked (see checks.py) outside every
timed region.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Scratch files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout's source tree as it was
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# child processes are killed after this long, leaving the checks time to
# finish within the 180 s a run may take
DEADLINE_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = nproc
    return env


def _worker(args: list[str], env, timeout: float) -> float:
    """Run worker.py to completion; returns its wall time.  The wait blocks
    (``subprocess`` polls every 50 ms when given a timeout, which would
    quantise ``setup_s``); a timer kills the child at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], env=env, cwd=ROOT
    )
    killer = threading.Timer(max(timeout, 0.0), proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise subprocess.CalledProcessError(rc, proc.args)
    return elapsed


def measure(name: str, seed: int, seconds: int, trace: int, work: Path) -> dict:
    from checks import count_failures, final_train_row, oracle_problems, oracle_scores
    from workloads import WORKLOADS, InferSpec

    wl = WORKLOADS[name]
    env = _child_env()
    start = time.perf_counter()
    data = work / "data"
    common = ["--workload", name, "--seed", str(seed), "--dir", str(data)]

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    setups = [_worker(["gen", *common], env, remaining()) for _ in range(SETUP_REPEATS)]
    out_file = work / "result.json"
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    _worker(
        ["run", *common, "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(out_file),
         "--trace-file", str(traces / f"{name}-seed{seed}.tsv")],
        env, remaining(),
    )
    res = json.loads(out_file.read_text(encoding="utf-8"))

    problems = []
    oracle = None
    if isinstance(wl.spec, InferSpec):
        oracle = oracle_scores(wl.spec, seed, str(data))
        problems += oracle_problems(oracle, wl.spec.classes)
    reference = res["outputs"][0]
    attempted, failed = count_failures(wl.spec, res["outputs"], reference, oracle)
    per_layer = None
    if res["trace"]:
        t = res["trace"]
        a, f = count_failures(wl.spec, t["outputs"], reference, oracle)
        attempted += a + t["mac_checked"]
        failed += f + len(t["mac_mismatches"])
        problems += t["mac_mismatches"]
        per_layer = t["metrics"]

    iters = res["iterations"]
    report = {
        "throughput": "infer_clips_per_s" if oracle is not None else "train_clips_per_s",
        "record": res["record"],
        "iterations_s": iters,
        "setup_runs_s": setups,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "end_to_end": {
            "clips_per_s": {"value": wl.spec.clips / statistics.median(iters), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        },
        "per_layer": per_layer,
    }
    if "train" in reference:
        loss, accuracy = final_train_row(reference["train"][1])
        report["final_loss"] = loss
        if wl.spec.min_final_accuracy is not None:
            report["final_accuracy"] = accuracy
    if res["trace"]:
        report["trace_file"] = res["trace"]["trace_file"]
        report["spans"] = res["trace"]["spans"]
    return report


def print_report(name: str, report: dict, trace: int) -> None:
    e2e = report["end_to_end"]
    iters = report["iterations_s"]
    print(f"workload {name}: {len(iters)} iterations, "
          + ", ".join(f"{t:.3f}s" for t in iters))
    print("record " + json.dumps(report["record"], sort_keys=True))
    print(f"{report['throughput']} {e2e['clips_per_s']['value']:.4f} 1/s (median of {len(iters)})")
    print(f"setup_s {e2e['setup_s']['value']:.4f} s (median of "
          + ", ".join(f"{t:.3f}" for t in report["setup_runs_s"]) + ")")
    print(f"peak_rss_mb {e2e['peak_rss_mb']['value']:.1f} MB")
    if "final_loss" in report:
        print(f"final_loss {report['final_loss']:.6f} nats")
    if "final_accuracy" in report:
        print(f"final_accuracy {report['final_accuracy']:.4f} fraction")
    share = report["failed"] / report["attempted"]
    print(f"failed_share {share:g} fraction ({report['failed']}/{report['attempted']} operations)")
    for p in report["problems"]:
        print(f"problem: {p}")
    if trace:
        print(f"trace: {report['spans']} spans written to {report['trace_file']}")
    metrics = report["per_layer"] if trace else e2e
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lw3d" / "__init__.py").is_file():
        print(f"perfbench: no lw3d source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(args.workload, report, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
