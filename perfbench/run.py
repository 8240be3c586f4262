"""robustnv benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; robustnv is imported from its ``src``.
Workloads (see DESIGN.md): ``catalog``, ``calibrate``, ``certify``.

``--trace 0`` measures the end-to-end metrics: three fresh single-threaded
interpreters each time set-up (``setup_s`` is their median) and the last one
then serves a fixed amount of the seeded request stream as one closed-loop
client: as many stratification groups as the workload serves in about
``--seconds`` on the host it was written on (see ``WORK``).  The work does not
depend on how fast the host runs, so one seed always attempts the same
requests and fails the same ones.  ``--trace 1`` measures the per-layer
metrics instead: a fixed prefix of the same stream is served once untraced
and once with spans (the ratio of their rates is the tracing overhead), and
the spans are written to ``.perfbench_out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.stats.mstats import hdquantiles

import inputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
# per workload: groups served per second of --seconds, and the fewest groups
# (certify's 13 groups hold 117 requests, so that p90 has about ten beyond it)
WORK = {"catalog": (5.0, 1), "calibrate": (0.14, 1), "certify": (0.35, 13)}
TRACE_REQUESTS = {"catalog": 2000, "calibrate": 33, "certify": 9}
BUDGET_S = 170.0  # the whole run, all worker processes included
OUT_DIR = ".perfbench_out"


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def spawn(mode: str, args, workdir: str, deadline: float, **extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--src", os.path.abspath("src"),
           "--workdir", workdir]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget spent before a worker could start")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of the
    order statistics, steadier than a single order statistic when a
    workload's latencies come in clusters and only ~110 are sampled."""
    return float(hdquantiles(np.asarray(values, dtype=float), prob=[q])[0])


def describe_failures(res: dict) -> str:
    parts = [f"{k} {v}" for k, v in sorted(res["failures"].items())]
    return ", ".join(parts) if parts else "none"


def end_to_end(args, workdir: str, deadline: float):
    setups = [spawn("setup", args, workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
    rate, least = WORK[args.workload]
    groups = max(least, round(args.seconds * rate))
    res = spawn("timed", args, workdir, deadline, groups=groups)
    setups.append(res)
    lat, raw = res["latencies_adjusted_ms"], res["latencies_ms"]
    done = len(lat)
    p50, p90 = percentile(lat, 0.5), percentile(lat, 0.9)
    lines = [
        ("setup_s", statistics.median(s["setup_adjusted_s"] for s in setups), "s",
         f"median of {len(setups)} fresh interpreters; raw "
         + ", ".join(f"{s['setup_s']:.4f}" for s in setups)),
        ("requests_per_s", done / res["busy_adjusted_s"], "1/s",
         f"{done} completed of {res['attempted']} attempted ({groups} groups) "
         f"in {res['elapsed_s']:.3f} s, "
         f"1 closed-loop client; raw {done / res['busy_s']:.6g}; "
         f"{res['outside_share']:.3f} of the loop spent outside requests"),
        ("latency_p50_ms", p50, "ms", f"n={done}; raw {percentile(raw, 0.5):.6g}"),
        ("latency_p90_ms", p90, "ms",
         f"n={done}, {sum(x > p90 for x in lat)} beyond; raw {percentile(raw, 0.9):.6g}"),
        ("failed_share", res["failed"] / res["attempted"], "share",
         f"{res['failed']} of {res['attempted']} attempted: " + describe_failures(res)),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines
               if name != "failed_share"}
    return res, lines, metrics


def per_layer(args, workdir: str, deadline: float):
    n = TRACE_REQUESTS[args.workload]
    setups = [spawn("setup", args, workdir, deadline)]
    plain = spawn("prefix", args, workdir, deadline, requests=n)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    res = spawn("traced", args, workdir, deadline, requests=n, spans_out=spans_path)
    setups += [plain, res]
    traced_rate = res["attempted"] / res["busy_adjusted_s"]
    plain_rate = plain["attempted"] / plain["busy_adjusted_s"]
    values = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "setup.warmup_s": (statistics.median(s["warmup_s"] for s in setups), "s"),
        "trace.requests_per_s": (traced_rate, "1/s"),
        "trace.untraced_requests_per_s": (plain_rate, "1/s"),
        "trace.rate_ratio": (traced_rate / plain_rate, "share"),
        "failed_share": (res["failed"] / res["attempted"], "share"),
    }
    for name in workloads.FAILURE_CLASSES:
        values[f"failures.{name}"] = (res["failures"].get(name, 0), "count")
    values.update((name, tuple(pair)) for name, pair in res["layers"].items())
    lines = [(name, value, unit, "") for name, (value, unit) in values.items()]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return res, lines, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("catalog", "calibrate", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "robustnv", "__init__.py")):
        print("run.py: no src/robustnv here; run from the root of a robustnv checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        if args.workload == "calibrate":
            for i, pair in enumerate(inputs.demand_pool(args.seed)):
                for which in ("train", "test"):
                    with open(os.path.join(workdir, f"pair{i:02d}-{which}.csv"), "w",
                              encoding="utf-8", newline="") as fh:
                        fh.write(inputs.demand_csv(pair[which]))
        measure = per_layer if args.trace else end_to_end
        res, lines, metrics = measure(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {**machine(), **res["versions"]}
    print(f"# robustnv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, value, unit, note in lines:
        print(f"{name:48s} {value:>14.6g} {unit:6s} {note}")
    if "spans" in res:
        print(f"# {res['spans']} spans written to {res['spans_out']}")
    for name, example in sorted(res["examples"].items()):
        print(f"# first {name}: {example}")
    result = {
        "correct": res["failures"].get("check_failed", 0) == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
