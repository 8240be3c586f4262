"""One workload process: a fresh interpreter that imports robustnv and serves requests.

Started by ``run.py``; not meant to be run by hand.  The process imports
robustnv from the checkout's ``src``, runs one warm-up request of each kind,
and then, by ``--mode``:

* ``setup``  - stops there (one more set-up sample);
* ``timed``  - serves the first ``--groups`` groups of the seeded request
  stream as one closed-loop client;
* ``prefix`` - serves exactly the first ``--requests`` requests, untraced;
* ``traced`` - the same requests with spans installed (``tracing.py``).

Each request is timed on its own; its checks run after the clock stops.
The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings
from collections import Counter

import workloads
import yardstick

PACE_S = 0.1  # loop time between two yardstick calls


def _failure_class(exc: BaseException, rn) -> str:
    """The entry of ``workloads.FAILURE_CLASSES`` an exception counts under."""
    for cls, name in (
        (workloads.CheckFailed, "check_failed"),
        (workloads.OracleDisagreed, "oracle_rule_failed"),
        (rn.InternalCheckError, "internal_check_error"),
        (rn.InputError, "input_error"),
        (rn.DegenerateModelError, "degenerate_model_error"),
    ):
        if isinstance(exc, cls):
            return name
    return "other_exception"


def serve(workload, stream, *, limit=None, spans=None):
    """Closed loop with one client: the next request goes out when the last is done.

    Every ``PACE_S`` of loop time the yardstick is timed once; the
    requests between two yardstick calls form a chunk whose times are scaled
    by the host speed measured around it (see ``yardstick.py``).  Only the
    ``execute`` intervals count as request time, failed ones included; the
    checks and the input generator run outside them.
    """
    rn = workload.rn
    clock = time.perf_counter
    latencies: list[float] = []
    scale: list[float] = []  # per completed request: REFERENCE_S / local yardstick time
    failures: Counter = Counter()
    examples: dict[str, str] = {}
    attempted = 0
    busy = busy_raw = busy_adjusted = 0.0  # execute time: this chunk, all chunks
    speed = yardstick.measure()
    begin = chunk_start = clock()
    chunk_first = 0
    yardstick_s = 0.0

    def close_chunk():
        nonlocal speed, busy, busy_raw, busy_adjusted, chunk_start, chunk_first, yardstick_s
        ended = clock()
        after = yardstick.measure()
        factor = yardstick.REFERENCE_S / (0.5 * (speed + after))
        busy_raw += busy
        busy_adjusted += busy * factor
        scale.extend([factor] * (len(latencies) - chunk_first))
        busy, speed, chunk_start, chunk_first = 0.0, after, clock(), len(latencies)
        yardstick_s += chunk_start - ended

    for req in stream:
        if limit is not None and attempted >= limit:
            break
        attempted += 1
        t0 = clock()
        try:
            try:
                if spans is None:
                    out = workload.execute(req)
                else:
                    out = spans.call_request(attempted - 1, workload.execute, req)
            finally:
                t1 = clock()
                busy += t1 - t0
            workload.check(req, out)
            latencies.append(t1 - t0)
        except (Exception, SystemExit) as exc:  # a failed request, counted by class
            name = _failure_class(exc, rn)
            failures[name] += 1
            examples.setdefault(name, f"{req['kind']}: {type(exc).__name__}: {exc}"[:300])
        if clock() - chunk_start >= PACE_S:
            close_chunk()
    close_chunk()
    elapsed = clock() - begin
    return {
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "examples": examples,
        "elapsed_s": elapsed,
        "busy_s": busy_raw,
        "busy_adjusted_s": busy_adjusted,
        # share of the loop's time (yardstick excluded) spent outside execute:
        # input generation and the benchmark's own checks
        "outside_share": 1.0 - busy_raw / (elapsed - yardstick_s),
        "latencies_ms": [1e3 * x for x in latencies],
        "latencies_adjusted_ms": [1e3 * x * f for x, f in zip(latencies, scale)],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "prefix", "traced"), required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True, help="parent's monotonic clock at spawn")
    ap.add_argument("--groups", type=int, default=0)
    ap.add_argument("--requests", type=int, default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import robustnv
    import robustnv.cli

    imported = time.monotonic_ns()
    here = os.path.realpath(os.path.dirname(robustnv.__file__))
    if here != os.path.realpath(os.path.join(args.src, "robustnv")):
        print(f"robustnv imported from {here}, not from {args.src}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    # warnings carry per-call numbers, so the default filter would print
    # every one; the benchmark measures the solves, not stderr traffic
    warnings.simplefilter("ignore")
    workload = workloads.WORKLOADS[args.workload](robustnv, args.seed, args.workdir)
    for req in workload.warmup():
        try:
            workload.check(req, workload.execute(req))
        except (Exception, SystemExit):
            pass  # warm-up results are not scored
    ready = time.monotonic_ns()
    speed = sorted(yardstick.measure() for _ in range(3))[1]

    result = {
        "import_s": (imported - args.spawned_ns) / 1e9,
        "warmup_s": (ready - imported) / 1e9,
        "setup_s": (ready - args.spawned_ns) / 1e9,
        "setup_adjusted_s": (ready - args.spawned_ns) / 1e9 * yardstick.REFERENCE_S / speed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "robustnv": robustnv.__version__,
        },
    }
    if args.mode == "timed":
        result.update(serve(workload, workload.requests(args.groups)))
    elif args.mode == "prefix":
        result.update(serve(workload, workload.requests(), limit=args.requests))
    elif args.mode == "traced":
        import tracing

        spans = tracing.Spans()
        spans.install(robustnv)
        result.update(serve(workload, workload.requests(), limit=args.requests, spans=spans))
        result["layers"] = spans.layer_metrics()
        spans.save(args.spans_out)
        result["spans"], result["spans_out"] = len(spans.start), args.spans_out
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
