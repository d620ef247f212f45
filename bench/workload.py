"""Run one workload in this (fresh) process and print its result as JSON.

Started by ``run.py`` from the root of a checkout; not meant to be called
by hand. The process pins its thread settings before numpy is imported,
imports spectop from the checkout's ``src``, builds the workload's inputs
(the set-up), then runs the battery in a closed loop: one pass after
another, each pass with freshly built inputs, until another pass would end
after ``--seconds``. Without tracing, the speed probe (``speed.py``) runs
between checks and every time reported is scaled by it. With
``--trace 1`` untraced and traced passes alternate (see ``run.py``) and no
time is scaled. Every pass's outputs go through the correctness gate.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys
import time

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, whatever nproc is. On a shared host a second BLAS thread
# makes every dense solve wait for whichever core another tenant is using:
# with one busy neighbour thread, second-eig ran twice as slow and its
# timings spread by 45-90% over five seeds, against 7-9% with one thread.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
os.environ["SPECTOP_WORKERS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)
OUT_DIR = ".bench_out"


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(config) -> str:
        return config.CONFIG["Build Dependencies"]["blas"].get("version", "?")

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.__config__),
        "scipy_openblas": blas(scipy.__config__),
        "nproc": NPROC,
        **{var: os.environ[var] for var in (*THREAD_VARS, "SPECTOP_WORKERS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import spectop

    if not os.path.abspath(spectop.__file__).startswith(SRC + os.sep):
        print(f"spectop imported from {spectop.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import batteries
    import gate
    import speed
    import tracing

    prepare, run, records = batteries.BATTERIES[args.workload]
    inputs = prepare(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = gate.reference_for(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    kernel = speed.KERNEL_OF[args.workload]
    probe = speed.Probe(kernel) if kernel and not args.trace else None
    walls, raw_walls, factors, cpus = [], [], [], []
    traced_walls, check_s, layer, failed = [], [], [], {}
    attempted = 0

    def one_pass(inputs, traced: bool):
        """Run the battery once on ``inputs``; return its wall time and
        outputs. An untraced pass also records its checks' times and the
        process CPU time and, with the probe, scales its times (see
        ``speed.py``). The probe's own runs are left out of every time."""
        timer = tracing.CheckTimer(tracer if traced else None, probe)
        if probe:
            lo = probe.count()
            probe.sample()
            spent = probe.spent
        c0, t0 = time.process_time(), perf_counter()
        out = run(inputs, args.seed, timer)
        wall = perf_counter() - t0
        if traced:
            return wall, out
        cpu = time.process_time() - c0
        factor, scaled = 1.0, timer.times
        if probe:
            wall -= probe.spent - spent
            cpu -= probe.spent - spent
            probe.sample()
            factor = probe.factor(lo)
            local = probe.local_factors(timer.starts, timer.times, lo)
            scaled = [t * f for t, f in zip(timer.times, local)]
        cpus.append(cpu)
        raw_walls.append(wall)
        factors.append(factor)
        check_s.extend(scaled)
        # Checks are scaled by the probe close to each; the rest of the pass
        # (building inputs between checks) by the pass's factor.
        return sum(scaled) + (wall - sum(timer.times)) * factor, out

    def gate_pass(out) -> None:
        nonlocal attempted
        recs = records(out)
        attempted += len(recs)
        npass = len(walls) + len(traced_walls)
        for cid, why in gate.failures(args.workload, recs, reference).items():
            failed[f"pass{npass}:{cid}"] = why

    def untraced_pass() -> None:
        wall, out = one_pass(prepare(args.seed) if walls else inputs, False)
        walls.append(wall)
        gate_pass(out)

    def traced_pass() -> None:
        tracer.install([batteries])
        lo = len(tracer.spans)
        wall, out = one_pass(prepare(args.seed), True)
        tracer.uninstall()
        traced_walls.append(wall)
        gate_pass(out)
        layer.append(tracing.layer_metrics(tracer.spans, lo))
        layer[-1]["cli.bytes_written"] = (
            batteries.bytes_written(out["out_dir"]) if args.workload == "second-eig" else 0
        )

    # With --trace 1 each untraced pass is paired with a traced one, in
    # alternating order, so that both passes of a pair see the same machine
    # state and a steady drift cancels over the pairs.
    t_begin = perf_counter()
    while True:
        t_last = perf_counter()
        traced_first = tracer is not None and len(walls) % 2 == 1
        if traced_first:
            traced_pass()
        untraced_pass()
        if tracer is not None and not traced_first:
            traced_pass()
        now = perf_counter()
        if now - t_begin + (now - t_last) > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "walls": walls,
        "raw_walls": raw_walls,
        "factors": factors,
        "cpus": cpus,
        "check_ms": [t * 1e3 for t in check_s],
        "attempted": attempted,
        "failed": len(failed),
        "failures": dict(list(failed.items())[:20]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        result["traced_walls"] = traced_walls
        result["layers"] = tracing.median_metrics(layer)
        result["spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
