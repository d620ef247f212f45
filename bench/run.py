"""spectop benchmark: the acceptance batteries 01, 02, 06 and 11, end to end.

Usage, from the root of a checkout::

    python3 bench/run.py --workload rad-drop [--seed 0] [--seconds 20] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with nothing traced. Every
time it reports is scaled to a reference machine speed by the speed probe
run between checks (see ``speed.py``).
``--trace 1`` reports the per-layer metrics instead: one fresh process
alternates untraced passes with passes that have every public spectop
function wrapped (see ``tracing.py``); ``trace.overhead_s`` is the median
over the pairs of traced minus untraced pass time, so that both sides of
each pair see the same machine state. Every run checks every output
(``gate.py``). The metrics are printed by name with their units; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the full result (every
pass, the environment, the first failures) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("rad-drop", "local-global", "local-net", "second-eig")
SETUP_SAMPLES = 2  # set-up-only processes per run, besides the workload's own
TAIL_BEYOND = 10  # the tail percentile leaves this many checks per pass beyond it
TIME_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spectral.self_s": "s",
    "spectral.lambda1.calls": "count",
    "spectral.lambda1.order_sum": "count",
    "spectral.eigenvalues.calls": "count",
    "spectral.eigenvalues.order_sum": "count",
    "spectral.ball_solves_per_ball": "ratio",
    "graphs.self_s": "s",
    "graphs.distances.calls": "count",
    "graphs.induced_subgraph.calls": "count",
    "graphs.induced_subgraph.order_sum": "count",
    "graphs.dense.calls": "count",
    "rng.self_s": "s",
    "rng.keyed_uniforms.keys": "count",
    "nets.self_s": "s",
    "nets.greedy_tree_net.calls": "count",
    "nets.net_removal_drop_check.calls": "count",
    "localsim.self_s": "s",
    "localsim.voronoi_assign.calls": "count",
    "families.self_s": "s",
    "families.generate.order_sum": "count",
    "bounds.self_s": "s",
    "bounds.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class ChildError(RuntimeError):
    pass


def child(deadline: float, workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run ``workload.py`` in a fresh process; return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--spawned-at", repr(time.monotonic()), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} did not finish within the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(check_ms: list[float], passes: int) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND checks of one pass
    beyond it, pooled over passes; the slowest check when a pass has no more
    than TAIL_BEYOND checks. Returns (value, percentile)."""
    xs = sorted(check_ms)
    beyond = TAIL_BEYOND * passes
    if len(xs) <= beyond:
        return xs[-1], 100.0
    k = len(xs) - beyond
    return xs[k - 1], 100.0 * k / len(xs)


def end_to_end(args, deadline) -> tuple[dict, dict, list[dict]]:
    setup_runs = [child(deadline, args.workload, args.seed, 0, "--setup-only")
                  for _ in range(SETUP_SAMPLES)]
    res = child(deadline, args.workload, args.seed, args.seconds)
    # Set-up is too short to carry its own probe samples; it is scaled by
    # the median factor of the run, whose passes follow it within seconds.
    factor = statistics.median(res["factors"])
    raw_setups = [s["setup_s"] for s in [*setup_runs, res]]
    setups = [t * factor for t in raw_setups]
    passes = len(res["walls"])
    tail_ms, tail_pct = tail(res["check_ms"], passes)
    metrics = {
        "wall_s": statistics.median(res["walls"]),
        "check_p50_ms": statistics.median(res["check_ms"]),
        "check_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "walls": res["walls"],
        "raw_walls": res["raw_walls"],
        "speed_factors": res["factors"],
        "cpus": res["cpus"],
        "check_samples": len(res["check_ms"]),
        "check_tail_percentile": tail_pct,
        "setup_samples": setups,
        "raw_setup_samples": raw_setups,
    }
    return metrics, notes, [res]


def traced(args, deadline) -> tuple[dict, dict, list[dict]]:
    res = child(deadline, args.workload, args.seed, args.seconds, "--trace", "1")
    metrics = dict(res["layers"])
    metrics["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(res["walls"], res["traced_walls"]))
    notes = {"untraced_walls": res["walls"], "traced_walls": res["traced_walls"],
             "spans": res["spans"]}
    return {k: metrics[k] for k in PER_LAYER}, notes, [res]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 reproduces the acceptance battery's seeds")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure for about this long (at least one full pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "spectop", "__init__.py")):
        print(f"no spectop source under {ROOT}/src: run from a spectop checkout",
              file=sys.stderr)
        return 2
    try:
        measure = traced if args.trace else end_to_end
        metrics, notes, results = measure(args, deadline)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} outputs checked, {failed} failed")
    for r in results:
        for cid, why in r["failures"].items():
            print(f"  FAILED {cid}: {why}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")

    os.makedirs(OUT_DIR, exist_ok=True)
    full = {"args": vars(args), "metrics": metrics, "notes": notes,
            "failed_frac": failed / attempted, "env": results[-1]["env"],
            "failures": [r["failures"] for r in results]}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
