"""The four acceptance batteries the benchmark replays.

Each battery is three steps:

* ``prepare(seed)`` builds the workload's fixed inputs (its graphs). It is
  the workload's set-up and is timed as ``setup_s``.
* ``run(inputs, seed, timer)`` is the timed closed loop: one check after
  another, each bracketed by ``timer.start`` / ``timer.stop``.
* ``records(outputs)`` runs after timing and turns the outputs into flat
  records ``{"id": ..., field: value}`` for the correctness gate.

The workload seed ``seed`` defaults to 0, which reproduces the acceptance
battery in ``tests/test_acceptance.py``. Any other seed moves the battery's
own random streams (net priorities, label seeds, the sweep seed) to streams
disjoint from the default ones; local-global, which draws nothing at random,
instead relabels the vertices of every corpus graph. The graphs and the
amount of work stay the same, so that the seed changes the inputs without
changing what is measured. The corpus is listed here rather than imported
from the tests, so that a test edit cannot move the workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from typing import Any

from spectop import (
    FamilySpec,
    LocalLabels,
    WeightedGraph,
    build_graph,
    generate,
    greedy_tree_net,
    local_global_check,
    local_net,
    net_removal_drop_check,
    random_expander_net,
)
from spectop import cli
from spectop.rng import rng_for, trial_seed

# The 12 graphs of the acceptance corpus (tests/conftest.py).
CORPUS = (
    FamilySpec("cycle", n=40),
    FamilySpec("cycle", n=100),
    FamilySpec("cycle", n=400),
    FamilySpec("torus-grid", dims=(5, 4)),
    FamilySpec("torus-grid", dims=(8, 5)),
    FamilySpec("torus-grid", dims=(10, 8)),
    FamilySpec("random-regular", n=60, d=4, seed=101),
    FamilySpec("random-regular", n=150, d=4, seed=102),
    FamilySpec("random-regular", n=300, d=4, seed=103),
    FamilySpec("random-regular", n=50, d=6, seed=104),
    FamilySpec("random-regular", n=120, d=6, seed=105),
    FamilySpec("random-regular", n=400, d=6, seed=106),
)

RAD_DROP_ROUNDS = 7
RAD_DROP_RADII = (1, 2, 3)
RAD_DROP_METHODS = ("greedy-tree", "expander-random")
EXPANDER_P = 0.3

LOCAL_GLOBAL_RADII = (1, 2, 3, 4)

# Criterion 06 parts (iii) and (iv): tuned (p, R) per net radius r.
LOCAL_NET_TUNED = {2: (0.15, 40), 3: (0.05, 100), 4: (0.03, 150)}
LOCAL_NET_LABEL_SEEDS = 100
LOCAL_NET_N = 1000

SECOND_EIG_SIZES = (256, 512, 1024, 2048, 4096)


def corpus():
    return [generate(s) for s in CORPUS]


def relabeled(g: WeightedGraph, seed: int) -> WeightedGraph:
    """``g`` with its vertices renamed by a random permutation (none at seed 0)."""
    if seed == 0:
        return g
    perm = rng_for(trial_seed(2000 + seed, g.n)).permutation(g.n)
    return build_graph(g.n, [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges()])


def digest(ids) -> str:
    """Short exact fingerprint of a vertex set."""
    return hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()[:16]


def check(out: list, timer, cid: str, fn) -> None:
    """Run and time one check; append ``(cid, result)``, or ``(cid, exception)``
    when it raises, which the gate counts as a failed check."""
    h = timer.start(cid)
    try:
        out.append((cid, fn()))
    except Exception as exc:
        out.append((cid, exc))
    finally:
        timer.stop(h)


def records(outputs, fields) -> list[dict]:
    """One gate record per check: ``fields(result)``, or the exception raised."""
    return [
        {"id": cid, "error": repr(res)} if isinstance(res, Exception) else {"id": cid, **fields(res)}
        for cid, res in outputs
    ]


class _Untimed:
    def start(self, cid):
        return None

    def stop(self, h):
        pass


# -- rad-drop (criterion 01) -------------------------------------------------


def rad_drop_prepare(seed: int):
    return corpus()


def _drop_check(g, r: int, method: str, ts: int):
    if method == "greedy-tree":
        net = greedy_tree_net(g, r, priority=rng_for(ts).random(g.n))
    else:
        net = random_expander_net(g, r, EXPANDER_P, ts)
    return net, net_removal_drop_check(g, net, r)


def rad_drop_run(graphs, seed: int, timer) -> list:
    out = []
    for rnd in range(RAD_DROP_ROUNDS):
        master = 1000 + RAD_DROP_ROUNDS * seed + rnd
        for gi, g in enumerate(graphs):
            for r in RAD_DROP_RADII:
                ts = trial_seed(master, gi * 3 + r)
                for method in RAD_DROP_METHODS:
                    check(out, timer, f"{rnd}/{gi}/{r}/{method}",
                          lambda: _drop_check(g, r, method, ts))
    return out


def _drop_fields(res) -> dict:
    net, rep = res
    return {
        "net_size": len(net.vertices),
        "net_digest": digest(net.vertices.ids),
        "verified": bool(net.verified),
        "ok": bool(rep.ok),
        "lam1_g": rep.lam1_g,
        "lam1_h": rep.lam1_h,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
    }


def rad_drop_records(outputs) -> list[dict]:
    return records(outputs, _drop_fields)


# -- local-global (criterion 02) ---------------------------------------------


def local_global_prepare(seed: int):
    return [relabeled(g, seed) for g in corpus()], generate(FamilySpec("cycle", n=4))


def local_global_run(inputs, seed: int, timer) -> list:
    graphs, c4 = inputs
    out = []
    for gi, g in enumerate(graphs):
        for r in LOCAL_GLOBAL_RADII:
            check(out, timer, f"{gi}/{r}", lambda: local_global_check(g, r))
    # The C4 equality witness is gated but not one of the 48 timed checks.
    check(out, _Untimed(), "c4", lambda: local_global_check(c4, 1))
    return out


def local_global_records(outputs) -> list[dict]:
    return records(outputs, lambda rep: {"ok": bool(rep.ok), "lhs": rep.lhs, "rhs": rep.rhs})


# -- local-net (criterion 06 iii + iv) ---------------------------------------


def local_net_prepare(seed: int):
    return (
        generate(FamilySpec("cycle", n=LOCAL_NET_N)),
        generate(FamilySpec("random-regular", n=LOCAL_NET_N, d=4, seed=64)),
    )


def local_net_run(graphs, seed: int, timer) -> list:
    out = []
    for gi, g in enumerate(graphs):
        for r, (p, big_r) in LOCAL_NET_TUNED.items():
            for s in range(LOCAL_NET_LABEL_SEEDS):
                check(out, timer, f"{gi}/{r}/{s}", lambda: local_net(
                    g, LocalLabels.from_seed(g.n, trial_seed(6400 + seed, s)), p, big_r, r))
    return out


def _net_fields(run) -> dict:
    return {
        "verified": bool(run.net.verified),
        "net_size": len(run.net.vertices),
        "net_digest": digest(run.net.vertices.ids),
        "captains": len(run.cells.captains),
        "density": run.net.density,
    }


def local_net_records(outputs) -> list[dict]:
    return records(outputs, _net_fields)


# -- second-eig (criterion 11, through `spectop sweep`) ----------------------


SWEEP_DIR = os.path.join(".bench_out", "second-eig-sweep")


def second_eig_prepare(seed: int):
    return SWEEP_DIR


def second_eig_run(out_dir: str, seed: int, timer) -> dict:
    """One `spectop sweep` over the criterion 11 grid; a check is one row.

    Rows are timed by wrapping ``cli.run_trials``, through which the sweep
    evaluates its rows one after another. The output directory is emptied
    first, so that the gate never reads a file left by an earlier pass.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cfg = {
        "suite": "second-eig",
        "seed": 17 + seed,
        "families": [{"family": "cycle"}, {"family": "random-regular", "d": 4}],
        "grid": {"n": list(SECOND_EIG_SIZES)},
        "out_dir": out_dir,
    }
    cfg_path = os.path.join(out_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)

    inner = cli.run_trials

    def timed_run_trials(fn, trials, workers):
        def row(t):
            h = timer.start(f"row{t}")
            try:
                return fn(t)
            finally:
                timer.stop(h)
        return inner(row, trials, workers)

    cli.run_trials = timed_run_trials
    try:
        code = cli.main(["sweep", "--config", cfg_path])
    except Exception as exc:  # the gate counts a sweep that raised as failed
        code = repr(exc)
    finally:
        cli.run_trials = inner
    return {"exit_code": code, "out_dir": out_dir}


def _cell(text: str) -> Any:
    if text in ("true", "false"):
        return text == "true"
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def second_eig_records(outputs) -> list[dict]:
    """One record per CSV row, columns looked up by name, plus one record
    for the sweep as a whole (exit code, row count, violations file)."""
    out_dir = outputs["out_dir"]
    csv_path = os.path.join(out_dir, "second-eig.csv")
    rows = []
    if os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    recs = [{
        "id": "sweep",
        "exit_code": outputs["exit_code"],
        "rows": len(rows),
        "violations_file": os.path.exists(csv_path + ".violations.json"),
    }]
    for row in rows:
        recs.append({"id": f"{row.get('family')}/{row.get('n')}", **row})
    return recs


def bytes_written(out_dir: str) -> int:
    """Total size of the files the sweep wrote (its CSV and manifest)."""
    return sum(
        os.path.getsize(os.path.join(out_dir, f))
        for f in os.listdir(out_dir)
        if f != "config.json"
    )


BATTERIES = {
    "rad-drop": (rad_drop_prepare, rad_drop_run, rad_drop_records),
    "local-global": (local_global_prepare, local_global_run, local_global_records),
    "local-net": (local_net_prepare, local_net_run, local_net_records),
    "second-eig": (second_eig_prepare, second_eig_run, second_eig_records),
}
