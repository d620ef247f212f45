"""Command-line front end.

Subcommands::

    spectop gen        write a graph from a named family to a file
    spectop spectrum   full spectrum as CSV, optional interval query
    spectop net        build an r-net (greedy-tree or expander-random)
    spectop local-net  run the local simulation and dump its transcript
    spectop verify     rad-drop | local-global | interlace | finite-param | thm
    spectop walks      tree | finite | fit | roundtrip
    spectop sweep      run a config-driven suite over a parameter grid

The check suites live in one table, ``SUITES``: each names its parameters,
its CSV header and a trial function. ``verify`` runs a suite on one family;
``sweep`` runs it over every family of a config, with the parameters read
from the config grid.

Exit codes: 0 all checks passed, 1 an inequality was violated (the violating
instance is serialized for replay), 2 usage or input error.

Every file output gets a sibling ``<path>.manifest.json`` recording the
sha256 of the canonical invocation config, the master seed, and library
versions, so outputs can be tied back to the exact run that made them.
Numbers are written with 17 significant digits and a ``.`` decimal point
regardless of locale; reruns with the same config and seed are
byte-identical, including under ``SPECTOP_WORKERS`` parallelism, because
every trial draws from its own ``(master seed, trial index)`` stream and
rows are aggregated in trial order.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np
import scipy

from . import __version__
from .bounds import (
    InterlacingReport,
    finite_param_check,
    interlacing_check,
    select_r_s,
    thm_checker,
)
from .families import FAMILIES, FamilySpec, generate
from .graphs import (
    GraphError,
    VertexSet,
    WeightedGraph,
    read_graph,
    write_graph,
)
from .localsim import LocalLabels, local_net, theory_params
from .nets import DropReport, greedy_tree_net, net_removal_drop_check, random_expander_net
from .rng import rng_for, trial_seed
from .spectral import (
    DEFAULT_SOLVER_CAP,
    InertiaCounts,
    LocalGlobalReport,
    count_at_most,
    count_below,
    eigenvalues,
    local_global_check,
)
from .walks import (
    DEFAULT_THETA_GRID,
    adjacency_moments,
    decay_fit,
    return_decay_roundtrip,
    return_probs_finite,
    tree_return_probs,
)

WORKERS_ENV = "SPECTOP_WORKERS"


# ---------------------------------------------------------------------------
# formatting, manifests, trial plumbing


def fmt(v: Any) -> str:
    """Locale-independent cell formatting; floats get 17 significant digits."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "spectop": __version__,
    }


def write_manifest(out_path: str, config: dict, seed: int | None) -> None:
    manifest = {
        "config_sha256": config_hash(config),
        "seed": seed,
        "versions": _versions(),
    }
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def invocation_config(args: argparse.Namespace) -> dict:
    # Worker count is runtime plumbing, not config: parallelism must not
    # change any output byte, so it must not change the config hash either.
    skip = {"func", "workers"}
    out: dict = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def emit(text: str, path: str | None, config: dict, seed: int | None) -> None:
    """Write text to path plus its manifest, or to stdout when path is None."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    write_manifest(path, config, seed)


def n_workers(override: int | None = None) -> int:
    if override is not None:
        return max(1, override)
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise GraphError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    return 1


def run_trials(fn: Callable[[int], Any], trials: int, workers: int) -> list:
    """Evaluate fn(0..trials-1); results come back in trial order regardless
    of how many workers raced."""
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def violation(
    suite: str, family: dict, trial: int, seed: int | None, params: dict, row: dict
) -> dict:
    """A violated instance, with what it takes to replay it."""
    return {
        "suite": suite,
        "family": family,
        "trial": trial,
        "seed": seed,
        "params": params,
        "row": row,
    }


def report_violations(violations: list[dict], out_path: str | None) -> int:
    if not violations:
        return 0
    payload = json.dumps(violations, sort_keys=True, indent=2, default=fmt)
    if out_path is not None:
        with open(out_path + ".violations.json", "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    sys.stderr.write(payload + "\n")
    sys.stderr.write(f"FAIL: {len(violations)} violated instance(s) serialized for replay\n")
    return 1


def emit_record(
    args: argparse.Namespace, suite: str, text: str, ok: bool,
    family: dict, seed: int | None, params: dict,
) -> int:
    """Emit a single-instance JSON record to --out; a failed one is also
    reported as a violation."""
    emit(text, args.out, invocation_config(args), seed)
    if ok:
        return 0
    return report_violations(
        [violation(suite, family, 0, seed, params, json.loads(text))], args.out
    )


# ---------------------------------------------------------------------------
# family / graph resolution


def _parse_dims(text: str) -> tuple[int, int]:
    for sep in ("x", ","):
        if sep in text:
            parts = text.split(sep)
            if len(parts) == 2:
                return (int(parts[0]), int(parts[1]))
    raise argparse.ArgumentTypeError(f"expected AxB or A,B, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    if not hi:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return (int(lo), int(hi))


def _parse_interval(text: str) -> tuple[float, float]:
    a, _, b = text.partition(":")
    if not b:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}")
    ends = (float(a), float(b))
    if any(map(math.isnan, ends)):
        raise argparse.ArgumentTypeError(f"an interval end is NaN: {text!r}")
    return ends


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part)


# Each sweep ``families`` entry key with the argparse keywords of its flag,
# ``--<dest>``; a sweep converts an entry's values with them.
FAMILY_FLAGS = {
    "family": {"choices": FAMILIES, "help": "named graph family"},
    "n": {"type": int, "help": "vertex count (path, cycle, complete, random-regular)"},
    "d": {"type": int, "help": "degree or dimension, family dependent"},
    "depth": {"type": int, "help": "radius for tree-ball"},
    "dims": {"type": _parse_dims, "help": "torus-grid side lengths, AxB"},
    "seed": {"dest": "family_seed", "type": int,
             "help": "pin the random-regular seed; default derives it from the run seed"},
}


def add_graph_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--graph", help="path to a graph file (overrides family flags)")
    for key, kw in FAMILY_FLAGS.items():
        sp.add_argument("--" + kw.get("dest", key).replace("_", "-"), **kw)


def family_of(args: argparse.Namespace) -> dict:
    """The graph flags as a sweep ``families`` entry (``{"graph": path}`` for
    a file); --family-seed becomes the entry's pinned "seed"."""
    if args.graph:
        return {"graph": args.graph}
    if args.family is None:
        raise GraphError("either --graph or --family is required")
    fam = {}
    for key, kw in FAMILY_FLAGS.items():
        value = getattr(args, kw.get("dest", key))
        if value is not None:
            fam[key] = list(value) if isinstance(value, tuple) else value
    return fam


def spec_from_dict(fam: dict, seed: int) -> FamilySpec:
    """The FamilySpec of a families entry; an entry without "seed" takes ``seed``."""
    if "family" not in fam:
        raise GraphError(f"a family is required, got {fam}")
    dims = fam.get("dims")
    return FamilySpec(
        family=fam["family"],
        n=fam.get("n"),
        d=fam.get("d"),
        depth=fam.get("depth"),
        dims=tuple(dims) if dims is not None else None,
        seed=fam.get("seed", seed),
    )


def graph_provider(fam: dict) -> Callable[[int], WeightedGraph]:
    """Map a trial seed to the graph of a families entry.

    Only a random-regular entry without a pinned "seed" draws a new graph
    from each trial seed; any other entry, and a ``{"graph": path}`` file, is
    built on first use and shared by every trial.
    """
    if fam.get("family") == "random-regular" and "seed" not in fam:
        return lambda seed: generate(spec_from_dict(fam, seed))

    @functools.cache
    def shared() -> WeightedGraph:
        if "graph" in fam:
            return read_graph(fam["graph"])
        return generate(spec_from_dict(fam, 0))

    return lambda seed: shared()


# ---------------------------------------------------------------------------
# gen / spectrum / net / local-net


def cmd_gen(args: argparse.Namespace) -> int:
    spec = spec_from_dict(family_of(args), args.seed)
    g = generate(spec)
    write_graph(g, args.out)
    write_manifest(args.out, invocation_config(args), args.seed)
    print(f"wrote {args.out}: {spec.describe()} n={g.n} m={g.m}")
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = graph_provider(family_of(args))(args.seed)
    spectrum = eigenvalues(g, cap=args.cap)
    config = invocation_config(args)
    rows = enumerate(spectrum.values)
    emit(csv_text(("index", "eigenvalue"), rows), args.out, config, args.seed)
    if args.interval is not None:
        a, b = args.interval
        # an open end leaves out eigenvalues within TOL_EIG of it, a closed one takes them in
        lo = (count_at_most if args.open_a else count_below)(spectrum, a)
        hi = (count_below if args.open_b else count_at_most)(spectrum, b)
        count = max(0, hi - lo)
        record = {"a": a, "b": b, "closed_a": not args.open_a, "closed_b": not args.open_b,
                  "count": count, "mu": count / spectrum.n if spectrum.n else None}
        text = json.dumps(record, sort_keys=True)
        emit(text, args.query_out, config, args.seed)
    return 0


def _build_net(g: WeightedGraph, method: str, r: int, p: float | None, seed: int):
    if method == "greedy-tree":
        return greedy_tree_net(g, r)
    if method == "expander-random":
        if p is None:
            raise GraphError("expander-random needs --p")
        return random_expander_net(g, r, p, seed)
    raise GraphError(f"unknown net method {method!r}")


def cmd_net(args: argparse.Namespace) -> int:
    fam = family_of(args)
    net = _build_net(graph_provider(fam)(args.seed), args.method, args.r, args.p, args.seed)
    print(
        f"method={net.method} r={net.r} size={len(net.vertices)} "
        f"density={fmt(net.density)} verified={fmt(net.verified)}",
        file=sys.stderr,
    )
    params = {"method": args.method, "r": args.r, "p": args.p}
    return emit_record(args, "net", net.to_json(), net.verified, fam, args.seed, params)


def cmd_local_net(args: argparse.Namespace) -> int:
    fam = family_of(args)
    g = graph_provider(fam)(args.seed)
    if args.theory_params:
        tp = theory_params(g.delta, args.r)
        if not tp.practical:
            raise GraphError(
                f"theory parameters give R={tp.R}, too large to run; "
                "pass --p and --R explicitly"
            )
        p, big_r = tp.p, tp.R
    else:
        if args.p is None or args.R is None:
            raise GraphError("local-net needs --p and --R (or --theory-params)")
        p, big_r = args.p, args.R
    labels = LocalLabels.from_seed(g.n, args.seed)
    run = local_net(g, labels, p, big_r, args.r)
    params = {"p": p, "R": big_r, "r": args.r}
    return emit_record(
        args, "local-net", run.transcript_json(), run.net.verified, fam, args.seed, params
    )


# ---------------------------------------------------------------------------
# check suites: one table drives `verify` and `sweep`


def _rad_drop(g: WeightedGraph, seed: int, p: argparse.Namespace) -> list[dict]:
    methods = ["greedy-tree", "expander-random"] if p.method == "both" else [p.method]
    rows = []
    for method in methods:
        net = _build_net(g, method, p.r, p.p, seed)
        rep = net_removal_drop_check(g, net, p.r)
        rows.append({"seed": seed, "n": g.n, "method": method, **asdict(rep)})
    return rows


def _local_global(g: WeightedGraph, seed: int, p: argparse.Namespace) -> list[dict]:
    radii = range(1, p.r_max + 1) if p.r is None else [p.r]
    return [{"seed": seed, "n": g.n, **asdict(local_global_check(g, r))} for r in radii]


def _interlace(g: WeightedGraph, seed: int, p: argparse.Namespace) -> list[dict]:
    if p.u_size < 0:
        raise GraphError(f"--u-size must be >= 0, got {p.u_size}")
    size = min(p.u_size, g.n - 1)
    picks = rng_for(seed).choice(g.n, size=size, replace=False)
    u = VertexSet.of(picks.tolist(), g.n)
    modes = ["delete", "zero-rows-cols"] if p.mode == "both" else [p.mode]
    return [{"seed": seed, "n": g.n, **asdict(interlacing_check(g, u, m))} for m in modes]


def _pick_x(rule: str, x_flag: float | None, counts: InertiaCounts, w_min: float) -> float:
    if rule == "value":
        if x_flag is None:
            raise GraphError("--x-rule value needs --x")
        return x_flag
    if rule == "lambda2":
        if counts.n < 2:
            raise GraphError("lambda2 rule needs at least two eigenvalues")
        return max(counts.top(2), w_min)
    if rule == "half-lambda1":
        return max(counts.top(1) / 2.0, w_min)
    raise GraphError(f"unknown x rule {rule!r}")


def _finite_param(g: WeightedGraph, seed: int, p: argparse.Namespace) -> list[dict]:
    if p.auto_rs:
        sel = select_r_s(p.theta, g.delta_tilde)
        if not sel.ok:
            raise GraphError(f"schedule inadmissible: {sel.reason}")
        r, s = sel.r, sel.s
    else:
        if p.r is None or p.s is None:
            raise GraphError("finite-param needs --r and --s (or --auto-rs)")
        r, s = p.r, p.s
    counts = InertiaCounts(g)
    x = _pick_x(p.x_rule, p.x, counts, g.w_min)
    net = _build_net(g, p.method, r, p.p, seed)
    rep = finite_param_check(g, x, p.theta, r, s, net, spectrum=counts)
    terms = {"term_" + k: v for k, v in rep.terms.items()}
    return [{"seed": seed, "n": g.n, "x": x, "theta": p.theta, "r": r, "s": s,
             "net_size": len(net.vertices), "lhs": rep.lhs, "rhs": rep.rhs, **terms,
             "ok": rep.ok}]


# The second-eig preset theta = 10 / log_{delta_tilde} n exceeds 1 on small or
# high-degree instances; the window bound is only stated for theta < 1, so the
# accompanying check runs at this cap instead when that happens.
EN_ROUTE_THETA_CAP = 0.9


def en_route_finite_param(
    g: WeightedGraph, counts: InertiaCounts, x: float, theta: float
) -> tuple[float, int, int, Any]:
    """Window-bound check at the same x the theorem instance used.

    theta is clamped into the bound's domain, (r, s) come from the schedule
    when it is admissible and fall back to (1, floor(1/theta)) otherwise, and
    the net is the greedy tree net.
    """
    theta_fp = theta if theta < 1.0 else EN_ROUTE_THETA_CAP
    sel = select_r_s(theta_fp, g.delta_tilde)
    if sel.ok:
        r, s = sel.r, sel.s
    else:
        r, s = 1, max(1, int(1.0 / theta_fp))
    net = greedy_tree_net(g, r)
    rep = finite_param_check(g, max(x, g.w_min), theta_fp, r, s, net, spectrum=counts)
    return theta_fp, r, s, rep


def _second_eig(g: WeightedGraph, seed: int, p: argparse.Namespace) -> list[dict]:
    counts = InertiaCounts(g)
    rep = thm_checker(g, "second-eig", spectrum=counts)
    x, theta = rep.params["x"], rep.params["theta"]
    theta_fp, r, s, fp = en_route_finite_param(g, counts, x, theta)
    return [{"n": g.n, "seed": seed, "delta_tilde": g.delta_tilde, "x": x, "theta": theta,
             "lhs": rep.lhs, "rhs": rep.rhs, "rate": rep.rate,
             "implied_constant": rep.implied_constant, "ok": rep.ok, "fp_theta": theta_fp,
             "fp_r": r, "fp_s": s, "fp_lhs": fp.lhs, "fp_rhs": fp.rhs, "fp_ok": fp.ok}]


@dataclass(frozen=True)
class Suite:
    """A check suite, run by ``verify <name>`` and by ``sweep``.

    ``params`` maps each parameter to the argparse keywords of its verify
    flag (``r_max`` is ``--r-max``); the names are also the sweep grid keys.
    ``trial(g, seed, p)`` runs one trial on one graph and returns one dict
    per row, mapping each name in ``header`` to its cell. A row fails when
    its ``ok`` or any ``*_ok`` cell is false. A suite with ``trials`` gets a
    leading ``trial`` column; a sweep puts ``family`` in front of
    everything. A suite with ``lhs`` and ``rhs`` columns accepts a
    tolerance, which can only tighten its ``ok``.
    """

    params: dict[str, dict]
    header: tuple[str, ...]
    trial: Callable[[WeightedGraph, int, argparse.Namespace], list[dict]]


TRIALS = {"type": int, "default": 1}
NET_METHODS = ["greedy-tree", "expander-random"]

SUITES: dict[str, Suite] = {
    "rad-drop": Suite(
        params={
            "r": {"type": int, "required": True},
            "method": {"choices": [*NET_METHODS, "both"], "default": "greedy-tree"},
            "p": {"type": float},
            "trials": TRIALS,
        },
        header=("seed", "n", "method", *DropReport.__dataclass_fields__),
        trial=_rad_drop,
    ),
    "local-global": Suite(
        params={
            "r": {"type": int, "help": "single radius"},
            "r_max": {"type": int, "default": 3, "help": "radii 1..r_max when --r is absent"},
            "trials": TRIALS,
        },
        header=("seed", "n", *LocalGlobalReport.__dataclass_fields__),
        trial=_local_global,
    ),
    "interlace": Suite(
        params={
            "u_size": {"type": int, "required": True},
            "mode": {"choices": ["delete", "zero-rows-cols", "both"], "default": "both"},
            "trials": TRIALS,
        },
        header=("seed", "n", *InterlacingReport.__dataclass_fields__),
        trial=_interlace,
    ),
    "finite-param": Suite(
        params={
            "x": {"type": float},
            "x_rule": {"choices": ["value", "lambda2", "half-lambda1"], "default": "lambda2"},
            "theta": {"type": float, "required": True},
            "r": {"type": int},
            "s": {"type": int},
            "auto_rs": {"action": "store_true", "help": "pick (r, s) from the schedule"},
            "method": {"choices": NET_METHODS, "default": "greedy-tree"},
            "p": {"type": float},
            "trials": TRIALS,
        },
        header=("seed", "n", "x", "theta", "r", "s", "net_size", "lhs", "rhs",
                "term_moment", "term_tail", "term_net", "ok"),
        trial=_finite_param,
    ),
    # The x = lambda2 preset over a grid of n, with the window bound checked
    # en route; `verify thm --variant second-eig` checks a single instance.
    "second-eig": Suite(
        params={},
        header=("n", "seed", "delta_tilde", "x", "theta", "lhs", "rhs", "rate",
                "implied_constant", "ok", "fp_theta", "fp_r", "fp_s", "fp_lhs",
                "fp_rhs", "fp_ok"),
        trial=_second_eig,
    ),
}


def suite_rows(
    name: str,
    cases: list[tuple[dict, int, int, Callable[[int], WeightedGraph]]],
    p: argparse.Namespace,
    workers: int,
    tol: float | None = None,
    family_column: bool = False,
) -> tuple[list[str], list[list], list[dict]]:
    """Header, rows and violations of one suite.

    Each case is (families entry, trial index, trial seed, graph provider);
    it runs the suite's trial once for each combination of the list-valued
    parameters in ``p``. A case drops its provider from ``cases`` once it
    ran, so that a graph shared by several trials is freed after the last
    of them. A tolerance makes a row's verdict ``ok and lhs <= rhs + tol``.
    A run that makes no row checked nothing, and raises.
    """
    suite = SUITES[name]
    keys = list(vars(p))
    combos = [
        argparse.Namespace(**dict(zip(keys, values)))
        for values in itertools.product(
            *(v if isinstance(v, list) else [v] for v in vars(p).values())
        )
    ]
    with_trial = "trials" in keys
    header = (["family"] if family_column else []) + (["trial"] if with_trial else [])
    header += suite.header
    verdicts = [c for c in header if c == "ok" or c.endswith("_ok")]

    def one(i: int) -> list:
        fam, t, seed, graph = cases[i]
        cases[i] = (fam, t, seed, None)
        g = graph(seed)
        return [(q, row) for q in combos for row in suite.trial(g, seed, q)]

    rows: list[list] = []
    violations: list[dict] = []
    for (fam, t, seed, _), group in zip(cases, run_trials(one, len(cases), workers)):
        for q, row in group:
            row.update(family=fam.get("family"), trial=t)
            if tol is not None:
                row["ok"] = row["ok"] and row["lhs"] <= row["rhs"] + tol
            cells = [row[c] for c in header]
            rows.append(cells)
            if not all(row[c] for c in verdicts):
                fields = dict(zip(header, (fmt(c) for c in cells)))
                violations.append(violation(name, fam, t, seed, vars(q), fields))
    if not rows:
        raise GraphError(f"{name}: no check ran; the trials, radii, grid or families are empty")
    return header, rows, violations


def cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES[args.suite]
    p = argparse.Namespace(**{key: getattr(args, key) for key in suite.params})
    fam = family_of(args)
    graph = graph_provider(fam)
    cases = [(fam, t, trial_seed(args.seed, t), graph) for t in range(args.trials)]
    header, rows, violations = suite_rows(args.suite, cases, p, n_workers(args.workers))
    emit(csv_text(header, rows), args.out, invocation_config(args), args.seed)
    return report_violations(violations, args.out)


def cmd_verify_thm(args: argparse.Namespace) -> int:
    fam = family_of(args)
    g = graph_provider(fam)(args.seed)
    rep = thm_checker(g, args.variant, x=args.x, theta=args.theta, c=args.c)
    print(
        f"variant={args.variant} lhs={fmt(rep.lhs)} rhs={fmt(rep.rhs)} "
        f"rate={fmt(rep.rate)} implied_constant={fmt(rep.implied_constant)} ok={fmt(rep.ok)}",
        file=sys.stderr,
    )
    params = {"variant": args.variant, "x": args.x, "theta": args.theta, "c": args.c}
    return emit_record(args, "thm", rep.to_json(), rep.ok, fam, args.seed, params)


# ---------------------------------------------------------------------------
# walks


def cmd_walks_tree(args: argparse.Namespace) -> int:
    series = tree_return_probs(args.d, args.N)
    # scaled = p_2n (d / rho)^{2n} with rho = 2 sqrt(d - 1), taken in logs
    ratio = math.log(args.d) - math.log(2.0 * math.sqrt(args.d - 1.0))
    rows = [(n, p, math.exp(math.log(p) + 2 * n * ratio) if p > 0 else 0.0)
            for n, p in enumerate(series.values)]
    emit(csv_text(("n", "p_2n", "scaled"), rows), args.out, invocation_config(args), None)
    return 0


def cmd_walks_finite(args: argparse.Namespace) -> int:
    g = graph_provider(family_of(args))(args.seed)
    if args.kind == "srw":
        series = return_probs_finite(g, args.origin, args.K)
    else:
        series = adjacency_moments(g, args.origin, args.K)
    rows = enumerate(series.values)
    emit(csv_text(("k", "value"), rows), args.out, invocation_config(args), args.seed)
    return 0


def cmd_walks_fit(args: argparse.Namespace) -> int:
    series = tree_return_probs(args.d, args.N)
    fit = decay_fit(series, args.window)
    record = {"d": args.d, "N": args.N, "rho_true": 2.0 * (args.d - 1) ** 0.5, **asdict(fit)}
    emit(json.dumps(record, sort_keys=True), args.out, invocation_config(args), None)
    return 0


def cmd_walks_roundtrip(args: argparse.Namespace) -> int:
    rep = return_decay_roundtrip(
        args.d, theta_grid=args.theta_grid, N=args.N, window=args.window
    )
    params = {"N": args.N, "window": args.window}
    return emit_record(
        args, "walks-roundtrip", json.dumps(asdict(rep), sort_keys=True), rep.ok,
        {"tree-degree": args.d}, None, params,
    )


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a suite name, the families it runs over, parameter grids,
    a master seed, output locations, and tolerance overrides."""

    suite: str
    seed: int = 0
    families: tuple[dict, ...] = ()
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "sweep-out"

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise GraphError("a sweep config is a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise GraphError(f"unknown config keys: {sorted(unknown)}")
        if "suite" not in obj:
            raise GraphError("config needs a 'suite' key")
        seed = obj.get("seed", 0)
        if type(seed) is not int:  # not bool, float, str or null
            raise GraphError(f"the sweep seed must be an integer, got {seed!r}")
        try:
            cfg = cls(
                suite=obj["suite"],
                seed=seed,
                families=tuple(obj.get("families", ())),
                grid=dict(obj.get("grid", {})),
                tolerances=dict(obj.get("tolerances", {})),
                out_dir=obj.get("out_dir", "sweep-out"),
            )
        except (TypeError, ValueError) as exc:
            raise GraphError(f"malformed sweep config: {exc}") from None
        if cfg.seed < 0:
            raise GraphError(f"the sweep seed must be >= 0, got {cfg.seed}")
        return cfg

    def to_dict(self) -> dict:
        out = asdict(self)
        out["families"] = [dict(f) for f in self.families]
        return out


# Sweep defaults that differ from the verify flags; configs that leave these
# keys out keep the rows they have always produced.
SWEEP_DEFAULTS = {"trials": 10, "r": 1}


def _config_value(name: str, kw: dict, value: Any) -> Any:
    """A sweep config value converted as its flag, with argparse keywords
    ``kw``, converts the value's text: ``str(value)``, or "AxB" for a pair
    [A, B], as ``--dims`` takes it. ``name`` names the value in errors.
    """
    if value is None:
        if kw.get("required"):
            raise GraphError(f"{name} is required")
        return None
    pair = isinstance(value, list) and len(value) == 2
    text = f"{value[0]}x{value[1]}" if pair else str(value)
    try:
        if kw.get("action") == "store_true":
            if not isinstance(value, bool):
                raise ValueError
        elif "type" in kw:
            value = kw["type"](text)
    except (ValueError, argparse.ArgumentTypeError):
        raise GraphError(f"{name}: bad value {value!r}") from None
    if "choices" in kw and value not in kw["choices"]:
        raise GraphError(f"{name}: {value!r} is not one of {kw['choices']}")
    return value


def _grid_params(suite: Suite, grid: dict) -> argparse.Namespace:
    """The suite's parameters from a sweep grid; a list sweeps over its values."""
    unknown = set(grid) - set(suite.params) - {"n"}
    if unknown:
        raise GraphError(f"unknown grid keys {sorted(unknown)}; this suite takes "
                         f"{sorted([*suite.params, 'n'])}")
    values = {}
    for key, kw in suite.params.items():
        value = grid.get(key, SWEEP_DEFAULTS.get(key, kw.get("default")))
        name = f"grid {key!r}"
        if isinstance(value, list) and key != "trials":  # the trial count is not swept
            values[key] = [_config_value(name, kw, v) for v in value]
        else:
            values[key] = _config_value(name, kw, value)
    return argparse.Namespace(**values)


def _tolerance(cfg: ExperimentConfig) -> float | None:
    """The tolerance for the config's suite. A tolerance can only tighten a
    check, so each must be <= 0 and name a suite with lhs and rhs columns."""
    for name, tol in cfg.tolerances.items():
        header = SUITES[name].header if name in SUITES else ()
        if "lhs" not in header or "rhs" not in header:
            raise GraphError(f"tolerance for {name!r}: no suite with lhs and rhs by that name")
        if not isinstance(tol, (int, float)) or not tol <= 0:
            raise GraphError(
                f"tolerance for {name!r} is {tol!r}: a tolerance must be <= 0, "
                "it can only tighten a check"
            )
    return cfg.tolerances.get(cfg.suite)


def sweep_rows(
    cfg: ExperimentConfig, workers: int
) -> tuple[list[str], list[list], list[dict]]:
    """Header, rows and violations of a sweep.

    Every families entry is taken at every grid ``n`` when the grid has one.
    A suite with trials runs them on each entry, trial t seeded by
    ``trial_seed(cfg.seed, t)``; one without (second-eig) runs entry i once,
    seeded by ``trial_seed(cfg.seed, i)``.
    """
    if cfg.suite not in SUITES:
        raise GraphError(f"unknown sweep suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    p = _grid_params(SUITES[cfg.suite], cfg.grid)
    tol = _tolerance(cfg)
    families = []
    for fam in cfg.families:
        if not isinstance(fam, dict) or "family" not in fam or set(fam) - set(FAMILY_FLAGS):
            raise GraphError(
                f"families entry {fam!r}: needs 'family' and takes only {sorted(FAMILY_FLAGS)}"
            )
        entry = {key: _config_value(f"families entry {key!r}", FAMILY_FLAGS[key], v)
                 for key, v in fam.items()}
        if (entry.get("seed") or 0) < 0:
            raise GraphError(f"families entry {fam!r}: the seed must be >= 0")
        families.append(entry)
    if "n" in cfg.grid:
        sizes = cfg.grid["n"] if isinstance(cfg.grid["n"], list) else [cfg.grid["n"]]
        sizes = [_config_value("grid 'n'", FAMILY_FLAGS["n"], n) for n in sizes]
        families = [{**fam, "n": n} for fam in families for n in sizes]
    if hasattr(p, "trials"):
        cases = []
        for fam in families:
            graph = graph_provider(fam)
            cases += [(fam, t, trial_seed(cfg.seed, t), graph) for t in range(p.trials)]
    else:
        cases = [
            (fam, i, trial_seed(cfg.seed, i), graph_provider(fam))
            for i, fam in enumerate(families)
        ]
    return suite_rows(cfg.suite, cases, p, workers, tol, family_column=True)


def cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise GraphError(f"{args.config} is not valid JSON: {exc}") from None
    cfg = ExperimentConfig.from_dict(raw)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.suite is not None:
        overrides["suite"] = args.suite
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})

    header, rows, violations = sweep_rows(cfg, n_workers(args.workers))
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, f"{cfg.suite}.csv")
    emit(csv_text(header, rows), out_path, cfg.to_dict(), cfg.seed)
    print(f"wrote {out_path}: {len(rows)} rows")
    return report_violations(violations, out_path)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectop",
        description="Verification harness for spectral non-concentration bounds.",
    )
    parser.add_argument("--version", action="version", version=f"spectop {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gen", help="generate a graph from a named family")
    add_graph_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("spectrum", help="full spectrum as CSV")
    add_graph_args(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cap", type=int, default=DEFAULT_SOLVER_CAP)
    sp.add_argument("--interval", type=_parse_interval, help="count/measure query A:B")
    sp.add_argument("--open-a", action="store_true", help="open left endpoint")
    sp.add_argument("--open-b", action="store_true", help="open right endpoint")
    sp.add_argument("--query-out", help="write the interval query JSON here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("net", help="build an r-net")
    add_graph_args(sp)
    sp.add_argument("--method", choices=NET_METHODS, default="greedy-tree")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=float, help="seed density for expander-random")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_net)

    sp = sub.add_parser("local-net", help="run the label-driven local net builder")
    add_graph_args(sp)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--p", type=float, help="captain election probability")
    sp.add_argument("--R", type=int, help="Voronoi truncation radius")
    sp.add_argument(
        "--theory-params",
        action="store_true",
        help="derive p and R from the worst-case schedule for (delta, r)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_local_net)

    ver = sub.add_parser("verify", help="inequality verification suites")
    vsub = ver.add_subparsers(dest="suite", required=True)

    for name, help_text in (
        ("rad-drop", "net removal drops the top eigenvalue"),
        ("local-global", "trace of A^{2r} against ball tops"),
        ("interlace", "eigenvalue count stability under vertex removal"),
        ("finite-param", "finite-parameter window bound"),
    ):
        sp = vsub.add_parser(name, help=help_text)
        add_graph_args(sp)
        for key, kw in SUITES[name].params.items():
            sp.add_argument("--" + key.replace("_", "-"), **kw)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=int)
        sp.add_argument("--out")
        sp.set_defaults(func=cmd_verify)

    sp = vsub.add_parser("thm", help="theorem-shaped bound with measured implied constant")
    add_graph_args(sp)
    sp.add_argument("--variant", choices=["main", "expander", "second-eig"], required=True)
    sp.add_argument("--x", type=float)
    sp.add_argument("--theta", type=float)
    sp.add_argument("--c", type=float, help="assumed expansion constant (expander variant), "
                    "taken on trust: no check certifies or falsifies it")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify_thm)

    wlk = sub.add_parser("walks", help="return probability series and decay fits")
    wsub = wlk.add_subparsers(dest="mode", required=True)

    sp = wsub.add_parser("tree", help="regular-tree return probabilities p_{2n}")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_walks_tree)

    sp = wsub.add_parser("finite", help="return series on a finite graph")
    add_graph_args(sp)
    sp.add_argument("--kind", choices=["srw", "moment"], default="srw")
    sp.add_argument("--origin", type=int, default=0)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_walks_finite)

    sp = wsub.add_parser("fit", help="fit rho and the polynomial correction exponent")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, default=1000)
    sp.add_argument("--window", type=_parse_window, default=(100, 1000))
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_walks_fit)

    sp = wsub.add_parser("roundtrip", help="mass exponent vs walk exponent consistency")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--N", type=int, default=1000)
    sp.add_argument("--window", type=_parse_window, default=(100, 1000))
    sp.add_argument("--theta-grid", type=_parse_floats, default=DEFAULT_THETA_GRID)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_walks_roundtrip)

    sp = sub.add_parser("sweep", help="config-driven suite over a parameter grid")
    sp.add_argument("--config", required=True, help="ExperimentConfig JSON")
    sp.add_argument("--seed", type=int, help="override the config seed")
    sp.add_argument("--out-dir", help="override the config output directory")
    sp.add_argument("--suite", help="override the config suite")
    sp.add_argument("--workers", type=int, help="override the worker count")
    sp.set_defaults(func=cmd_sweep)

    return parser


def _check_seeds(args: argparse.Namespace) -> None:
    """Seeds key numpy SeedSequences, which take no negative integer."""
    for key in ("seed", "family_seed"):
        value = getattr(args, key, None)
        if value is not None and value < 0:
            raise GraphError(f"--{key.replace('_', '-')} must be >= 0, got {value}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_seeds(args)
        return args.func(args)
    except (OSError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
