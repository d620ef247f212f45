"""Acceptance battery: one test per numbered criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` to see the per-criterion
pass/fail lines; each test also prints a ``CRITERION nn`` verdict with the
measured quantities.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_connected_graph

from spectop.bounds import finite_param_check, interlacing_check
from spectop.cli import ExperimentConfig, main, n_workers, sweep_rows
from spectop.families import FamilySpec, generate
from spectop.graphs import VertexSet, distances, UNREACHABLE
from spectop.localsim import (
    LocalLabels,
    adjacency_transport,
    cell_transport,
    elect_captains,
    local_net,
    local_separated,
    mtp_check,
    voronoi_assign,
)
from spectop.nets import greedy_tree_net, net_removal_drop_check, random_expander_net
from spectop.rng import rng_for, trial_seed
from spectop.spectral import eigenvalues, local_global_check
from spectop.walks import (
    KestenRef,
    adjacency_moments,
    kesten_mass,
    moment_mass_upper,
    return_decay_roundtrip,
    tree_return_probs,
    tree_return_probs_exact,
)

DEGREES = (3, 4, 6)


def verdict(num, name, ok, detail):
    print(f"CRITERION {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def spectra(corpus):
    return [eigenvalues(g) for _, g in corpus]


@pytest.fixture(scope="module")
def greedy_nets(corpus):
    return {
        (i, r): greedy_tree_net(g, r)
        for i, (_, g) in enumerate(corpus)
        for r in (1, 2, 3, 4)
    }


# ---------------------------------------------------------------------------


def test_criterion_01_rad_drop(corpus):
    t0 = time.perf_counter()
    pairs = 0
    worst = math.inf
    for rnd in range(7):
        for gi, (_, g) in enumerate(corpus):
            for r in (1, 2, 3):
                seed = trial_seed(1000 + rnd, gi * 3 + r)
                for method in ("greedy-tree", "expander-random"):
                    if method == "greedy-tree":
                        net = greedy_tree_net(
                            g, r, priority=rng_for(seed).random(g.n)
                        )
                    else:
                        net = random_expander_net(g, r, 0.3, seed)
                    rep = net_removal_drop_check(g, net, r)
                    worst = min(worst, rep.rhs - rep.lhs)
                    pairs += 1
    elapsed = time.perf_counter() - t0
    ok = pairs >= 500 and worst >= -1e-8 and elapsed < 120.0
    verdict(1, "rad-drop", ok,
            f"pairs={pairs} worst_slack={worst:.3e} elapsed={elapsed:.1f}s")


def test_criterion_02_local_global(corpus):
    worst_rel = -math.inf
    for _, g in corpus:
        for r in (1, 2, 3, 4):
            rep = local_global_check(g, r)
            rel = (rep.lhs - rep.rhs) / abs(rep.rhs)
            worst_rel = max(worst_rel, rel)
    c4 = generate(FamilySpec(family="cycle", n=4))
    eq = local_global_check(c4, 1)
    # trace side is exact; the ball side carries eigensolver rounding
    witness = eq.lhs == 8.0 and abs(eq.rhs - 8.0) <= 1e-12
    ok = worst_rel <= 1e-6 and witness
    verdict(2, "local-global", ok,
            f"worst_rel={worst_rel:.3e} C4_witness={eq.lhs:g}={eq.rhs:g}")


def test_criterion_03_greedy_net_size(corpus, greedy_nets):
    checked = 0
    ok = True
    for i, (_, g) in enumerate(corpus):
        for r in (1, 2, 3, 4):
            net = greedy_nets[(i, r)]
            bound = math.ceil(g.n / (r + 1))
            ok = ok and net.verified and len(net.vertices) <= bound
            checked += 1
    verdict(3, "greedy-net-size", ok, f"nets={checked} all verified and sized")


def test_criterion_04_interlacing():
    worst = {"delete": 0, "zero-rows-cols": 0}
    ok = True
    for mode in ("delete", "zero-rows-cols"):
        for t in range(50):
            rng = rng_for(trial_seed(4000, t))
            g = random_connected_graph(
                int(rng.integers(0, 2**31)), n_min=4, n_max=30,
                weighted=bool(t % 2),
            )
            k = int(rng.integers(1, max(2, g.n // 3)))
            u = VertexSet.of(
                rng.choice(g.n, size=k, replace=False).tolist(), g.n
            )
            rep = interlacing_check(g, u, mode=mode)
            ok = ok and rep.halfline_dev <= k and rep.interval_dev <= 2 * k
            worst[mode] = max(worst[mode], rep.halfline_dev - k)
    verdict(4, "interlacing", ok,
            "50 trials/mode, halfline <= |U| and interval <= 2|U| exact")


def test_criterion_05_finite_param(corpus, spectra, greedy_nets):
    instances = 0
    worst = -math.inf
    for i, (_, g) in enumerate(corpus):
        spec = spectra[i]
        lam1 = float(spec.values[-1])
        lam2 = float(spec.values[-2])
        for theta in (0.1, 0.3, 0.5, 0.7):
            for r, s in ((1, 2), (2, 3), (1, 5)):
                for x in (lam2, 0.75 * lam1):
                    x = max(x, g.w_min)
                    rep = finite_param_check(
                        g, x, theta, r, s, greedy_nets[(i, r)], spectrum=spec
                    )
                    worst = max(worst, rep.lhs - rep.rhs)
                    instances += 1
    ok = instances >= 200 and worst <= 1e-8
    verdict(5, "finite-param", ok,
            f"instances={instances} worst_lhs_minus_rhs={worst:.3e}")


# --- criterion 6: local algorithms -----------------------------------------


def scrambled_outside(g, labels, v, radius, rng):
    d = distances(g, v, cutoff=radius)
    vals = labels.values.copy()
    outside = np.flatnonzero(d == UNREACHABLE)
    vals[outside] = rng.random(len(outside))
    return LocalLabels.from_values(vals)


def permuted_copy(g, perm):
    from spectop.graphs import build_graph

    edges = [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges()]
    return build_graph(g.n, edges)


def test_criterion_06_local_algorithms():
    c60 = generate(FamilySpec(family="cycle", n=60))
    everyone = VertexSet.of(list(range(60)), 60)
    p, big_r, r = 0.2, 3, 2

    # (i) locality certificates, 100 trials per operation
    cert_ok = True
    for t in range(100):
        rng = rng_for(trial_seed(6000, t))
        labels = LocalLabels.from_seed(60, int(rng.integers(0, 2**31)))
        v = int(rng.integers(0, 60))

        base = v in elect_captains(c60, labels, p)
        after = v in elect_captains(
            c60, scrambled_outside(c60, labels, v, 0, rng), p
        )
        cert_ok = cert_ok and base == after

        base = v in local_separated(c60, everyone, r, labels)
        after = v in local_separated(
            c60, everyone, r, scrambled_outside(c60, labels, v, r, rng)
        )
        cert_ok = cert_ok and base == after

        caps = elect_captains(c60, labels, p)
        base = voronoi_assign(c60, caps, labels, big_r).assignment[v]
        sc = scrambled_outside(c60, labels, v, big_r, rng)
        after = voronoi_assign(
            c60, elect_captains(c60, sc, p), sc, big_r
        ).assignment[v]
        cert_ok = cert_ok and base == after

        base = v in local_net(c60, labels, p, big_r, r).net.vertices
        sc = scrambled_outside(c60, labels, v, 4 * big_r, rng)
        after = v in local_net(c60, sc, p, big_r, r).net.vertices
        cert_ok = cert_ok and base == after

    # (ii) equivariance under vertex permutations
    equi_ok = True
    rr40 = generate(FamilySpec(family="random-regular", n=40, d=4, seed=61))
    for t in range(20):
        rng = rng_for(trial_seed(6100, t))
        labels = LocalLabels.from_seed(40, int(rng.integers(0, 2**31)))
        perm = rng.permutation(40)
        h = permuted_copy(rr40, perm)
        h_labels = LocalLabels.from_values(
            np.array([labels.values[int(np.flatnonzero(perm == i)[0])]
                      for i in range(40)])
        )
        out_g = local_net(rr40, labels, p, big_r, r).net.vertices
        out_h = local_net(h, h_labels, p, big_r, r).net.vertices
        equi_ok = equi_ok and sorted(int(perm[v]) for v in out_g.ids) == list(out_h.ids)

    # (iii) + (iv): verified nets and tuned densities on n = 1000
    tuned = {2: (0.15, 40), 3: (0.05, 100), 4: (0.03, 150)}
    fams = (
        generate(FamilySpec(family="cycle", n=1000)),
        generate(FamilySpec(family="random-regular", n=1000, d=4, seed=64)),
    )
    verified_ok = True
    density_ok = True
    density_note = []
    for g in fams:
        for rr, (pp, rad) in tuned.items():
            dens = []
            for s in range(100):
                run = local_net(
                    g, LocalLabels.from_seed(g.n, trial_seed(6400, s)), pp, rad, rr
                )
                verified_ok = verified_ok and run.net.verified
                dens.append(run.net.density)
            mean = float(np.mean(dens))
            sigma = float(np.std(dens))
            density_ok = density_ok and mean <= 1.0 / rr + 3.0 * sigma
            density_note.append(f"r={rr}:{mean:.3f}")

    # (v) mass transport on cell-assignment transports
    mtp_ok = True
    for seed in (3, 8, 21):
        labels = LocalLabels.from_seed(60, seed)
        cells = voronoi_assign(c60, elect_captains(c60, labels, 0.2), labels, 5)
        rep = mtp_check(c60, cell_transport(cells))
        mtp_ok = mtp_ok and rep.deviation <= 1e-12
    mtp_ok = mtp_ok and mtp_check(c60, adjacency_transport(c60)).deviation <= 1e-12

    ok = cert_ok and equi_ok and verified_ok and density_ok and mtp_ok
    verdict(6, "local-algorithms", ok,
            f"cert={cert_ok} equi={equi_ok} verified={verified_ok} "
            f"density=[{' '.join(density_note)}] mtp={mtp_ok}")


def test_criterion_07_tree_ground_truth():
    t0 = time.perf_counter()
    exact_ok = True
    for d in DEGREES:
        ex = tree_return_probs_exact(d, 2)
        exact_ok = exact_ok and ex[1] == Fraction(1, d)
        exact_ok = exact_ok and ex[2] == Fraction(2 * d - 1, d**3)
        ball = generate(FamilySpec(family="tree-ball", d=d, depth=3))
        counts = adjacency_moments(ball, 0, 4)
        exact_ok = exact_ok and ex[1] == Fraction(int(counts.values[2]), d**2)
        exact_ok = exact_ok and ex[2] == Fraction(int(counts.values[4]), d**4)
    decay_ok = True
    rels = []
    for d in DEGREES:
        s = tree_return_probs(d, 1000)
        val = d * math.exp(math.log(s.values[1000]) / 2000.0)
        rel = abs(val - 2.0 * math.sqrt(d - 1)) / (2.0 * math.sqrt(d - 1))
        decay_ok = decay_ok and rel <= 0.02
        rels.append(f"d={d}:{rel:.4f}")
    elapsed = time.perf_counter() - t0
    ok = exact_ok and decay_ok and elapsed < 30.0
    verdict(7, "tree-ground-truth", ok,
            f"exact={exact_ok} rel=[{' '.join(rels)}] elapsed={elapsed:.1f}s")


def test_criterion_08_kesten_self_consistency():
    quad_ok = True
    for d in DEGREES:
        ref = KestenRef(d)
        ex = tree_return_probs_exact(d, 2)
        quad_ok = quad_ok and abs(ref.mass(-ref.rho, ref.rho) - 1.0) <= 1e-9
        m2_dp = float(ex[1] * Fraction(d) ** 2)
        m4_dp = float(ex[2] * Fraction(d) ** 4)
        quad_ok = quad_ok and abs(ref.moment(2) - m2_dp) <= 1e-8
        quad_ok = quad_ok and abs(ref.moment(4) - m4_dp) <= 1e-8
    thetas = [2.0**-k for k in range(4, 15)]
    slopes = []
    fit_ok = True
    for d in DEGREES:
        lt = np.log(thetas)
        lm = np.log([kesten_mass(d, t) for t in thetas])
        slope = float(np.polyfit(lt, lm, 1)[0])
        slopes.append(f"d={d}:{slope:.4f}")
        fit_ok = fit_ok and abs(slope - 1.5) <= 0.05
    ok = quad_ok and fit_ok
    verdict(8, "kesten-self-consistency", ok,
            f"quad={quad_ok} edge_exponents=[{' '.join(slopes)}]")


def test_criterion_09_regular_exp_nonvacuity():
    grid = np.geomspace(1e-4, 0.5, 80)
    ok = True
    notes = []
    for d in DEGREES:
        rho = 2.0 * math.sqrt(d - 1)
        expo = math.log(d) / math.log(rho) - 1.0 - 0.01
        masses = np.array([kesten_mass(d, float(t)) for t in grid])
        K_d = float(np.max(masses / grid**expo))
        k_d = float(np.min(masses / grid**1.5))
        ok = ok and math.isfinite(K_d) and K_d > 0.0
        ok = ok and math.isfinite(k_d) and k_d > 0.0
        ok = ok and bool(np.all(masses <= K_d * grid**expo + 1e-15))
        ok = ok and bool(np.all(masses >= k_d * grid**1.5 - 1e-15))
        notes.append(f"d={d}:K={K_d:.3f},k={k_d:.3f}")
    verdict(9, "regular-exp-nonvacuity", ok, " ".join(notes))


def test_criterion_10_return_decay_roundtrip():
    ok = True
    notes = []
    for d in (3, 4):
        rep = return_decay_roundtrip(d)
        ok = ok and rep.ok and rep.difference <= 0.15
        notes.append(f"d={d}:|diff|={rep.difference:.4f}")
    for d in (3, 4):
        series = tree_return_probs(d, 500)
        rho = 2.0 * math.sqrt(d - 1)
        for theta in np.geomspace(1e-3, 0.9, 40):
            theta = float(theta)
            ok = ok and moment_mass_upper(series, rho, theta) >= kesten_mass(d, theta)
    verdict(10, "return-decay-roundtrip", ok,
            " ".join(notes) + " and moment upper dominates pointwise")


def test_criterion_11_second_eig_sweep():
    cfg = ExperimentConfig(
        suite="second-eig",
        seed=17,
        families=({"family": "cycle"}, {"family": "random-regular", "d": 4}),
        grid={"n": [2**k for k in range(8, 13)]},
    )
    header, rows, violations = sweep_rows(cfg, n_workers(None))
    i_imp = header.index("implied_constant")
    i_fp = header.index("fp_ok")
    implied = [row[i_imp] for row in rows]
    ok = (
        len(rows) == 10
        and not violations
        and all(math.isfinite(v) for v in implied)
        and all(row[i_fp] for row in rows)
    )
    span = f"[{min(implied):.4f}, {max(implied):.4f}]"
    verdict(11, "second-eig-sweep", ok,
            f"rows={len(rows)} implied_constant_range={span} finite, "
            f"no finite-param violation en route")


DETERMINISM_BATTERY = [
    ["gen", "--family", "random-regular", "--n", "48", "--d", "4",
     "--seed", "3", "--out", "g.graph"],
    ["spectrum", "--graph", "g.graph", "--interval=-3:3",
     "--query-out", "q.json", "--out", "s.csv"],
    ["net", "--graph", "g.graph", "--method", "expander-random", "--r", "2",
     "--p", "0.3", "--seed", "4", "--out", "net.json"],
    ["local-net", "--graph", "g.graph", "--r", "2", "--p", "0.2", "--R", "6",
     "--seed", "5", "--out", "ln.json"],
    ["verify", "rad-drop", "--family", "cycle", "--n", "40", "--r", "2",
     "--method", "both", "--p", "0.3", "--trials", "4", "--seed", "11",
     "--out", "rd.csv"],
    ["verify", "local-global", "--family", "cycle", "--n", "24", "--r-max", "3",
     "--trials", "2", "--seed", "12", "--out", "lg.csv"],
    ["verify", "interlace", "--family", "cycle", "--n", "20", "--u-size", "4",
     "--trials", "5", "--seed", "13", "--out", "il.csv"],
    ["verify", "finite-param", "--family", "cycle", "--n", "30",
     "--theta", "0.4", "--r", "1", "--s", "3", "--trials", "3", "--seed", "14",
     "--out", "fp.csv"],
    ["verify", "thm", "--variant", "second-eig", "--family", "cycle",
     "--n", "64", "--seed", "15", "--out", "thm.json"],
    ["walks", "tree", "--d", "3", "--N", "40", "--out", "wt.csv"],
    ["walks", "finite", "--graph", "g.graph", "--K", "30", "--out", "wf.csv"],
    ["walks", "fit", "--d", "3", "--N", "300", "--window", "100:300",
     "--out", "wfit.json"],
    ["walks", "roundtrip", "--d", "3", "--N", "300", "--window", "100:300",
     "--out", "wrt.json"],
]


def run_determinism_battery(root, monkeypatch, workers):
    monkeypatch.setenv("SPECTOP_WORKERS", str(workers))
    monkeypatch.chdir(root)
    for argv in DETERMINISM_BATTERY:
        assert main(list(argv)) == 0, argv
    cfg = {
        "suite": "second-eig",
        "seed": 9,
        "families": [{"family": "cycle"}, {"family": "random-regular", "d": 4}],
        "grid": {"n": [32, 64]},
    }
    (root / "cfg.json").write_text(json.dumps(cfg, sort_keys=True))
    assert main(["sweep", "--config", "cfg.json"]) == 0
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "cfg.json"
    }


def test_criterion_12_determinism(tmp_path, monkeypatch):
    a = tmp_path / "run-a"
    b = tmp_path / "run-b"
    a.mkdir()
    b.mkdir()
    out_a = run_determinism_battery(a, monkeypatch, workers=1)
    out_b = run_determinism_battery(b, monkeypatch, workers=6)
    ok = sorted(out_a) == sorted(out_b) and all(
        out_a[name] == out_b[name] for name in out_a
    )
    verdict(12, "determinism", ok,
            f"{len(out_a)} files byte-identical across runs and worker counts")
