"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import json
import math

import pytest

from spectop.cli import ExperimentConfig, config_hash, fmt, main, trial_seed
from spectop.graphs import GraphError, read_graph
from spectop.spectral import InertiaCounts


def run(argv):
    return main(argv)


def place(path, content):
    """Write ``content`` (str or bytes) at ``path``; None makes a directory there."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


# ---------------------------------------------------------------------------
# exit codes


def test_gen_exit0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--family", "cycle", "--n", "12", "--out", "g.graph"]) == 0
    g = read_graph("g.graph")
    assert g.n == 12 and g.m == 12


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # cycle without --n is a domain error surfaced as exit 2
    assert run(["gen", "--family", "cycle", "--out", "g.graph"]) == 2


@pytest.mark.parametrize(
    "name, content, argv",
    [
        (None, None, ["spectrum", "--graph", "absent.graph", "--out", "s.csv"]),
        ("d", None, ["spectrum", "--graph", "d", "--out", "s.csv"]),
        ("g.txt", b"# \xff\n2 1\n0 1 1.0\n", ["spectrum", "--graph", "g.txt", "--out", "s.csv"]),
        ("d", None, ["gen", "--family", "cycle", "--n", "12", "--out", "d"]),
    ],
    ids=["absent", "graph-is-a-directory", "graph-not-utf8", "gen-out-is-a-directory"],
)
def test_missing_graph_file_exits_2(tmp_path, monkeypatch, capsys, name, content, argv):
    monkeypatch.chdir(tmp_path)
    if name is not None:
        place(tmp_path / name, content)
    assert run(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_impractical_theory_params_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(
        ["local-net", "--family", "random-regular", "--n", "20", "--d", "3",
         "--r", "2", "--theory-params", "--out", "ln.json"]
    )
    assert rc == 2
    assert "too large to run" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "interlace", "--family", "cycle", "--n", "20", "--u-size", "-1"],
        ["walks", "roundtrip", "--d", "3", "--N", "100", "--window", "10:50",
         "--theta-grid", "0,0.5"],
        ["verify", "thm", "--variant", "main", "--family", "cycle", "--n", "64",
         "--x", "nan", "--theta", "0.5"],
        ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "0.4",
         "--r", "1", "--s", "3", "--x-rule", "value", "--x", "nan"],
        ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "0.4",
         "--r", "1", "--s", "3", "--x-rule", "value", "--x", "inf"],
        ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "1.5",
         "--r", "1", "--s", "3", "--x-rule", "value", "--x", "1.9"],
        ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "nan",
         "--auto-rs"],
        ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "5e-324",
         "--auto-rs"],
        ["verify", "rad-drop", "--family", "cycle", "--n", "20", "--r", "1", "--trials", "0"],
        ["verify", "rad-drop", "--family", "cycle", "--n", "20", "--r", "1", "--trials", "-1"],
        ["verify", "local-global", "--family", "cycle", "--n", "20", "--r-max", "0"],
        # no edge, so no lightest edge weight w_min
        ["verify", "rad-drop", "--family", "path", "--n", "1", "--r", "1"],
        ["verify", "rad-drop", "--family", "tree-ball", "--d", "3", "--depth", "0", "--r", "1"],
    ],
    ids=["negative-u-size", "theta-grid-0", "thm-x-nan", "fp-x-nan", "fp-x-inf",
         "fp-theta-1.5", "fp-theta-nan-auto-rs", "fp-theta-5e-324-auto-rs", "zero-trials", "negative-trials",
         "zero-radii", "rad-drop-no-edge-path", "rad-drop-no-edge-tree-ball"],
)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    # exit 1 is kept for a violated inequality; no row is no verdict
    monkeypatch.chdir(tmp_path)
    shifts = []  # x and theta are checked before any count is factored
    real = InertiaCounts._negative_pivots
    monkeypatch.setattr(InertiaCounts, "_negative_pivots",
                        lambda self, sigma: shifts.append(sigma) or real(self, sigma))
    assert run([*argv, "--out", "out"]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert shifts == []


@pytest.mark.parametrize("theta, s, term", [("0.1", "600", "term_tail"),
                                            ("0.5", "2000", "term_moment")])
def test_finite_param_overflowing_term_is_inf(tmp_path, monkeypatch, theta, s, term):
    # Delta^{2(s+2)} = 2^1204 and (1 - theta)^{-2s} = 2^4000 overflow
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", theta,
            "--r", "1", "--s", s, "--out", "fp.csv"]
    assert run(argv) == 0
    header, row = (tmp_path / "fp.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells[term] == cells["rhs"] == "inf" and cells["ok"] == "true"


def test_thm_expander_size_floor_overflow_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "thm", "--variant", "expander", "--family", "cycle", "--n", "12",
            "--x", "2.5", "--theta", "1e-300", "--c", "1000", "--out", "thm.json"]
    assert run(argv) == 2
    assert "hypothesis 'graph_size' violated" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_thm_tail_mass_read_high_undecided_exits_2(tmp_path, monkeypatch, capsys):
    # x = lambda_2 = 2 cos(2 pi / n), 9.2e-9 below lambda_1 = 2: delta_top is
    # 0 read low, but the true mu(x, inf) = 1/n = 1.5e-5 exceeds the cap
    # 2^-20 = 9.5e-7, and the high reading, 3/n, sees it
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "thm", "--variant", "main", "--family", "cycle", "--n", "65536",
            "--x", "1.9999999908082147", "--theta", "0.5", "--out", "thm.json"]
    assert run(argv) == 2
    assert "hypothesis 'tail_mass' undecided" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rad_drop_overflowing_power_is_inf(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "rad-drop", "--family", "cycle", "--n", "30", "--r", "600",
            "--out", "rd.csv"]
    assert run(argv) == 0
    header, row = (tmp_path / "rd.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["lhs"] == cells["rhs"] == "inf" and cells["ok"] == "true"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_local_global_beyond_the_float_range_is_inf(tmp_path, monkeypatch):
    # the triangle of weight 1e100 at r = 2: both sides about 1e401
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.txt").write_text("3 3\n0 1 1e100\n1 2 1e100\n0 2 1e100\n")
    argv = ["verify", "local-global", "--graph", "tri.txt", "--r", "2", "--out", "lg.csv"]
    assert run(argv) == 0
    header, row = (tmp_path / "lg.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (cells["lhs"], cells["rhs"], cells["slack"], cells["ok"]) == ("inf", "inf", "nan", "true")


@pytest.mark.filterwarnings("error")
def test_thm_expander_rate_overflow_is_inf(tmp_path, monkeypatch):
    # the window's lower end, about -2.5e300, is counted without a factorization
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "thm", "--variant", "expander", "--family", "cycle", "--n", "12",
            "--x", "2.5", "--theta", "1e300", "--c", "1000", "--out", "thm.json"]
    assert run(argv) == 0
    rep = json.loads((tmp_path / "thm.json").read_text())
    assert rep["rate"] == math.inf and rep["implied_constant"] == 0.0


# ---------------------------------------------------------------------------
# manifests


def test_manifest_shape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["gen", "--family", "cycle", "--n", "10", "--seed", "7", "--out", "g.graph"])
    man = json.loads((tmp_path / "g.graph.manifest.json").read_text())
    assert set(man) == {"config_sha256", "seed", "versions"}
    assert len(man["config_sha256"]) == 64
    assert man["seed"] == 7
    assert set(man["versions"]) >= {"python", "numpy", "scipy", "spectop"}
    assert "time" not in (tmp_path / "g.graph.manifest.json").read_text()


def test_config_sha256_is_pinned(tmp_path, monkeypatch):
    """What ``invocation_config`` and ``ExperimentConfig.to_dict`` hash is
    part of every manifest: a change to either moves these digests."""
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "rad-drop", "--family", "cycle", "--n", "16", "--r", "1",
                "--trials", "2", "--out", "a.csv"]) == 0
    man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert man["config_sha256"] == (
        "7f6eeb32602ee8df48850b5b115127c29917a25fdef1dbc85ea165e26accc289")
    (tmp_path / "cfg.json").write_text(
        '{"suite": "rad-drop", "seed": 5, "families": [{"family": "cycle", "n": 16}], '
        '"grid": {"trials": 2, "r": 1}}')
    assert run(["sweep", "--config", "cfg.json"]) == 0
    man = json.loads((tmp_path / "sweep-out" / "rad-drop.csv.manifest.json").read_text())
    assert man["config_sha256"] == (
        "f7b8b714f26585489fdad1dc4c9923d48501ca241b646965d83e99b2dbff4f38")


@pytest.mark.parametrize("argv", [
    ["verify", "rad-drop", "--family", "cycle", "--n", "16", "--r", "1", "--workers", "2"],
    ["sweep", "--config", "cfg.json", "--workers", "2"],
], ids=["verify", "sweep"])
def test_workers_is_an_unknown_option(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


def test_config_hash_sensitive_to_values():
    h1 = config_hash({"cmd": "gen", "n": 10})
    h2 = config_hash({"cmd": "gen", "n": 11})
    assert h1 != h2
    assert h1 == config_hash({"n": 10, "cmd": "gen"})


# ---------------------------------------------------------------------------
# spectrum / walks output formats


def test_spectrum_csv_and_interval_query(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(
        ["spectrum", "--family", "cycle", "--n", "12", "--interval=-2:2",
         "--query-out", "q.json", "--out", "s.csv"]
    )
    assert rc == 0
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 13
    assert float(lines[-1].split(",")[1]) == pytest.approx(2.0, abs=1e-9)
    q = json.loads((tmp_path / "q.json").read_text())
    assert set(q) == {"a", "b", "closed_a", "closed_b", "count", "mu"}
    assert q["count"] == 12 and q["mu"] == 1.0
    # without --query-out the query goes to stdout
    rc = run(["spectrum", "--family", "cycle", "--n", "12", "--interval=-2:2", "--out", "s.csv"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == q


# Queries on cycle 12, whose spectrum holds -1, 0 and 1 twice each and, above
# 1, sqrt(3) twice and 2 once: (flags, count). The battery runs them too.
INTERVAL_QUERIES = [
    (["--interval=-1:1"], 6),
    (["--interval=-1:1", "--open-a"], 4),
    (["--interval=-1:1", "--open-b"], 4),
    (["--interval=-1:1", "--open-a", "--open-b"], 2),
    (["--interval=1:inf", "--open-a"], 3),
]
QUERY_ARGVS = [["spectrum", "--family", "cycle", "--n", "12", *flags,
                "--query-out", f"q{i}.json", "--out", f"s{i}.csv"]
               for i, (flags, _) in enumerate(INTERVAL_QUERIES)]


@pytest.mark.parametrize("i", range(len(INTERVAL_QUERIES)),
                         ids=["closed", "open-a", "open-b", "open", "open-a-to-inf"])
def test_spectrum_interval_query_ends(tmp_path, monkeypatch, i):
    monkeypatch.chdir(tmp_path)
    flags, count = INTERVAL_QUERIES[i]
    assert run(QUERY_ARGVS[i]) == 0
    q = json.loads((tmp_path / f"q{i}.json").read_text())
    a, b = map(float, flags[0].removeprefix("--interval=").split(":"))
    assert q == {"a": a, "b": b, "closed_a": "--open-a" not in flags,
                 "closed_b": "--open-b" not in flags, "count": count, "mu": count / 12}


@pytest.mark.parametrize("interval", ["1:nan", "nan:1", "nan:nan"])
def test_spectrum_nan_interval_end_exits_2(tmp_path, monkeypatch, capsys, interval):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--family", "cycle", "--n", "12", f"--interval={interval}",
             "--out", "s.csv"])
    assert exc.value.code == 2
    assert "NaN" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walks_tree_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["walks", "tree", "--d", "4", "--N", "3", "--out", "t.csv"]) == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "n,p_2n,scaled"
    assert lines[2].startswith("1,0.25,")


def test_walks_fit_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["walks", "fit", "--d", "3", "--N", "400", "--window", "50:400",
              "--out", "fit.json"])
    assert rc == 0
    rec = json.loads((tmp_path / "fit.json").read_text())
    assert rec["rho_true"] == pytest.approx(2 * math.sqrt(2))
    assert abs(rec["rho_hat"] - rec["rho_true"]) / rec["rho_true"] < 0.02


# ---------------------------------------------------------------------------
# verify suites end to end


def test_rad_drop_rows(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(
        ["verify", "rad-drop", "--family", "cycle", "--n", "30", "--r", "2",
         "--method", "both", "--p", "0.3", "--trials", "3", "--out", "rd.csv"]
    )
    assert rc == 0
    lines = (tmp_path / "rd.csv").read_text().splitlines()
    assert lines[0] == "trial,seed,n,method,r,net_size,lam1_g,lam1_h,lhs,rhs,ok"
    assert len(lines) == 1 + 3 * 2
    assert all(line.endswith("true") for line in lines[1:])
    assert not (tmp_path / "rd.csv.violations.json").exists()


def test_finite_param_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(
        ["verify", "finite-param", "--family", "cycle", "--n", "30",
         "--theta", "0.3", "--r", "1", "--s", "3", "--trials", "2",
         "--out", "fp.csv"]
    )
    assert rc == 0
    lines = (tmp_path / "fp.csv").read_text().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("true") for line in lines[1:])


def test_thm_second_eig_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["verify", "thm", "--variant", "second-eig", "--family", "cycle",
              "--n", "64", "--out", "thm.json"])
    assert rc == 0
    rep = json.loads((tmp_path / "thm.json").read_text())
    assert rep["kind"] == "thm-second-eig"
    assert rep["ok"] is True
    assert rep["implied_constant"] == pytest.approx(rep["lhs"] / rep["rate"])
    assert rep["params"]["theta"] == pytest.approx(10.0 / 6.0)


# ---------------------------------------------------------------------------
# sweep


SECOND_EIG_CFG = {
    "suite": "second-eig",
    "seed": 9,
    "families": [{"family": "cycle"}, {"family": "random-regular", "d": 4}],
    "grid": {"n": [32, 64]},
}


def sweep_config(tmp_path, **overrides):
    cfg = {
        "suite": "rad-drop",
        "seed": 5,
        "families": [{"family": "cycle", "n": 20}],
        "grid": {"trials": 2, "r": [1, 2]},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sweep_clean(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["sweep", "--config", sweep_config(tmp_path)])
    assert rc == 0
    out = tmp_path / "sweep-out" / "rad-drop.csv"
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert (tmp_path / "sweep-out" / "rad-drop.csv.manifest.json").exists()


def test_sweep_tolerance_violation_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = sweep_config(tmp_path, tolerances={"rad-drop": -1000.0})
    rc = run(["sweep", "--config", cfg])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FAIL" in err and "serialized for replay" in err
    sidecar = tmp_path / "sweep-out" / "rad-drop.csv.violations.json"
    records = json.loads(sidecar.read_text())
    assert records and records[0]["suite"] == "rad-drop"
    assert records[0]["row"]["ok"] == "false"


def test_sweep_finite_param_tolerance_fails_every_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    grid = {"theta": 0.3, "r": 1, "s": [2, 3], "trials": 2}
    cfg = sweep_config(tmp_path, suite="finite-param", grid=grid,
                       tolerances={"finite-param": -1000.0})
    assert run(["sweep", "--config", cfg]) == 1
    lines = (tmp_path / "sweep-out" / "finite-param.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert all(line.endswith(",false") for line in lines[1:])
    records = json.loads((tmp_path / "sweep-out" / "finite-param.csv.violations.json")
                         .read_text())
    assert len(records) == 4


def test_sweep_second_eig_tolerance_tightens_the_theorem_not_the_en_route_check(
    tmp_path, monkeypatch
):
    # the preset's rate (rhs) is negative at n = 32 and 64, so no mass passes at
    # tolerance 0, while the en-route window check (fp_lhs against fp_rhs) holds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps({**SECOND_EIG_CFG, "tolerances": {"second-eig": 0}})
    )
    assert run(["sweep", "--config", "cfg.json"]) == 1
    records = json.loads((tmp_path / "sweep-out" / "second-eig.csv.violations.json")
                         .read_text())
    assert len(records) == 4
    for rec in records:
        assert rec["row"]["ok"] == "false" and rec["row"]["fp_ok"] == "true"
        assert float(rec["row"]["rhs"]) < 0 <= float(rec["row"]["lhs"])


def test_sweep_rejects_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(GraphError, match="unknown config keys"):
        ExperimentConfig.from_dict({"suite": "rad-drop", "bogus": 1})
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"suite": "rad-drop", "bogus": 1}))
    assert run(["sweep", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "tolerances",
    [
        {"rad-drop": 1e9},  # would pass every row
        {"rad-drop": 0.5},
        {"interlace": -1.0},  # no lhs/rhs to tighten
        {"no-such-suite": -1.0},
    ],
)
def test_sweep_tolerance_cannot_loosen(tmp_path, monkeypatch, capsys, tolerances):
    monkeypatch.chdir(tmp_path)
    rc = run(["sweep", "--config", sweep_config(tmp_path, tolerances=tolerances)])
    assert rc == 2
    assert "tolerance" in capsys.readouterr().err
    assert not (tmp_path / "sweep-out").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"suite": "rad-drop", "seed": 5,',  # invalid JSON
        json.dumps({"suite": "rad-drop", "families": [{"n": 20}], "grid": {"r": [1]}}),
        json.dumps({"suite": "rad-drop", "families": [{"family": "cycle", "n": 20}],
                    "grid": {"trails": 2, "r": [1]}}),
        json.dumps({"suite": "second-eig", "families": [{"family": "cycle"}],
                    "grid": {"n": [32], "finite_param": False}}),
        json.dumps({"suite": "rad-drop", "families": [{"family": "cycle", "n": 20}],
                    "grid": [1]}),
        None,
        b'{"suite": "rad-drop", "seed": 5, "out_dir": "\xff"}',
        json.dumps({"suite": "rad-drop", "families": [], "grid": {"r": [1]}}),
        json.dumps({"suite": "rad-drop", "families": [{"family": "cycle", "n": 20}],
                    "grid": {"trials": 0}}),
        json.dumps({"suite": "rad-drop", "families": [{"family": "cycle", "n": 20}],
                    "grid": {"r": []}}),
    ],
    ids=["invalid-json", "family-missing", "unknown-grid-key", "finite-param-knob",
         "grid-not-object", "config-is-a-directory", "not-utf8", "no-families",
         "zero-trials", "empty-grid-list"],
)
def test_sweep_malformed_config_exits_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    place(tmp_path / "cfg.json", text)
    assert run(["sweep", "--config", "cfg.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep-out").exists()


@pytest.mark.parametrize(
    "family, grid, name",
    [
        ({"family": "cycle", "n": 20}, {"r": 2.7}, "grid 'r'"),
        ({"family": "cycle", "n": 20}, {"r": True}, "grid 'r'"),
        ({"family": "cycle", "n": 20}, {"r": [[2]]}, "grid 'r'"),
        ({"family": "cycle", "n": 20}, {"trials": 1.5, "r": 1}, "grid 'trials'"),
        ({"family": "cycle", "n": 12.5}, {"r": 1}, "families entry 'n'"),
        ({"family": "random-regular", "n": 20, "d": 3, "seed": 1.5}, {"r": 1},
         "families entry 'seed'"),
        ({"family": "torus-grid", "dims": [4]}, {"r": 1}, "families entry 'dims'"),
        ({"family": "torus-grid", "dims": [4.5, 4]}, {"r": 1}, "families entry 'dims'"),
        ({"family": "torus-grid", "dims": [4, 4, 4]}, {"r": 1}, "families entry 'dims'"),
    ],
    ids=["r-float", "r-bool", "r-nested-list", "trials-float", "n-float", "seed-float",
         "dims-one", "dims-float", "dims-three"],
)
def test_sweep_value_the_flag_rejects_exits_2(tmp_path, monkeypatch, capsys, family, grid,
                                              name):
    # each value goes through its flag's type, as --r 2.7 or --dims 4 would
    monkeypatch.chdir(tmp_path)
    place(tmp_path / "cfg.json", json.dumps({"suite": "rad-drop", "families": [family],
                                             "grid": grid}))
    assert run(["sweep", "--config", "cfg.json"]) == 2
    assert f"error: {name}: bad value" in capsys.readouterr().err
    assert not (tmp_path / "sweep-out").exists()


@pytest.mark.parametrize("seed", [2.7, 3.0, True, None, "3"])
def test_sweep_seed_that_is_not_an_integer_exits_2(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--config", sweep_config(tmp_path, seed=seed)]) == 2
    assert "error: the sweep seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "sweep-out").exists()


def test_sweep_families_entry_builds_the_graph_of_its_flags(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    place(tmp_path / "cfg.json", json.dumps({
        "suite": "rad-drop", "seed": 3, "grid": {"trials": 2, "r": 1},
        "families": [{"family": "torus-grid", "dims": [5, 4]},
                     {"family": "torus-grid", "dims": "5x4"}],
    }))
    assert run(["sweep", "--config", "cfg.json"]) == 0
    assert run(["verify", "rad-drop", "--family", "torus-grid", "--dims", "5,4", "--r", "1",
                "--trials", "2", "--seed", "3", "--out", "rd.csv"]) == 0
    swept = (tmp_path / "sweep-out" / "rad-drop.csv").read_text().splitlines()
    verified = (tmp_path / "rd.csv").read_text().splitlines()
    assert swept[1:] == ["torus-grid," + line for line in verified[1:] * 2]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rad-drop", "--family", "cycle", "--n", "50", "--r", "1", "--seed", "-3",
         "--out", "rd.csv"],
        ["local-net", "--family", "cycle", "--n", "50", "--r", "2", "--p", "0.1", "--R", "5",
         "--seed", "-3", "--out", "ln.json"],
        ["net", "--family", "random-regular", "--n", "20", "--d", "3", "--r", "1",
         "--family-seed", "-1", "--out", "net.json"],
    ],
    ids=["verify", "local-net", "family-seed"],
)
def test_negative_seed_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "overrides, argv",
    [
        ({"seed": -5}, []),
        ({}, ["--seed", "-1"]),
        ({"families": [{"family": "random-regular", "n": 20, "d": 3, "seed": -2}]}, []),
    ],
    ids=["config-seed", "seed-flag", "family-seed"],
)
def test_sweep_negative_seed_exits_2(tmp_path, monkeypatch, capsys, overrides, argv):
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--config", sweep_config(tmp_path, **overrides), *argv]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep-out").exists()


@pytest.mark.parametrize(
    "suite, grid, header",
    [
        ("interlace", {"u_size": 3, "trials": 2},
         "family,trial,seed,n,mode,u_size,halfline_dev,halfline_bound,"
         "interval_dev,interval_bound,grid_size,ok"),
        ("finite-param", {"theta": 0.3, "r": 1, "s": [2, 3], "trials": 2},
         "family,trial,seed,n,x,theta,r,s,net_size,lhs,rhs,"
         "term_moment,term_tail,term_net,ok"),
    ],
    ids=["interlace", "finite-param"],
)
def test_sweep_runs_every_verify_suite(tmp_path, monkeypatch, suite, grid, header):
    monkeypatch.chdir(tmp_path)
    assert run(["sweep", "--config", sweep_config(tmp_path, suite=suite, grid=grid)]) == 0
    lines = (tmp_path / "sweep-out" / f"{suite}.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 2 * 2
    assert all(line.startswith("cycle,") and line.endswith(",true") for line in lines[1:])


# Outputs pinned across versions: (argv, output, config_sha256, CSV header,
# seed column). A change to any of them breaks the replay of earlier runs.
SEEDS_11 = ["1926383459", "592467769"]  # trial seeds 0 and 1 of master seed 11
SEEDS_5 = ["16823399", "3796490668"]
PINNED = [
    (["verify", "rad-drop", "--family", "cycle", "--n", "40", "--r", "2",
      "--method", "both", "--p", "0.3", "--trials", "2", "--seed", "11", "--out", "out.csv"],
     "out.csv", "02396f68b79c9b852e2267900b997480bde69005170d3fca783e9619d9d1e469",
     "trial,seed,n,method,r,net_size,lam1_g,lam1_h,lhs,rhs,ok",
     [s for s in SEEDS_11 for _ in range(2)]),
    (["verify", "local-global", "--family", "cycle", "--n", "24", "--r-max", "2",
      "--trials", "2", "--seed", "11", "--out", "out.csv"],
     "out.csv", "e9ef8a3673102161b840b28c5da6082d65725adcd23e927a85a69de68606d178",
     "trial,seed,n,r,lhs,rhs,slack,ok",
     [s for s in SEEDS_11 for _ in range(2)]),
    (["verify", "interlace", "--family", "cycle", "--n", "20", "--u-size", "4",
      "--trials", "2", "--seed", "11", "--out", "out.csv"],
     "out.csv", "f9b3c87fdfb56005e8a93314c586b757f21289f21a8278b7316e6845d1b46b01",
     "trial,seed,n,mode,u_size,halfline_dev,halfline_bound,interval_dev,"
     "interval_bound,grid_size,ok",
     [s for s in SEEDS_11 for _ in range(2)]),
    (["verify", "finite-param", "--family", "cycle", "--n", "30", "--theta", "0.4",
      "--r", "1", "--s", "3", "--trials", "2", "--seed", "11", "--out", "out.csv"],
     "out.csv", "1073e149d7858638d10fb380919a517f06de8e3e20e89a9cb9cc9a20d21fe748",
     "trial,seed,n,x,theta,r,s,net_size,lhs,rhs,term_moment,term_tail,term_net,ok",
     SEEDS_11),
    (["verify", "thm", "--variant", "second-eig", "--family", "cycle", "--n", "64",
      "--seed", "11", "--out", "out.json"],
     "out.json", "6f44227006d4054168c6570a067a3230c660d167922368db876d71b7a384c7db",
     None, None),
    (["sweep", "--config", "cfg.json"],
     "sweep-out/rad-drop.csv",
     "3c2c49d164fcf021772f29336934c36d0f0304c996b5de04dce11675e6f9b3a3",
     "family,trial,seed,n,method,r,net_size,lam1_g,lam1_h,lhs,rhs,ok",
     [s for s in SEEDS_5 for _ in range(2)]),
    (["sweep", "--config", "cfg.json", "--suite", "local-global"],
     "sweep-out/local-global.csv",
     "63688e062e30eff8ae4ad6f3186f9a07213424047df36561ca17130fdd5d938a",
     "family,trial,seed,n,r,lhs,rhs,slack,ok",
     [s for s in SEEDS_5 for _ in range(2)]),
    (["sweep", "--config", "second-eig.json"],
     "sweep-out/second-eig.csv",
     "ac48c78567e12ef6a5ef392e91c87bdb237c04686c3ab82dd8e28762c24658c9",
     "family,n,seed,delta_tilde,x,theta,lhs,rhs,rate,implied_constant,ok,"
     "fp_theta,fp_r,fp_s,fp_lhs,fp_rhs,fp_ok",
     ["3225285948", "3933992529", "302313366", "2967464816"]),
]


@pytest.mark.parametrize(
    "argv, out, sha, header, seeds", PINNED,
    ids=[f"verify-{suite}" for suite in ("rad-drop", "local-global", "interlace", "finite-param",
                                         "thm")]
    + [f"sweep-{suite}" for suite in ("rad-drop", "local-global", "second-eig")],
)
def test_outputs_pinned(tmp_path, monkeypatch, argv, out, sha, header, seeds):
    monkeypatch.chdir(tmp_path)
    sweep_config(tmp_path)
    (tmp_path / "second-eig.json").write_text(json.dumps(SECOND_EIG_CFG))
    assert run(argv) == 0
    man = json.loads((tmp_path / (out + ".manifest.json")).read_text())
    assert man["config_sha256"] == sha
    if header is not None:
        lines = (tmp_path / out).read_text().splitlines()
        assert lines[0] == header
        i = header.split(",").index("seed")
        assert [line.split(",")[i] for line in lines[1:]] == seeds


# ---------------------------------------------------------------------------
# determinism


BATTERY = [
    ["gen", "--family", "random-regular", "--n", "24", "--d", "4",
     "--seed", "3", "--out", "g.graph"],
    ["verify", "rad-drop", "--family", "random-regular", "--n", "24", "--d", "4",
     "--r", "1", "--trials", "5", "--seed", "11", "--out", "rd.csv"],
    ["verify", "interlace", "--family", "cycle", "--n", "18", "--u-size", "3",
     "--trials", "4", "--seed", "2", "--out", "il.csv"],
    ["walks", "tree", "--d", "3", "--N", "20", "--out", "walks.csv"],
    *QUERY_ARGVS,
]


def run_battery(root, monkeypatch):
    monkeypatch.chdir(root)
    for argv in BATTERY:
        assert run(list(argv)) == 0
    (root / "cfg.json").write_text(json.dumps(SECOND_EIG_CFG, sort_keys=True))
    assert run(["sweep", "--config", "cfg.json"]) == 0
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name != "cfg.json":
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_same_seed_same_bytes_across_runs(tmp_path, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    out_a = run_battery(a, monkeypatch)
    out_b = run_battery(b, monkeypatch)
    assert sorted(out_a) == sorted(out_b)
    for name in out_a:
        assert out_a[name] == out_b[name], name


def test_second_eig_sparse_path_same_bytes_across_runs(tmp_path, monkeypatch):
    """At n = 1024 lambda_2 comes from Lanczos (shift-invert on the cycle)
    and the counts from sparse factorizations; a second run in the same
    process must write the same floats as the first."""
    cfg = {**SECOND_EIG_CFG, "grid": {"n": [1024]}}
    outs = []
    for run_index in (1, 2):
        root = tmp_path / f"run{run_index}"
        root.mkdir()
        monkeypatch.chdir(root)
        (root / "cfg.json").write_text(json.dumps(cfg))
        assert run(["sweep", "--config", "cfg.json"]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted((root / "sweep-out").iterdir())})
    assert sorted(outs[0]) == ["second-eig.csv", "second-eig.csv.manifest.json"]
    assert outs[0] == outs[1]


def test_trial_seed_streams_independent():
    seeds = {trial_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(0, 1) != trial_seed(1, 0)


def test_fmt_float_formatting():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(True) == "true"
    assert fmt(2.0) == "2"
    assert fmt("x") == "x"
