"""Command-line surface: exit codes, file outputs, manifests, determinism."""

import json
import math

import pytest

from spectop.cli import ExperimentConfig, config_hash, fmt, main, trial_seed
from spectop.graphs import GraphError, read_graph


def run(argv):
    return main(argv)


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


def test_missing_graph_file_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(["spectrum", "--graph", "absent.graph", "--out", "s.csv"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_impractical_theory_params_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = run(
        ["local-net", "--family", "random-regular", "--n", "20", "--d", "3",
         "--r", "2", "--theory-params", "--out", "ln.json"]
    )
    assert rc == 2
    assert "too large to run" in capsys.readouterr().err


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


def test_manifest_ignores_worker_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["verify", "rad-drop", "--family", "cycle", "--n", "16", "--r", "1",
            "--trials", "2", "--out", "a.csv"]
    assert run(base + ["--workers", "1"]) == 0
    man_a = (tmp_path / "a.csv.manifest.json").read_bytes()
    csv_a = (tmp_path / "a.csv").read_bytes()
    assert run(base + ["--workers", "3"]) == 0
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == man_a
    assert (tmp_path / "a.csv").read_bytes() == csv_a


def test_config_hash_sensitive_to_values():
    h1 = config_hash({"cmd": "gen", "n": 10})
    h2 = config_hash({"cmd": "gen", "n": 11})
    assert h1 != h2
    assert h1 == config_hash({"n": 10, "cmd": "gen"})


# ---------------------------------------------------------------------------
# spectrum / walks output formats


def test_spectrum_csv_and_interval_query(tmp_path, monkeypatch):
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
    ],
    ids=["invalid-json", "family-missing", "unknown-grid-key", "finite-param-knob",
         "grid-not-object"],
)
def test_sweep_malformed_config_exits_2(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    assert run(["sweep", "--config", "cfg.json"]) == 2
    assert "error:" in capsys.readouterr().err
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
     "out.csv", "deaec5043814708d72cbe047be69b0560abcb1e911783018a4a326cbde15f855",
     "trial,seed,n,x,theta,r,s,net_size,lhs,rhs,term_moment,term_tail,term_net,ok",
     SEEDS_11),
    (["verify", "thm", "--variant", "second-eig", "--family", "cycle", "--n", "64",
      "--seed", "11", "--out", "out.json"],
     "out.json", "64eecb06aead5bdf9bbdff2352118794ffbda3135175f0fab14f80ef5e28bb2d",
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
]


def run_battery(root, monkeypatch, workers):
    monkeypatch.setenv("SPECTOP_WORKERS", str(workers))
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


def test_same_seed_same_bytes_across_workers(tmp_path, monkeypatch):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    out_a = run_battery(a, monkeypatch, workers=1)
    out_b = run_battery(b, monkeypatch, workers=4)
    assert sorted(out_a) == sorted(out_b)
    for name in out_a:
        assert out_a[name] == out_b[name], name


def test_trial_seed_streams_independent():
    seeds = {trial_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(0, 1) != trial_seed(1, 0)


def test_fmt_float_formatting():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(True) == "true"
    assert fmt(2.0) == "2"
    assert fmt("x") == "x"
