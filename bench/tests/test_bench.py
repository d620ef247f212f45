"""Tests of the benchmark itself: tracing reach, self-time arithmetic, the gate.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import batteries  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from spectop import FamilySpec, nets, spectral  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer().install([batteries])
    yield t
    t.uninstall()


def children(spans, parent_name):
    return [s[0] for s in spans if s[3] >= 0 and spans[s[3]][0] == parent_name]


def test_wrapper_reaches_every_import_site(tracer):
    # called through the benchmark's own imports of the package-level names
    g = batteries.generate(FamilySpec("cycle", n=12))
    rep = batteries.net_removal_drop_check(g, batteries.greedy_tree_net(g, 2), 2)
    assert rep.ok
    assert children(tracer.spans, "nets.net_removal_drop_check").count("spectral.lambda1") == 2
    # nets.lambda1 is its own binding of spectral.lambda1; both are wrapped
    assert nets.lambda1 is spectral.lambda1
    assert spectral.lambda1.__wrapped__.__module__ == "spectop.spectral"
    # the unqualified calls inside lambda1_balls resolve to the wrapper too;
    # at radius 6 every ball of C12 is the whole graph, so one solve serves all
    spectral.lambda1_balls(g, 6)
    assert children(tracer.spans, "spectral.lambda1_balls").count("spectral.lambda1") == 1
    assert "graphs.WeightedGraph.dense" in children(tracer.spans, "spectral.lambda1")
    m = tracing.layer_metrics(tracer.spans)
    assert m["nets.net_removal_drop_check.calls"] == 1
    assert m["spectral.lambda1.calls"] == 3
    assert m["spectral.ball_solves_per_ball"] == pytest.approx(1 / 12)
    assert m["families.generate.order_sum"] == 12


def test_uninstall_restores_the_originals():
    before = (spectral.lambda1, nets.lambda1, batteries.local_net)
    t = tracing.Tracer().install([batteries])
    assert spectral.lambda1 is not before[0]
    t.uninstall()
    assert (spectral.lambda1, nets.lambda1, batteries.local_net) == before


def test_self_time_on_a_nested_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    spans = [
        ["spectral.a", 0.0, 10.0, -1, "", 0],
        ["graphs.b", 1.0, 4.0, 0, "", 0],
        ["graphs.d", 2.0, 3.0, 1, "", 0],
        ["nets.c", 5.0, 9.0, 0, "", 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tracing.layer_metrics(spans)
    assert (m["spectral.self_s"], m["graphs.self_s"], m["nets.self_s"]) == (3.0, 3.0, 4.0)
    # a window that starts inside the tree ignores parents before it
    assert tracing.self_times(spans, 1, 3) == [2.0, 1.0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_passes_its_own_gate(workload):
    ref = gate.load_reference(workload)
    assert gate.failures(workload, copy.deepcopy(ref), ref) == {}


@pytest.mark.parametrize("workload, field, change", [
    ("rad-drop", "ok", lambda v: not v),
    ("rad-drop", "net_size", lambda v: v + 1),
    ("rad-drop", "net_digest", lambda v: "0" * 16),
    ("rad-drop", "lhs", lambda v: v * (1 + 1e-5)),
    ("local-global", "rhs", lambda v: v * (1 + 1e-5)),
    ("local-net", "verified", lambda v: not v),
    ("local-net", "captains", lambda v: v - 1),
    ("second-eig", "fp_ok", lambda v: not v),
    ("second-eig", "x", lambda v: v * (1 + 1e-5)),
])
def test_perturbed_output_counts_as_failed(workload, field, change):
    ref = gate.load_reference(workload)
    recs = copy.deepcopy(ref)
    victim = next(r for r in recs if field in r)
    victim[field] = change(victim[field])
    assert list(gate.failures(workload, recs, ref)) == [victim["id"]]


def test_relabeling_keeps_local_global_outputs():
    ref = {r["id"]: r for r in gate.load_reference("local-global")}
    gi = 4  # torus 8x5, small enough to check every radius quickly
    g0 = batteries.corpus()[gi]
    g = batteries.relabeled(g0, seed=3)
    assert g != g0
    out = [(f"{gi}/{r}", batteries.local_global_check(g, r)) for r in batteries.LOCAL_GLOBAL_RADII]
    recs = batteries.local_global_records(out)
    assert gate.compare(recs, [ref[r["id"]] for r in recs]) == {}


def test_float_tolerance_and_added_columns_pass():
    ref = gate.load_reference("second-eig")
    recs = copy.deepcopy(ref)
    for r in recs[1:]:
        r["x"] *= 1 + 1e-9
        r["new_column"] = "added later"
    assert gate.failures("second-eig", recs, ref) == {}


def test_criterion_verdicts_apply_without_a_reference():
    recs = copy.deepcopy(gate.load_reference("rad-drop"))
    recs[3]["lhs"] = recs[3]["rhs"] + 1e-6
    recs[7] = {"id": recs[7]["id"], "error": "NotANetError()"}
    assert set(gate.failures("rad-drop", recs, None)) == {recs[3]["id"], recs[7]["id"]}

    recs = copy.deepcopy(gate.load_reference("local-net"))
    for r in recs:
        if r["id"].startswith("1/4/"):
            r["density"] = 0.5
    assert len(gate.failures("local-net", recs, None)) == 100

    recs = copy.deepcopy(gate.load_reference("second-eig"))
    recs[0]["rows"] = 9
    assert set(gate.failures("second-eig", recs, None)) == {"sweep"}

    recs = copy.deepcopy(gate.load_reference("local-global"))
    c4 = next(r for r in recs if r["id"] == "c4")
    c4["rhs"] = 8.0 + 1e-9
    assert set(gate.failures("local-global", recs, None)) == {"c4"}


def test_probe_scales_each_check_by_the_samples_near_it():
    probe = speed.Probe("dense")
    ref = speed.REFERENCE_S["dense"]
    # 40 samples 0.1 s apart: the first 20 twice as slow as the reference
    # time, the last 20 at it.
    probe.stamps = [0.1 * i for i in range(40)]
    probe.samples = [2 * ref] * 20 + [ref] * 20
    early, late, both = probe.local_factors([0.5, 3.5, 1.9], [0.01, 0.01, 0.05])
    assert early == pytest.approx(0.5) and late == pytest.approx(1.0)
    assert 0.5 <= both <= 1.0
    assert probe.factor() == pytest.approx(1 / 1.5)  # median time 1.5 x reference
    # the samples before ``lo`` belong to an earlier pass and are never used
    assert probe.local_factors([0.5], [0.01], lo=20) == [pytest.approx(1.0)]


def test_tail_percentile_leaves_ten_checks_per_pass_beyond():
    xs = [float(i) for i in range(504)] * 2
    value, pct = run.tail(xs, passes=2)
    assert value == 493.0 and pct == pytest.approx(100 * 494 / 504)
    assert sum(x > value for x in xs) == 20
    assert run.tail([1.0, 5.0, 2.0], passes=1) == (5.0, 100.0)


def test_benchmark_json_names_match_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    measured = set(tracing.layer_metrics([])) | {"cli.bytes_written", "trace.overhead_s"}
    assert measured == set(run.PER_LAYER)
