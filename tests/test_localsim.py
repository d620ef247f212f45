"""Label-driven local algorithms: separation, captains, cells, nets, MTP."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from spectop import (
    FamilySpec,
    LocalLabels,
    adjacency_transport,
    all_pairs_distances,
    build_graph,
    cell_transport,
    delete_vertices,
    elect_captains,
    generate,
    greedy_tree_net,
    induced_subgraph,
    is_r_net,
    is_s_separated,
    local_net,
    local_separated,
    mtp_check,
    theory_params,
    voronoi_assign,
)
from spectop.graphs import VertexSet, distances
from spectop.localsim import CellAssignment, CellConnectivityError, _intra_cell, _verify_cells_connected
from spectop.rng import keyed_uniform, rng_for

from conftest import graphs, random_connected_graph

# frozen: theory schedule at (delta, r) = (2, 1), gap = 1/1 - 1/1.5 = 1/3
THEORY_P_D2_R1 = 0.00637887953849786
THEORY_R_D2_R1 = 280
# frozen: (delta, r) = (3, 2) lands far outside the practical range
THEORY_P_D3_R2 = 7.917259665404072e-13
THEORY_R_D3_R2 = 3_783_799_445_967


def test_labels_keyed_per_vertex():
    labels = LocalLabels.from_seed(8, seed=42)
    assert labels.seed == 42
    for v in range(8):
        assert labels.values[v] == keyed_uniform(42, v)
    assert ((labels.values >= 0) & (labels.values < 1)).all()


def test_labels_do_not_depend_on_graph_size():
    small = LocalLabels.from_seed(5, seed=7)
    large = LocalLabels.from_seed(50, seed=7)
    assert np.array_equal(small.values, large.values[:5])


def test_labels_from_values_validates_range():
    for bad in (1.0, -0.25, math.nan):
        with pytest.raises(Exception):
            LocalLabels.from_values([0.5, bad])
    ok = LocalLabels.from_values([0.0, 0.25])
    assert ok.seed is None


@given(seed=st.integers(0, 5_000), r=st.integers(1, 4))
def test_local_separated_is_separated_subset(seed, r):
    g = random_connected_graph(seed, n_max=24)
    u = VertexSet.of(range(0, g.n, 2), g.n)
    labels = LocalLabels.from_seed(g.n, seed)
    out = local_separated(g, u, r, labels)
    assert set(out.ids) <= set(u.ids)
    assert is_s_separated(g, out, r)


def separated_reference(ap, w, s):
    """``is_s_separated`` as a loop over pairs: no two members closer than s."""
    return all(not 0 <= ap[a, b] < s for a in w for b in w if a != b)


def local_separated_reference(ap, u, r, labels):
    """``local_separated`` as a loop over members: keep v iff (label in U,
    -id) of v beats that of every other vertex within distance < r."""
    eff = np.where(u.mask(), labels.values, 0.0)
    return tuple(
        v for v in u.ids
        if all((eff[w], -w) < (eff[v], -v) for w in range(u.n) if w != v and 0 <= ap[v, w] < r)
    )


# labels with ties, among themselves and with the 0 of a vertex outside U
tied_labels = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0, exclude_max=True))


@given(g=graphs, data=st.data())
def test_separation_checks_match_the_per_vertex_loops(g, data):
    u = VertexSet.of(data.draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n)), g.n)
    labels = LocalLabels.from_values(data.draw(st.lists(tied_labels, min_size=g.n, max_size=g.n)))
    ap = all_pairs_distances(g)
    for r in [*range(1, g.n + 2), 1.5, math.inf]:
        assert local_separated(g, u, r, labels).ids == local_separated_reference(ap, u, r, labels)
        assert is_s_separated(g, u, r) == separated_reference(ap, u.ids, r)


def test_local_separated_radius_one_returns_input(cycle12):
    u = VertexSet.of([0, 3, 4, 9], 12)
    labels = LocalLabels.from_seed(12, 0)
    assert local_separated(cycle12, u, 1, labels).ids == u.ids


def test_local_separated_locality_radius():
    # changing labels at distance >= r from v cannot change v's membership
    g = generate(FamilySpec("cycle", n=30))
    u = VertexSet.of(range(30), 30)
    r, v = 3, 0
    base = rng_for(5).random(30) * 0.9
    labels1 = LocalLabels.from_values(base)
    d = distances(g, v)
    scrambled = base.copy()
    far = np.flatnonzero(d >= r)
    scrambled[far] = rng_for(6).random(len(far)) * 0.9
    labels2 = LocalLabels.from_values(scrambled)
    in1 = v in local_separated(g, u, r, labels1).ids
    in2 = v in local_separated(g, u, r, labels2).ids
    assert in1 == in2


def test_elect_captains_threshold_rule():
    g = generate(FamilySpec("cycle", n=20))
    labels = LocalLabels.from_seed(20, 3)
    captains = elect_captains(g, labels, 0.25)
    assert set(captains.ids) == set(np.flatnonzero(labels.values <= 0.25).tolist())


def test_elect_captains_rejects_bad_probability(cycle12):
    labels = LocalLabels.from_seed(12, 0)
    with pytest.raises(Exception):
        elect_captains(cycle12, labels, 1.5)


@given(seed=st.integers(0, 3_000))
def test_voronoi_cells_are_nearest_within_radius(seed):
    g = random_connected_graph(seed, n_max=20)
    labels = LocalLabels.from_seed(g.n, seed)
    captains = elect_captains(g, labels, 0.3)
    R = 4
    cells = voronoi_assign(g, captains, labels, R)
    ap = all_pairs_distances(g)
    caps = list(captains.ids)
    for v in range(g.n):
        assigned = int(cells.assignment[v])
        if not caps:
            assert assigned == -1
            continue
        dmin = min(ap[v][c] for c in caps if ap[v][c] >= 0)
        if assigned == -1:
            assert dmin > R or dmin < 0
        else:
            assert ap[v][assigned] == dmin <= R
            # tie-break: smallest (label, id) among captains at that distance
            tied = [c for c in caps if ap[v][c] == dmin]
            best = min(tied, key=lambda c: (labels.values[c], c))
            assert assigned == best


def test_voronoi_unassigned_when_no_captain(cycle12):
    labels = LocalLabels.from_values(np.full(12, 0.9))
    cells = voronoi_assign(cycle12, elect_captains(cycle12, labels, 0.1), labels, 3)
    assert len(cells.unassigned()) == 12


def _hand_cells(cells: dict[int, list[int]]) -> CellAssignment:
    a = np.full(12, -1)
    for captain, members in cells.items():
        a[members] = captain
    return CellAssignment(VertexSet.of(cells, 12), a, R=6)


def _verify_hand_cells(g, cells: dict[int, list[int]]) -> None:
    hand = _hand_cells(cells)
    _verify_cells_connected(_intra_cell(g, hand.assignment), hand)


@pytest.mark.parametrize(
    "cells, captain, orphan",
    [
        # 6 and 8 cannot reach 0 inside the cell; the cell of 3 is also
        # disconnected, but the smaller captain is named
        ({0: [0, 6, 8], 3: [3, 9]}, 0, 6),
        # 3 reaches 0 only through vertex 2, which is in another cell
        ({0: [0, 1, 3], 2: [2]}, 0, 3),
    ],
)
def test_disconnected_cell_names_captain_and_smallest_orphan(cycle12, cells, captain, orphan):
    with pytest.raises(CellConnectivityError, match=rf"captain {captain} .* vertex {orphan} "):
        _verify_hand_cells(cycle12, cells)


def test_connected_cells_with_unassigned_vertices_pass(cycle12):
    _verify_hand_cells(cycle12, {0: [11, 0, 1], 6: [5, 6, 7]})


def reference_voronoi_assign(g, captains, labels, R):
    """Layer-by-layer Voronoi assignment, kept as the oracle of the one-BFS
    version: vertices in distance order each take the smallest (label, id)
    captain among their neighbours one layer closer."""
    assignment = np.full(g.n, -1, dtype=np.int64)
    if not captains.ids:
        return assignment
    dist = distances(g, captains.ids, cutoff=R)
    assignment[list(captains.ids)] = list(captains.ids)
    lab = labels.values
    for v in np.argsort(dist, kind="stable").tolist():
        if dist[v] <= 0:
            continue
        nbrs = g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()
        closer = [int(assignment[w]) for w in nbrs if dist[w] == dist[v] - 1]
        assignment[v] = min(closer, key=lambda c: (lab[c], c))
    return assignment


def reference_local_net(g, labels, p, R, r):
    """The per-cell local net: one induced subgraph and one label-priority
    ``greedy_tree_net`` per cell, plus the unassigned vertices."""
    captains = elect_captains(g, labels, p)
    a = reference_voronoi_assign(g, captains, labels, R)
    members = set(np.flatnonzero(a < 0).tolist())
    for c in captains.ids:
        sub, vmap = induced_subgraph(g, np.flatnonzero(a == c).tolist())
        net = greedy_tree_net(sub, r, priority=labels.values[list(vmap)])
        members.update(vmap[i] for i in net.vertices.ids)
    return captains, a, tuple(sorted(members))


ORACLE_GRAPHS = [
    FamilySpec("cycle", n=90),
    FamilySpec("torus-grid", dims=(9, 8)),
    FamilySpec("random-regular", n=80, d=4, seed=7),
    FamilySpec("random-regular", n=60, d=6, seed=8),
]
# (p, R): no captain, every vertex a captain, single-vertex cells, then
# sparse captains with cut-off and with unbounded cells; R may be a float
ORACLE_CELL_PARAMS = [
    (0.0, 5), (1.0, 3), (0.3, 0), (0.5, 1), (0.15, 2.5), (0.05, 6.0), (0.02, 200), (0.02, math.inf)
]


@pytest.mark.parametrize("spec", ORACLE_GRAPHS, ids=lambda s: s.describe())
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_local_net_matches_the_per_cell_oracle(spec, r):
    g = generate(spec)
    for seed in range(8):
        labels = LocalLabels.from_seed(g.n, 1000 * r + seed)
        for p, R in ORACLE_CELL_PARAMS:
            captains, a, members = reference_local_net(g, labels, p, R, r)
            run = local_net(g, labels, p, R, r)
            assert run.cells.captains == captains
            assert np.array_equal(run.cells.assignment, a)
            assert run.net.vertices.ids == members
            assert run.net.verified and is_r_net(g, members, r)


@given(seed=st.integers(0, 5_000), R=st.integers(0, 6))
def test_voronoi_assign_matches_the_layer_oracle(seed, R):
    g = random_connected_graph(seed, n_max=30)
    labels = LocalLabels.from_seed(g.n, seed)
    # captains need not be the low labels
    captains = VertexSet.of(np.flatnonzero(rng_for(seed).random(g.n) < 0.3).tolist(), g.n)
    cells = voronoi_assign(g, captains, labels, R)
    assert np.array_equal(cells.assignment, reference_voronoi_assign(g, captains, labels, R))


def test_voronoi_assign_on_a_deep_forest():
    """Two adjacent captains on cycle 4096 with R = 2048: BFS trees 2047
    deep, whose roots take 11 pointer-jumping steps and a 12th that
    changes nothing."""
    g = generate(FamilySpec("cycle", n=4096))
    labels = LocalLabels.from_seed(g.n, 5)
    captains = VertexSet.of([0, 1], g.n)
    cells = voronoi_assign(g, captains, labels, 2048)
    assert np.array_equal(cells.assignment, reference_voronoi_assign(g, captains, labels, 2048))
    assert set(cells.assignment.tolist()) == {0, 1}


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


@given(g=graphs, seed=st.integers(0, 10_000))
def test_strong_components_are_the_components_of_graph_matrices(g, seed):
    """The component calls ask scipy for strong components, which are the
    components of a symmetric matrix: g's adjacency, that of g - W, and the
    intra-cell edges of any assignment are symmetric."""
    rng = rng_for(seed)
    removed = np.flatnonzero(rng.random(g.n) < 0.3).tolist()
    a = rng.integers(-1, 3, g.n)
    for m in (g.csr, delete_vertices(g, removed)[0].csr, _intra_cell(g, a)):
        assert (m != m.T).nnz == 0
        strong = sp.csgraph.connected_components(m, directed=True, connection="strong")[1]
        weak = sp.csgraph.connected_components(m, directed=False)[1]
        assert same_partition(strong, weak)


@given(seed=st.integers(0, 2_000), r=st.integers(1, 3))
def test_local_net_is_always_a_verified_net(seed, r):
    g = random_connected_graph(seed, n_max=30)
    labels = LocalLabels.from_seed(g.n, seed)
    run = local_net(g, labels, p=0.3, R=5, r=r)
    assert run.net.verified
    assert is_r_net(g, run.net.vertices, r)


def permuted_copy(g, labels, perm):
    edges = [(int(perm[u]), int(perm[v]), w) for u, v, w in g.edges()]
    values = np.empty(g.n)
    values[perm] = labels.values
    return build_graph(g.n, edges), LocalLabels.from_values(values)


@given(seed=st.integers(0, 1_500))
def test_local_net_equivariant_under_relabeling(seed):
    g = random_connected_graph(seed, n_max=22)
    labels = LocalLabels.from_seed(g.n, seed)
    perm = rng_for(seed + 77).permutation(g.n)
    h, hlabels = permuted_copy(g, labels, perm)
    net_g = local_net(g, labels, p=0.35, R=4, r=2).net.vertices.ids
    net_h = local_net(h, hlabels, p=0.35, R=4, r=2).net.vertices.ids
    assert set(net_h) == {int(perm[v]) for v in net_g}


def test_local_net_membership_is_4R_local():
    g = generate(FamilySpec("cycle", n=80))
    p, R, r, v = 0.4, 3, 2, 0
    base = rng_for(11).random(80) * 0.999
    d = distances(g, v)
    for scramble_seed in range(5):
        scrambled = base.copy()
        far = np.flatnonzero(d > 4 * R)
        scrambled[far] = rng_for(100 + scramble_seed).random(len(far)) * 0.999
        run1 = local_net(g, LocalLabels.from_values(base), p, R, r)
        run2 = local_net(g, LocalLabels.from_values(scrambled), p, R, r)
        assert (v in run1.net.vertices.ids) == (v in run2.net.vertices.ids)


def test_theory_params_frozen_values():
    tp = theory_params(2, 1)
    gap = 1.0 / 1 - 1.0 / 1.5
    assert tp.gap == pytest.approx(gap, rel=1e-15)
    assert tp.p == pytest.approx(math.sqrt(gap / 2) * 2.0 ** (-6), rel=1e-15)
    assert tp.p == pytest.approx(THEORY_P_D2_R1, rel=1e-12)
    assert tp.R == THEORY_R_D2_R1
    assert tp.practical

    tp2 = theory_params(3, 2)
    assert tp2.p == pytest.approx(THEORY_P_D3_R2, rel=1e-12)
    assert tp2.R == THEORY_R_D3_R2
    assert not tp2.practical


def test_theory_params_R_is_least_sufficient():
    tp = theory_params(2, 1)
    assert (1 - tp.p) ** tp.R <= tp.gap / 2
    assert (1 - tp.p) ** (tp.R - 1) > tp.gap / 2


def test_mtp_on_cell_transport(cycle12):
    labels = LocalLabels.from_seed(12, 4)
    cells = voronoi_assign(cycle12, elect_captains(cycle12, labels, 0.3), labels, 4)
    rep = mtp_check(cycle12, cell_transport(cells))
    assert rep.ok
    assert rep.deviation <= 1e-12


def test_mtp_on_adjacency_transport(cycle12):
    rep = mtp_check(cycle12, adjacency_transport(cycle12))
    assert rep.ok and rep.deviation == 0.0


@given(seed=st.integers(0, 2_000))
def test_mtp_on_random_nonnegative_transport(seed):
    g = random_connected_graph(seed, n_max=15)
    f = rng_for(seed).random((g.n, g.n))
    rep = mtp_check(g, f)
    assert rep.ok
    assert rep.deviation <= 1e-12


def test_mtp_rejects_negative_entries(cycle12):
    for bad in (-1.0, math.nan):
        f = np.zeros((12, 12))
        f[0, 1] = bad
        with pytest.raises(Exception, match="nonnegative"):
            mtp_check(cycle12, f)


def test_transcript_is_deterministic_json(cycle12):
    labels = LocalLabels.from_seed(12, 9)
    run1 = local_net(cycle12, labels, 0.3, 4, 2)
    run2 = local_net(cycle12, labels, 0.3, 4, 2)
    assert run1.transcript_json() == run2.transcript_json()
    assert '"seed": 9' in run1.transcript_json()
    unassigned = json.loads(run1.transcript_json())["unassigned_count"]
    assert unassigned == len(run1.cells.unassigned())
