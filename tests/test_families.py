"""Named graph families: shapes, degrees, admissibility, determinism."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spectop import (
    FAMILIES,
    FamilySpec,
    InadmissibleFamilyError,
    generate,
    is_connected,
    tree_ball_size,
)


def degrees(g):
    return np.diff(g.indptr).tolist()


def test_family_registry_is_complete():
    assert set(FAMILIES) == {
        "path",
        "cycle",
        "torus-grid",
        "hypercube",
        "complete",
        "tree-ball",
        "random-regular",
    }


def test_path_shape():
    g = generate(FamilySpec("path", n=5))
    assert g.n == 5 and g.m == 4
    assert degrees(g) == [1, 2, 2, 2, 1]


def test_cycle_shape():
    g = generate(FamilySpec("cycle", n=6))
    assert g.n == 6 and g.m == 6
    assert degrees(g) == [2] * 6


def test_cycle_needs_three_vertices():
    with pytest.raises(InadmissibleFamilyError):
        generate(FamilySpec("cycle", n=2))


def test_torus_is_four_regular():
    g = generate(FamilySpec("torus-grid", dims=(4, 5)))
    assert g.n == 20 and g.m == 40
    assert degrees(g) == [4] * 20
    assert is_connected(g)


def test_torus_rejects_short_sides():
    with pytest.raises(InadmissibleFamilyError):
        generate(FamilySpec("torus-grid", dims=(2, 5)))


def test_hypercube_shape():
    g = generate(FamilySpec("hypercube", d=4))
    assert g.n == 16
    assert degrees(g) == [4] * 16
    # neighbors differ in exactly one bit
    for u, v, _ in g.edges():
        assert bin(u ^ v).count("1") == 1


def test_complete_shape():
    g = generate(FamilySpec("complete", n=6))
    assert g.m == 15
    assert degrees(g) == [5] * 6


def test_tree_ball_size_formula():
    # 1 + d * ((d-1)^depth - 1) / (d-2) vertices for degree d >= 3
    assert tree_ball_size(3, 1) == 4
    assert tree_ball_size(3, 2) == 10
    assert tree_ball_size(4, 2) == 17
    g = generate(FamilySpec("tree-ball", d=3, depth=3))
    assert g.n == tree_ball_size(3, 3) == 22
    assert g.m == g.n - 1
    root_degree = g.degree(0)
    assert root_degree == 3


def test_tree_ball_interior_degrees():
    g = generate(FamilySpec("tree-ball", d=4, depth=2))
    degs = degrees(g)
    # root has d children; depth-1 vertices have 1 parent + (d-1) children
    assert degs[0] == 4
    interior = [deg for deg in degs[1:] if deg > 1]
    assert all(deg == 4 for deg in interior)


@given(seed=st.integers(0, 500))
def test_random_regular_is_simple_connected_regular(seed):
    g = generate(FamilySpec("random-regular", n=24, d=3, seed=seed))
    assert degrees(g) == [3] * 24
    assert is_connected(g)


def test_random_regular_deterministic_per_seed():
    a = generate(FamilySpec("random-regular", n=30, d=4, seed=9))
    b = generate(FamilySpec("random-regular", n=30, d=4, seed=9))
    assert a == b
    c = generate(FamilySpec("random-regular", n=30, d=4, seed=10))
    assert a != c


def test_random_regular_rejects_odd_parity():
    with pytest.raises(InadmissibleFamilyError):
        generate(FamilySpec("random-regular", n=7, d=3, seed=0))


def test_random_regular_rejects_degree_too_large():
    with pytest.raises(InadmissibleFamilyError):
        generate(FamilySpec("random-regular", n=4, d=4, seed=0))


def test_unknown_family_rejected():
    with pytest.raises(InadmissibleFamilyError):
        generate(FamilySpec("moebius", n=5))


def test_describe_lists_relevant_fields():
    text = FamilySpec("random-regular", n=20, d=4, seed=3).describe()
    assert "random-regular" in text and "n=20" in text and "seed=3" in text
    text2 = FamilySpec("cycle", n=8).describe()
    assert "seed" not in text2
