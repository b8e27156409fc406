"""Weyl group enumeration, coset graphs, and sign assignments."""
from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import qbgg
from qbgg import weyl
from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.qfield import CertificationError
from qbgg.weyl import (Arrow, BruhatGraph, GroupTooLarge, WeylElement, WeylGroup,
                       incomparability_report)

from oracles import (MatrixBruhatGraph, MatrixWeylGroup, _mat_mul, kostant_decompose,
                     length_by_inversions, square_signs)


@pytest.mark.parametrize("name,order", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("B2", 8), ("B3", 48), ("G2", 12),
    ("D4", 192),
])
def test_group_orders(name, order):
    assert len(WeylGroup(RootSystem(name)).elements) == order


_NAMES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4",
          "G2", "F4")


def _parabolics():
    for name in _NAMES:
        rs = RootSystem(name)
        for size in range(rs.rank + 1):
            for S in combinations(range(1, rs.rank + 1), size):
                yield rs, frozenset(S)


def _filtered_reps(W: MatrixWeylGroup, S) -> list:
    """Reference: keep the w of the full group with w^{-1}(alpha_j) > 0, j in S."""
    r = W.rs.rank
    S0 = [j - 1 for j in sorted(S)]
    return [w for w in W.elements
            if all(all(W.inv_matrix[w][k][j] >= 0 for k in range(r)) for j in S0)]


def test_coset_walk_matches_filtered_group():
    pairs = 0
    for rs, S in _parabolics():
        if not S:  # each type's first parabolic
            full = MatrixWeylGroup(rs)
        walk = WeylGroup(rs, S).elements
        assert walk == _filtered_reps(full, S), (rs.ctype, S)
        assert len(full.elements) % len(walk) == 0
        pairs += 1
    assert pairs == 130


def test_orbit_graph_matches_the_matrix_graph():
    # words, dot points, depths, arrows with their roots, squares and signs,
    # each in the reference's order
    pairs = 0
    for rs, S in _parabolics():
        P = ParabolicData(rs, S)
        G, ref = BruhatGraph(P), MatrixBruhatGraph(P)
        assert G.cosets == ref.cosets, (rs.ctype, S)
        assert list(G.dot.items()) == list(ref.dot.items())
        assert list(G.depth.items()) == list(ref.depth.items())
        assert G.arrows == ref.arrows
        assert G.squares == ref.squares
        assert list(G.signs.items()) == list(ref.signs.items())
        pairs += 1
    assert pairs == 130


@pytest.mark.parametrize("name,S,count", [
    ("E6", {2, 3, 4, 5, 6}, 27), ("E7", {1, 2, 3, 4, 5, 6}, 56),
    ("A7", {1, 2, 3, 5, 6, 7}, 70), ("B8", set(range(2, 9)), 16),
    ("C8", set(range(1, 8)), 256), ("D8", set(range(1, 8)), 128),
])
def test_coset_counts_beyond_full_group(name, S, count):
    rs = RootSystem(name)
    reps = WeylGroup(rs, frozenset(S)).elements
    assert len(reps) == count
    # the longest representative has length dim G/P = number of quotient roots
    assert reps[-1].length == len(ParabolicData(rs, S).quotient_roots)


def test_oversized_walk_is_refused_before_it_starts():
    # |W(E8)| is the product of (ht + 1) / ht over the 120 positive roots
    with pytest.raises(GroupTooLarge, match="would store 696729600 elements"):
        WeylGroup(RootSystem("E8"))


def test_walk_must_reach_the_predicted_count(monkeypatch):
    monkeypatch.setattr(weyl, "prod", lambda factors: 7)
    with pytest.raises(CertificationError, match="found 6 cosets, not 7"):
        WeylGroup(RootSystem("A2"))


@pytest.mark.parametrize("name,S", [("A2", {1}), ("A3", {1, 3}), ("B3", set()),
                                    ("G2", {2}), ("E6", {2, 3, 4, 5, 6})])
def test_dot_points_depths_and_offsets(name, S):
    G = BruhatGraph(ParabolicData(RootSystem(name), S))
    rs = G.P.rs
    zero = Weight((0,) * rs.rank)
    ref = MatrixWeylGroup(rs, G.P.S)
    for w in G.cosets:
        assert G.dot[w] == G.W.shifted_act(w, zero) == ref.shifted_act(w, zero)
        assert rs.root_to_weight(G.depth[w]) == -G.dot[w]
        assert min(G.depth[w]) >= 0
        assert (sum(G.depth[w]) == 0) == (w.length == 0)
    for a in G.arrows:
        off = G.offset(a.source, a.target)
        assert rs.root_to_weight(off) == G.dot[a.source] - G.dot[a.target]
        assert min(off) >= 0 and sum(off) >= 1


def test_longest_length_is_root_count():
    for name in ("A3", "B3", "G2"):
        rs = RootSystem(name)
        W = WeylGroup(rs)
        assert max(w.length for w in W.elements) == len(rs.positive_roots)


def test_length_by_inversions_matches_word_length():
    for name in ("A3", "B2", "G2"):
        W = WeylGroup(RootSystem(name))
        ref = MatrixWeylGroup(W.rs)
        assert W.elements == ref.elements
        for w in W.elements:
            assert length_by_inversions(ref, w) == w.length


def _simple(W: WeylGroup, i: int):
    return next(w for w in W.elements if w.word == (i,))


def test_simple_reflection_action():
    rs = RootSystem("A2")
    W = WeylGroup(rs)
    ref = MatrixWeylGroup(rs)
    s1 = _simple(W, 1)
    assert ref.act(s1, rs.simple_root(1)).coords == (-rs.simple_root(1)).coords
    # s_i permutes the other positive roots
    assert ref.act_root(s1, (0, 1)) == (1, 1)
    # the word replayed on a weight agrees with the matrix action
    for w in W.elements:
        for lam in (rs.fundamental_weight(1), Weight((2, -3))):
            assert W.shifted_act(w, lam) == ref.shifted_act(w, lam)


def test_shifted_action_at_zero():
    rs = RootSystem("A2")
    W = WeylGroup(rs)
    s1 = _simple(W, 1)
    # s_1 . 0 = -alpha_1
    assert rs.weight_root_coords_int(W.shifted_act(s1, Weight((0, 0)))) == (-1, 0)


@pytest.mark.parametrize("name,S,levels", [
    ("A1", set(), [1, 1]),
    ("A2", {1}, [1, 1, 1]),
    ("A3", {1, 3}, [1, 1, 2, 1, 1]),
    ("A3", {2, 3}, [1, 1, 1, 1]),
])
def test_coset_levels(name, S, levels):
    G = BruhatGraph(ParabolicData(RootSystem(name), S))
    assert [len(lvl) for lvl in G.levels] == levels


def test_gr24_graph_shape():
    G = BruhatGraph(ParabolicData(RootSystem("A3"), {1, 3}))
    assert len(G.arrows) == 6
    assert len(G.squares) == 1
    for a in G.arrows:
        assert a.target.length == a.source.length + 1
        assert a.root in G.P.rs.positive_roots


def test_signs_product_minus_one_on_squares():
    for name, S in [("A3", {1, 3}), ("A3", set()), ("A4", {1, 3, 4})]:
        G = BruhatGraph(ParabolicData(RootSystem(name), S))
        assert G.squares
        for (w1, w2, w3, w4) in G.squares:
            prod = (G.sign(w1, w2) * G.sign(w2, w4)
                    * G.sign(w1, w3) * G.sign(w3, w4))
            assert prod == -1


@pytest.mark.parametrize("name,S", [
    ("A3", ()), ("B3", ()), ("C3", ()), ("B4", ()), ("D4", ()),
    ("A4", (1, 3, 4)), ("C3", (1, 2)), ("D4", (1, 3, 4)),
])
def test_signs_match_the_bit_by_bit_solver(name, S):
    # lowest-bit elimination and the bitmask back-substitution find the
    # same pivots and the same solution with free bits 0
    G = BruhatGraph(ParabolicData(RootSystem(name), set(S)))
    assert G.squares
    assert G.signs == square_signs(G)


def test_kostant_decompose():
    rs = RootSystem("A3")
    P = ParabolicData(rs, {1, 3})
    W = MatrixWeylGroup(rs)
    G = BruhatGraph(P)
    for w in W.elements:
        wS, wup = kostant_decompose(P, W, w, G.cosets)
        assert wS.length + wup.length == w.length
        assert _mat_mul(W.matrix[wS], W.matrix[wup]) == W.matrix[w]


def test_incomparability_positive_cases():
    for name, S in [("A2", {1}), ("A3", {1, 3})]:
        G = BruhatGraph(ParabolicData(RootSystem(name), S))
        assert incomparability_report(G)["ok"]


def test_incomparability_negative_controls():
    # dropping the parabolic makes the pairwise condition fail
    G = BruhatGraph(ParabolicData(RootSystem("A2"), set()))
    assert not incomparability_report(G)["ok"]
    # a non-orbit highest weight breaks the general statement
    rs = RootSystem("A3")
    G2 = BruhatGraph(ParabolicData(rs, {1, 3}))
    G2.dot = {w: G2.W.shifted_act(w, rs.fundamental_weight(3)) for w in G2.cosets}
    rep = incomparability_report(G2)
    assert not rep["ok"]


def test_weyl_element_and_arrow_are_values_hashed_like_their_fields():
    e, s1 = WeylElement(()), WeylElement((1,))
    assert s1 == WeylElement((1,)) and s1 != e and s1 != (1,)
    assert hash(s1) == hash((1,))
    a = Arrow(e, s1, (1, 0))
    assert a == Arrow(WeylElement(()), WeylElement((1,)), (1, 0))
    assert a != Arrow(e, s1, (0, 1))
    assert hash(a) == hash((e, s1, (1, 0)))


def test_cli_import_loads_no_dataclasses():
    # dataclasses would pull inspect, ast, dis and tokenize into every start
    src = str(Path(qbgg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c",
                           "import qbgg.cli, sys; print('dataclasses' in sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
