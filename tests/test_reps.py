"""Finite-dimensional module characters and the partition-function oracle."""
from __future__ import annotations

from itertools import product
from math import comb

import pytest

from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.weyl import BruhatGraph
from qbgg.reps import (char_equal, exterior_dominant_chars,
                       exterior_layers, kostant_partition, levi_character,
                       levi_dim_weyl, levi_irrep, levi_orbit_size,
                       levi_weight_multiplicities, quotient_weights,
                       verify_dim_identity)

from oracles import exterior_power_char, full_dim_identity, gvm_char


def _full(name: str) -> ParabolicData:
    rs = RootSystem(name)
    return ParabolicData(rs, set(range(1, rs.rank + 1)))


@pytest.mark.parametrize("name,coords,dim", [
    ("A1", (3,), 4),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 2), 27),
    ("A3", (0, 1, 0), 6),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("C3", (1, 0, 0), 6),
])
def test_weyl_dimension_formula(name, coords, dim):
    P = _full(name)
    assert levi_dim_weyl(P, Weight(coords)) == dim


def test_g2_fundamental_dims():
    P = _full("G2")
    dims = sorted(levi_dim_weyl(P, Weight(c)) for c in [(1, 0), (0, 1)])
    assert dims == [7, 14]


def test_freudenthal_adjoint_multiplicities():
    # the A2 adjoint module: six roots once, zero weight twice
    P = _full("A2")
    ch = levi_character(P, levi_weight_multiplicities(P, Weight((1, 1))))
    assert sum(ch.values()) == 8
    assert ch[Weight((0, 0))] == 2
    rs = P.rs
    for beta in rs.positive_roots:
        w = rs.root_to_weight(beta)
        assert ch[w] == 1
        assert ch[-w] == 1


@pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "G2", "F4"])
def test_adjoint_zero_weight_multiplicity_is_the_rank(name):
    # the highest root is the highest weight of the adjoint module, whose
    # zero weight space is the Cartan subalgebra
    P = _full(name)
    rs = P.rs
    ch = levi_character(P, levi_weight_multiplicities(
        P, rs.root_to_weight(rs.highest_root())))
    assert ch[Weight((0,) * rs.rank)] == rs.rank
    assert sum(ch.values()) == rs.rank + 2 * len(rs.positive_roots)


def test_char_dim_agreement():
    # multiplicity sums match the closed-form dimension
    for name, coords in [("A2", (2, 1)), ("B2", (1, 1)), ("G2", (1, 0))]:
        P = _full(name)
        dom, dim = levi_irrep(P, Weight(coords))
        ch = levi_character(P, dom)
        assert sum(ch.values()) == dim == levi_dim_weyl(P, Weight(coords))


def test_levi_restriction():
    # Levi of A2 at node 1: the quotient weights split into sl2 strings
    rs = RootSystem("A2")
    P = ParabolicData(rs, {1})
    qw = quotient_weights(P)
    assert len(qw) == 2
    ch, dim = levi_irrep(P, rs.root_to_weight(rs.highest_root()))
    assert dim == 2


def _partition_by_polynomial(rs: RootSystem, beta: tuple[int, ...]) -> int:
    """Independent oracle: coefficient extraction from the product of
    geometric series over the positive roots."""
    coeffs = {tuple([0] * rs.rank): 1}
    for root in rs.positive_roots:
        new = dict(coeffs)
        # multiply by 1/(1 - x^root) truncated at beta
        stack = sorted(coeffs)
        for mono in stack:
            shifted = mono
            while True:
                shifted = tuple(a + b for a, b in zip(shifted, root))
                if any(a > b for a, b in zip(shifted, beta)):
                    break
                new[shifted] = new.get(shifted, 0) + coeffs[mono]
        coeffs = new
    return coeffs.get(beta, 0)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "D4", "E6", "E7"])
def test_kostant_partition_against_series(name):
    rs = RootSystem(name)
    theta = rs.highest_root()
    top = (3, 3) if rs.rank == 2 else theta
    box = [theta] if name[0] == "E" else product(*(range(t + 1) for t in top))
    for beta in box:
        assert kostant_partition(rs, beta) == _partition_by_polynomial(rs, beta)
    if name[0] == "E":
        assert kostant_partition(rs, theta) == {"E6": 622, "E7": 18837}[name]


def test_kostant_partition_frozen():
    rs = RootSystem("A2")
    assert kostant_partition(rs, (1, 1)) == 2
    assert kostant_partition(rs, (2, 1)) == 2
    assert kostant_partition(rs, (2, 2)) == 3
    g2 = RootSystem("G2")
    assert kostant_partition(g2, (1, 1)) == 2


def test_exterior_power_char():
    P = ParabolicData(RootSystem("A3"), {1, 3})
    qw = [w.coords for w in quotient_weights(P)]
    assert len(qw) == 4
    layers = exterior_layers(3, qw, 4)
    assert sum(sum(ch.values()) for ch in layers) == 16
    assert [d for d, _ in exterior_dominant_chars(P, qw)] == [1, 4, 6, 4, 1]


def _dominant(P: ParabolicData, ch: dict) -> dict:
    return {w.coords: m for w, m in ch.items() if P.is_S_dominant(w)}


@pytest.mark.parametrize("name,S", [("B3", {2, 3}), ("D5", {2, 3, 4, 5}),
                                    ("E6", {2, 3, 4, 5, 6})])
def test_exterior_power_char_against_subsets(name, S):
    # the one-pass layers against subset enumeration: whole characters up to
    # half the degree, S-dominant restrictions (through the duality) in all
    rs = RootSystem(name)
    P = ParabolicData(rs, S)
    qw = quotient_weights(P)
    n = len(qw)
    coords = [w.coords for w in qw]
    layers = exterior_layers(rs.rank, coords, n // 2)
    dominant = exterior_dominant_chars(P, coords)
    assert len(dominant) == n + 1
    for k in range(n + 1):
        brute = exterior_power_char(rs.rank, qw, k)
        if 2 * k <= n:
            assert layers[k] == {w.coords: m for w, m in brute.items()}
        assert dominant[k] == (comb(n, k), _dominant(P, brute))


def _irreducible_flags() -> list[ParabolicData]:
    """Acceptance 1's 29 irreducible flags of rank at most 5, and E6/P1."""
    out = []
    for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                 "C2", "C3", "C4", "C5", "D4", "D5"]:
        rs = RootSystem(name)
        nodes = set(range(1, rs.rank + 1))
        out.extend(P for P in (ParabolicData(rs, nodes - {s}) for s in nodes)
                   if P.irreducible_flag)
    out.append(ParabolicData(RootSystem("E6"), {2, 3, 4, 5, 6}))
    assert len(out) == 30
    return out


def test_dim_identity_matches_full_character_oracle():
    for P in _irreducible_flags():
        G = BruhatGraph(P)
        rep = verify_dim_identity(G)
        assert rep["ok"]
        assert rep == full_dim_identity(G)


def test_orbit_size_formula_matches_orbit_enumeration():
    # every S-dominant weight of every Levi module at a dot-orbit point
    for P in _irreducible_flags():
        G = BruhatGraph(P)
        zero = Weight((0,) * P.rs.rank)
        seen = set()
        for lvl in G.levels:
            for w in lvl:
                seen.update(levi_irrep(P, G.W.shifted_act(w, zero))[0])
        for mu in seen:
            assert levi_orbit_size(P, mu) == len(levi_character(P, {mu: 1}))


def test_dim_identity_small_flags():
    for name, S in [("A2", {1}), ("A3", {1, 3}), ("B3", {2, 3})]:
        G = BruhatGraph(ParabolicData(RootSystem(name), S))
        rep = verify_dim_identity(G)
        assert rep["ok"]
        for lvl in rep["levels"]:
            assert lvl["dims_match"] and lvl["weights_match"]


def test_gvm_char_borel_is_partition_function():
    rs = RootSystem("A2")
    P = ParabolicData(rs, set())
    ch = gvm_char(P, Weight((0, 0)), 4)
    for wt, mult in ch.items():
        beta = tuple(-c for c in rs.weight_root_coords_int(wt))
        assert mult == kostant_partition(rs, beta)


def test_char_equal():
    assert char_equal({(0, 0): 1}, {(0, 0): 1})
    assert not char_equal({(0, 0): 1}, {(0, 0): 2})
    assert not char_equal({(0, 0): 1}, {(1, 0): 1})
