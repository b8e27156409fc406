"""Root system data against classical tables."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbgg.cartan import CartanType, ParabolicData, RootSystem, Weight

from oracles import positive_roots_closure


@pytest.mark.parametrize("name,count", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9),
    ("C3", 9), ("D4", 12), ("G2", 6), ("F4", 24), ("B5", 25), ("C5", 25),
    ("D5", 20),
])
def test_positive_root_counts(name, count):
    assert len(RootSystem(name).positive_roots) == count


@pytest.mark.parametrize("name", ["A3", "B4", "C5", "D6", "E6", "E7", "E8", "F4",
                                  "G2", "A20", "B12", "D15"])
def test_positive_roots_by_height_match_the_closure(name):
    # extending only the newest height finds the roots that rescanning every
    # root until nothing changes finds, in the same order
    rs = RootSystem(name)
    assert rs.positive_roots == positive_roots_closure(rs)


@pytest.mark.parametrize("name,height", [
    ("A1", 1), ("A3", 3), ("A5", 5), ("B3", 5), ("C3", 5), ("D4", 5),
    ("G2", 5), ("F4", 11),
])
def test_highest_root_height(name, height):
    rs = RootSystem(name)
    assert sum(rs.highest_root()) == height


def test_symmetrizers():
    assert RootSystem("A3").d == [1, 1, 1]
    assert RootSystem("B2").d == [2, 1]
    assert RootSystem("C3").d == [1, 1, 2]
    assert RootSystem("G2").d == [1, 3] or RootSystem("G2").d == [3, 1]


def test_inner_product_symmetric_and_norms():
    for name in ("A2", "B2", "G2", "C3"):
        rs = RootSystem(name)
        for i in range(1, rs.rank + 1):
            ai = rs.simple_root(i)
            assert rs.inner_scaled(ai, ai) == rs.denom * 2 * rs.d[i - 1]
            for j in range(1, rs.rank + 1):
                aj = rs.simple_root(j)
                assert rs.inner_scaled(ai, aj) == rs.inner_scaled(aj, ai)
                assert rs.denom * rs.bform[i - 1][j - 1] == rs.inner_scaled(ai, aj)


@given(st.sampled_from(["A2", "B2", "B3", "G2"]),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_weight_root_coordinate_roundtrip(name, coords):
    rs = RootSystem(name)
    beta = tuple(coords[:rs.rank])
    w = rs.root_to_weight(beta)
    assert rs.weight_root_coords_int(w) == beta


_RANK_LE_8 = ([f + str(r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
               for r in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"])


@lru_cache(maxsize=None)
def _with_reference_inverse(name: str) -> tuple[RootSystem, list[list[Fraction]]]:
    """The root system and A^-1, found by solving A x = e_j column by column."""
    rs = RootSystem(name)
    n = rs.rank
    cols = []
    for j in range(n):
        m = [[Fraction(v) for v in row] + [Fraction(int(i == j))]
             for i, row in enumerate(rs.cartan)]
        for c in range(n):
            p = next(i for i in range(c, n) if m[i][c])
            m[c], m[p] = m[p], m[c]
            for i in range(n):
                if i != c and m[i][c]:
                    f = m[i][c] / m[c][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        cols.append([m[i][n] / m[i][i] for i in range(n)])
    return rs, [[cols[j][i] for j in range(n)] for i in range(n)]


_coords8 = st.lists(st.integers(-4, 4), min_size=8, max_size=8)


@pytest.mark.parametrize("name", _RANK_LE_8)
@settings(max_examples=20, deadline=None)
@given(xs=_coords8, ys=_coords8)
def test_integer_form_matches_the_fraction_form(name, xs, ys):
    rs, inv = _with_reference_inverse(name)
    n = rs.rank
    x, y = xs[:n], ys[:n]
    # (omega_i, omega_j) = d_j (A^-1)_{ji}
    form = sum(x[i] * y[j] * rs.d[j] * inv[j][i] for i in range(n) for j in range(n))
    assert rs.denom == math.lcm(*(f.denominator for row in inv for f in row))
    assert rs.inner_scaled(Weight(tuple(x)), Weight(tuple(y))) == rs.denom * form
    rc = rs.weight_root_coords(Weight(tuple(x)))
    assert all(type(c) is Fraction for c in rc)
    assert rc == tuple(sum(inv[i][k] * x[k] for k in range(n)) for i in range(n))


@pytest.mark.parametrize("name", ["A2", "E6"])
def test_weight_root_coords_int_rejects_a_weight_off_the_root_lattice(name):
    rs = RootSystem(name)
    with pytest.raises(ValueError):
        rs.weight_root_coords_int(rs.fundamental_weight(1))


def test_cominuscule_classification():
    # every node of A_n; only the first node of B_n; only the last of C_n
    for s in (1, 2, 3):
        assert ParabolicData(RootSystem("A3"), {1, 2, 3} - {s}).irreducible_flag
    assert ParabolicData(RootSystem("B3"), {2, 3}).irreducible_flag
    assert not ParabolicData(RootSystem("B3"), {1, 2}).irreducible_flag
    assert ParabolicData(RootSystem("C3"), {1, 2}).irreducible_flag
    assert not ParabolicData(RootSystem("C3"), {2, 3}).irreducible_flag
    assert not ParabolicData(RootSystem("G2"), {1}).irreducible_flag
    assert not ParabolicData(RootSystem("G2"), {2}).irreducible_flag
    # S missing more than one node is never an irreducible flag here
    assert not ParabolicData(RootSystem("A3"), {2}).irreducible_flag


def test_QS_membership():
    rs = RootSystem("A2")
    P = ParabolicData(rs, {1})
    a1, a2 = rs.simple_root(1), rs.simple_root(2)
    # Q_S is spanned by the simple roots inside S = {1}
    assert P.in_QS(a1) and P.in_QS_plus(a1)
    assert P.in_QS(-a1) and not P.in_QS_plus(-a1)
    assert not P.in_QS(a1 + a2)
    assert P.alpha_s_coefficient(a1 + a2) == 1
    assert P.alpha_s_coefficient(a2 + a2) == 2
    # a weight outside the root lattice
    assert not P.in_QS(rs.fundamental_weight(1))


def test_is_positive_root():
    rs = RootSystem("B2")
    assert (1, 1) in rs.positive_roots
    assert (1, 2) in rs.positive_roots
    assert (2, 1) not in rs.positive_roots
    assert (0, 0) not in rs.positive_roots


def test_weight_arithmetic():
    w = Weight((1, -2))
    assert (w + w).coords == (2, -4)
    assert (-w).coords == (-1, 2)
    assert (w + w + w).coords == (3, -6)
    assert (w - w).coords == (0, 0)


def test_weight_and_cartan_type_are_values_hashed_like_their_fields():
    w = Weight((1, -2))
    assert w == Weight((1, -2)) and w != Weight((1, 2)) and w != (1, -2)
    assert hash(w) == hash(((1, -2),))
    assert not hasattr(w, "__dict__")
    t = CartanType.parse("E6")
    assert t == CartanType("E", 6) and t != CartanType("E", 7)
    assert hash(t) == hash(("E", 6))
