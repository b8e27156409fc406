"""Field arithmetic and exact linear algebra, cross-checked by numeric
evaluation at generic rational points."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbgg.qfield import (Echelon, Laurent, QMatrix, RatFunc, kernel_basis,
                         normalize_vector, rank, solve_in_span)

Q0 = Fraction(5, 3)


def laurents():
    return st.dictionaries(st.integers(-4, 4), st.integers(-9, 9),
                           max_size=4).map(Laurent)


def ratfuncs():
    def build(num, den):
        if den.is_zero():
            den = Laurent.const(1)
        return RatFunc(num, den)
    return st.tuples(laurents(), laurents()).map(lambda p: build(*p))


@given(ratfuncs(), ratfuncs())
def test_add_mul_match_evaluation(a, b):
    # evaluation at Q0 is undefined where a denominator vanishes (3q - 5)
    assume(a.den.evaluate(Q0) != 0 and b.den.evaluate(Q0) != 0)
    assert (a + b).evaluate(Q0) == a.evaluate(Q0) + b.evaluate(Q0)
    assert (a * b).evaluate(Q0) == a.evaluate(Q0) * b.evaluate(Q0)
    assert (a - b).evaluate(Q0) == a.evaluate(Q0) - b.evaluate(Q0)


@given(ratfuncs())
def test_field_axioms_unit_and_inverse(a):
    one = RatFunc.one()
    assert a * one == a
    assert a + RatFunc.zero() == a
    if not a.is_zero():
        assert a * a.inverse() == one


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a


def _fraction_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rk = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][col]:
                f = rows[i][col] / rows[rk][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3).map(
    lambda e: RatFunc.q_power(e) if e else RatFunc.zero()),
    min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_matches_numeric(rows):
    m = QMatrix.from_rows(rows, 3)
    r = rank(m)
    # symbolic rank >= rank at any specialization; q = 5/3 is generic here
    num = _fraction_rank(m.evaluate(Q0))
    assert r >= num
    # rank-nullity, and kernel vectors actually lie in the kernel
    ker = kernel_basis(m)
    assert r + len(ker) == 3
    for v in ker:
        assert all(x.is_zero() for x in m.apply(v))


def _sparse_rows():
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ce: RatFunc.q_power(ce[1], ce[0]))
    row = st.dictionaries(st.integers(0, 4), entry, max_size=4)
    return st.lists(row, min_size=1, max_size=5)


def _specialized_rank(dense: list[list[RatFunc]]) -> int:
    """Exact rank of a Laurent polynomial matrix from specializations.

    A nonzero k x k minor times q^(-k * lo) is a polynomial of degree at most
    cols * (hi - lo), so it has fewer nonzero roots than the points below; at
    one of them the minor survives, and no specialization exceeds the rank."""
    entries = [e for r in dense for e in r if not e.is_zero()]
    if not entries:
        return 0
    assert all(e.den == Laurent.const(1) for e in entries)
    lo = min(e.num.valuation() for e in entries)
    hi = max(e.num.degree() for e in entries)
    cols = len(dense[0])
    points = [Fraction(k) for k in range(2, 3 + cols * (hi - lo))]
    return max(_fraction_rank([[e.evaluate(x) for e in r] for r in dense])
               for x in points)


@settings(max_examples=40, deadline=None)
@given(_sparse_rows(), st.data())
def test_echelon_rank_matches_specialization(rows, data):
    # add a dependent row so that some insertions are rejected
    if len(rows) >= 2:
        dep = dict(rows[0])
        for k, v in rows[1].items():
            dep[k] = dep.get(k, RatFunc.zero()) + RatFunc.q_power(1) * v
        rows = rows + [dep]
    dense = [[r.get(j, RatFunc.zero()) for j in range(5)] for r in rows]
    ech = Echelon()
    for r in rows:
        ech.insert(r)
    assert len(ech) == _specialized_rank(dense)
    assert rank(QMatrix.from_rows(dense, 5)) == len(ech)
    order = data.draw(st.permutations(range(len(rows))))
    other = Echelon()
    for k in order:
        other.insert(rows[k])
    assert set(other.rows) == set(ech.rows)
    for r in rows:
        combo: dict[int, RatFunc] = {}
        assert ech.reduce(r, combo) == {}
        # the recorded coefficients rebuild the row from the echelon rows
        for j in range(5):
            acc = RatFunc.zero()
            for p, f in combo.items():
                row_p = ech.rows[p]
                entry = RatFunc.one() if j == p else row_p.get(j, RatFunc.zero())
                acc = acc + f * entry
            assert acc == r.get(j, RatFunc.zero())


def test_rank_frozen_examples():
    one, q = RatFunc.one(), RatFunc.q_power(1)
    z = RatFunc.zero()
    assert rank(QMatrix.from_rows([[one, q], [q, q * q]], 2)) == 1
    assert rank(QMatrix.from_rows([[one, q], [q, one]], 2)) == 2
    assert rank(QMatrix(3, 4)) == 0


def test_normalize_vector_clears_denominators():
    v = [RatFunc.q_power(-2), RatFunc.one() / RatFunc.from_int(3)]
    w = normalize_vector(v)
    assert all(x.is_polynomial() for x in w)
    # proportional to the input
    assert (w[0] * v[1]) == (w[1] * v[0])


def test_solve_in_span():
    one, q = RatFunc.one(), RatFunc.q_power(1)
    basis = [[one, q], [q, one]]
    target = [one + q, one + q]
    coeffs = solve_in_span(basis, target)
    assert coeffs is not None
    for i in range(2):
        acc = RatFunc.zero()
        for j, c in enumerate(coeffs):
            acc = acc + c * basis[j][i]
        assert acc == target[i]
    assert solve_in_span([[one, z] for z in [RatFunc.zero()]], [RatFunc.zero(), one]) is None


def _triangular_vectors(count: int, length: int):
    """`count` vectors of the given length; vector j is zero before entry j
    and a nonzero monomial at it, so the vectors are independent."""
    mono = st.tuples(st.sampled_from([-2, -1, 1, 2]), st.integers(-2, 2)).map(
        lambda ce: RatFunc.q_power(ce[1], ce[0]))
    entry = st.one_of(st.just(RatFunc.zero()), ratfuncs())
    return st.tuples(*[
        st.tuples(mono, st.lists(entry, min_size=length - j - 1,
                                 max_size=length - j - 1)).map(
            lambda hv, j=j: [RatFunc.zero()] * j + [hv[0]] + hv[1])
        for j in range(count)]).map(list)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    _triangular_vectors(k + 1, k + 2), st.lists(ratfuncs(), min_size=k, max_size=k))))
def test_solve_in_span_recovers_coefficients(data):
    vectors, coeffs = data
    basis, outside = vectors[:-1], vectors[-1]
    target = [RatFunc.zero()] * len(outside)
    for c, v in zip(coeffs, basis):
        target = [t + c * x for t, x in zip(target, v)]
    assert solve_in_span(basis, target) == coeffs
    assert solve_in_span(basis, [t + x for t, x in zip(target, outside)]) is None
    with pytest.raises(ValueError):
        solve_in_span(basis + [target], target)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(RatFunc.zero()), ratfuncs()),
                         min_size=4, max_size=4), min_size=1, max_size=3))
def test_kernel_vectors_vanish_on_other_free_columns(rows):
    m = QMatrix.from_rows(rows, 4)
    # column j is free when it lies in the span of the columns left of it
    free = [j for j in range(4)
            if rank(QMatrix.from_rows([r[:j + 1] for r in rows], j + 1))
            == rank(QMatrix.from_rows([r[:j] for r in rows], j))]
    ker = kernel_basis(m)
    assert len(ker) == len(free)
    for f, v in zip(free, ker):
        assert all(x.is_zero() for x in m.apply(v))
        assert all(v[g].is_zero() == (g != f) for g in free)
        # kernel_basis already normalizes, so callers need not do it again
        assert normalize_vector(v) == v
