"""Field arithmetic and exact linear algebra, cross-checked by numeric
evaluation at generic rational points."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbgg import qfield
from qbgg.qfield import (CertificationError, Echelon, Laurent, QMatrix, RatFunc,
                         add_into, fill_to_rank, kernel_basis, laurent_divexact, laurent_gcd,
                         normalize_vector, rank)

from oracles import (all_rows_echelon, at_point_mod_p, evaluate, normalize_by_gcd,
                     same_quotient, shadow_insert_full_walk)

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
    assume(evaluate(a.den, Q0) != 0 and evaluate(b.den, Q0) != 0)
    assert evaluate(a + b, Q0) == evaluate(a, Q0) + evaluate(b, Q0)
    assert evaluate(a * b, Q0) == evaluate(a, Q0) * evaluate(b, Q0)
    assert evaluate(a - b, Q0) == evaluate(a, Q0) - evaluate(b, Q0)


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


def _matrix(rows: list[list[RatFunc]], cols: int) -> QMatrix:
    """The matrix with these dense rows, stored as sparse columns."""
    return QMatrix(len(rows), [{i: r[j] for i, r in enumerate(rows) if not r[j].is_zero()}
                               for j in range(cols)])


def _apply(m: QMatrix, vec: list[RatFunc]) -> dict:
    out: dict = {}
    for col, v in zip(m.columns, vec):
        add_into(out, col, v)
    return out


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3).map(
    lambda e: RatFunc.q_power(e) if e else RatFunc.zero()),
    min_size=3, max_size=3), min_size=2, max_size=4))
def test_rank_matches_numeric(rows):
    m = _matrix(rows, 3)
    r = rank(m)
    # the transpose holds the rows as its columns, and has the same rank
    mt = _matrix([list(col) for col in zip(*rows)], len(rows))
    assert (mt.rows, mt.cols) == (3, len(rows))
    assert mt.columns == [{j: e for j, e in enumerate(row) if not e.is_zero()} for row in rows]
    assert rank(mt) == r
    # symbolic rank >= rank at any specialization; q = 5/3 is generic here
    num = _fraction_rank([[evaluate(e, Q0) for e in row] for row in rows])
    assert r >= num
    # rank-nullity, and kernel vectors actually lie in the kernel
    ker = kernel_basis(m)
    assert r + len(ker) == 3
    for v in ker:
        assert _apply(m, v) == {}


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
    return max(_fraction_rank([[evaluate(e, x) for e in r] for r in dense])
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
    assert rank(QMatrix(5, rows)) == len(ech)
    # residues hold no zero value, also for explicit zeros and entries that
    # cancel in the elimination, so `not residue` is a zero test
    part = Echelon()
    part.insert(rows[0])
    q = RatFunc.q_power(1)
    for vec in rows + [{**r, 5: RatFunc.zero()} for r in rows] + [{**rows[0], 5: q}]:
        assert not any(v.is_zero() for v in part.reduce(vec).values())
    assert part.reduce({**rows[0], 5: q}) == {5: q}
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


@settings(max_examples=40, deadline=None)
@given(_sparse_rows())
def test_insertion_order_keeps_pivots_and_residues(rows):
    # `_echelon_of` inserts from the sparse end; the rows in generation
    # order, in ascending and in descending order of leading column give the
    # same pivots and the same residue of every probe vector
    q = RatFunc.q_power(1)
    rows = rows + [{k: v * q for k, v in rows[0].items()}]
    nonempty = [r for r in rows if r]
    generated = all_rows_echelon(lambda: iter(rows))
    others = [all_rows_echelon(lambda: iter(sorted(nonempty, key=min))),
              all_rows_echelon(lambda: iter(sorted(nonempty, key=min, reverse=True))),
              qfield._echelon_of(rows)]
    probes = [{k: RatFunc.one()} for k in range(6)] + [{**r, 5: q} for r in rows]
    for ech in others:
        assert set(ech.rows) == set(generated.rows)
        for vec in probes:
            assert ech.reduce(vec) == generated.reduce(vec)


def _recording_inserts(mp: pytest.MonkeyPatch) -> list:
    """Patch Echelon.insert to record every pivot it returns (None for a
    row that reduces to zero)."""
    seen: list = []
    insert = Echelon.insert

    def recording(self, vec):
        seen.append(insert(self, vec))
        return seen[-1]
    mp.setattr(Echelon, "insert", recording)
    return seen


def _plain_echelon(rows) -> Echelon:
    return all_rows_echelon(lambda: iter(rows))


@settings(max_examples=40, deadline=None)
@given(_sparse_rows())
def test_fill_to_rank_inserts_no_dependent_row(rows):
    # interleave dependent rows: a q-multiple and a sum of two earlier rows
    rows = rows + [{k: v * RatFunc.q_power(1) for k, v in rows[0].items()}]
    if len(rows) >= 3:
        dep = dict(rows[1])
        for k, v in rows[2].items():
            dep[k] = dep.get(k, RatFunc.zero()) + v
        rows.insert(3, {k: v for k, v in dep.items() if not v.is_zero()})
    plain = _plain_echelon(rows)
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_inserts(mp)
        ech = fill_to_rank(lambda: iter(rows), len(plain))
    assert None not in seen and len(seen) == len(plain)
    assert same_quotient(ech, plain, range(5))


def test_fill_to_rank_falls_back_when_an_entry_vanishes_at_the_point():
    q = RatFunc.q_power(1)
    # q - 12345 vanishes at the point, so mod p the rows look dependent
    rows = [{0: q - RatFunc.from_int(qfield._A), 1: RatFunc.one()},
            {1: RatFunc.one(), 2: q},
            {1: RatFunc.one()}]
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_inserts(mp)
        ech = fill_to_rank(lambda: iter(rows), 3)
    # two rows kept mod p, then every row inserted exactly
    assert len(seen) == 2 + 3
    assert len(ech) == 3 and same_quotient(ech, _plain_echelon(rows), range(3))


@pytest.mark.parametrize("first", [0, 1])
def test_fill_to_rank_falls_back_when_a_denominator_vanishes(first):
    pole = RatFunc.one() / (RatFunc.q_power(1) - RatFunc.from_int(qfield._A))
    rows = [{1: RatFunc.one(), 2: RatFunc.q_power(2)}, {0: pole, 2: RatFunc.one()}]
    rows = rows[first:] + rows[:first]
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_inserts(mp)
        ech = fill_to_rank(lambda: iter(rows), 2)
    # the rows before the pole are kept, then every row is inserted exactly
    assert len(seen) == (1 - first) + 2
    assert len(ech) == 2 and same_quotient(ech, _plain_echelon(rows), range(3))


def test_fill_to_rank_raises_when_the_rank_exceeds_the_target():
    one, q = RatFunc.one(), RatFunc.q_power(1)
    rows = [{0: one, 1: q}, {0: q, 1: q * q}, {1: one}]
    assert len(fill_to_rank(lambda: iter(rows), 2)) == 2
    with pytest.raises(CertificationError):
        fill_to_rank(lambda: iter(rows), 1)
    # too few independent rows: every row is inserted and the rank is exact
    assert len(fill_to_rank(lambda: iter(rows[:2]), 2)) == 1


def test_rank_frozen_examples():
    one, q = RatFunc.one(), RatFunc.q_power(1)
    z = RatFunc.zero()
    assert rank(QMatrix(2, [{0: one, 1: q}, {0: q, 1: q * q}])) == 1
    assert rank(QMatrix(2, [{0: one, 1: q}, {0: q, 1: one}])) == 2
    assert rank(QMatrix(3, [{}] * 4)) == 0
    # no rows: every column is free and the kernel is the unit vectors
    assert kernel_basis(QMatrix(0, [{}] * 3)) == [[one if k == j else z for k in range(3)]
                                                  for j in range(3)]
    empty = QMatrix(4, [])
    assert (empty.rows, empty.cols, rank(empty)) == (4, 0, 0)


def test_normalize_vector_clears_denominators():
    v = [RatFunc.q_power(-2), RatFunc.one() / RatFunc.from_int(3)]
    w = normalize_vector(v)
    assert all(x.den.is_monomial() for x in w)
    # proportional to the input
    assert (w[0] * v[1]) == (w[1] * v[0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(RatFunc.zero()), ratfuncs()),
                         min_size=4, max_size=4), min_size=1, max_size=3))
def test_kernel_vectors_vanish_on_other_free_columns(rows):
    m = _matrix(rows, 4)
    # column j is free when it lies in the span of the columns left of it
    free = [j for j in range(4)
            if rank(_matrix([r[:j + 1] for r in rows], j + 1))
            == rank(_matrix([r[:j] for r in rows], j))]
    ker = kernel_basis(m)
    assert len(ker) == len(free)
    # row keys relabelled as tuples, in another order, give the same kernel
    assert kernel_basis(QMatrix(m.rows, [{(i % 2, -i): v for i, v in c.items()}
                                         for c in m.columns])) == ker
    for f, v in zip(free, ker):
        assert _apply(m, v) == {}
        assert all(v[g].is_zero() == (g != f) for g in free)
        # kernel_basis already normalizes, so callers need not do it again
        assert normalize_vector(v) == v


def _terms(p: Laurent) -> dict[int, int]:
    return dict(p.items())


def _pair(c: RatFunc) -> tuple[dict[int, int], dict[int, int]]:
    return _terms(c.num), _terms(c.den)


def _dense(p: Laurent) -> list[Fraction]:
    if p.is_zero():
        return []
    c = _terms(p)
    return [Fraction(c.get(e, 0)) for e in range(p.valuation(), p.degree() + 1)]


def _fraction_divmod(a: list[Fraction], b: list[Fraction]):
    """Long division of dense coefficient lists (low to high) over Q."""
    a = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        f = a[k + len(b) - 1] / b[-1]
        quo[k] = f
        for i, y in enumerate(b):
            a[k + i] -= f * y
    rem = a[:len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _euclid_gcd(a: Laurent, b: Laurent) -> dict[int, int]:
    """Euclid over Q, scaled to a primitive integer polynomial with positive
    leading coefficient and lowest exponent 0."""
    da, db = _dense(a), _dense(b)
    while db:
        da, db = db, _fraction_divmod(da, db)[1]
    lcm = 1
    for x in da:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in da]
    g = gcd(*ints) * (1 if not ints or ints[-1] > 0 else -1)
    return {e: x // g for e, x in enumerate(ints) if x}


def _fraction_quotient(a: Laurent, b: Laurent) -> dict[int, int] | None:
    """a / b in Z[q, q^-1], or None when it is not exact."""
    quo, rem = _fraction_divmod(_dense(a), _dense(b))
    if rem or not quo or any(x.denominator != 1 for x in quo):
        return None
    v = a.valuation() - b.valuation()
    return {v + i: int(x) for i, x in enumerate(quo) if x}


def big_laurents():
    # coefficients up to 10^12 make the evaluation point xi large
    coeff = st.one_of(st.integers(-9, 9), st.integers(-10 ** 12, 10 ** 12))
    return st.dictionaries(st.integers(-3, 4), coeff, max_size=4).map(Laurent)


@given(big_laurents(), big_laurents(), big_laurents())
def test_gcd_and_divexact_match_fraction_euclid(f, g, h):
    assert _terms(laurent_gcd(f, g)) == _euclid_gcd(f, g)
    if h.is_zero():
        return
    for a in (f * h, f * h + g):
        expected = _fraction_quotient(a, h) if not a.is_zero() else {}
        if expected is None:
            with pytest.raises(ArithmeticError):
                laurent_divexact(a, h)
        else:
            assert _terms(laurent_divexact(a, h)) == expected


@given(big_laurents(), big_laurents(), big_laurents())
def test_gcd_of_products_with_common_factor(f, g, h):
    assume(not (f * h).is_zero() and not (g * h).is_zero())
    d = laurent_gcd(f * h, g * h)
    assert _terms(d) == _euclid_gcd(f * h, g * h)
    # the primitive part of h divides the gcd
    assert _fraction_quotient(d, laurent_gcd(h, Laurent())) is not None


@settings(max_examples=50)
@given(big_laurents(), big_laurents(), big_laurents())
def test_prs_gcd_matches_fraction_euclid(f, g, h):
    # the remainder sequence itself, on the primitive coefficient lists of two
    # nonzero products, equals Euclid over Q up to sign, with nonzero ends
    a, b = f * h, g * h
    assume(not a.is_zero() and not b.is_zero())
    d = qfield._prs_gcd(qfield._primitive(a.a), qfield._primitive(b.a))
    assert d[0] and d[-1]
    expected = _euclid_gcd(a, b)
    assert {e: x for e, x in enumerate(d) if x} in (
        expected, {e: -x for e, x in expected.items()})


def test_divexact_raises_when_inexact():
    with pytest.raises(ArithmeticError):
        laurent_divexact(Laurent({2: 1, 0: 1}), Laurent({1: 1, 0: 1}))
    with pytest.raises(ArithmeticError):
        laurent_divexact(Laurent({1: 3}), Laurent.const(2))


def monomials():
    # the units +-q^e take a fast path without integer gcds
    units = st.tuples(st.integers(-4, 4), st.sampled_from([1, -1])).map(
        lambda t: RatFunc.q_power(*t))
    return units | st.tuples(st.integers(-4, 4), st.integers(-30, 30).filter(bool),
                             st.integers(1, 30)).map(
        lambda t: RatFunc(Laurent({t[0]: t[1]}), Laurent.const(t[2])))


@given(monomials(), ratfuncs())
def test_monomial_product_matches_general_path(a, b):
    general = RatFunc(a.num * b.num, a.den * b.den)
    for p in (a * b, b * a):
        assert _pair(p) == _pair(general)


@given(ratfuncs())
def test_product_by_one_is_the_value_itself(a):
    # a product by one makes no copy, and its value is the factor's
    one = RatFunc.one()
    assert a._times_monomial(one) is a
    for p in (a * one, one * a):
        assert _pair(p) == _pair(a)


def denominators():
    # with integer content and either sign of the leading coefficient
    return st.tuples(laurents().filter(lambda p: not p.is_zero()),
                     st.integers(-6, 6).filter(bool)).map(lambda t: t[0].scale_int(t[1]))


@given(laurents(), denominators(), laurents())
def test_division_first_matches_the_gcd_path(h, den, num):
    # a denominator that divides the numerator gives (quotient, 1) with no
    # gcd; any other pair goes on to the gcd, and both land on its normal form
    gcds = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfield, "laurent_gcd", lambda a, b: gcds.append(1) or laurent_gcd(a, b))
        exact = RatFunc._normalize(den * h, den)
        assert not gcds
        other = RatFunc._normalize(num, den)
    for got, pair in ((exact, (den * h, den)), (other, (num, den))):
        assert tuple(map(_terms, got)) == tuple(map(_terms, normalize_by_gcd(*pair)))
    assert _terms(exact[1]) == {0: 1}


@given(ratfuncs() | st.tuples(laurents(), denominators(), st.integers(-60, 60)).map(
    lambda t: RatFunc(t[0].shift(t[2]), t[1].shift(-t[2]))))
def test_table_specialization_matches_pow(c):
    # powers of _A come from the table, negative exponents included, and a
    # denominator of 1 skips the inverse
    assert qfield._at_a(c) == at_point_mod_p(c, qfield._A, qfield._P)


@pytest.mark.parametrize("den", [
    Laurent({1: 1, 0: -qfield._A}),
    Laurent({-2: 1, -3: -qfield._A}) * Laurent({0: 1, 1: 1}),
    Laurent({1: 1, 0: -qfield._A}) * Laurent({1: 1, 0: -qfield._A}),
])
def test_table_specialization_raises_where_a_denominator_vanishes(den):
    # `fill_to_rank` falls back to exact elimination on this ValueError
    c = RatFunc(Laurent({0: 1}), den)
    with pytest.raises(ValueError):
        at_point_mod_p(c, qfield._A, qfield._P)
    with pytest.raises(ValueError):
        qfield._at_a(c)


@given(ratfuncs())
def test_inverse_matches_general_path(a):
    # the gcd-free swap must land on the normal form that division computes
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv, general = a.inverse(), RatFunc.one() / a
    assert _pair(inv) == _pair(general)


@given(ratfuncs(), ratfuncs(), denominators())
def test_values_reached_by_different_paths_share_one_normal_form(a, b, p):
    # `__eq__` compares fields and `__hash__` hashes them: both rest on every
    # path to a value landing on its one normal form
    pairs = [((a + b) - b, a), (RatFunc(a.num * p, a.den * p), a)]
    if not b.is_zero():
        pairs += [((a * b) / b, a), ((a / b) * b, a), (a * b.inverse(), a / b)]
    if not a.is_zero():
        pairs.append((a.inverse().inverse(), a))
    for x, y in pairs:
        assert x == y
        assert _pair(x) == _pair(y)
        assert hash(x) == hash(y)


def _dense_form(p: Laurent) -> bool:
    """Whether p keeps `Laurent`'s invariant: an int tuple with nonzero ends,
    and zero as v = 0, a = ()."""
    if not p.a:
        return p.v == 0 and p.a == ()
    return type(p.a) is tuple and all(type(x) is int for x in p.a) and bool(p.a[0] and p.a[-1])


def _random_laurent(rng: random.Random) -> Laurent:
    # interior zeros, both signs, and now and then a large coefficient
    n = rng.randint(0, 6)
    coeffs = [rng.choice((0, 0, 1, -1, 2, -3, 7, rng.randint(-10 ** 9, 10 ** 9)))
              for _ in range(n)]
    return Laurent({e: x for e, x in enumerate(coeffs, rng.randint(-5, 5))})


def test_seeded_dense_arithmetic_matches_fraction_evaluation():
    rng = random.Random(23)
    for _ in range(400):
        a, b, h = (_random_laurent(rng) for _ in range(3))
        assert all(map(_dense_form, (a, b, h)))
        ea, eb, eh = (evaluate(x, Q0) for x in (a, b, h))
        for got, want in ((a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb), (-a, -ea)):
            assert _dense_form(got) and evaluate(got, Q0) == want
        if h.is_zero():
            continue
        quo = laurent_divexact(a * h, h)
        assert _dense_form(quo) and quo == a
        g = laurent_gcd(a * h, b * h)
        assert _dense_form(g) and _terms(g) == _euclid_gcd(a * h, b * h)
        for num in (a, a * h, a * h + b):
            c = RatFunc(num, h)
            assert _dense_form(c.num) and _dense_form(c.den)
            assert _pair(c) == tuple(map(_terms, normalize_by_gcd(num, h)))
            if eh:
                assert evaluate(c, Q0) == evaluate(num, Q0) / eh


def test_seeded_polynomial_sums_and_products_share_denominator_one():
    # (p, 1) is already a normal form, so sums and products of two of them
    # skip the normalization and keep the shared one as denominator
    rng = random.Random(29)
    for _ in range(400):
        a, b = RatFunc(_random_laurent(rng)), RatFunc(_random_laurent(rng))
        for got, num in ((a + b, a.num + b.num), (a * b, a.num * b.num)):
            assert got.den is qfield._ONE and _dense_form(got.num)
            assert _pair(got) == tuple(map(_terms, normalize_by_gcd(num, Laurent.const(1))))
        # a value 1 reached by another path shares it too
        if not a.is_zero():
            assert (a / a).den is qfield._ONE and a.inverse().inverse().den is qfield._ONE


def test_seeded_shadow_insert_matches_the_full_column_walk():
    # the pivot-only walk finds the same pivots and packs the same rows
    rng = random.Random(31)
    for _ in range(40):
        fast: dict[int, bytes] = {}
        slow: dict[int, bytes] = {}
        inserted: list[dict[int, int]] = []
        for _ in range(25):
            if inserted and rng.random() < 0.4:  # a vector in or near the span
                u, w = rng.choice(inserted), rng.choice(inserted)
                f = rng.randrange(1, qfield._P)
                vec = {k: (u.get(k, 0) + f * w.get(k, 0)) % qfield._P for k in {*u, *w}}
                if rng.random() < 0.5:
                    vec[rng.randrange(16)] = rng.randrange(qfield._P)
            else:
                vec = {rng.randrange(16): rng.choice((0, 1, qfield._P - 1, rng.randrange(qfield._P)))
                       for _ in range(rng.randint(1, 6))}
            inserted.append(dict(vec))
            assert qfield._shadow_insert(fast, dict(vec)) == shadow_insert_full_walk(slow, vec)
            assert fast == slow
