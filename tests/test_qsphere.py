"""Rank-one coordinate algebra and the quantum-sphere calculus."""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbgg import qsphere as qs
from qbgg.cartan import RootSystem
from qbgg.qfield import RatFunc, add_into
from qbgg.uqalg import UqAlgebra
from oracles import pair_elem, pair_word


def test_relations_certified_against_pairing():
    rep = qs.verify_relations()
    assert rep["ok"]
    assert rep["degree2_kernel_dim"] == 6


def test_pairing_frozen_values():
    assert pair_word("a", [("K", 1)]) == RatFunc.q_power(1)
    assert pair_word("d", [("K", 1)]) == RatFunc.q_power(-1)
    assert pair_word("b", ["E"]) == RatFunc.one()
    assert pair_word("c", ["F"]) == RatFunc.one()
    assert pair_word("a", []) == RatFunc.one()
    assert pair_word("b", []).is_zero()
    assert pair_word("", [("K", 3)]) == RatFunc.one()


def test_pair_row_matches_the_word_by_word_pairing():
    # every word of degree <= 3 against every spanning word of step <= 3:
    # 85 * (1 + 12 + 45 + 112) = 14,450 pairs
    checked = 0
    for d in range(4):
        for letters in map("".join, product(qs._LETTERS, repeat=d)):
            for max_step in range(4):
                row = qs.pair_row(letters, max_step)
                words = qs._spanning_words(max_step)
                assert set(row) <= set(range(len(words)))
                assert not any(v.is_zero() for v in row.values())
                for p, u in enumerate(words):
                    assert row.get(p, RatFunc.zero()) == pair_word(letters, u)
                    checked += 1
    assert checked == 14450


def test_determinant_relation():
    # ad - q^{-1} bc = 1 in normal form
    ad = qs.mul(qs.gen("a"), qs.gen("d"))
    bc = qs.mul(qs.gen("b"), qs.gen("c"))
    diff = dict(ad)
    qs.add_into(diff, bc, -RatFunc.q_power(-1))
    assert diff == qs.one()


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="abcd", min_size=0, max_size=5))
def test_normal_form_matches_pairing(word):
    prod = qs.mul_all([qs.gen(x) for x in word])
    # normal monomials satisfy the basis condition
    for (i, j, k, l) in prod:
        assert i * l == 0
    for u in qs._spanning_words(min(len(word), 3)):
        assert (pair_elem(prod, u) - pair_word(word, u)).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet="abcd", min_size=0, max_size=3),
       st.text(alphabet="abcd", min_size=0, max_size=3))
def test_multiplication_associative(w1, w2):
    x = qs.mul_all([qs.gen(c) for c in w1])
    y = qs.mul_all([qs.gen(c) for c in w2])
    z = qs.gen("d")
    left = qs.mul(qs.mul(x, y), z)
    right = qs.mul(x, qs.mul(y, z))
    assert left == right


def test_weight_grading_multiplicative():
    for m in qs.monomials_of_weight(0, 4):
        assert qs.weight(m) == 0
    x = qs.mul(qs.gen("a"), qs.gen("b"))
    for m in x:
        assert qs.weight(m) == 0


def test_component_fiber_dims():
    rep = qs.component_fiber_dims()
    assert rep["ok"]
    assert rep["total_by_degree"] == {0: 1, 1: 2, 2: 1}


def test_differentials_shift_weight():
    f = qs.b_gen("x_zero")
    up = qs.del_antihol(f)
    dn = qs.del_hol(f)
    for m in up:
        assert qs.weight(m) == 2
    for m in dn:
        assert qs.weight(m) == -2


def test_leibniz():
    assert qs.verify_leibniz()["ok"]


def test_d_squared():
    assert qs.verify_d_squared()["ok"]


def test_volume_form():
    rep = qs.verify_volume_form()
    assert rep["ok"]
    assert rep["generated_dim"] == rep["subalgebra_window_dim"]


def test_central_check_fails_for_a_nontrivial_twist(monkeypatch):
    # a twist that scales by q moves every generator, so neither the twist
    # check nor the centrality check may pass
    column_action = qs._column_action

    def scaled_twist(x, letter):
        out = column_action(x, letter)
        if letter[0] == "K" and letter[1]:
            return {m: c * RatFunc.q_power(1) for m, c in out.items()}
        return out

    monkeypatch.setattr(qs, "_column_action", scaled_twist)
    rep = qs.verify_volume_form()
    assert not rep["twist_fixes_subalgebra"]
    assert not rep["central"]
    assert not rep["ok"]


def _rho(nw, j: int):
    """rho(nw) e_j = c e_i on the two-dimensional module of U_q(sl_2) as
    (i, c), or None when it is zero; rho(E) e_2 = e_1, rho(F) e_1 = e_2 and
    rho(K) e_j = q^{+-1} e_j."""
    fw, (k,), ew = nw
    for _ in ew:
        if j != 2:
            return None
        j = 1
    c = RatFunc.q_power(k if j == 1 else -k)
    for _ in fw:
        if j != 1:
            return None
        j = 2
    return j, c


def _tensor_action(terms: dict, J: tuple) -> dict:
    """Apply sum c * (x_1 (x) ... (x) x_n) to the basis tensor e_J."""
    out: dict = {}
    for nws, c in terms.items():
        images = [_rho(nw, j) for nw, j in zip(nws, J)]
        if None not in images:
            for _, v in images:
                c = c * v
            add_into(out, {tuple(i for i, _ in images): c})
    return out


@pytest.mark.parametrize("letter", ["E", "F", ("K", 1), ("K", -2)],
                         ids=["E", "F", "K1", "K-2"])
def test_apply_is_the_algebra_coproduct(letter):
    uq = UqAlgebra(RootSystem("A1"))
    x = (uq.E(1) if letter == "E" else uq.F(1) if letter == "F"
         else uq.K(1, letter[1]))
    delta = uq.coproduct(x)
    # (1 (x) Delta) Delta for the third tensor power
    delta3: dict = {}
    for (a, b), c in delta.items():
        for (b1, b2), c2 in uq.coproduct({b: RatFunc.one()}).items():
            add_into(delta3, {(a, b1, b2): c2}, c)
    for n, terms in ((2, delta), (3, delta3)):
        for J in product((1, 2), repeat=n):
            assert qs._apply({J: RatFunc.one()}, letter) == _tensor_action(terms, J)


def test_sphere_relation_unique():
    rep = qs.sphere_relation()
    assert rep["ok"]
    # q x_0 + x_0^2 = q^3 x_- x_+ checked directly in the algebra
    x0 = qs.b_gen("x_zero")
    xm = qs.b_gen("x_minus")
    xp = qs.b_gen("x_plus")
    lhs = qs.mul(x0, x0)
    qs.add_into(lhs, x0, RatFunc.q_power(1))
    qs.add_into(lhs, qs.mul(xm, xp), -RatFunc.q_power(3))
    assert not lhs


def test_full_calculus_report():
    assert qs.verify_calculus()["ok"]
