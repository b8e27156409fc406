"""Quantized enveloping algebra arithmetic, Hopf structure maps, and graded
dimensions of the lower triangular part."""
from __future__ import annotations

import itertools
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbgg
from qbgg.cartan import RootSystem, Weight
from qbgg.qfield import RatFunc
from qbgg.reps import kostant_partition
from qbgg.uqalg import NMinusWeightSpace, UqAlgebra, _words_of_content, add_into, scaled
from qbgg.verma import SliceFamily

from oracles import counit, words_of_content


@pytest.fixture(scope="module")
def uq_a2():
    return UqAlgebra(RootSystem("A2"))


@pytest.fixture(scope="module")
def uq_b2():
    return UqAlgebra(RootSystem("B2"))


def _elems_equal(x, y) -> bool:
    diff = dict(x)
    add_into(diff, y, RatFunc.from_int(-1))
    return not diff


def _sample_letters(uq):
    out = []
    for i in range(1, uq.r + 1):
        out.extend([uq.F(i), uq.E(i), uq.K(i), uq.K(i, -1)])
    return out


def test_k_commutation(uq_a2):
    uq = uq_a2
    rs = uq.rs
    for i in range(1, 3):
        for j in range(1, 3):
            lhs = uq.multiply(uq.K(i), uq.E(j))
            rhs = scaled(uq.multiply(uq.E(j), uq.K(i)),
                         RatFunc.q_power(rs.bform[i - 1][j - 1]))
            assert _elems_equal(lhs, rhs)
            lhs = uq.multiply(uq.K(i), uq.F(j))
            rhs = scaled(uq.multiply(uq.F(j), uq.K(i)),
                         RatFunc.q_power(-rs.bform[i - 1][j - 1]))
            assert _elems_equal(lhs, rhs)


def test_ef_commutator(uq_b2):
    uq = uq_b2
    for i in range(1, 3):
        for j in range(1, 3):
            lhs = dict(uq.multiply(uq.E(i), uq.F(j)))
            add_into(lhs, uq.multiply(uq.F(j), uq.E(i)), RatFunc.from_int(-1))
            if i != j:
                assert not lhs
            else:
                d = uq.rs.d[i - 1]
                den = RatFunc.q_power(d) - RatFunc.q_power(-d)
                expect = scaled(uq.K(i), den.inverse())
                add_into(expect, uq.K(i, -1), -den.inverse())
                assert _elems_equal(lhs, expect)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 11), min_size=0, max_size=4))
def test_associativity(idxs):
    uq = UqAlgebra(RootSystem("B2"))
    gens = _sample_letters(uq)
    parts = [gens[i % len(gens)] for i in idxs]
    if len(parts) < 3:
        return
    cut = len(parts) // 2
    left = uq.multiply(reduce(uq.multiply, parts[:cut], uq.one()),
                       reduce(uq.multiply, parts[cut:], uq.one()))
    right = reduce(uq.multiply, parts, uq.one())
    assert _elems_equal(left, right)


def test_counit_is_algebra_map(uq_a2):
    uq = uq_a2
    samples = [uq.F(1), uq.E(2), uq.K(1), uq.multiply(uq.K(1), uq.K(2, -1))]
    for x in samples:
        for y in samples:
            assert counit(uq.multiply(x, y)) == counit(x) * counit(y)
    assert counit(uq.one()) == RatFunc.one()
    assert counit(uq.F(1)).is_zero()
    assert counit(uq.E(1)).is_zero()


def test_antipode_is_antihomomorphism(uq_a2):
    uq = uq_a2
    samples = [uq.F(1), uq.E(2), uq.K(1), uq.F(2), uq.E(1)]
    for x in samples:
        for y in samples:
            lhs = uq.antipode(uq.multiply(x, y))
            rhs = uq.multiply(uq.antipode(y), uq.antipode(x))
            assert _elems_equal(lhs, rhs)


def test_antipode_on_generators(uq_a2):
    uq = uq_a2
    # S(E) = -E K^{-1}, S(F) = -K F, S(K) = K^{-1}
    assert _elems_equal(uq.antipode(uq.E(1)),
                        scaled(uq.multiply(uq.E(1), uq.K(1, -1)),
                               RatFunc.from_int(-1)))
    assert _elems_equal(uq.antipode(uq.F(1)),
                        scaled(uq.multiply(uq.K(1), uq.F(1)),
                               RatFunc.from_int(-1)))
    assert _elems_equal(uq.antipode(uq.K(1)), uq.K(1, -1))


def test_coproduct_counit_axiom(uq_a2):
    uq = uq_a2
    samples = [uq.F(1), uq.E(2), uq.K(1),
               uq.multiply(uq.F(1), uq.E(2))]
    for x in samples:
        left: dict = {}
        right: dict = {}
        for (nwa, nwb), c in uq.coproduct(x).items():
            add_into(left, {nwb: c * counit({nwa: RatFunc.one()})})
            add_into(right, {nwa: c * counit({nwb: RatFunc.one()})})
        assert _elems_equal(left, x)
        assert _elems_equal(right, x)


def test_coproduct_on_generators(uq_a2):
    uq = uq_a2
    # Delta(E) = E (x) K + 1 (x) E
    terms = uq.coproduct(uq.E(1))
    assert len(terms) == 2
    one_nw = next(iter(uq.one()))
    e_nw = next(iter(uq.E(1)))
    k_nw = next(iter(uq.K(1)))
    assert terms[(e_nw, k_nw)] == RatFunc.one()
    assert terms[(one_nw, e_nw)] == RatFunc.one()
    # Delta(F) = F (x) 1 + K^{-1} (x) F
    terms = uq.coproduct(uq.F(1))
    f_nw = next(iter(uq.F(1)))
    kinv_nw = next(iter(uq.K(1, -1)))
    assert terms[(f_nw, one_nw)] == RatFunc.one()
    assert terms[(kinv_nw, f_nw)] == RatFunc.one()


def test_eta_involution_and_homomorphism(uq_b2):
    uq = uq_b2
    samples = [uq.F(1), uq.E(2), uq.K(1), uq.multiply(uq.F(1), uq.E(1))]
    for x in samples:
        assert _elems_equal(uq.eta(uq.eta(x)), x)
        for y in samples:
            assert _elems_equal(uq.eta(uq.multiply(x, y)),
                                uq.multiply(uq.eta(x), uq.eta(y)))
    assert _elems_equal(uq.eta(uq.E(1)), uq.F(1))
    assert _elems_equal(uq.eta(uq.K(1)), uq.K(1, -1))


def test_serre_relations_vanish():
    for name in ("A2", "B2", "G2"):
        uq = UqAlgebra(RootSystem(name))
        for i in range(1, 3):
            for j in range(1, 3):
                if i == j:
                    continue
                rel = uq.serre_fword_elements(i, j)
                content = [0, 0]
                for w in rel:
                    for letter in w:
                        content[letter - 1] += 1
                    break
                sp = NMinusWeightSpace(uq, tuple(content))
                assert sp.reduce_coords(rel) == {}


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_weight_space_dims_match_partition(name):
    rs = RootSystem(name)
    uq = UqAlgebra(rs)
    for a in range(5):
        for b in range(5):
            if 0 < a + b <= 4:
                beta = (a, b)
                assert NMinusWeightSpace(uq, beta).dim == \
                    kostant_partition(rs, beta)


def _swap_closures(rs, content):
    """The classes of the words of `content` under swaps of adjacent letters
    i, j with a_ij = 0, by brute force."""
    out, seen = [], set()
    for word in words_of_content(content):
        if word in seen:
            continue
        cls, todo = {word}, [word]
        while todo:
            w = todo.pop()
            for p in range(len(w) - 1):
                if w[p] != w[p + 1] and rs.cartan[w[p] - 1][w[p + 1] - 1] == 0:
                    v = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
                    if v not in cls:
                        cls.add(v)
                        todo.append(v)
        seen |= cls
        out.append(frozenset(cls))
    return out


def _contents(rank, top):
    return [c for c in itertools.product(range(top + 1), repeat=rank) if 0 < sum(c) <= top]


@pytest.mark.parametrize("name", ["A2", "G2", "A3", "A4", "B3", "C3", "D4"])
def test_commutation_classes_are_the_swap_closures(name):
    # the words that share a column, and the smallest words that the Serre
    # rows range over; on A2 and G2, with no commuting pair, each word is its
    # own class
    rs = RootSystem(name)
    uq = UqAlgebra(rs)
    for content in _contents(rs.rank, 7):
        ws = uq.weight_space(content)
        classes: dict = {}
        for w in ws.words:
            classes.setdefault(ws.index[w], set()).add(w)
        closures = _swap_closures(rs, content)
        assert sorted(map(frozenset, classes.values()), key=min) == sorted(closures, key=min)
        assert _words_of_content(content, ws._free) == sorted(map(min, closures))


@pytest.mark.parametrize("name,tails", [("A3", ((1, 1),)), ("A3", ((1,), (3, 3))),
                                        ("A4", ((2,), (4, 4))), ("C3", ((1, 1), (2,))),
                                        ("D4", ((1,), (3,), (4, 4)))])
def test_columns_are_the_largest_words_of_the_nonzero_classes(name, tails):
    # a class is zero when some word in it ends in a tail; every other class
    # is one column, at the word index of its largest word.  The slices of
    # the module whose highest weight has <lam, alpha_i^vee> = len(t) - 1 for
    # each tail t carry exactly `tails`.
    rs = RootSystem(name)
    coords = [0] * rs.rank
    for t in tails:
        coords[t[0] - 1] = len(t) - 1
    fam = SliceFamily(UqAlgebra(rs), Weight(tuple(coords)), {t[0] for t in tails})
    assert fam.tails == tails
    for content in _contents(rs.rank, 5):
        ws = fam.get(content).quotient
        closures = _swap_closures(rs, content)
        zero = [any(w[-len(t):] == t for w in c for t in tails) for c in closures]
        # the class-level tail test on each word
        assert all(ws._zero(w) == z for c, z in zip(closures, zero) for w in c)
        kept = [c for c, z in zip(closures, zero) if not z]
        assert ws.words == sorted(w for c in kept for w in c)
        assert all(ws.index[w] == ws.words.index(max(c)) for c in kept for w in c)
        assert sorted(ws.basis_pos) == ws.basis_pos
        assert all(ws.index[ws.words[k]] == k for k in ws.basis_pos)


def test_residue_skips_exactly_the_zero_classes():
    uq = UqAlgebra(RootSystem("A3"))
    ws = uq.weight_space((2, 0, 1), ((1, 1),), 0)
    # (1, 1, 3) ends in no tail, but swaps to (3, 1, 1), which does
    assert (1, 1, 3) not in ws.index
    assert ws.residue({(1, 1, 3): RatFunc.one()}) == {}
    with pytest.raises(KeyError):
        ws.residue({(1, 3): RatFunc.one()})
    with pytest.raises(KeyError):
        ws.residue({(3, 1, 1, 1): RatFunc.one()})


_WRONG_COUNT_SCRIPT = """
import sys
from qbgg import uqalg
from qbgg.cartan import RootSystem, Weight
from qbgg.qfield import CertificationError
from qbgg.uqalg import NMinusWeightSpace, UqAlgebra
from qbgg.verma import ModuleSlice, SliceFamily

if not sys.flags.optimize:
    sys.exit("not running under -O")
uq = UqAlgebra(RootSystem("A2"))
%s
try:
    built = %s
except CertificationError as exc:
    print("refused:", exc)
else:
    print("accepted dim", built.dim)
"""


@pytest.mark.parametrize("setup,build", [
    # the true dimension of the Serre quotient at (1, 1) is 2
    pytest.param("uqalg.kostant_partition = lambda rs, beta: 3",
                 "NMinusWeightSpace(uq, (1, 1))", id="kostant"),
    # the family's character count is one too large
    pytest.param("fam = SliceFamily(uq, Weight((1, 0)), {1})\n"
                 "count = fam.induced_dim\n"
                 "fam.induced_dim = lambda beta: count(beta) + 1",
                 "ModuleSlice(fam, (1, 1))", id="induced"),
])
def test_weight_space_certificate_survives_optimize(setup, build):
    # python -O strips assert statements; the dimension certificates must
    # still refuse a wrong count
    src = str(Path(qbgg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c",
                           _WRONG_COUNT_SCRIPT % (setup, build)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused:"), proc.stdout


def test_adjoint_action_weight(uq_a2):
    uq = uq_a2
    # (ad K_i) preserves elements, (ad E_i) shifts weight by alpha_i
    x = uq.F(2)
    out = uq.adjoint(uq.E(2), x)
    # [E_2, F_2] lands in the Cartan part
    for (fw, kv, ew) in out:
        assert fw == () and ew == ()
