"""Quantized enveloping algebra arithmetic, Hopf structure maps, and graded
dimensions of the lower triangular part."""
from __future__ import annotations

import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbgg
from qbgg.cartan import RootSystem
from qbgg.qfield import RatFunc
from qbgg.reps import kostant_partition
from qbgg.uqalg import NMinusWeightSpace, UqAlgebra, add_into, scaled

from oracles import counit


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
