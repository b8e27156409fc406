"""Resolution complexes: vanishing composites and slicewise exactness."""
from __future__ import annotations

import itertools

import pytest

from qbgg.bgg import BGGComplex, _exact
from qbgg.cartan import ParabolicData, RootSystem
from qbgg.weyl import BruhatGraph


def _complex(name: str, S) -> BGGComplex:
    return BGGComplex(BruhatGraph(ParabolicData(RootSystem(name), set(S))))


@pytest.fixture(scope="module")
def cp2():
    return _complex("A2", (1,))


def test_squared_zero_cp2(cp2):
    rep = cp2.verify_squared_zero()
    assert rep["ok"]


def test_squared_zero_gr24():
    rep = _complex("A3", (1, 3)).verify_squared_zero()
    assert rep["ok"]
    assert len(rep["composites"]) == 5


def test_exactness_projective_line():
    rep = _complex("A1", ()).verify_exactness(6)
    assert rep["ok"]
    assert rep["slices"]


def test_exactness_cp2(cp2):
    rep = cp2.verify_exactness(4)
    assert rep["ok"]


def test_differential_shapes(cp2):
    beta = (2, 1)
    dims = cp2.slice_dims(beta)
    assert len(dims) == len(cp2.G.levels)
    m = cp2.differential_matrix(1, beta)
    assert m.cols == dims[1] and m.rows == dims[0]


def _resolution_rule(dims, ranks, m_nu):
    # levels bottom-up, ranks[j - 1] the rank of the level-j differential
    top = len(dims) - 1
    if not dims:
        return True
    if len(dims) == 1:
        return dims[0] == m_nu
    good = ranks[top - 1] == dims[top]
    for j in range(1, top):
        good = good and dims[j] - ranks[j - 1] == ranks[j]
    return good and ranks[0] == dims[0] - m_nu


def _line_rule(dims, ranks):
    # listed top-down, ranks[k] the rank out of position k; the last
    # position is the augmentation end and goes unchecked
    good = dims[0] - ranks[0] == 0 if ranks else True
    for k in range(1, len(ranks)):
        good = good and dims[k] - ranks[k] == ranks[k - 1]
    return good


def test_exact_matches_both_former_rules():
    cases = 0
    for n in range(5):
        for dims in itertools.product(range(3), repeat=n):
            for ranks in itertools.product(range(3), repeat=max(n - 1, 0)):
                dims, ranks = list(dims), list(ranks)
                assert _exact(dims, ranks, None) == _line_rule(dims, ranks)
                for m_nu in range(3):
                    assert (_exact(dims, ranks, m_nu)
                            == _resolution_rule(dims[::-1], ranks[::-1], m_nu))
                cases += 1
    assert cases == 1 + 3 + 27 + 243 + 2187


def test_euler_characteristic_vanishes(cp2):
    # checked per slice inside the exactness report
    rep = cp2.verify_exactness(3)
    for rec in rep["slices"]:
        assert rec["euler_ok"]
