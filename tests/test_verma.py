"""Induced-module weight slices, singular vectors, and the standard maps."""
from __future__ import annotations

import functools
import itertools

import pytest

from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.qfield import RatFunc
from qbgg.reps import kostant_partition
from qbgg.uqalg import UqAlgebra
from qbgg.verma import ModuleSlice, SliceFamily, StandardMapFamily, singular_vectors
from qbgg.weyl import BruhatGraph

from oracles import gvm_char


def _graph(name: str, S) -> BruhatGraph:
    return BruhatGraph(ParabolicData(RootSystem(name), set(S)))


def test_borel_slice_dims_are_partition_counts():
    rs = RootSystem("B2")
    uq = UqAlgebra(rs)
    fam = SliceFamily(uq, Weight((0, 0)))
    for a in range(4):
        for b in range(4):
            assert fam.get((a, b)).dim == kostant_partition(rs, (a, b))


def test_parabolic_slice_dims_match_induced_character():
    rs = RootSystem("A2")
    P = ParabolicData(rs, {1})
    uq = UqAlgebra(rs)
    lam = Weight((1, 0))
    fam = SliceFamily(uq, lam, P.S)
    ch = gvm_char(P, lam, 3)
    for wt, mult in ch.items():
        off = rs.weight_root_coords_int(lam - wt)
        if 0 < sum(off) <= 3:
            assert fam.get(off).dim == mult


@pytest.mark.parametrize("name,S,lams", [
    ("A3", (1, 3), [(0, 0, 0), (1, 0, 2), (2, -3, 0), (0, -1, 1)]),
    ("C3", (1, 2), [(0, 0, 0), (1, 1, -2), (0, 2, -1)]),
    ("G2", (1,), [(0, 0), (1, -2), (3, 0), (2, -1)]),
    # every node in S: the quotient roots are empty and only the Levi
    # character itself is left
    ("A2", (1, 2), [(0, 0), (1, 0), (2, 1)]),
], ids=["A3", "C3", "G2", "A2-every-node"])
def test_family_induced_dim_matches_gvm_char(name, S, lams):
    rs = RootSystem(name)
    P = ParabolicData(rs, set(S))
    uq = UqAlgebra(rs)
    offsets = [b for b in itertools.product(range(5), repeat=rs.rank) if sum(b) <= 4]
    for coords in lams:
        lam = Weight(coords)
        fam = SliceFamily(uq, lam, P.S)
        ch = gvm_char(P, lam, 4)
        for beta in offsets:
            assert fam.induced_dim(beta) == ch.get(lam - rs.root_to_weight(beta), 0), \
                (lam, beta)
        assert fam.levi_dim == sum(m for _, m in fam.levi_offsets)


def test_weight_spaces_are_shared():
    rs = RootSystem("A2")
    uq = UqAlgebra(rs)
    assert uq.weight_space((2, 1)) is uq.weight_space((2, 1))
    # equal tails (F_1^2) share one quotient per offset; the words that end
    # in the tail are dropped from it
    fam1 = SliceFamily(uq, Weight((1, 0)), {1})
    fam2 = SliceFamily(uq, Weight((1, -2)), {1})
    assert fam1.tails == fam2.tails == ((1, 1),)
    for beta in ((1, 2), (2, 1), (3, 2)):
        quotient = fam1.get(beta).quotient
        assert fam2.get(beta).quotient is quotient is uq.weight_space(beta, ((1, 1),))
        assert not [w for w in quotient.words if w[-2:] == (1, 1)]
    # another tail is another quotient, once the tail fits in the offset
    fam3 = SliceFamily(uq, Weight((2, 0)), {1})
    assert fam3.get((3, 2)).quotient is not fam1.get((3, 2)).quotient
    # a tail that does not fit ends no word, so the slice is the Serre quotient
    assert fam3.get((2, 1)).quotient is uq.weight_space((2, 1))
    # with S empty there is no tail: the slices are the Serre quotients
    fam4 = SliceFamily(uq, Weight((3, -2)))
    fam5 = SliceFamily(uq, Weight((0, 0)))
    for beta in ((1, 2), (2, 1)):
        assert fam4.get(beta).quotient is fam5.get(beta).quotient is uq.weight_space(beta)


def test_evaluate_on_highest_k_eigenvalue():
    rs = RootSystem("A2")
    uq = UqAlgebra(rs)
    lam = Weight((2, 1))
    fam = SliceFamily(uq, lam)
    top = fam.get((0, 0))
    assert top.reduce_element(uq.K(1)) == {0: RatFunc.q_power(rs.d[0] * 2)}
    # E kills the highest vector
    assert top.reduce_element(uq.E(2)) == {}
    # a mixed F.K.E element: its E-term vanishes, and its F.K term gives the
    # F-part's coordinates times the K eigenvalue on lam
    kv = (1, -1)
    c = RatFunc.q_power(1) + RatFunc.one()
    x = {((1, 2), kv, ()): c, ((2, 1), kv, (1,)): RatFunc.one()}
    scal = uq.k_scalar(kv, lam.coords)
    assert scal != RatFunc.one()
    sl = fam.get((1, 1))
    f_part = sl.residue({(1, 2): RatFunc.one()})
    assert f_part
    assert sl.reduce_element(x) == {k: a * c * scal for k, a in f_part.items()}


def test_rank_one_singular_vector_power():
    # arrow of the projective line at mu = 0: the singular vector is F
    rs = RootSystem("A1")
    uq = UqAlgebra(rs)
    fam = SliceFamily(uq, Weight((0,)))
    sv = singular_vectors(fam, (1,))
    assert len(sv) == 1
    ((fw, kv, ew),) = sv[0].keys()
    assert fw == (1,) and ew == ()


@pytest.mark.parametrize("name,S", [("A1", ()), ("A2", (1,)), ("A3", (1, 3))])
def test_singular_vectors_one_dimensional(name, S):
    G = _graph(name, S)
    uq = UqAlgebra(G.P.rs)
    for a in G.arrows:
        fam = SliceFamily(uq, G.dot[a.source], G.P.S)
        sv = singular_vectors(fam, G.offset(a.source, a.target))
        assert len(sv) == 1
        assert sv[0]


def test_dot_offsets_gr24():
    G = _graph("A3", (1, 3))
    for a in G.arrows:
        off = G.offset(a.source, a.target)
        assert all(c >= 0 for c in off)
        assert sum(off) >= 1
        # cominuscule arrows step by exactly one along the excluded node
        assert off[G.P.s - 1] == 1


@functools.cache
def _maps(name: str, S) -> StandardMapFamily:
    return StandardMapFamily(_graph(name, S))


# every square of graphs with one square and of graphs with several squares
# above one coset
SQUARES = [(name, S, n) for name, S in [("A3", (1, 3)), ("C3", (1, 2)), ("B2", ()),
                                        ("G2", ()), ("A3", ())]
           for n in range(len(_graph(name, S).squares))]


@pytest.mark.parametrize("name,S,n", SQUARES,
                         ids=["%s-%s-%d" % (name, ",".join(map(str, S)), n)
                              for name, S, n in SQUARES])
def test_standard_maps_square_compatible(name, S, n):
    maps = _maps(name, S)
    uq = maps.uq
    (w1, w2, w3, w4) = maps.G.squares[n]
    c1 = uq.multiply(maps.y(w2, w4), maps.y(w1, w2))
    c2 = uq.multiply(maps.y(w3, w4), maps.y(w1, w3))
    fam = maps.family(w1)
    beta = maps.G.offset(w1, w4)
    v1 = fam.get(beta).reduce_element(c1)
    v2 = fam.get(beta).reduce_element(c2)
    assert v1 == v2
    assert v1


@pytest.mark.parametrize("name,S,composites", [("C3", (1, 2), 3), ("B2", (), 21)])
def test_square_walk_reduces_a_composite_again_only_after_a_rescale(monkeypatch, name, S,
                                                                    composites):
    # a square whose ratio rescales an arrow costs three composites (the one
    # square of C3 1,2; five of the eight on B2), any other square two
    reduced = []
    walk, reduce_element = StandardMapFamily._normalize_squares, ModuleSlice.reduce_element

    def counted(self, x):
        reduced.append(x)
        return reduce_element(self, x)

    def counted_walk(self):
        monkeypatch.setattr(ModuleSlice, "reduce_element", counted)
        walk(self)

    monkeypatch.setattr(StandardMapFamily, "_normalize_squares", counted_walk)
    StandardMapFamily(_graph(name, S))
    assert len(reduced) == composites
