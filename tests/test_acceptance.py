"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion before asserting,
so a full run yields an eleven-line scoreboard.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from qbgg.bgg import BGGComplex, DoubleComplex, _enumerate_offsets
from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.qfield import Laurent, QMatrix, RatFunc, rank
from qbgg.reps import kostant_partition, verify_dim_identity
from qbgg.uqalg import NMinusWeightSpace, UqAlgebra
from qbgg.verma import SliceFamily, StandardMapFamily, singular_vectors
from qbgg.weyl import BruhatGraph, incomparability_report
from qbgg import qfield, qsphere

from oracles import (LowestSliceFamily, all_rows_echelon, all_word_relations, evaluate,
                     words_of_content)


def _cominuscule_flags(max_rank: int = 5) -> list[tuple[str, int]]:
    out = []
    for n in range(1, max_rank + 1):
        for s in range(1, n + 1):
            out.append(("A%d" % n, s))
    for n in range(2, max_rank + 1):
        out.append(("B%d" % n, 1))
        out.append(("C%d" % n, n))
    for n in range(4, max_rank + 1):
        out.extend([("D%d" % n, 1), ("D%d" % n, n - 1), ("D%d" % n, n)])
    return out


def _graph(name: str, s: int) -> BruhatGraph:
    rs = RootSystem(name)
    S = set(range(1, rs.rank + 1)) - {s}
    return BruhatGraph(ParabolicData(rs, S))


_GRAPH_CACHE: dict = {}


def _family_graphs() -> list[BruhatGraph]:
    out = []
    for name, s in _cominuscule_flags():
        key = (name, s)
        if key not in _GRAPH_CACHE:
            _GRAPH_CACHE[key] = _graph(name, s)
        out.append(_GRAPH_CACHE[key])
    return out


SMALL = [("A1", ()), ("A2", (1,)), ("A3", (1, 3))]


def _double(name: str, S) -> DoubleComplex:
    return DoubleComplex(StandardMapFamily(BruhatGraph(ParabolicData(RootSystem(name), set(S)))))


def test_criterion_1_dimension_identity(acceptance_report):
    t0 = time.monotonic()
    ok = True
    for G in _family_graphs():
        assert G.P.irreducible_flag
        rep = verify_dim_identity(G)
        ok = ok and rep["ok"]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    acceptance_report(1, ok, "dimension identity with weight multisets, all "
            "irreducible flags of rank <= 5 (%.1fs)" % elapsed)
    assert ok


def test_criterion_2_incomparability(acceptance_report):
    ok = True
    for G in _family_graphs():
        ok = ok and incomparability_report(G)["ok"]
    # designed failures: drop the parabolic, or take a non-orbit weight
    borel = BruhatGraph(ParabolicData(RootSystem("A2"), set()))
    ok = ok and not incomparability_report(borel)["ok"]
    rs = RootSystem("A3")
    gr = BruhatGraph(ParabolicData(rs, {1, 3}))
    gr.dot = {w: gr.W.shifted_act(w, rs.fundamental_weight(3)) for w in gr.cosets}
    ok = ok and not incomparability_report(gr)["ok"]
    acceptance_report(2, ok, "incomparability of equal-length dot points, with both "
            "negative controls failing as designed")
    assert ok


def test_criterion_3_sign_assignment(acceptance_report):
    ok = True
    squares = 0
    for G in _family_graphs():
        for (w1, w2, w3, w4) in G.squares:
            squares += 1
            prod = (G.sign(w1, w2) * G.sign(w2, w4)
                    * G.sign(w1, w3) * G.sign(w3, w4))
            ok = ok and prod == -1
    ok = ok and squares > 0
    acceptance_report(3, ok, "sign assignment with product -1 on every square "
            "(%d squares)" % squares)
    assert ok


def _equals_all_words_quotient(uq, ws, beta, tails, expect) -> bool:
    """Whether the quotient `ws` of content beta with `tails` is the exact
    quotient of every word of that content by every relation: of the
    certified dimension, with the non-basis words as pivots, and the same
    residue for every word."""
    one = RatFunc.one()
    words = words_of_content(beta)
    full = all_rows_echelon(lambda: all_word_relations(uq, words, tails))
    return (len(words) - len(full) == expect
            and set(full.rows) == set(words) - set(ws.basis_words)
            and all({ws.words[k]: c for k, c in ws.residue({w: one}).items()}
                    == full.reduce({w: one}) for w in words))


def test_criterion_4_pbw_dimensions(acceptance_report):
    # Weight spaces and module slices keep only the relations that are
    # independent mod p, work on commutation classes of words, and drop the
    # classes with a word that ends in F_i^{m_i + 1}, so their dimensions
    # match the partition count and the induced character by construction.
    # The reference reduces every relation exactly over every word: each
    # Serre row, commutations included, and, for a slice, the unit vector of
    # each word that ends in a tail.  Its quotient must have the certified
    # dimension, its pivots must be the words that are not basis words, and
    # every word must have the same residue in both.
    t0 = time.monotonic()
    ok = True
    spaces = slices = 0
    for name, height in (("A2", 6), ("B2", 6), ("G2", 6),
                         ("A3", 5), ("B3", 5), ("C3", 5), ("A4", 6), ("D4", 6)):
        rs = RootSystem(name)
        uq = UqAlgebra(rs)
        for beta in _enumerate_offsets(rs, height):
            if sum(beta) == 0:
                continue
            spaces += 1
            ok = ok and _equals_all_words_quotient(uq, NMinusWeightSpace(uq, beta), beta, (),
                                                   kostant_partition(rs, beta))
    for name, S in SMALL:
        if not S:
            continue
        G = BruhatGraph(ParabolicData(RootSystem(name), set(S)))
        uq = UqAlgebra(G.P.rs)
        mu = Weight((0,) * G.P.rs.rank)
        for w in G.cosets:
            lam = G.W.shifted_act(w, mu)
            fam = SliceFamily(uq, lam, G.P.S)
            tails = [(i,) * (lam.coords[i - 1] + 1) for i in S]
            for beta in _enumerate_offsets(G.P.rs, 4):
                slices += 1
                ok = ok and _equals_all_words_quotient(uq, fam.get(beta).quotient, beta, tails,
                                                       fam.induced_dim(beta))
    ok = ok and spaces > 0 and slices > 0
    elapsed = time.monotonic() - t0
    acceptance_report(4, ok, "lowering-algebra graded dimensions equal the partition "
            "function with every Serre relation reduced over every word, height <= 6 in "
            "A2, B2, G2, <= 5 in A3, B3, C3 and <= 6 in A4, D4 (%d spaces), and every "
            "induced slice equals the exact quotient by its Serre and induced relations "
            "(%d slices, %.1fs)" % (spaces, slices, elapsed))
    assert ok


def test_criterion_5_singular_vectors(acceptance_report):
    ok = True
    arrows = 0
    for name, S in SMALL:
        G = BruhatGraph(ParabolicData(RootSystem(name), set(S)))
        uq = UqAlgebra(G.P.rs)
        for a in G.arrows:
            arrows += 1
            lam = G.dot[a.source]
            beta = G.offset(a.source, a.target)
            sv = singular_vectors(SliceFamily(uq, lam, G.P.S), beta)
            if len(sv) != 1 or not sv[0]:
                ok = False
                continue
            lf = LowestSliceFamily(uq, lam)
            sols = lf.annihilated_by_all_f(beta)
            coords = lf.coords_of(uq.eta(sv[0]), beta)
            # sols[0] is a nonzero kernel vector, so rank one means that the
            # mirrored image is a multiple of it
            mirror = (len(sols) == 1 and bool(coords)
                      and rank(QMatrix(len(sols[0]), [coords, {
                          k: c for k, c in enumerate(sols[0]) if not c.is_zero()}])) == 1)
            ok = ok and mirror
    acceptance_report(5, ok, "singular vector spaces exactly one-dimensional and "
            "nonzero, with mirrored images (%d arrows)" % arrows)
    assert ok


def test_criterion_6_bgg_complex(acceptance_report):
    t0 = time.monotonic()
    ok = True
    for (name, S), height in zip(SMALL, (8, 5, 3)):
        bgg = BGGComplex(BruhatGraph(ParabolicData(RootSystem(name), set(S))))
        sq = bgg.verify_squared_zero()
        ex = bgg.verify_exactness(height)
        ok = ok and sq["ok"] and ex["ok"]
        ok = ok and all(rec["euler_ok"] for rec in ex["slices"])
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 600.0
    acceptance_report(6, ok, "vanishing composites and truncated slicewise exactness "
            "with zero Euler characteristics (%.1fs)" % elapsed)
    assert ok


def test_criterion_7_double_complex_anticommutation(acceptance_report):
    # rank one on the full low-degree window, then the first nontrivial flag
    # on a bidegree box; the rank-one generator identity is the base case
    dc1 = _double("A1", ())
    rep1 = dc1.verify_anticommute(k1cap=2, k2cap=2)
    dc2 = _double("A2", (1,))
    rep2 = dc2.verify_anticommute(k1cap=2, k2cap=2)
    base_case = bool(rep1["pairs"]) and \
        all(p["generator_zero"] for p in rep1["pairs"])
    ok = rep1["ok"] and rep2["ok"] and base_case
    acceptance_report(7, ok, "anticommutation of row and column maps, rank one and "
            "the first nontrivial flag on a (2,2) box")
    assert ok


def test_criterion_8_rows_and_columns(acceptance_report):
    ok = True
    for name, S in [("A1", ()), ("A2", (1,))]:
        dc = _double(name, S)
        rows = dc.verify_rows(k2cap=1, k1lim=1)
        cols = dc.verify_columns(k1cap=1, k2lim=1)
        ok = ok and rows["ok"] and cols["ok"]
        # every verified slice dimension was certified against the graded
        # character oracle inside the window constructors
        for line in rows["lines"] + cols["lines"]:
            for rec in line["slices"]:
                ok = ok and rec["exact"]
    acceptance_report(8, ok, "interior rank-exactness of rows and columns with exact "
            "graded-dimension agreement on verified windows")
    assert ok


def test_criterion_9_quantum_sphere(acceptance_report):
    rep = qsphere.verify_calculus()
    dims = rep["fiber_dims"]["total_by_degree"]
    binomials = dims == {0: 1, 1: 2, 2: 1}
    ok = rep["ok"] and binomials
    acceptance_report(9, ok, "sphere calculus: component dimensions binom(1,k) and "
            "binom(2,k), Leibniz, d squared zero, central volume form")
    assert ok


def _rank_at(rows: list[list[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [list(r) for r in rows]
    rk = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(rk + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / rows[rk][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
    return rk


def test_criterion_10_engine_cross_validation(acceptance_report, monkeypatch):
    # every rank the resolution and the double complex certify must equal
    # the rank at q = 3/2, which is a lower bound for the rank over Q(q)
    seen = []

    def recording_rank(m):
        r = qfield.rank(m)
        seen.append((m, r))
        return r

    monkeypatch.setattr("qbgg.bgg.rank", recording_rank)
    for (name, S), height in zip(SMALL[:2], (8, 4)):
        BGGComplex(BruhatGraph(ParabolicData(RootSystem(name), set(S)))) \
            .verify_exactness(height)
    dc = _double("A1", ())
    dc.verify_rows(1, 1)
    dc.verify_columns(1, 1)
    q0 = Fraction(3, 2)
    # the transpose, densified over the row keys in use, has the same rank
    ok = bool(seen) and all(
        _rank_at([[evaluate(c.get(k, RatFunc.zero()), q0) for c in m.columns]
                  for k in sorted({k for c in m.columns for k in c})]) == r
        for m, r in seen)
    acceptance_report(10, ok, "all %d certified ranks equal their specialization "
            "at q = 3/2" % len(seen))
    assert ok


def _euclid_gcd(a: Laurent, b: Laurent) -> dict[int, int]:
    """Gcd by Euclid over Q on the coefficient lists of a / q^val(a) and
    b / q^val(b), scaled to a primitive polynomial with positive leading
    coefficient."""
    a, b = ([Fraction(c.get(e, 0)) for e in range(min(c), max(c) + 1)]
            if c else [] for c in (dict(p.items()) for p in (a, b)))
    while b:
        for k in range(len(a) - len(b), -1, -1):
            f = a[k + len(b) - 1] / b[-1]
            a[k:k + len(b)] = [x - f * y for x, y in zip(a[k:k + len(b)], b)]
        a = a[:len(b) - 1]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    lcm = 1
    for x in a:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in a]
    g = gcd(*ints) * (1 if not ints or ints[-1] > 0 else -1)
    return {e: x // g for e, x in enumerate(ints) if x}


def test_criterion_11_gcd_cross_validation(acceptance_report, monkeypatch):
    # every gcd the Q(q) normal form takes on these windows must equal
    # Euclid over Q; the pairs that reach the remainder sequence are counted,
    # and a run in which none does covers nothing
    seen, through_prs = [], []
    laurent_gcd, prs = qfield.laurent_gcd, qfield._prs_gcd

    def recording_gcd(a, b):
        seen.append((a, b))
        return laurent_gcd(a, b)

    monkeypatch.setattr(qfield, "laurent_gcd", recording_gcd)
    monkeypatch.setattr(qfield, "_prs_gcd",
                        lambda a, b: through_prs.append(1) or prs(a, b))
    BGGComplex(BruhatGraph(ParabolicData(RootSystem("A2"), {1}))) \
        .verify_exactness(4)
    # the A2 double adds 701 of the 721 pairs, and all 238 that reach the PRS
    for name, S in [("A1", ()), ("A2", (1,))]:
        dc = _double(name, S)
        dc.verify_rows(1, 1)
        dc.verify_columns(1, 1)
    monkeypatch.undo()
    ok = bool(through_prs) and all(dict(laurent_gcd(a, b).items()) == _euclid_gcd(a, b)
                                   for a, b in seen)
    acceptance_report(11, ok, "gcd equals Euclid over Q on all %d recorded pairs "
            "(%d through the PRS)" % (len(seen), len(through_prs)))
    assert ok
