"""Weyl groups, minimal coset representatives, and the arrow graph.

Group elements act on root coordinates; they are stored as integer matrices
(columns = images of the simple roots) together with a reduced word.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .cartan import ParabolicData, RootSystem, Weight
from .qfield import CertificationError

Matrix = tuple[tuple[int, ...], ...]


_CAP = 1000000  # elements a walk may store; larger walks raise GroupTooLarge


class GroupTooLarge(Exception):
    pass


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class WeylElement:
    """Element given by its action on root coordinates and a reduced word."""

    matrix: Matrix
    word: tuple[int, ...]  # 1-based simple reflection indices
    inv_matrix: Matrix

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return "e" if not self.word else "s" + "s".join(str(i) for i in self.word)


class WeylGroup:
    """The minimal representatives w of the cosets W_S w, generated breadth-first.

    w is minimal iff w^{-1}(alpha_j) > 0 for every j in S.  Such w have no left
    descent in S, so the set is closed under prefixes of reduced words and the
    walk reaches each one through its lexicographically first reduced word.
    With S empty the walk yields all of W.
    """

    def __init__(self, rs: RootSystem, S: frozenset[int] = frozenset()):
        self.rs = rs
        r = rs.rank
        S0 = [j - 1 for j in sorted(S)]
        # |W^S| = |W| / |W_S|, where |W| is the product of (ht + 1) / ht over
        # the positive roots and the Levi roots cancel from both products
        count = prod(Fraction(sum(b) + 1, sum(b)) for b in rs.positive_roots
                     if any(b[k] for k in range(r) if k + 1 not in S))
        if count > _CAP:
            raise GroupTooLarge("the coset walk would store %d elements, over the "
                                "cap of %d" % (count, _CAP))
        self.simple_mats = {i: self._simple_matrix(i) for i in range(1, r + 1)}
        elements: dict[Matrix, WeylElement] = {}
        e = WeylElement(_identity(r), (), _identity(r))
        elements[e.matrix] = e
        frontier = [e]
        while frontier:
            new_frontier = []
            for w in frontier:
                for i, s in self.simple_mats.items():
                    m = _mat_mul(w.matrix, s)
                    if m in elements:
                        continue
                    inv = _mat_mul(s, w.inv_matrix)
                    if any(inv[k][j] < 0 for j in S0 for k in range(r)):
                        continue
                    nw = WeylElement(m, w.word + (i,), inv)
                    elements[m] = nw
                    new_frontier.append(nw)
            frontier = new_frontier
        if len(elements) != count:
            raise CertificationError("the walk found %d cosets, not %s" % (len(elements), count))
        self.elements = sorted(elements.values(), key=lambda w: (w.length, w.word))
        self._fund_mats: dict[Matrix, Matrix] = {}

    def _simple_matrix(self, i: int) -> Matrix:
        # s_i(alpha_j) = alpha_j - a_ij alpha_i, columns in root coordinates
        r = self.rs.rank
        a = self.rs.cartan
        cols = []
        for j in range(r):
            col = [int(k == j) for k in range(r)]
            col[i - 1] -= a[i - 1][j]
            cols.append(col)
        return tuple(tuple(cols[j][k] for j in range(r)) for k in range(r))

    def _fund_matrix(self, w: WeylElement) -> Matrix:
        """Action matrix on fundamental-weight coordinates (integral)."""
        m = self._fund_mats.get(w.matrix)
        if m is None:
            # A w adj = denom (A w A^-1): columns are the images of the omega_j
            rs = self.rs
            scaled = _mat_mul(_mat_mul(rs.cartan, w.matrix), rs.adj)
            if any(x % rs.denom for row in scaled for x in row):
                raise CertificationError("w maps a weight off the weight lattice")
            m = tuple(tuple(x // rs.denom for x in row) for row in scaled)
            self._fund_mats[w.matrix] = m
        return m

    def act(self, w: WeylElement, lam: Weight) -> Weight:
        m = self._fund_matrix(w)
        r = self.rs.rank
        return Weight(tuple(sum(m[i][j] * lam.coords[j] for j in range(r))
                            for i in range(r)))

    def shifted_act(self, w: WeylElement, lam: Weight) -> Weight:
        """Dot action w.lam = w(lam + rho) - rho."""
        return self.act(w, lam + self.rs.rho) - self.rs.rho

    def reflections(self) -> dict[Matrix, tuple[int, ...]]:
        """Map from reflection matrices to the positive root they reflect."""
        rs = self.rs
        r = rs.rank
        out = {}
        for beta in rs.positive_roots:
            norm2 = rs.root_norm2(beta)
            cols = []
            for j in range(r):
                # s_beta(alpha_j) = alpha_j - (2(alpha_j,beta)/(beta,beta)) beta
                ip = sum(beta[k] * rs.bform[k][j] for k in range(r))
                coef = Fraction(2 * ip, norm2)
                if coef.denominator != 1:
                    raise CertificationError("non-integral reflection coefficient")
                col = [int(k == j) - int(coef) * beta[k] for k in range(r)]
                cols.append(col)
            m = tuple(tuple(cols[j][k] for j in range(r)) for k in range(r))
            out[m] = beta
        return out


@dataclass(frozen=True)
class Arrow:
    source: WeylElement  # length l
    target: WeylElement  # length l + 1
    root: tuple[int, ...]  # positive root with target = s_root * source


class BruhatGraph:
    """Minimal coset representatives W^S with arrows and a sign assignment."""

    def __init__(self, P: ParabolicData):
        self.P = P
        self.W = WeylGroup(P.rs, P.S)
        self.cosets = self.W.elements
        self.levels: list[list[WeylElement]] = []
        for w in self.cosets:
            while len(self.levels) <= w.length:
                self.levels.append([])
            self.levels[w.length].append(w)
        # each coset's dot point w.0, and its depth: the coordinates of -w.0 >= 0
        zero = Weight((0,) * P.rs.rank)
        self.dot = {w.matrix: self.W.shifted_act(w, zero) for w in self.cosets}
        self.depth = {m: P.rs.weight_root_coords_int(-d) for m, d in self.dot.items()}
        self.arrows = self._find_arrows()
        self.squares = self._find_squares()
        self.signs = self._assign_signs()

    def _find_arrows(self) -> list[Arrow]:
        refl = self.W.reflections()
        out = []
        for lvl in range(len(self.levels) - 1):
            for w in self.levels[lvl]:
                for w2 in self.levels[lvl + 1]:
                    t = _mat_mul(w2.matrix, w.inv_matrix)
                    if t in refl:
                        out.append(Arrow(w, w2, refl[t]))
        return out

    def _find_squares(self) -> list[tuple[WeylElement, WeylElement, WeylElement, WeylElement]]:
        """Quadruples (w1, w2, w3, w4): w1->w2->w4, w1->w3->w4, w2 != w3."""
        arr = {(a.source.matrix, a.target.matrix) for a in self.arrows}
        out = []
        for lvl in range(len(self.levels) - 2):
            for w1 in self.levels[lvl]:
                mids = [m for m in self.levels[lvl + 1] if (w1.matrix, m.matrix) in arr]
                for w4 in self.levels[lvl + 2]:
                    through = [m for m in mids if (m.matrix, w4.matrix) in arr]
                    for i in range(len(through)):
                        for j in range(i + 1, len(through)):
                            out.append((w1, through[i], through[j], w4))
        return out

    def _assign_signs(self) -> dict[tuple[Matrix, Matrix], int]:
        """Signs on arrows with product -1 around every square (GF(2) solve)."""
        arrows = self.arrows
        idx = {(a.source.matrix, a.target.matrix): k for k, a in enumerate(arrows)}
        # each square's four sign bits must sum to 1; GF(2) elimination by the
        # lowest set bit, which is each stored row's pivot
        pivots: dict[int, tuple[int, int]] = {}
        for (w1, w2, w3, w4) in self.squares:
            vec, rhs = 0, 1
            for pair in ((w1, w2), (w2, w4), (w1, w3), (w3, w4)):
                vec ^= 1 << idx[(pair[0].matrix, pair[1].matrix)]
            while vec:
                p = (vec & -vec).bit_length() - 1
                row = pivots.get(p)
                if row is None:
                    pivots[p] = (vec, rhs)
                    break
                vec ^= row[0]
                rhs ^= row[1]
            else:
                if rhs:
                    raise CertificationError("square sign constraints are inconsistent")
        # back-substitution, the free bits 0: a row's bits above its pivot are
        # already solved, so its pivot bit is its rhs plus their parity
        sol = 0
        for p in sorted(pivots, reverse=True):
            vec, rhs = pivots[p]
            if ((vec & sol).bit_count() ^ rhs) & 1:
                sol |= 1 << p
        signs = {}
        for k, a in enumerate(arrows):
            signs[(a.source.matrix, a.target.matrix)] = -1 if sol >> k & 1 else 1
        for (w1, w2, w3, w4) in self.squares:
            prod = (signs[(w1.matrix, w2.matrix)] * signs[(w2.matrix, w4.matrix)]
                    * signs[(w1.matrix, w3.matrix)] * signs[(w3.matrix, w4.matrix)])
            if prod != -1:
                raise CertificationError("sign product around a square is not -1")
        return signs

    def sign(self, a: WeylElement, b: WeylElement) -> int:
        return self.signs[(a.matrix, b.matrix)]

    def offset(self, a: WeylElement, b: WeylElement) -> tuple[int, ...]:
        """Root coordinates of a.0 - b.0, nonnegative when a lies below b."""
        return tuple(y - x for x, y in zip(self.depth[a.matrix], self.depth[b.matrix]))


def incomparability_report(G: BruhatGraph, mu: Weight | None = None) -> dict:
    """Check pairwise differences of dot-orbit points for equal-length pairs,
    and the arrow coefficient condition, for the flag of G."""
    P = G.P
    rs = P.rs
    dots = G.dot if mu is None else {w.matrix: G.W.shifted_act(w, mu) for w in G.cosets}
    ok = True
    pair_records = []
    for lvl in G.levels:
        for i in range(len(lvl)):
            for j in range(i + 1, len(lvl)):
                d = dots[lvl[i].matrix] - dots[lvl[j].matrix]
                in_qs = P.in_QS(d)
                good = in_qs and not P.in_QS_plus(d) and not P.in_QS_plus(-d)
                ok = ok and good
                pair_records.append({
                    "pair": [str(lvl[i]), str(lvl[j])],
                    "difference_in_QS": in_qs,
                    "difference_root_coords": [str(c) for c in rs.weight_root_coords(d)],
                    "ok": good,
                })
    arrow_records = []
    if P.s is not None:
        for a in G.arrows:
            d = dots[a.source.matrix] - dots[a.target.matrix]
            coef = P.alpha_s_coefficient(d)
            good = coef == 1
            ok = ok and good
            arrow_records.append({"arrow": [str(a.source), str(a.target)],
                                  "alpha_s_coefficient": str(coef), "ok": good})
    return {"ok": ok, "pairs": pair_records, "arrows": arrow_records}
