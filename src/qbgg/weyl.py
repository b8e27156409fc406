"""Weyl groups, minimal coset representatives, and the arrow graph.

A coset is stored as its minimal representative's reduced word, and each map
that depends on a coset is keyed by it.  The walk runs over the W-orbit of
omega_S, and a dot point w.0 is the word replayed on rho.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .cartan import ParabolicData, RootSystem, Weight
from .qfield import CertificationError


_CAP = 1000000  # elements a walk may store; larger walks raise GroupTooLarge


class GroupTooLarge(Exception):
    pass


@dataclass(frozen=True)
class WeylElement:
    """Minimal coset representative given by its reduced word."""

    word: tuple[int, ...]  # 1-based simple reflection indices

    @property
    def length(self) -> int:
        return len(self.word)

    def __hash__(self) -> int:
        # the generated hash builds the tuple (word,) on every lookup
        return hash(self.word)

    def __str__(self) -> str:
        return "e" if not self.word else "s" + "s".join(str(i) for i in self.word)


class WeylGroup:
    """The minimal representatives w of the cosets W_S w, generated breadth-first.

    w is minimal iff w^{-1}(alpha_j) > 0 for every j in S, so u = w^{-1} is
    the shortest element of u W_S and u(omega_S) tells the cosets apart, where
    omega_S is the sum of the omega_i with i not in S.  Appending i to w's word
    sends y = u(omega_S) to s_i y = y - y_i alpha_i, which is longer and again
    minimal iff y_i > 0.  Such w have no left descent in S, so the set is
    closed under prefixes of reduced words and the walk reaches each one
    through its lexicographically first reduced word.  With S empty the walk
    yields all of W.
    """

    def __init__(self, rs: RootSystem, S: frozenset[int] = frozenset()):
        self.rs = rs
        r = rs.rank
        # |W^S| = |W| / |W_S|, where |W| is the product of (ht + 1) / ht over
        # the positive roots and the Levi roots cancel from both products
        count = prod(Fraction(sum(b) + 1, sum(b)) for b in rs.positive_roots
                     if any(b[k] for k in range(r) if k + 1 not in S))
        if count > _CAP:
            raise GroupTooLarge("the coset walk would store %d elements, over the "
                                "cap of %d" % (count, _CAP))
        self._alpha = [rs.simple_root(i).coords for i in range(1, r + 1)]
        e = WeylElement(())
        y0 = tuple(int(i + 1 not in S) for i in range(r))
        seen = {y0}
        elements = [e]
        frontier = [(y0, e)]
        while frontier:
            new_frontier = []
            for y, w in frontier:
                for i, c in enumerate(y):
                    if c <= 0:
                        continue
                    y2 = tuple(x - c * a for x, a in zip(y, self._alpha[i]))
                    if y2 not in seen:
                        seen.add(y2)
                        nw = WeylElement(w.word + (i + 1,))
                        elements.append(nw)
                        new_frontier.append((y2, nw))
            frontier = new_frontier
        if len(elements) != count:
            raise CertificationError("the walk found %d cosets, not %s" % (len(elements), count))
        self.elements = sorted(elements, key=lambda w: (w.length, w.word))

    def shifted_act(self, w: WeylElement, lam: Weight) -> Weight:
        """Dot action w.lam = w(lam + rho) - rho: w's word replayed on lam + rho,
        each s_i taking y to y - y_i alpha_i."""
        y = (lam + self.rs.rho).coords
        for i in reversed(w.word):
            c = y[i - 1]
            y = tuple(x - c * a for x, a in zip(y, self._alpha[i - 1]))
        return Weight(y) - self.rs.rho


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
        self.dot = {w: self.W.shifted_act(w, zero) for w in self.cosets}
        self.depth = {w: P.rs.weight_root_coords_int(-d) for w, d in self.dot.items()}
        self.arrows = self._find_arrows()
        self.squares = self._find_squares()
        self.signs = self._assign_signs()

    def _find_arrows(self) -> list[Arrow]:
        """w -> s_beta w for each positive root beta whose reflection carries
        w's point to one of the next level's: s_beta w.0 = w.0 - <w.rho, beta^v> beta.
        rho is regular, so a point names its coset."""
        rs = self.P.rs
        refl = []
        for beta in rs.positive_roots:
            # beta^v = 2 beta / (beta, beta), and (alpha_k, alpha_k) = 2 d_k
            norm2 = rs.root_norm2(beta)
            coroot = [Fraction(2 * rs.d[k] * b, norm2) for k, b in enumerate(beta)]
            if any(c.denominator != 1 for c in coroot):
                raise CertificationError("non-integral coroot coefficient")
            refl.append((beta, [int(c) for c in coroot], rs.root_to_weight(beta).coords))
        out = []
        for lvl, nxt in zip(self.levels, self.levels[1:]):
            index = {self.dot[w2].coords: n for n, w2 in enumerate(nxt)}
            for w in lvl:
                y = self.dot[w].coords
                hits = []
                for beta, coroot, b in refl:
                    c = sum(k * (x + 1) for k, x in zip(coroot, y))
                    n = index.get(tuple(x - c * a for x, a in zip(y, b)))
                    if n is not None:
                        hits.append((n, beta))
                out.extend(Arrow(w, nxt[n], beta) for n, beta in sorted(hits))
        return out

    def _find_squares(self) -> list[tuple[WeylElement, WeylElement, WeylElement, WeylElement]]:
        """Quadruples (w1, w2, w3, w4): w1->w2->w4, w1->w3->w4, w2 != w3."""
        succ: dict[WeylElement, list[WeylElement]] = {w: [] for w in self.cosets}
        for a in self.arrows:
            succ[a.source].append(a.target)
        pos = {w: n for lvl in self.levels for n, w in enumerate(lvl)}
        out = []
        for w1 in self.cosets:
            through: dict[WeylElement, list[WeylElement]] = {}
            for m in succ[w1]:
                for w4 in succ[m]:
                    through.setdefault(w4, []).append(m)
            for w4 in sorted(through, key=pos.__getitem__):
                out.extend((w1, w2, w3, w4) for w2, w3 in combinations(through[w4], 2))
        return out

    def _assign_signs(self) -> dict[tuple[WeylElement, WeylElement], int]:
        """Signs on arrows with product -1 around every square (GF(2) solve)."""
        arrows = self.arrows
        idx = {(a.source, a.target): k for k, a in enumerate(arrows)}
        # each square's four sign bits must sum to 1; GF(2) elimination by the
        # lowest set bit, which is each stored row's pivot
        pivots: dict[int, tuple[int, int]] = {}
        for (w1, w2, w3, w4) in self.squares:
            vec, rhs = 0, 1
            for pair in ((w1, w2), (w2, w4), (w1, w3), (w3, w4)):
                vec ^= 1 << idx[pair]
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
        signs = {pair: -1 if sol >> k & 1 else 1 for pair, k in idx.items()}
        for (w1, w2, w3, w4) in self.squares:
            if signs[(w1, w2)] * signs[(w2, w4)] * signs[(w1, w3)] * signs[(w3, w4)] != -1:
                raise CertificationError("sign product around a square is not -1")
        return signs

    def sign(self, a: WeylElement, b: WeylElement) -> int:
        return self.signs[(a, b)]

    def offset(self, a: WeylElement, b: WeylElement) -> tuple[int, ...]:
        """Root coordinates of a.0 - b.0, nonnegative when a lies below b."""
        return tuple(y - x for x, y in zip(self.depth[a], self.depth[b]))


def incomparability_report(G: BruhatGraph) -> dict:
    """Check pairwise differences of dot-orbit points for equal-length pairs,
    and the arrow coefficient condition, for the flag of G."""
    P = G.P
    rs = P.rs
    ok = True
    pair_records = []
    for lvl in G.levels:
        for i in range(len(lvl)):
            for j in range(i + 1, len(lvl)):
                d = G.dot[lvl[i]] - G.dot[lvl[j]]
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
            d = G.dot[a.source] - G.dot[a.target]
            coef = P.alpha_s_coefficient(d)
            good = coef == 1
            ok = ok and good
            arrow_records.append({"arrow": [str(a.source), str(a.target)],
                                  "alpha_s_coefficient": str(coef), "ok": good})
    return {"ok": ok, "pairs": pair_records, "arrows": arrow_records}
