"""Finite root systems: Cartan data, the invariant form, parabolic subsets.

Roots are stored as integer coordinate tuples in the simple-root basis;
weights as integer coordinate tuples in the fundamental-weight basis.
Simple roots are numbered 1..rank in the standard (Bourbaki) labelling.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .qfield import CertificationError

RootCoords = tuple[int, ...]

_POS_ROOT_COUNT = {"A": lambda r: r * (r + 1) // 2, "B": lambda r: r * r,
                   "C": lambda r: r * r, "D": lambda r: r * (r - 1),
                   "E": {6: 36, 7: 63, 8: 120}, "F": {4: 24}, "G": {2: 6}}

# nodes s (1-based) for which every positive root has coefficient <= 1 at s
_COMINUSCULE_NODES = {
    "A": lambda r: set(range(1, r + 1)),
    "B": lambda r: {1},
    "C": lambda r: {r},
    "D": lambda r: {1, r - 1, r},
    "E": lambda r: {1, 6} if r == 6 else ({7} if r == 7 else set()),
    "F": lambda r: set(),
    "G": lambda r: set(),
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    @staticmethod
    def parse(s: str) -> "CartanType":
        m = re.fullmatch(r"([A-G])(\d+)", s.strip())
        if not m:
            raise ValueError("bad Cartan type %r" % s)
        fam, rank = m.group(1), int(m.group(2))
        lo = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
        hi = {"A": 99, "B": 99, "C": 99, "D": 99, "E": 8, "F": 4, "G": 2}
        if fam not in lo or not lo[fam] <= rank <= hi[fam]:
            raise ValueError("unsupported Cartan type %r" % s)
        return CartanType(fam, rank)

    def __str__(self) -> str:
        return "%s%d" % (self.family, self.rank)


def cartan_matrix(t: CartanType) -> list[list[int]]:
    """Cartan matrix a[i][j] = <alpha_j, alpha_i^vee> (0-based rows/cols)."""
    r = t.rank
    a = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def link(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if t.family in ("A", "B", "C"):
        for i in range(r - 1):
            link(i, i + 1)
        if t.family == "B" and r >= 2:
            link(r - 2, r - 1, -1, -2)  # last simple root short
        if t.family == "C" and r >= 2:
            link(r - 2, r - 1, -2, -1)  # last simple root long
    elif t.family == "D":
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 3, r - 1)
    elif t.family == "E":
        # Bourbaki: node 2 attaches to node 4; chain 1-3-4-5-6(-7)(-8)
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for x, y in zip(chain, chain[1:]):
            link(x, y)
        link(1, 3)
    elif t.family == "F":
        link(0, 1)
        link(1, 2, -1, -2)  # roots 3,4 short
        link(2, 3)
    elif t.family == "G":
        link(0, 1, -3, -1)  # root 1 short, root 2 long
    return a


def symmetrizers(a: list[list[int]]) -> list[int]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    r = len(a)
    ratio = [None] * r  # d_i as Fraction relative to first node of component
    for start in range(r):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i != j and a[i][j] != 0:
                    want = ratio[i] * Fraction(a[i][j], a[j][i])
                    if ratio[j] is None:
                        ratio[j] = want
                        stack.append(j)
                    elif ratio[j] != want:
                        raise ValueError("matrix is not symmetrizable")
    den_lcm = math.lcm(*(f.denominator for f in ratio))
    d = [int(f * den_lcm) for f in ratio]
    g = math.gcd(*d)
    return [v // g for v in d]


def _mat_inverse(a: list[list[int]]) -> list[list[Fraction]]:
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


@dataclass(frozen=True)
class Weight:
    """Integral weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.coords))

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.coords) + ")"


class RootSystem:
    """Root system of a finite Cartan type, with the minimal invariant form."""

    def __init__(self, ctype: CartanType | str):
        if isinstance(ctype, str):
            ctype = CartanType.parse(ctype)
        self.ctype = ctype
        self.rank = ctype.rank
        self.cartan = cartan_matrix(ctype)
        self.d = symmetrizers(self.cartan)
        # bilinear form on root coordinates: (alpha_i, alpha_j) = d_i a_ij
        self.bform = [[self.d[i] * self.cartan[i][j] for j in range(self.rank)]
                      for i in range(self.rank)]
        if any(self.bform[i][j] != self.bform[j][i]
               for i in range(self.rank) for j in range(self.rank)):
            raise CertificationError("symmetrized Cartan form is not symmetric")
        inv = _mat_inverse(self.cartan)
        # denom, the lcm of the denominators of A^-1, makes adj = denom A^-1
        # and gram[i][j] = denom (omega_i, omega_j) = d_j adj[j][i] integral
        self.denom = math.lcm(*(f.denominator for row in inv for f in row))
        self.adj = [[int(f * self.denom) for f in row] for row in inv]
        self.gram = [[self.d[j] * self.adj[j][i] for j in range(self.rank)]
                     for i in range(self.rank)]
        self.positive_roots = self._build_positive_roots()
        self._check_root_count()
        self.rho = Weight((1,) * self.rank)

    def _build_positive_roots(self) -> list[RootCoords]:
        """The positive roots by height: beta + alpha_i is a root iff the
        alpha_i-string below beta, all found already, is longer than
        <beta, alpha_i^v>, and each root of height h + 1 is one such."""
        r = self.rank
        layer = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        roots = set(layer)
        while layer:
            nxt = []
            for beta in layer:
                for i in range(r):
                    p, cur = 0, beta
                    while (cur := cur[:i] + (cur[i] - 1,) + cur[i + 1:]) in roots:
                        p += 1
                    pairing = sum(self.cartan[i][j] * beta[j] for j in range(r))
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if p > pairing and up not in roots:
                        roots.add(up)
                        nxt.append(up)
            layer = nxt
        return sorted(roots, key=lambda b: (sum(b), b))

    def _check_root_count(self) -> None:
        fam = self.ctype.family
        table = _POS_ROOT_COUNT[fam]
        want = table(self.rank) if callable(table) else table[self.rank]
        if len(self.positive_roots) != want:
            raise CertificationError("positive root count mismatch for %s" % self.ctype)

    # -- conversions ------------------------------------------------------

    def simple_root(self, i: int) -> Weight:
        """Simple root alpha_i (1-based) in fundamental coordinates."""
        j = i - 1
        return Weight(tuple(self.cartan[k][j] for k in range(self.rank)))

    def fundamental_weight(self, i: int) -> Weight:
        w = [0] * self.rank
        w[i - 1] = 1
        return Weight(tuple(w))

    def root_to_weight(self, beta: RootCoords) -> Weight:
        out = [0] * self.rank
        for j, c in enumerate(beta):
            if c:
                for k in range(self.rank):
                    out[k] += c * self.cartan[k][j]
        return Weight(tuple(out))

    def _scaled_root_coords(self, w: Weight) -> list[int]:
        return [sum(a * x for a, x in zip(row, w.coords)) for row in self.adj]

    def weight_root_coords(self, w: Weight) -> tuple[Fraction, ...]:
        """Coordinates of a weight in the simple-root basis (may be fractional)."""
        return tuple(Fraction(c, self.denom) for c in self._scaled_root_coords(w))

    def weight_root_coords_int(self, w: Weight) -> RootCoords:
        rc = self._scaled_root_coords(w)
        if any(c % self.denom for c in rc):
            raise ValueError("weight %s is not in the root lattice" % (w,))
        return tuple(c // self.denom for c in rc)

    # -- the invariant form ----------------------------------------------

    def inner_scaled(self, a: Weight, b: Weight) -> int:
        """denom times the invariant form (alpha_i, alpha_i) = 2 d_i: an integer."""
        y = b.coords
        return sum(x * sum(g * v for g, v in zip(row, y))
                   for x, row in zip(a.coords, self.gram) if x)

    def root_norm2(self, beta: RootCoords) -> int:
        return sum(beta[i] * self.bform[i][j] * beta[j]
                   for i in range(self.rank) for j in range(self.rank))

    def highest_root(self) -> RootCoords:
        return self.positive_roots[-1]


class ParabolicData:
    """A root system together with a subset S of simple roots.

    S is given 1-based.  The complement singleton index s is defined when
    exactly one simple root is outside S.
    """

    def __init__(self, rs: RootSystem, S: frozenset[int] | set[int]):
        S = frozenset(S)
        if not all(1 <= i <= rs.rank for i in S):
            raise ValueError("S out of range")
        self.rs = rs
        self.S = S
        self.complement = tuple(sorted(set(range(1, rs.rank + 1)) - S))
        self.s = self.complement[0] if len(self.complement) == 1 else None
        self.levi_positive_roots = [b for b in rs.positive_roots
                                    if all(b[j - 1] == 0 for j in self.complement)]
        self.quotient_roots = [b for b in rs.positive_roots
                               if any(b[j - 1] != 0 for j in self.complement)]

    @property
    def irreducible_flag(self) -> bool:
        """True when S misses exactly one node and that node is cominuscule."""
        if self.s is None:
            return False
        nodes = _COMINUSCULE_NODES[self.rs.ctype.family](self.rs.rank)
        by_scan = self._cominuscule_by_scan(self.s)
        if (self.s in nodes) != by_scan:
            raise CertificationError("cominuscule table disagrees with scan")
        return by_scan

    def _cominuscule_by_scan(self, s: int) -> bool:
        return all(b[s - 1] <= 1 for b in self.rs.positive_roots)

    def alpha_s_coefficient(self, w: Weight) -> Fraction:
        if self.s is None:
            raise ValueError("S does not miss exactly one node")
        return self.rs.weight_root_coords(w)[self.s - 1]

    def in_QS(self, w: Weight) -> bool:
        """Is w in the lattice spanned by the simple roots in S."""
        try:
            rc = self.rs.weight_root_coords_int(w)
        except ValueError:
            return False
        return all(rc[j - 1] == 0 for j in self.complement)

    def in_QS_plus(self, w: Weight) -> bool:
        try:
            rc = self.rs.weight_root_coords_int(w)
        except ValueError:
            return False
        return self.in_QS(w) and all(c >= 0 for c in rc) and any(c > 0 for c in rc)

    def is_S_dominant(self, w: Weight) -> bool:
        return all(w.coords[i - 1] >= 0 for i in sorted(self.S))
