"""Exact arithmetic in Q(q) and exact linear algebra over it.

Elements of Q(q) are stored as normalized fractions of integer Laurent
polynomials in q.  All computations are exact, and normal forms use integers
only (`laurent_gcd`, `laurent_divexact`).  Linear algebra has one
path: `Echelon`, a sparse incremental row echelon with leftmost pivots.  It
builds quotients one relation at a time (Serre quotients, module slices,
cyclic lifts), reduces vectors modulo them, and sits behind `rank` and
`kernel_basis`; `fill_to_rank` fills one from relations of known rank modulo
a base echelon, and reduces exactly only the relations it keeps.
A vector is a dict that holds no zero value, from a residue to a `QMatrix`
column; only `kernel_basis` returns dense lists.

A normal form is unique, so `RatFunc._normalize` divides before any gcd: when
the denominator divides the numerator, (quotient, 1) is the normal form.
`_at_a` reads powers of _A mod _P from a table, the residues `pow` gives, and
takes no inverse of a denominator 1, so neither shortcut changes a value.
"""
from __future__ import annotations

from bisect import insort
from math import gcd as _intgcd
from struct import iter_unpack, pack
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

Key = TypeVar("Key", bound=Hashable)


class Laurent:
    """Integer-coefficient Laurent polynomial in q, stored sparsely.  Only
    `__init__` and `_wrap` assign `c` and nothing mutates it, so values such as
    `_ZERO` and `_ONE` are shared."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = {e: v for e, v in coeffs.items() if v} if coeffs else {}

    @staticmethod
    def const(n: int) -> "Laurent":
        return Laurent({0: n})

    @staticmethod
    def q(e: int = 1, coeff: int = 1) -> "Laurent":
        return Laurent({e: coeff})

    def is_zero(self) -> bool:
        return not self.c

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.c.items()))

    def valuation(self) -> int:
        if not self.c:
            raise ValueError("valuation of zero")
        return min(self.c)

    def degree(self) -> int:
        if not self.c:
            raise ValueError("degree of zero")
        return max(self.c)

    def leading_coeff(self) -> int:
        return self.c[self.degree()]

    def content(self) -> int:
        return _intgcd(*self.c.values())

    def is_monomial(self) -> bool:
        return len(self.c) == 1

    def shift(self, k: int) -> "Laurent":
        return _wrap({e + k: v for e, v in self.c.items()})

    def scale_int(self, n: int) -> "Laurent":
        if n == 0:
            return Laurent()
        return _wrap({e: v * n for e, v in self.c.items()})

    def divexact_int(self, n: int) -> "Laurent":
        out = {}
        for e, v in self.c.items():
            if v % n:
                raise ArithmeticError("inexact integer division")
            out[e] = v // n
        return _wrap(out)

    def __add__(self, other: "Laurent") -> "Laurent":
        c = dict(self.c)
        for e, v in other.c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            else:
                c.pop(e, None)
        return _wrap(c)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __neg__(self) -> "Laurent":
        return _wrap({e: -v for e, v in self.c.items()})

    def __mul__(self, other: "Laurent") -> "Laurent":
        c: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                nv = c.get(e, 0) + v1 * v2
                if nv:
                    c[e] = nv
                else:
                    c.pop(e, None)
        return _wrap(c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent) and self.c == other.c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.c.items())))

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e, v in sorted(self.c.items()):
            if e == 0:
                term = str(abs(v))
            else:
                qs = "q" if e == 1 else ("q^%d" % e if e > 0 else "q^%d" % e)
                term = qs if abs(v) == 1 else "%d*%s" % (abs(v), qs)
            parts.append(("- " if v < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


_HEU_RETRIES = 6  # heuristic gcd attempts, each with a larger xi, before the PRS


def _wrap(c: dict[int, int]) -> Laurent:
    """A Laurent polynomial around a dict that holds no zero coefficients."""
    out = Laurent.__new__(Laurent)
    out.c = c
    return out


_ZERO = _wrap({})
_ONE = _wrap({0: 1})


def _dense(p: Laurent) -> list[int]:
    """Coefficients of p / q^valuation(p), low to high."""
    v = min(p.c)
    out = [0] * (max(p.c) - v + 1)
    for e, x in p.c.items():
        out[e - v] = x
    return out


def _primitive(d: list[int]) -> list[int]:
    g = _intgcd(*d)
    return d if g == 1 else [x // g for x in d]


def _divexact_dense(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b of integer coefficient lists (low to high, b's
    last entry nonzero); raises ArithmeticError at the first leading
    coefficient that b's does not divide, or on a nonzero remainder."""
    nb = len(b) - 1
    lb = b[nb]
    r = list(a)
    quo = [0] * (len(a) - nb)
    for k in range(len(quo) - 1, -1, -1):
        c = r[k + nb]
        if c:
            f, m = divmod(c, lb)
            if m:
                raise ArithmeticError("inexact Laurent division")
            quo[k] = f
            r[k:k + nb] = [x - f * y for x, y in zip(r[k:k + nb], b)]
    if any(r[:nb]):
        raise ArithmeticError("inexact Laurent division")
    return quo


def laurent_divexact(a: Laurent, b: Laurent) -> Laurent:
    """Exact division a / b in Z[q, q^-1]; raises if not exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if a.is_zero():
        return Laurent()
    quo = _divexact_dense(_dense(a), _dense(b))
    v = min(a.c) - min(b.c)
    return _wrap({v + i: x for i, x in enumerate(quo) if x})


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of primitive integer polynomials by a primitive remainder
    sequence: pseudo-remainders with their content removed."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r, lb = list(a), b[-1]
        while len(r) >= len(b):
            c, k = r[-1], len(r) - len(b)
            r = [x * lb for x in r]
            r[k:] = [x - c * y for x, y in zip(r[k:], b)]
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _heu_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of primitive integer polynomials, up to sign: the heuristic gcd
    of Char, Geddes and Gonnet, with `_prs_gcd` as its exact fallback.

    h = gcd(a(xi), b(xi)) is read back as the polynomial G of its symmetric
    base-xi digits, so G(xi) = h and every coefficient of G, hence its
    content kappa, is at most xi/2 in size.  A candidate pp(G) is accepted
    only if it divides a and b over Z (a constant always does); it is then
    the gcd g.  Proof: write g = pp(G) * c.  g(xi) divides
    h = kappa * pp(G)(xi), which is nonzero (see below), so c(xi) divides
    kappa.  Let p be whichever of a, b has the smaller sup-norm m;
    xi >= 2m + 2.  Every root alpha of p, hence of c, has |alpha| < m + 1
    (Cauchy), so |xi - alpha| > xi - m - 1 >= xi/2 and p(xi) != 0.  If c
    had degree >= 1 then |c(xi)| > xi/2 >= |kappa|, which is impossible;
    so c = +-1.  A rejected candidate only costs a retry with a larger xi,
    and after `_HEU_RETRIES` the PRS decides."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    for _ in range(_HEU_RETRIES):
        ea = eb = 0
        for x in reversed(a):
            ea = ea * xi + x
        for x in reversed(b):
            eb = eb * xi + x
        h, g = _intgcd(ea, eb), []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            g.append(d)
            h = (h - d) // xi
        g = _primitive(g)
        if len(g) == 1:
            return [1]
        try:
            _divexact_dense(a, g)
            _divexact_dense(b, g)
            return g
        except ArithmeticError:
            xi = xi * 73794 // 27011
    return _prs_gcd(a, b)


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Gcd in Z[q, q^-1], primitive, lowest exponent 0, positive leading coeff."""
    if a.is_zero() and b.is_zero():
        return Laurent()
    if a.is_zero():
        return _normalize_gcd(b)
    if b.is_zero():
        return _normalize_gcd(a)
    if a.is_monomial() or b.is_monomial():
        return Laurent.const(1)
    g = _heu_gcd(_primitive(_dense(a)), _primitive(_dense(b)))
    s = 1 if g[-1] > 0 else -1
    return _wrap({e: s * x for e, x in enumerate(g) if x})


def _normalize_gcd(p: Laurent) -> Laurent:
    p = p.shift(-p.valuation())
    g = p.content()
    p = p.divexact_int(g)
    if p.leading_coeff() < 0:
        p = -p
    return p


class RatFunc:
    """Normalized fraction of integer Laurent polynomials: an element of Q(q)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent | None = None, _normalized: bool = False):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not _normalized:
            num, den = self._normalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _normalize(num: Laurent, den: Laurent) -> tuple[Laurent, Laurent]:
        if num.is_zero():
            return _ZERO, _ONE
        # shift denominator so its lowest exponent is 0
        v = den.valuation()
        if v:
            num, den = num.shift(-v), den.shift(-v)
        if not den.is_monomial():
            try:  # den divides num: the quotient over 1 is the normal form
                return laurent_divexact(num, den), _ONE
            except ArithmeticError:
                pass
            g = laurent_gcd(num, den)
            # g and den have nonzero constant terms, so den / g does too
            if g.degree() > 0:
                num = laurent_divexact(num, g)
                den = laurent_divexact(den, g)
        cg = _intgcd(num.content(), den.content())
        if cg > 1:
            num = num.divexact_int(cg)
            den = den.divexact_int(cg)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return num, den

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(_ZERO, _normalized=True)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(_ONE, _normalized=True)

    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return RatFunc(Laurent.const(n), _normalized=True)

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "RatFunc":
        return RatFunc(Laurent.q(e, coeff), _normalized=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        if len(other.num.c) == 1 and len(other.den.c) == 1:
            return self._times_monomial(other)
        if len(self.num.c) == 1 and len(self.den.c) == 1:
            return other._times_monomial(self)
        return RatFunc(self.num * other.num, self.den * other.den)

    def _times_monomial(self, m: "RatFunc") -> "RatFunc":
        """self * m for m = c q^e / d0 in normal form (d0 > 0).  c, q^e and d0
        are units of Q[q, q^-1], so num and den stay coprime and the product
        needs no polynomial gcd, only the common integer content removed; for
        m = +-q^e that is 1, as num and den already have joint content 1."""
        (e, c), = m.num.c.items()
        d0 = m.den.c[0]
        if d0 == 1 and c in (1, -1):
            if e == 0 and c == 1:  # m = 1: values are immutable, so share self
                return self
            return RatFunc(_wrap({k + e: v * c for k, v in self.num.c.items()}), self.den,
                           _normalized=True)
        g = _intgcd(c * self.num.content(), d0 * self.den.content())
        return RatFunc(_wrap({k + e: v * c // g for k, v in self.num.c.items()}),
                       _wrap({k: v * d0 // g for k, v in self.den.c.items()}),
                       _normalized=True)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatFunc":
        """1 / self without a gcd: swapping num and den keeps them coprime
        with joint content 1, so shifting the new denominator to valuation 0
        and making its leading coefficient positive gives the normal form."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        v = self.num.valuation()
        num, den = self.den.shift(-v), self.num.shift(-v)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return RatFunc(num, den, _normalized=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    __repr__ = __str__


def qint(n: int, d: int = 1) -> RatFunc:
    """Quantum integer [n] at q^d: (q^{dn} - q^{-dn}) / (q^d - q^{-d})."""
    if d <= 0:
        raise ValueError("d must be positive")
    if n == 0:
        return RatFunc.zero()
    sign = 1
    if n < 0:
        n, sign = -n, -1
    # [n]_{q^d} = q^{d(n-1)} + q^{d(n-3)} + ... + q^{-d(n-1)}
    out = Laurent({d * (n - 1 - 2 * k): 1 for k in range(n)})
    return RatFunc(out.scale_int(sign), _normalized=True)


def qbinomial(n: int, k: int, d: int = 1) -> RatFunc:
    """Gaussian binomial coefficient at q^d; always a Laurent polynomial."""
    if not 0 <= k <= n:
        raise ValueError("k out of range")
    num = Laurent.const(1)
    den = Laurent.const(1)
    for j in range(k):
        num = num * qint(n - j, d).num
        den = den * qint(j + 1, d).num
    return RatFunc(laurent_divexact(num, den), _normalized=True)


def add_into(acc: dict[Key, RatFunc], other: dict[Key, RatFunc],
             scale: RatFunc | None = None) -> None:
    """acc += scale * other on sparse vectors, dropping entries that cancel."""
    for k, c in other.items():
        v = c if scale is None else c * scale
        cur = acc.get(k)
        s = v if cur is None else cur + v
        if s.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = s


# ---------------------------------------------------------------------------
# exact linear algebra


class CertificationError(Exception):
    """An exact computation disagreed with its independent check."""


class Echelon:
    """Sparse incremental row echelon over Q(q) with leftmost pivots.

    `rows[p]` is the row whose leftmost nonzero column is p, scaled so that
    entry is 1; only the entries right of the pivot are stored.  Each row is
    reduced against the rows present when it is inserted, so it is zero on
    their pivots and eliminating it touches fewer later pivots.  With leftmost
    pivots the pivot set depends only on the span of the inserted rows, and
    the residue of a vector off the pivots is unique, so neither depends on
    the insertion order.  Columns are keys of one orderable type, and a
    residue holds no zero value, so `not residue` tests it for zero.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[Key, dict[Key, RatFunc]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, vec: dict[Key, RatFunc]) -> Key | None:
        """Add vec to the span; return its new pivot, or None when vec
        already lies in the span."""
        vec = self.reduce(vec)
        if not vec:
            return None
        p = min(vec)
        inv = vec.pop(p).inverse()
        self.rows[p] = {k: v * inv for k, v in vec.items()}
        return p

    def reduce(self, vec: dict[Key, RatFunc],
               combo: dict[Key, RatFunc] | None = None) -> dict[Key, RatFunc]:
        """Residue of vec modulo the span, which is zero on every pivot.

        Pivots are eliminated in ascending order, and only those in the
        vector are visited: each row subtracted queues the ones it brings in,
        all right of its pivot, and a queued column that has cancelled is
        skipped.  If `combo` is given, the coefficient of each row used is
        recorded in it, so that vec = residue + sum(combo[p] * row p)."""
        vec = {k: v for k, v in vec.items() if not v.is_zero()}
        rows = self.rows
        todo, i = sorted(k for k in vec if k in rows), 0  # todo[i:]: pivots to visit
        while i < len(todo):
            p, i = todo[i], i + 1
            f = vec.pop(p, None)
            if f is None:
                continue
            row = rows[p]
            for k in row:
                if k in rows and k not in vec:
                    insort(todo, k, i)
            add_into(vec, row, -f)
            if combo is not None:
                combo[p] = f
        return vec


_P, _A = 2 ** 31 - 1, 12345  # `fill_to_rank` reduces rows at q = _A mod _P
_A_POW: dict[int, int] = {}  # _A^e mod _P by exponent e of either sign, filled on demand


def _eval_a(p: Laurent) -> int:
    """p at q = _A, reduced mod _P only through the powers of _A."""
    out = 0
    for e, v in p.c.items():
        a = _A_POW.get(e)
        if a is None:
            a = _A_POW[e] = pow(_A, e, _P)
        out += v * a
    return out


def _at_a(c: RatFunc) -> int:
    """c at q = _A mod _P; ValueError if its denominator vanishes there."""
    if c.den.c == _ONE.c:  # no inverse to take
        return _eval_a(c.num) % _P
    return _eval_a(c.num) * pow(_eval_a(c.den), -1, _P) % _P


def _shadow_insert(rows: dict[int, bytes], vec: dict[int, int]) -> bool:
    """`Echelon.insert` mod _P, rows packed as uint32 (column, value) pairs: True if new."""
    keys, i = sorted(vec), 0  # keys[i:]: the columns still to visit, ascending
    while i < len(keys):
        p, i = keys[i], i + 1
        f, row = vec[p], rows.get(p)
        if f and row is not None:
            del vec[p]
            for k, v in iter_unpack("2I", row):
                if k not in vec:
                    insort(keys, k, i)
                vec[k] = (vec.get(k, 0) - f * v) % _P
    p = min((k for k, v in vec.items() if v), default=None)
    if p is not None:
        inv = pow(vec.pop(p), -1, _P)
        rows[p] = b"".join(pack("2I", k, v * inv % _P) for k, v in vec.items() if v)
    return p is not None


def fill_to_rank(rows: Callable[[], Iterable[dict[int, RatFunc]]], target: int,
                 base: Echelon | None = None) -> Echelon:
    """Echelon of the residues modulo `base` of the rows of `rows()`, of rank `target`:
    the mod-p shadow starts from `base`'s rows at q = _A mod _P, and only rows
    independent there are reduced and inserted, or all if too few (`uqalg` says why)."""
    base, ech = Echelon() if base is None else base, Echelon()

    def exact() -> Echelon:
        return _echelon_of(map(base.reduce, rows()))
    try:  # a zero entry in a shadow row is harmless
        shadow = {p: b"".join(pack("2I", k, _at_a(c)) for k, c in row.items())
                  for p, row in base.rows.items()}
    except ValueError:  # a denominator vanishes at _A
        return exact()
    for vec in rows():
        try:
            mod = {k: _at_a(c) for k, c in vec.items()}
        except ValueError:
            return exact()
        if _shadow_insert(shadow, mod):
            if len(ech) == target:
                raise CertificationError("relations have rank > %d mod p" % target)
            ech.insert(base.reduce(vec))
    return ech if len(ech) == target else exact()


class QMatrix:
    """Matrix over Q(q) stored as sparse columns: `columns[j]` maps row keys,
    all of one orderable type, to nonzero entries; `rows` counts the rows."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows: int, columns: list[dict[Key, RatFunc]]):
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns


def normalize_vector(vec: list[RatFunc]) -> list[RatFunc]:
    """Clear denominators, remove content, make the first nonzero entry have
    positive leading coefficient."""
    den = Laurent.const(1)
    for e in vec:
        if not e.is_zero():
            den = laurent_divexact(den * e.den, laurent_gcd(den, e.den))
    pols = [laurent_divexact(e.num * den, e.den) if not e.is_zero() else Laurent() for e in vec]
    g = Laurent()
    for p in pols:
        g = laurent_gcd(g, p)
    if not g.is_zero():
        pols = [laurent_divexact(p, g) if not p.is_zero() else p for p in pols]
    for p in pols:
        if not p.is_zero():
            if p.leading_coeff() < 0:
                pols = [-x for x in pols]
            break
    return [RatFunc(p, _normalized=True) for p in pols]


def _echelon_of(rows: Iterable[dict[Key, RatFunc]]) -> Echelon:
    """Echelon of the rows' span, inserting the nonempty rows from the sparse
    end, in descending order of leading column.  A stored row is zero on the
    pivots present when it is inserted, and these lie at or right of its
    leading column, so the echelon is close to reduced form and a later
    reduction seldom brings in a pivot the vector did not hold.  The pivot
    set and every residue depend only on the span (see `Echelon`)."""
    ech = Echelon()
    for r in sorted(filter(None, rows), key=min, reverse=True):
        ech.insert(r)
    return ech


def _null_vector(ech: Echelon, cols: int, free: int) -> list[RatFunc]:
    """The null vector of ech's rows that is one at the non-pivot column
    `free` and zero at every other non-pivot column.

    Every row holds only entries right of its pivot, so back-substituting
    over the pivots in descending order fixes each pivot entry from columns
    already known."""
    sol = [RatFunc.zero()] * cols
    sol[free] = RatFunc.one()
    for p in sorted(ech.rows, reverse=True):
        acc = RatFunc.zero()
        for j, c in ech.rows[p].items():
            if not sol[j].is_zero():
                acc = acc + c * sol[j]
        sol[p] = -acc
    return sol


def rank(m: QMatrix) -> int:
    """Exact rank over Q(q), eliminating the columns: a matrix and its
    transpose have the same rank."""
    return len(_echelon_of(m.columns))


def kernel_basis(m: QMatrix) -> list[list[RatFunc]]:
    """Basis of the right null space, denominator-cleared and content-free:
    one vector per non-pivot column f, which is 1 at f and 0 at every other
    non-pivot column before normalization."""
    rows: dict = {}
    for j, col in enumerate(m.columns):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    ech = _echelon_of(rows.values())
    return [normalize_vector(_null_vector(ech, m.cols, f))
            for f in range(m.cols) if f not in ech.rows]
