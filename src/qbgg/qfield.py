"""Exact arithmetic in Q(q) and exact linear algebra over it.

Elements of Q(q) are stored as normalized fractions of integer Laurent
polynomials in q.  All computations are exact, and normal forms use integers
only: `laurent_gcd` is a primitive remainder sequence and `laurent_divexact`
long division.  Linear algebra has one path: `Echelon`, a sparse incremental
row echelon with leftmost pivots.  It builds quotients one relation at a time
(Serre quotients, module slices, cyclic lifts), reduces vectors modulo them,
and sits behind `rank` and `kernel_basis`; `fill_to_rank` fills one from
relations of known rank, and inserts exactly only the relations it keeps.
A vector is a dict that holds no zero value, from a residue to a `QMatrix`
column; only `kernel_basis` returns dense lists.

A `Laurent` is a valuation and a dense coefficient tuple with nonzero ends,
so its valuation, degree and leading coefficient, and the coefficient lists
that division and the gcd work on, are read without a scan.

A normal form is unique, so `RatFunc._normalize` divides before any gcd: when
the denominator divides the numerator, (quotient, 1) is the normal form.  It
tries the division only when the end coefficients allow an exact quotient.
Every (p, 1) is already a normal form, and every denominator 1 is the shared
`_ONE`, so sums and products of Laurent polynomials skip `_normalize`.
`_at_a` evaluates a coefficient tuple by Horner's rule, reads _A^v mod _P
from a table of the residues `pow` gives, and takes no inverse of a
denominator 1, so none of these shortcuts changes a value.
"""
from __future__ import annotations

from bisect import insort
from math import gcd as _intgcd
from operator import add as _add
from struct import iter_unpack, pack
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

Key = TypeVar("Key", bound=Hashable)


class Laurent:
    """Integer-coefficient Laurent polynomial in q, stored densely.

    The value is q^v * (a[0] + a[1] q + ... + a[n-1] q^(n-1)), where `a` is a
    tuple of ints whose first and last entries are nonzero; zero is v = 0,
    a = ().  So the valuation is v, the degree v + n - 1 and the leading
    coefficient a[-1], and two equal values have equal fields.  Only
    `__init__` and `_make` assign the fields and nothing mutates them, so
    values such as `_ZERO` and `_ONE` are shared."""

    __slots__ = ("v", "a")

    def __init__(self, coeffs: dict[int, int] | None = None):
        nz = {e: x for e, x in coeffs.items() if x} if coeffs else {}
        self.v = lo = min(nz, default=0)
        self.a = tuple(nz.get(e, 0) for e in range(lo, max(nz, default=-1) + 1))

    @staticmethod
    def const(n: int) -> "Laurent":
        return _make(0, (n,)) if n else _ZERO

    @staticmethod
    def q(e: int = 1, coeff: int = 1) -> "Laurent":
        return _make(e, (coeff,)) if coeff else _ZERO

    def is_zero(self) -> bool:
        return not self.a

    def items(self) -> Iterator[tuple[int, int]]:
        """The nonzero terms (exponent, coefficient), by ascending exponent."""
        return ((e, x) for e, x in enumerate(self.a, self.v) if x)

    def valuation(self) -> int:
        if not self.a:
            raise ValueError("valuation of zero")
        return self.v

    def degree(self) -> int:
        if not self.a:
            raise ValueError("degree of zero")
        return self.v + len(self.a) - 1

    def leading_coeff(self) -> int:
        return self.a[-1]

    def content(self) -> int:
        return _intgcd(*self.a)

    def is_monomial(self) -> bool:
        return len(self.a) == 1

    def shift(self, k: int) -> "Laurent":
        return _make(self.v + k, self.a) if k and self.a else self

    def scale_int(self, n: int) -> "Laurent":
        if n == 0:
            return _ZERO
        return _make(self.v, tuple([x * n for x in self.a]))

    def divexact_int(self, n: int) -> "Laurent":
        if any(x % n for x in self.a):
            raise ArithmeticError("inexact integer division")
        return _make(self.v, tuple([x // n for x in self.a]))

    def __add__(self, other: "Laurent") -> "Laurent":
        a, b = self.a, other.a
        if not a:
            return other
        if not b:
            return self
        v, w = self.v, other.v
        if v > w:
            a, b, v, w = b, a, w, v
        out, k = list(a), w - v  # b starts k places into out
        if len(out) < k + len(b):
            out.extend([0] * (k + len(b) - len(out)))
        out[k:k + len(b)] = map(_add, out[k:k + len(b)], b)
        return _trimmed(v, out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __neg__(self) -> "Laurent":
        return _make(self.v, tuple([-x for x in self.a]))

    def __mul__(self, other: "Laurent") -> "Laurent":
        a, b = self.a, other.a
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        v = self.v + other.v
        if len(a) == 1:
            x = a[0]
            return _make(v, b if x == 1 else tuple([x * y for y in b]))
        # the end coefficients a[0] b[0] and a[-1] b[-1] are nonzero
        out, n = [0] * (len(a) + len(b) - 1), len(b)
        for i, x in enumerate(a):
            if x:
                out[i:i + n] = [z + x * y for z, y in zip(out[i:i + n], b)]
        return _make(v, tuple(out))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent) and self.a == other.a and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.v, self.a))

    def __str__(self) -> str:
        if not self.a:
            return "0"
        parts = []
        for e, v in self.items():
            if e == 0:
                term = str(abs(v))
            else:
                qs = "q" if e == 1 else "q^%d" % e
                term = qs if abs(v) == 1 else "%d*%s" % (abs(v), qs)
            parts.append(("- " if v < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


def _make(v: int, a: tuple[int, ...]) -> Laurent:
    """q^v * a, for a tuple a whose end coefficients are nonzero."""
    out = Laurent.__new__(Laurent)
    out.v, out.a = v, a
    return out


def _trimmed(v: int, a: list[int]) -> Laurent:
    """q^v * a, for a list a that may have zeros at either end."""
    hi = len(a)
    while hi and not a[hi - 1]:
        hi -= 1
    if not hi:
        return _ZERO
    lo = 0
    while not a[lo]:
        lo += 1
    return _make(v + lo, tuple(a[lo:hi]))


_ZERO = _make(0, ())
_ONE = _make(0, (1,))


def _primitive(d: Sequence[int]) -> Sequence[int]:
    g = _intgcd(*d)
    return d if g == 1 else [x // g for x in d]


def _divexact_dense(a: Sequence[int], b: Sequence[int]) -> list[int]:
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
        return _ZERO
    # a's end coefficients are those of b times the quotient's, so nonzero
    return _make(a.v - b.v, tuple(_divexact_dense(a.a, b.a)))


def _prs_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Gcd of primitive integer polynomials, up to sign: Brown's primitive
    remainder sequence, pseudo-remainders with their content removed."""
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


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Gcd in Z[q, q^-1], primitive, lowest exponent 0, positive leading coeff."""
    if a.is_monomial() or b.is_monomial():
        return _ONE
    if a.a and b.a:
        # g divides a / q^v(a), whose constant term is nonzero, so g's is too
        g = _prs_gcd(_primitive(a.a), _primitive(b.a))
    elif a.a or b.a:  # gcd(0, p) is p's primitive part
        g = _primitive(a.a or b.a)
    else:
        return _ZERO
    return _make(0, tuple(g) if g[-1] > 0 else tuple([-x for x in g]))


def _shared(den: Laurent) -> Laurent:
    """A normalized denominator, `_ONE` itself when it is 1."""
    return _ONE if den.a == (1,) else den


class RatFunc:
    """Normalized fraction of integer Laurent polynomials: an element of Q(q).

    In the normal form (num, den) the denominator has valuation 0 and a
    positive leading coefficient, num and den have no common factor of
    positive degree, and their joint integer content is 1.  (p, 1) meets all
    four for any p, so a Laurent polynomial needs no normalization.  Every
    denominator 1 is the shared `_ONE` (`_normalize`, `_times_monomial` and
    `inverse` see to it), so `__add__` and `__mul__` recognize a pair of
    Laurent polynomials by identity and build their (p, 1) directly."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent | None = None, _normalized: bool = False):
        if den is None:
            den = _ONE
        elif not den.a:
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
        a, b = num.a, den.a
        if len(b) > 1:
            # an exact quotient needs a at least as long as b and b's end
            # coefficients dividing a's, so only such pairs try the division
            if len(a) >= len(b) and not a[0] % b[0] and not a[-1] % b[-1]:
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
        return num, _shared(den)

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
        return not self.num.a

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        sd, od = self.den, other.den
        if sd is _ONE and od is _ONE:  # (p, 1) is a normal form
            return RatFunc(self.num + other.num, _ONE, _normalized=True)
        if sd == od:
            return RatFunc(self.num + other.num, sd)
        return RatFunc(self.num * od + other.num * sd, sd * od)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.is_zero() or other.is_zero():
            return RatFunc.zero()
        if self.den is _ONE and other.den is _ONE:  # (p, 1) is a normal form
            return RatFunc(self.num * other.num, _ONE, _normalized=True)
        if len(other.num.a) == 1 and len(other.den.a) == 1:
            return self._times_monomial(other)
        if len(self.num.a) == 1 and len(self.den.a) == 1:
            return other._times_monomial(self)
        return RatFunc(self.num * other.num, self.den * other.den)

    def _times_monomial(self, m: "RatFunc") -> "RatFunc":
        """self * m for m = c q^e / d0 in normal form (d0 > 0).  c, q^e and d0
        are units of Q[q, q^-1], so num and den stay coprime and the product
        needs no polynomial gcd, only the common integer content removed; for
        m = +-q^e that is 1, as num and den already have joint content 1."""
        num, den, e = self.num, self.den, m.num.v
        (c,), (d0,) = m.num.a, m.den.a
        if d0 == 1 and c in (1, -1):
            if e == 0 and c == 1:  # m = 1: values are immutable, so share self
                return self
            return RatFunc((num if c == 1 else -num).shift(e), den, _normalized=True)
        g = _intgcd(c * num.content(), d0 * den.content())
        return RatFunc(_make(num.v + e, tuple([x * c // g for x in num.a])),
                       _shared(_make(den.v, tuple([x * d0 // g for x in den.a]))),
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
        return RatFunc(num, _shared(den), _normalized=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        # normal forms are unique, so equal values have equal fields
        return self.num == other.num and self.den == other.den

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
    """p at q = _A up to a multiple of _P: Horner's rule over the
    coefficient tuple, times _A^v mod _P from the table."""
    h = 0
    for x in reversed(p.a):
        h = h * _A + x
    a = _A_POW.get(p.v)
    if a is None:
        a = _A_POW[p.v] = pow(_A, p.v, _P)
    return h * a


def _at_a(c: RatFunc) -> int:
    """c at q = _A mod _P; ValueError if its denominator vanishes there."""
    if c.den is _ONE:  # no inverse to take
        return _eval_a(c.num) % _P
    return _eval_a(c.num) * pow(_eval_a(c.den), -1, _P) % _P


def _shadow_insert(rows: dict[int, bytes], vec: dict[int, int]) -> bool:
    """`Echelon.insert` mod _P, rows packed as uint32 (column, value) pairs: True if new.

    As in `Echelon.reduce`, only the pivots in the vector are visited, in
    ascending order.  A value that falls to 0 mod _P stays in `vec`, so every
    pivot in it is queued, whatever its value."""
    todo, i = sorted(k for k in vec if k in rows), 0  # todo[i:]: pivots to visit
    while i < len(todo):
        p, i = todo[i], i + 1
        f = vec.pop(p)
        if f:
            for k, v in iter_unpack("2I", rows[p]):
                if k not in vec and k in rows:
                    insort(todo, k, i)
                vec[k] = (vec.get(k, 0) - f * v) % _P
    p = min((k for k, v in vec.items() if v), default=None)
    if p is not None:
        inv = pow(vec.pop(p), -1, _P)
        rows[p] = b"".join(pack("2I", k, v * inv % _P) for k, v in vec.items() if v)
    return p is not None


def fill_to_rank(rows: Callable[[], Iterable[dict[int, RatFunc]]], target: int) -> Echelon:
    """Echelon of the rows of `rows()`, of rank `target`: only rows independent
    at q = _A mod _P are inserted, or all if too few (`uqalg` says why)."""
    shadow: dict[int, bytes] = {}
    ech = Echelon()
    for vec in rows():
        try:
            mod = {k: _at_a(c) for k, c in vec.items()}
        except ValueError:  # a denominator vanishes at _A
            return _echelon_of(rows())
        if _shadow_insert(shadow, mod):
            if len(ech) == target:
                raise CertificationError("relations have rank > %d mod p" % target)
            ech.insert(vec)
    return ech if len(ech) == target else _echelon_of(rows())


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
