"""Independent reference implementations that the tests compare the library
against.  None of them is on a certificate's path, so they live here rather
than under `src/qbgg`."""
from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd
from operator import mul
from struct import iter_unpack, pack

from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.qfield import (_P, CertificationError, Echelon, Laurent, QMatrix, RatFunc,
                         add_into, kernel_basis, laurent_divexact, laurent_gcd)
from qbgg.qsphere import _IJ, Elem, _apply, _word
from qbgg.reps import (CharMap, char_equal, levi_character, levi_irrep,
                       quotient_weights)
from qbgg.uqalg import AlgElement, UqAlgebra
from qbgg.weyl import Arrow, WeylElement


def evaluate(x: Laurent | RatFunc, q0: Fraction) -> Fraction:
    """x at q = q0, exactly; ZeroDivisionError where a denominator vanishes."""
    if isinstance(x, RatFunc):
        return evaluate(x.num, q0) / evaluate(x.den, q0)
    return sum((Fraction(v) * q0 ** e for e, v in x.items()), Fraction(0))


def counit(x: AlgElement) -> RatFunc:
    """The counit: the sum of the coefficients of the pure K-monomials."""
    out = RatFunc.zero()
    for (fw, kv, ew), c in x.items():
        if not fw and not ew:
            out = out + c
    return out


def all_rows_echelon(rows) -> Echelon:
    """The reference for `qfield.fill_to_rank`: every row that `rows()`
    yields inserted exactly, dependent or not."""
    ech = Echelon()
    for r in rows():
        ech.insert(r)
    return ech


def free_vector(sl, x: AlgElement, t: int) -> dict | None:
    """The reference for `WSlice._place` on `bgg._cell_coords(uq, x)`: each
    monomial of x applied to fiber vector t is Serre-reduced and placed on its
    own, and the result is None as soon as one monomial leaves the window."""
    uq = sl.uq
    rs = uq.rs
    one = RatFunc.one()
    vec: dict = {}
    for (fw, kv, ew), c in x.items():
        cf = tuple(fw.count(i) for i in range(1, rs.rank + 1))
        ce = tuple(ew.count(i) for i in range(1, rs.rank + 1))
        off = sl._offset.get((cf, ce, t))
        if off is None:
            return None
        if any(kv):
            c = c * uq.k_scalar(kv, (sl.fiber.weights[t] + rs.root_to_weight(ce)).coords)
        esp = uq.weight_space(ce)
        ec = esp.reduce_coords({ew: one})
        for fi, a in uq.weight_space(cf).reduce_coords({fw: one}).items():
            add_into(vec, {off + fi * esp.dim + ei: b for ei, b in ec.items()}, c * a)
    return vec


def positive_roots_closure(rs) -> list[tuple[int, ...]]:
    """The reference for `cartan.RootSystem._build_positive_roots`: from the
    simple roots, rescan every root found, adding beta + alpha_i whenever the
    downward alpha_i-string through beta is longer than <beta, alpha_i^v>,
    until a scan adds nothing."""
    r = rs.rank
    roots = {tuple(int(i == j) for j in range(r)) for i in range(r)}
    changed = True
    while changed:
        changed = False
        for beta in list(roots):
            for i in range(r):
                p, cur = 0, beta
                while True:
                    down = tuple(c - int(k == i) for k, c in enumerate(cur))
                    if down not in roots:
                        break
                    p, cur = p + 1, down
                if p - sum(rs.cartan[i][j] * beta[j] for j in range(r)) > 0:
                    up = tuple(c + int(k == i) for k, c in enumerate(beta))
                    if up not in roots:
                        roots.add(up)
                        changed = True
    return sorted(roots, key=lambda b: (sum(b), b))


def place(sl, cells: dict, t: int) -> dict | None:
    """The reference for `bgg.WSlice._place` on reduced cells (see
    `bgg._reduce_cell`): each cell is shifted into a dict of its own, scaled
    by a K eigenvalue computed afresh and added; None at the first cell
    outside the window."""
    uq = sl.uq
    vec: dict = {}
    for (cf, ce, kv), local in cells.items():
        off = sl._offset.get((cf, ce, t))
        if off is None:
            return None
        scal = uq.k_scalar(kv, (sl.fiber.weights[t] + uq.rs.root_to_weight(ce)).coords)
        add_into(vec, {off + k: c for k, c in local.items()}, scal)
    return vec


def normalize_by_gcd(num: Laurent, den: Laurent) -> tuple[Laurent, Laurent]:
    """The reference for `qfield.RatFunc._normalize`: the denominator shifted
    to valuation 0, then the polynomial gcd and the joint integer content
    divided out, then the denominator's leading coefficient made positive."""
    if num.is_zero():
        return Laurent(), Laurent.const(1)
    v = den.valuation()
    num, den = num.shift(-v), den.shift(-v)
    g = laurent_gcd(num, den)
    num, den = laurent_divexact(num, g), laurent_divexact(den, g)
    c = gcd(num.content(), den.content())
    num, den = num.divexact_int(c), den.divexact_int(c)
    return (-num, -den) if den.leading_coeff() < 0 else (num, den)


def at_point_mod_p(c: RatFunc, a: int, p: int) -> int:
    """The reference for `qfield._at_a`: c at q = a mod p, every power of a
    taken by `pow`; ValueError where the denominator vanishes."""
    num, den = (sum(v * pow(a, e, p) for e, v in x.items()) for x in (c.num, c.den))
    return num * pow(den, -1, p) % p


def shadow_insert_full_walk(rows: dict[int, bytes], vec: dict[int, int]) -> bool:
    """The reference for `qfield._shadow_insert`: every column of the vector
    is visited in ascending order, pivot or not, and values are kept reduced
    mod _P throughout."""
    keys, i = sorted(vec), 0  # keys[i:]: the columns still to visit
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


def same_quotient(a: Echelon, b: Echelon, cols) -> bool:
    """Whether two echelons have one pivot set and give every unit vector
    e_k, k in cols, the same residue."""
    one = RatFunc.one()
    return set(a.rows) == set(b.rows) and all(
        a.reduce({k: one}) == b.reduce({k: one}) for k in cols)


def gvm_char(P: ParabolicData, lam: Weight, max_height: int) -> CharMap:
    """Character of the parabolically induced module with simple Levi top
    lam, truncated at offset height max_height: the Levi character times
    the geometric series over the quotient roots."""
    rs = P.rs
    out: CharMap = levi_character(P, levi_irrep(P, lam)[0])
    for b in P.quotient_roots:
        bw = rs.root_to_weight(b)
        ht = sum(b)
        new: CharMap = {}
        for wt, m in out.items():
            off0 = sum(rs.weight_root_coords(lam - wt))
            k = 0
            while off0 + k * ht <= max_height:
                nwt = Weight(tuple(x - k * y for x, y in zip(wt.coords, bw.coords)))
                new[nwt] = new.get(nwt, 0) + m
                k += 1
        out = new
    # drop weights beyond the height window
    trimmed: CharMap = {}
    for wt, m in out.items():
        off = sum(rs.weight_root_coords(lam - wt))
        if off <= max_height:
            trimmed[wt] = trimmed.get(wt, 0) + m
    return trimmed


def exterior_power_char(rank: int, weights: list[Weight], k: int) -> CharMap:
    """Character of the k-th exterior power of a multiplicity-free weight
    list, by enumerating every k-subset."""
    out: dict[tuple[int, ...], int] = {}
    coords = [w.coords for w in weights]
    n = len(coords)

    def rec(start: int, left: int, acc: tuple[int, ...]) -> None:
        if left == 0:
            out[acc] = out.get(acc, 0) + 1
            return
        for i in range(start, n - left + 1):
            rec(i + 1, left - 1, tuple(x + y for x, y in zip(acc, coords[i])))

    rec(0, k, (0,) * rank)
    return {Weight(w): m for w, m in out.items()}


def full_dim_identity(G) -> dict:
    """The reference for `reps.verify_dim_identity`: full characters on both
    sides, the exterior powers by subset enumeration and the Levi modules
    spread over whole Levi Weyl orbits."""
    P = G.P
    rs = P.rs
    qw = quotient_weights(P)
    zero = Weight((0,) * rs.rank)
    levels_out = []
    ok = True
    for j, lvl in enumerate(G.levels):
        lam_chars = []
        dims = []
        for w in lvl:
            dom, dim = levi_irrep(P, G.W.shifted_act(w, zero))
            lam_chars.append(levi_character(P, dom))
            dims.append(dim)
        ext = exterior_power_char(rs.rank, qw, j)
        ext_dim = sum(ext.values())
        rec = {"degree": j, "exterior_dim": ext_dim, "module_dims": dims,
               "dims_match": ext_dim == sum(dims)}
        total: CharMap = {}
        for ch in lam_chars:
            for wt, m in ch.items():
                total[wt] = total.get(wt, 0) + m
        rec["weights_match"] = char_equal(ext, total)
        ok = ok and rec["dims_match"] and rec["weights_match"]
        levels_out.append(rec)
    return {"ok": ok, "levels": levels_out,
            "quotient_dim": len(qw), "coset_count": sum(len(l) for l in G.levels)}


def square_signs(G) -> dict:
    """The reference for `weyl.BruhatGraph._assign_signs`: each square's row
    is reduced by every pivot in ascending order, and the solution with its
    free bits 0 is found bit by bit.  A pivot below a row's lowest set bit or
    above its highest cannot touch it, so the walks over pivots and bits stop
    at the row's ends."""
    idx = {(a.source, a.target): k for k, a in enumerate(G.arrows)}
    pivots: dict[int, tuple[int, int]] = {}
    order: list[int] = []  # the pivots, ascending
    for (w1, w2, w3, w4) in G.squares:
        vec, rhs = 0, 1
        for a, b in ((w1, w2), (w2, w4), (w1, w3), (w3, w4)):
            vec ^= 1 << idx[(a, b)]
        for p in order[bisect_left(order, (vec & -vec).bit_length() - 1):]:
            if p >= vec.bit_length():
                break
            if vec >> p & 1:
                vec ^= pivots[p][0]
                rhs ^= pivots[p][1]
        if vec == 0:
            if rhs:
                raise CertificationError("square sign constraints are inconsistent")
            continue
        p = (vec & -vec).bit_length() - 1
        pivots[p] = (vec, rhs)
        insort(order, p)
    bits = [0] * len(G.arrows)
    for p in reversed(order):
        vec, val = pivots[p]
        for j in range(p + 1, vec.bit_length()):
            if vec >> j & 1:
                val ^= bits[j]
        bits[p] = val
    return {key: -1 if bits[k] else 1 for key, k in idx.items()}


Matrix = tuple[tuple[int, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _simple_matrix(rs: RootSystem, i: int) -> Matrix:
    # s_i(alpha_j) = alpha_j - a_ij alpha_i, columns in root coordinates
    r = rs.rank
    return tuple(tuple(int(k == j) - (k == i - 1) * rs.cartan[i - 1][j] for j in range(r))
                 for k in range(r))


class MatrixWeylGroup:
    """The reference for `weyl.WeylGroup`: each element w carries the integer
    matrices of w and of w^{-1} on root coordinates (columns are the images of
    the simple roots).  The walk appends s_i to w, skips a matrix it has seen,
    and keeps w s_i when (w s_i)^{-1}(alpha_j) > 0 for every j in S."""

    def __init__(self, rs: RootSystem, S: frozenset[int] = frozenset()):
        self.rs = rs
        r = rs.rank
        S0 = [j - 1 for j in sorted(S)]
        simple = {i: _simple_matrix(rs, i) for i in range(1, r + 1)}
        e = WeylElement(())
        self.matrix = {e: _identity(r)}
        self.inv_matrix = {e: _identity(r)}
        seen = {self.matrix[e]}
        frontier = [e]
        while frontier:
            new_frontier = []
            for w in frontier:
                for i, s in simple.items():
                    m = _mat_mul(self.matrix[w], s)
                    if m in seen:
                        continue
                    inv = _mat_mul(s, self.inv_matrix[w])
                    if any(inv[k][j] < 0 for j in S0 for k in range(r)):
                        continue
                    nw = WeylElement(w.word + (i,))
                    seen.add(m)
                    self.matrix[nw] = m
                    self.inv_matrix[nw] = inv
                    new_frontier.append(nw)
            frontier = new_frontier
        self.elements = sorted(self.matrix, key=lambda w: (w.length, w.word))

    def act_root(self, w: WeylElement, beta: tuple[int, ...]) -> tuple[int, ...]:
        m = self.matrix[w]
        return tuple(sum(x * b for x, b in zip(row, beta)) for row in m)

    def act(self, w: WeylElement, lam: Weight) -> Weight:
        """w on fundamental-weight coordinates: the matrix A w A^{-1}."""
        rs = self.rs
        scaled = _mat_mul(_mat_mul(rs.cartan, self.matrix[w]), rs.adj)
        if any(x % rs.denom for row in scaled for x in row):
            raise CertificationError("w maps a weight off the weight lattice")
        return Weight(tuple(sum(x // rs.denom * c for x, c in zip(row, lam.coords))
                            for row in scaled))

    def shifted_act(self, w: WeylElement, lam: Weight) -> Weight:
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
                coef = Fraction(2 * sum(beta[k] * rs.bform[k][j] for k in range(r)), norm2)
                if coef.denominator != 1:
                    raise CertificationError("non-integral reflection coefficient")
                cols.append([int(k == j) - int(coef) * beta[k] for k in range(r)])
            out[tuple(tuple(cols[j][k] for j in range(r)) for k in range(r))] = beta
        return out


class MatrixBruhatGraph:
    """The reference for `weyl.BruhatGraph`: dot points from the weight
    matrices, arrows from multiplying every pair of cosets on adjacent levels
    against the table of reflection matrices, squares from scanning the level
    two up, and signs from `square_signs`."""

    def __init__(self, P: ParabolicData):
        rs = P.rs
        self.W = W = MatrixWeylGroup(rs, P.S)
        self.cosets = W.elements
        self.levels: list[list[WeylElement]] = []
        for w in self.cosets:
            while len(self.levels) <= w.length:
                self.levels.append([])
            self.levels[w.length].append(w)
        zero = Weight((0,) * rs.rank)
        self.dot = {w: W.shifted_act(w, zero) for w in self.cosets}
        self.depth = {w: rs.weight_root_coords_int(-d) for w, d in self.dot.items()}
        refl = W.reflections()
        self.arrows = []
        for lvl, nxt in zip(self.levels, self.levels[1:]):
            for w in lvl:
                for w2 in nxt:
                    t = _mat_mul(W.matrix[w2], W.inv_matrix[w])
                    if t in refl:
                        self.arrows.append(Arrow(w, w2, refl[t]))
        arr = {(a.source, a.target) for a in self.arrows}
        self.squares = []
        for lvl, mid, top in zip(self.levels, self.levels[1:], self.levels[2:]):
            for w1 in lvl:
                mids = [m for m in mid if (w1, m) in arr]
                for w4 in top:
                    through = [m for m in mids if (m, w4) in arr]
                    for i in range(len(through)):
                        for j in range(i + 1, len(through)):
                            self.squares.append((w1, through[i], through[j], w4))
        self.signs = square_signs(self)


def length_by_inversions(W: MatrixWeylGroup, w: WeylElement) -> int:
    """The number of positive roots that w sends to negative roots."""
    neg = 0
    for b in W.rs.positive_roots:
        img = W.act_root(w, b)
        if any(c < 0 for c in img):
            if any(c > 0 for c in img):
                raise CertificationError("w maps a root to a mixed-sign vector")
            neg += 1
    return neg


def kostant_decompose(P: ParabolicData, W: MatrixWeylGroup, w: WeylElement,
                      cosets: list[WeylElement]) -> tuple[WeylElement, WeylElement]:
    """Write w = w_S * w^S with w_S in W_S, lengths adding up; W must contain
    w_S and every coset."""
    by_matrix = {W.matrix[c]: c for c in cosets}
    for wS in (x for x in W.elements if set(x.word) <= P.S):
        wup = by_matrix.get(_mat_mul(W.inv_matrix[wS], W.matrix[w]))  # wS^{-1} * w
        if wup is not None and wS.length + wup.length == w.length:
            return wS, wup
    raise ValueError("no Kostant decomposition found")


class LowestSliceFamily:
    """Weight slices of the mirrored (lowest-weight) module: E-words acting on
    a vector ksi with F_i ksi = 0 and K_j ksi = q^{-(alpha_j, lam)} ksi."""

    def __init__(self, uq: UqAlgebra, lam: Weight):
        self.uq = uq
        self.lam = lam

    def _k_scalar(self, kv: tuple[int, ...], eword_content: tuple[int, ...]) -> RatFunc:
        # weight of (E-word) ksi is -lam + sum of alphas in the word
        rs = self.uq.rs
        exp = 0
        for j in range(rs.rank):
            if kv[j]:
                wt_j = -rs.d[j] * self.lam.coords[j]
                wt_j += sum(eword_content[k] * rs.bform[j][k] for k in range(rs.rank))
                exp += kv[j] * wt_j
        return RatFunc.q_power(exp)

    def f_apply(self, i: int, word: tuple[int, ...]) -> dict[tuple[int, ...], RatFunc]:
        """F_i applied to (E-word) ksi, recursively via the commutator."""
        if not word:
            return {}
        uq = self.uq
        rs = uq.rs
        head, rest = word[0], word[1:]
        out = {(head,) + w2: c for w2, c in self.f_apply(i, rest).items()}
        if head == i:
            # F_i E_i = E_i F_i - (K_i - K_i^{-1}) / (q^{d_i} - q^{-d_i})
            content = [0] * rs.rank
            for j in rest:
                content[j - 1] += 1
            kvp = tuple(int(k == i - 1) for k in range(rs.rank))
            kvm = tuple(-int(k == i - 1) for k in range(rs.rank))
            den = uq._efden[i]
            scal = (self._k_scalar(kvp, tuple(content))
                    - self._k_scalar(kvm, tuple(content))) / den
            add_into(out, {rest: -scal})
        return out

    def f_action_matrix(self, beta: tuple[int, ...], i: int) -> QMatrix:
        src = self.uq.weight_space(beta)
        tgt_beta = list(beta)
        tgt_beta[i - 1] -= 1
        if tgt_beta[i - 1] < 0:
            return QMatrix(0, [{} for _ in range(src.dim)])
        tgt = self.uq.weight_space(tuple(tgt_beta))
        return QMatrix(tgt.dim, [tgt.reduce_coords(self.f_apply(i, u))
                                 for u in src.basis_words])

    def annihilated_by_all_f(self, beta: tuple[int, ...]) -> list[list[RatFunc]]:
        src = self.uq.weight_space(beta)
        if src.dim == 0:
            return []
        # the F_i matrices stacked, with rows keyed by (i, basis position)
        mats = {i: self.f_action_matrix(beta, i) for i in range(1, self.uq.r + 1)}
        if not any(m.rows for m in mats.values()):
            return [[RatFunc.one()]] if src.dim == 1 else []
        cols = [{(i, k): v for i, m in mats.items() for k, v in m.columns[j].items()}
                for j in range(src.dim)]
        return kernel_basis(QMatrix(sum(m.rows for m in mats.values()), cols))

    def coords_of(self, x: AlgElement, beta: tuple[int, ...]) -> dict[int, RatFunc]:
        """Coordinates of a pure E-word element in the beta-slice basis,
        keyed by basis position."""
        by_word: dict[tuple[int, ...], RatFunc] = {}
        for (fw, kv, ew), c in x.items():
            if fw or any(kv):
                raise ValueError("element is not in the E-part")
            by_word[ew] = by_word.get(ew, RatFunc.zero()) + c
        return self.uq.weight_space(beta).reduce_coords(by_word)


def pair_word(letters: str, u: list) -> RatFunc:
    """The reference for `qsphere.pair_row`: the value of a product of matrix
    coefficients on one enveloping-algebra word (entries "E", "F" or
    ("K", exponent)), applied letter by letter to the tensor e_J."""
    I = tuple(_IJ[x][0] for x in letters)
    J = tuple(_IJ[x][1] for x in letters)
    vec = {J: RatFunc.one()}
    for letter in reversed(u):
        vec = _apply(vec, letter)
    return vec.get(I, RatFunc.zero())


def pair_elem(x: Elem, u: list) -> RatFunc:
    """The pairing of a normal-form element with one word, monomial by
    monomial."""
    out = RatFunc.zero()
    for m, c in x.items():
        out = out + c * pair_word(_word(m), u)
    return out
