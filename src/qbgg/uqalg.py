"""Normal-form arithmetic in the quantized enveloping algebra.

Elements are finite sums of normal monomials F-word * K-monomial * E-word
with coefficients in Q(q).  The defining relations are

    K_i E_j = q^{(alpha_i, alpha_j)} E_j K_i
    K_i F_j = q^{-(alpha_i, alpha_j)} F_j K_i
    E_i F_j - F_j E_i = delta_ij (K_i - K_i^{-1}) / (q^{d_i} - q^{-d_i})

The quantum Serre relations are not used as rewriting rules; weight
components of the lower triangular part, and of the modules induced from it,
are quotients of free word spaces (`NMinusWeightSpace` below).

In M_S(lam) (Lepowsky, J. Algebra 49, 1977) the relations beside the Serre
span are the words that end in a tail (i,) * (<lam, alpha_i^vee> + 1), i in S.
Each is a unit vector, so its own leftmost pivot: the pivots of all relations
are the tail words and those of the Serre rows with these columns deleted, and
a residue off them is one of that restriction.  So a quotient keeps only the
words that end in no tail, and a Serre row whose right factor ends in one is 0.

`qfield.fill_to_rank` builds each quotient from relations whose span R has a
known rank t: |words| - K(beta) by the PBW theorem (Jantzen, Lectures on
Quantum Groups, ch. 8), or |kept words| less the induced character.  The t
rows it keeps are exact relations independent mod p at q = a, hence over Q(q),
so they span R.  Were rank R < t, fewer rows would be kept and all reduced, so
each certificate stays exact on that side; a rank R > t raises only if a later
row is independent mod p (acceptance 4 is exact).
"""
from __future__ import annotations

import itertools

from .cartan import RootSystem
from .qfield import (CertificationError, Laurent, RatFunc, add_into, fill_to_rank,
                     qbinomial)
from .reps import kostant_partition

# normal monomial: (F indices, K exponent vector, E indices), all 1-based indices
NormalWord = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
AlgElement = dict[NormalWord, RatFunc]


def scaled(x: AlgElement, c: RatFunc) -> AlgElement:
    if c.is_zero():
        return {}
    return {nw: v * c for nw, v in x.items()}


class UqAlgebra:
    """Normal-form engine for the quantized enveloping algebra of a root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.r = rs.rank
        self._zero_k = (0,) * self.r
        self._mul_letter_cache: dict[tuple[NormalWord, tuple], AlgElement] = {}
        self._weight_spaces: dict[tuple, NMinusWeightSpace] = {}
        # (alpha_i, alpha_j) as integers
        self._aa = rs.bform
        # denominators (q^{d_i} - q^{-d_i}) for the E-F commutator
        self._efden = {i: RatFunc(Laurent({rs.d[i - 1]: 1, -rs.d[i - 1]: -1}), _normalized=True)
                       for i in range(1, self.r + 1)}

    # -- constructors -----------------------------------------------------

    def one(self) -> AlgElement:
        return {((), self._zero_k, ()): RatFunc.one()}

    def F(self, i: int) -> AlgElement:
        return {(((i,), self._zero_k, ())): RatFunc.one()}

    def E(self, i: int) -> AlgElement:
        return {(((), self._zero_k, (i,))): RatFunc.one()}

    def K(self, i: int, e: int = 1) -> AlgElement:
        kv = [0] * self.r
        kv[i - 1] = e
        return {(((), tuple(kv), ())): RatFunc.one()}

    # -- multiplication ---------------------------------------------------

    def _mul_letter(self, nw: NormalWord, letter: tuple) -> AlgElement:
        key = (nw, letter)
        out = self._mul_letter_cache.get(key)
        if out is not None:
            return out
        fw, kv, ew = nw
        kind = letter[0]
        if kind == "E":
            out = {(fw, kv, ew + (letter[1],)): RatFunc.one()}
        elif kind == "K":
            i, e = letter[1], letter[2]
            exp = -e * sum(self._aa[i - 1][j - 1] for j in ew)
            nkv = list(kv)
            nkv[i - 1] += e
            out = {(fw, tuple(nkv), ew): RatFunc.q_power(exp)}
        else:  # F
            j = letter[1]
            if not ew:
                exp = -sum(kv[i] * self._aa[i][j - 1] for i in range(self.r))
                out = {(fw + (j,), kv, ()): RatFunc.q_power(exp)}
            else:
                i = ew[-1]
                head = (fw, kv, ew[:-1])
                out = {}
                t1 = self._mul_letter(head, ("F", j))
                for nw2, c in t1.items():
                    f2, k2, e2 = nw2
                    add_into(out, {(f2, k2, e2 + (i,)): c})
                if i == j:
                    den = self._efden[i]
                    tp = self._mul_letter(head, ("K", i, 1))
                    tm = self._mul_letter(head, ("K", i, -1))
                    add_into(out, tp, RatFunc.one() / den)
                    add_into(out, tm, -(RatFunc.one() / den))
        self._mul_letter_cache[key] = out
        return out

    @staticmethod
    def letters_of(nw: NormalWord) -> list[tuple]:
        fw, kv, ew = nw
        out: list[tuple] = [("F", j) for j in fw]
        for i, e in enumerate(kv):
            if e:
                out.append(("K", i + 1, e))
        out.extend(("E", i) for i in ew)
        return out

    def multiply(self, x: AlgElement, y: AlgElement) -> AlgElement:
        out: AlgElement = {}
        for nwx, cx in x.items():
            for nwy, cy in y.items():
                add_into(out, self.from_letters(self.letters_of(nwy), nwx), cx * cy)
        return out

    def from_letters(self, letters: list[tuple], start: NormalWord | None = None) -> AlgElement:
        """The product start * letters, start the monomial 1 by default."""
        out = self.one() if start is None else {start: RatFunc.one()}
        for letter in letters:
            nxt: AlgElement = {}
            for nw, c in out.items():
                add_into(nxt, self._mul_letter(nw, letter), c)
            out = nxt
        return out

    def fword(self, word: tuple[int, ...], eword: tuple[int, ...] = ()) -> AlgElement:
        """The normal monomial F-word * E-word."""
        return {(tuple(word), self._zero_k, tuple(eword)): RatFunc.one()}

    def k_scalar(self, kv: tuple[int, ...], wt: tuple[int, ...]) -> RatFunc:
        """The eigenvalue q^{sum_j kv_j d_j wt_j} of K^kv on a vector of
        weight wt (fundamental-weight coordinates)."""
        d = self.rs.d
        return RatFunc.q_power(sum(kv[j] * d[j] * wt[j] for j in range(self.r)))

    # -- structure maps ---------------------------------------------------

    def eta(self, x: AlgElement) -> AlgElement:
        """Algebra isomorphism swapping E_i <-> F_i and inverting K_i."""
        out: AlgElement = {}
        for (fw, kv, ew), c in x.items():
            letters: list[tuple] = [("E", j) for j in fw]
            letters += [("K", i + 1, -e) for i, e in enumerate(kv) if e]
            letters += [("F", i) for i in ew]
            add_into(out, self.from_letters(letters), c)
        return out

    def antipode(self, x: AlgElement) -> AlgElement:
        """kappa: anti-homomorphism with kappa(E) = -EK^{-1}, kappa(F) = -KF,
        kappa(K) = K^{-1}."""
        out: AlgElement = {}
        for nw, c in x.items():
            letters = self.letters_of(nw)
            sign = 1
            mapped: list[tuple] = []
            for letter in reversed(letters):
                if letter[0] == "E":
                    i = letter[1]
                    mapped += [("E", i), ("K", i, -1)]
                    sign = -sign
                elif letter[0] == "F":
                    i = letter[1]
                    mapped += [("K", i, 1), ("F", i)]
                    sign = -sign
                else:
                    mapped.append(("K", letter[1], -letter[2]))
            add_into(out, self.from_letters(mapped), c * RatFunc.from_int(sign))
        return out

    def coproduct(self, x: AlgElement) -> dict[tuple[NormalWord, NormalWord], RatFunc]:
        """Two-fold coproduct, with Delta(E) = E x K + 1 x E,
        Delta(F) = F x 1 + K^{-1} x F, Delta(K) = K x K."""
        out: dict[tuple[NormalWord, NormalWord], RatFunc] = {}
        unit = ((), self._zero_k, ())
        for nw, c in x.items():
            cur: dict[tuple[NormalWord, NormalWord], RatFunc] = {(unit, unit): c}
            for letter in self.letters_of(nw):
                if letter[0] == "E":
                    i = letter[1]
                    parts = [(("E", i), ("K", i, 1)), (None, ("E", i))]
                elif letter[0] == "F":
                    i = letter[1]
                    parts = [(("F", i), None), (("K", i, -1), ("F", i))]
                else:
                    parts = [(letter, letter)]
                nxt: dict[tuple[NormalWord, NormalWord], RatFunc] = {}
                for (a, b), cc in cur.items():
                    for la, lb in parts:
                        ea = {a: RatFunc.one()} if la is None else self._mul_letter(a, la)
                        eb = {b: RatFunc.one()} if lb is None else self._mul_letter(b, lb)
                        for nwa, ca in ea.items():
                            add_into(nxt, {(nwa, nwb): cb for nwb, cb in eb.items()},
                                     cc * ca)
                cur = nxt
            add_into(out, cur)
        return out

    def adjoint(self, u: AlgElement, x: AlgElement) -> AlgElement:
        """(ad u) x = sum u_(1) x kappa(u_(2))."""
        out: AlgElement = {}
        for (nw1, nw2), c in self.coproduct(u).items():
            kap = self.antipode({nw2: RatFunc.one()})
            term = self.multiply(self.multiply({nw1: RatFunc.one()}, x), kap)
            add_into(out, term, c)
        return out

    # -- Serre relations and weight spaces of the triangular parts --------

    def serre_fword_elements(self, i: int, j: int) -> dict[tuple[int, ...], RatFunc]:
        """Coefficients of the F-side quantum Serre relation for i != j."""
        a = self.rs.cartan[i - 1][j - 1]
        n = 1 - a
        di = self.rs.d[i - 1]
        # the words are distinct and no q-binomial vanishes
        return {(i,) * (n - k) + (j,) + (i,) * k:
                -qbinomial(n, k, di) if k % 2 else qbinomial(n, k, di)
                for k in range(n + 1)}

    def weight_space(self, beta: tuple[int, ...], tails: tuple = (), dim: int | None = None):
        """The weight-beta quotient with `tails`, certified against `dim` and
        built once per algebra, beta and the tails that fit in beta (the others
        end no word); it is read-only, so every module with those tails shares it."""
        key = (beta, tuple(t for t in tails if len(t) <= beta[t[0] - 1]))
        ws = self._weight_spaces.get(key)
        if ws is None:
            ws = self._weight_spaces[key] = NMinusWeightSpace(self, *key, dim)
        return ws


class NMinusWeightSpace:
    """The weight-beta component of the lower triangular part modulo the words
    that end in one of `tails`: the free span of the other F-words modulo the
    Serre slice, certified against `dim`, by default the partition count K(beta)."""

    def __init__(self, uq: UqAlgebra, beta: tuple[int, ...], tails: tuple = (), dim=None):
        self.beta = beta
        self.tails = tails
        self.words = [w for w in sorted(_words_of_content(beta)) if not self._dropped(w)]
        self.index = {w: k for k, w in enumerate(self.words)}
        expect = kostant_partition(uq.rs, beta) if dim is None else dim
        # uq is not kept: it caches this space, and the cycle would outlive requests
        self._ech = fill_to_rank(lambda: self._serre_rows(uq), len(self.words) - expect)
        # word indices of the basis words: the columns without a pivot
        self.basis_pos = [k for k in range(len(self.words)) if k not in self._ech.rows]
        self.basis_words = [self.words[k] for k in self.basis_pos]
        self._position = {k: i for i, k in enumerate(self.basis_pos)}
        if self.dim != expect:
            raise CertificationError("weight space dimension %d != certified %d at %s"
                                     % (self.dim, expect, beta))

    def _dropped(self, word: tuple[int, ...]) -> bool:  # it ends in a tail, so is zero
        return any(word[-len(t):] == t for t in self.tails)

    def _serre_rows(self, uq):
        """Rows left * S_ij * right by word index, on the kept words only."""
        index = self.index
        for i in range(1, uq.r + 1):
            for j in range(1, uq.r + 1):
                rest = list(self.beta)
                rest[i - 1] += uq.rs.cartan[i - 1][j - 1] - 1
                rest[j - 1] -= 1
                if i == j or min(rest) < 0:
                    continue
                serre = uq.serre_fword_elements(i, j)
                for left_content in itertools.product(*(range(c + 1) for c in rest)):
                    right_content = tuple(a - b for a, b in zip(rest, left_content))
                    rights = [r for r in _words_of_content(right_content) if not self._dropped(r)]
                    for left in _words_of_content(left_content):
                        for right in rights:
                            yield {index[w]: c for sword, c in serre.items()
                                   if (w := left + sword + right) in index}

    @property
    def dim(self) -> int:
        return len(self.basis_words)

    def residue(self, vec_by_word: dict[tuple[int, ...], RatFunc]) -> dict[int, RatFunc]:
        """Reduce a free-word vector of content beta modulo the relations; the
        result is keyed by word index and supported on the basis words."""
        index = self.index
        # a word that ends in a tail is zero; any other must be one of `words`
        return self._ech.reduce({index[w]: c for w, c in vec_by_word.items()
                                 if w in index or not self._dropped(w)})

    def reduce_coords(self, vec_by_word: dict[tuple[int, ...], RatFunc]) -> dict[int, RatFunc]:
        """The residue keyed by basis position: coordinates in the basis words."""
        return {self._position[k]: c for k, c in self.residue(vec_by_word).items()}


def _words_of_content(content: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All words using letter i exactly content[i-1] times, in lexicographic order."""
    out: list[tuple[int, ...]] = []
    _extend_words(list(content), (), out)
    return out


def _extend_words(remaining: list[int], acc: tuple[int, ...], out: list) -> None:
    if not any(remaining):
        out.append(acc)
        return
    for i, c in enumerate(remaining):
        if c:
            remaining[i] -= 1
            _extend_words(remaining, acc + (i + 1,), out)
            remaining[i] += 1
