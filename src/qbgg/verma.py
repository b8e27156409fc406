"""Weight slices of (parabolic) Verma modules, singular vectors, and the
normalized intertwiner family.

A slice at offset beta is the free span of the F-words of content beta that
end in no tail F_i^{<lam, alpha_i^vee> + 1}, i in S, modulo the Serre slice
(`uqalg` says why deleting those words suffices).  Raising operators act
through the normal-form engine and kill the highest weight vector.
"""
from __future__ import annotations

from functools import cached_property

from .cartan import ParabolicData, Weight
from .qfield import CertificationError, QMatrix, RatFunc, add_into, kernel_basis
from .reps import kostant_partition, levi_character, levi_irrep
from .uqalg import AlgElement, UqAlgebra, scaled
from .weyl import WeylElement


class ModuleSlice:
    """Weight-offset slice of a highest-weight module induced from a Levi
    simple module (plain Verma when S is empty): the quotient of beta and the
    family's tails, shared by families with those tails, and certified
    against this family's induced character."""

    def __init__(self, family: SliceFamily, beta: tuple[int, ...]):
        self.uq = uq = family.uq
        self.lam = family.lam
        self.beta = beta
        self.S = family.S
        expect = family.induced_dim(beta)
        self.quotient = quo = uq.weight_space(beta, family.tails, expect)
        # columns are word indices of the quotient's words
        self.words, self.basis_pos, self.basis_words = quo.words, quo.basis_pos, quo.basis_words
        self.dim, self.residue = quo.dim, quo.residue
        if self.dim != expect:
            raise CertificationError("induced module slice dim %d != character value %d at %s"
                                     % (self.dim, expect, beta))

    def reduce_element(self, x: AlgElement) -> dict[int, RatFunc]:
        """Residue of x applied to the highest weight vector: E-parts
        vanish, K-parts act by their eigenvalue on lam, F-words remain."""
        by_word: dict[tuple[int, ...], RatFunc] = {}
        for (fw, kv, ew), c in x.items():
            if not ew:
                add_into(by_word, {fw: c * self.uq.k_scalar(kv, self.lam.coords)
                                   if any(kv) else c})
        return self.residue(by_word)


class SliceFamily:
    """The module induced from the simple Levi module of a fixed S-dominant
    highest weight lam: a cache of its slices, and the Levi top's character
    (its dimension and each weight as (root offset below lam, multiplicity),
    by height and then by offset), basis and matrices."""

    def __init__(self, uq: UqAlgebra, lam: Weight, S: frozenset[int] = frozenset()):
        self.uq = uq
        self.lam = lam
        self.S = frozenset(S)
        self.P = ParabolicData(uq.rs, self.S)
        # the words u * F_i^{<lam, alpha_i^vee> + 1} vanish in the module
        self.tails = tuple((i,) * (lam.coords[i - 1] + 1) for i in sorted(self.S))
        dom, self.levi_dim = levi_irrep(self.P, lam)
        self.levi_offsets = sorted(((uq.rs.weight_root_coords_int(lam - wt), m)
                                    for wt, m in levi_character(self.P, dom).items()),
                                   key=lambda om: (sum(om[0]), om[0]))
        self._slices: dict[tuple[int, ...], ModuleSlice] = {}

    def get(self, beta: tuple[int, ...]) -> ModuleSlice:
        sl = self._slices.get(beta)
        if sl is None:
            sl = ModuleSlice(self, beta)
            self._slices[beta] = sl
        return sl

    @cached_property
    def levi_basis(self) -> list[tuple[tuple[int, ...], int]]:
        """The Levi top's basis: (offset, word index) over each slice's basis
        words, in the order of `levi_offsets`, so the highest weight vector
        comes first."""
        basis = [(off, k) for off, _ in self.levi_offsets for k in self.get(off).basis_pos]
        if len(basis) != self.levi_dim:
            raise CertificationError("Levi basis count is not the dimension")
        return basis

    def levi_matrix(self, x: AlgElement) -> list[dict[int, RatFunc]]:
        """Sparse columns of a Levi-part element's matrix on the Levi top: x
        applied to each basis word on the highest weight vector, each
        F-content part reduced in its slice."""
        uq = self.uq
        index = {b: n for n, b in enumerate(self.levi_basis)}
        cols = []
        for off, k in self.levi_basis:
            prod = uq.multiply(x, uq.fword(self.get(off).words[k]))
            parts: dict[tuple[int, ...], AlgElement] = {}
            for nw, c in prod.items():
                parts.setdefault(tuple(nw[0].count(i) for i in range(1, uq.r + 1)), {})[nw] = c
            # parts at contents outside the module's weights vanish in it
            cols.append({index[(noff, k2)]: v for noff, _ in self.levi_offsets
                         for k2, v in self.get(noff).reduce_element(parts.get(noff, {})).items()})
        return cols

    def induced_dim(self, beta: tuple[int, ...]) -> int:
        """Dimension of the beta-slice by the character identity: the Levi
        character times partition counts into the quotient roots."""
        rs = self.uq.rs
        return sum(m * kostant_partition(rs, tuple(b - o for b, o in zip(beta, off)),
                                         self.P.quotient_roots)
                   for off, m in self.levi_offsets)


def singular_vectors(family: SliceFamily, beta: tuple[int, ...]) -> list[AlgElement]:
    """Vectors of the beta-slice killed by every E_i, as F-word combinations,
    denominator-free and content-free with a sign convention."""
    uq = family.uq
    src = family.get(beta)
    if src.dim == 0:
        return []
    # stacked matrices of E_i from the beta- to the (beta - alpha_i)-slice,
    # with rows keyed by (i, word index)
    tgts = {i: family.get(tuple(b - (k == i - 1) for k, b in enumerate(beta)))
            for i in range(1, uq.r + 1) if beta[i - 1] > 0}
    cols = [{(i, k): v for i, tgt in tgts.items()
             for k, v in tgt.reduce_element(uq.multiply(uq.E(i), uq.fword(u))).items()}
            for u in src.basis_words]
    return [{(w, (0,) * uq.r, ()): c for w, c in zip(src.basis_words, coords)
             if not c.is_zero()}
            for coords in kernel_basis(QMatrix(sum(t.dim for t in tgts.values()), cols))]


class StandardMapFamily:
    """Intertwiners y between the modules M(w.0) for every arrow of a Bruhat
    graph: each arrow's singular vector, rescaled in `scaled` so that both
    composites agree exactly around every square.  Signs are kept apart."""

    def __init__(self, G):
        self.G = G
        self.uq = UqAlgebra(G.P.rs)
        self.families: dict[WeylElement, SliceFamily] = {}  # by coset
        self.scaled: dict[tuple, AlgElement] = {}
        self._solve_arrows()
        self._normalize_squares()

    def family(self, w) -> SliceFamily:
        """The module M(w.0) of the coset w: its slices and its Levi top."""
        fam = self.families.get(w)
        if fam is None:
            fam = SliceFamily(self.uq, self.G.dot[w], self.G.P.S)
            self.families[w] = fam
        return fam

    def _solve_arrows(self) -> None:
        for a in self.G.arrows:
            sv = singular_vectors(self.family(a.source), self.G.offset(a.source, a.target))
            if len(sv) != 1:
                raise CertificationError(
                    "singular space at arrow %s -> %s has dimension %d"
                    % (a.source, a.target, len(sv)))
            self.scaled[(a.source, a.target)] = sv[0]

    def _normalize_squares(self) -> None:
        """One walk up the levels.  At a coset w4 every arrow below w4 has
        its final scale; the arrow into w4 of w4's first square keeps its
        own, and each square (w1, w2, w3, w4) with one of (w2, w4), (w3, w4)
        scaled rescales the other so that its composites agree, until none
        changes.  An arrow into w4 that no square reaches keeps its scale."""
        tops: dict[WeylElement, list] = {}
        # the squares run by w1 up the levels, so their tops do too
        for sq in self.G.squares:
            tops.setdefault(sq[3], []).append(sq)
        memo: dict = {}
        for w4, squares in tops.items():
            done = {(squares[0][1], w4)}
            changed = True
            while changed:
                changed = False
                for sq in squares:
                    k2, k3 = (sq[1], w4), (sq[2], w4)
                    if (k2 in done) != (k3 in done):
                        # composite through w2 = c * composite through w3
                        c = self._square_ratio(sq, memo)
                        k, s = (k3, c) if k2 in done else (k2, c.inverse())
                        self.scaled[k] = scaled(self.scaled[k], s)
                        done.add(k)
                        changed = True
        # final verification: both composites of every square agree exactly
        # for the scaled maps that the complex uses
        for sq in self.G.squares:
            if self._square_ratio(sq, memo) != RatFunc.one():
                raise CertificationError("square normalization failed")

    def _square_ratio(self, square, memo: dict) -> RatFunc:
        """The c with composite(w1->w2->w4) = c * composite(w1->w3->w4), each
        composite M(w4.0) -> M(w1.0) sending the generator to y(m, w4) y(w1, m)
        on the w1 highest weight vector.  `memo` holds each by (w1, m, w4) with
        the two maps it came from, reused while both are in `scaled`: a rescale
        stores a new dict, so only composites through it are redone."""
        w1, w2, w3, w4 = square
        sl = self.family(w1).get(self.G.offset(w1, w4))
        residues = []
        for m in (w2, w3):
            y2, y1 = self.scaled[(m, w4)], self.scaled[(w1, m)]
            hit = memo.get((w1, m, w4))
            if hit is None or hit[0] is not y2 or hit[1] is not y1:
                hit = memo[(w1, m, w4)] = (y2, y1, sl.reduce_element(self.uq.multiply(y2, y1)))
            residues.append(hit[2])
        return _proportionality(*residues)

    def y(self, source, target) -> AlgElement:
        """Scaled intertwiner for the arrow source -> target (no sign)."""
        return self.scaled[(source, target)]

    def y_signed(self, source, target) -> AlgElement:
        s = self.G.sign(source, target)
        y = self.y(source, target)
        return y if s == 1 else {nw: -c for nw, c in y.items()}


def _proportionality(a: dict[int, RatFunc], b: dict[int, RatFunc]) -> RatFunc:
    """The scalar c with a = c * b for proportional nonzero residues."""
    if a.keys() != b.keys():
        raise CertificationError("vectors are not proportional")
    if not b:
        raise CertificationError("zero composite in a square")
    ratios = [a[k] / y for k, y in b.items()]
    if any(r != ratios[0] for r in ratios):
        raise CertificationError("vectors are not proportional")
    return ratios[0]
