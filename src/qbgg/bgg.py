"""The parabolic resolution complex and the induced-module double complex.

The resolution terms are parabolic highest-weight modules indexed by minimal
coset representatives; differentials act by right multiplication with the
normalized intertwiners.  All identities (squared differential, slicewise
exactness, anticommutation of the double complex) are certified by exact
linear algebra on weight slices.
"""
from __future__ import annotations

import itertools

from .cartan import ParabolicData, RootSystem, Weight
from .qfield import (CertificationError, Echelon, QMatrix, RatFunc, _echelon_of,
                     add_into, rank)
from .reps import partition_counts
from .uqalg import AlgElement, UqAlgebra, scaled
from .verma import SliceFamily, StandardMapFamily


class TruncationError(Exception):
    """A verification window was too small to contain all needed relations."""


def _exact(dims: list[int], ranks: list[int], aug: int | None) -> bool:
    """Rank-exactness of a line listed top-down, ranks[k] being the rank of
    the map out of position k: every position but the last has kernel equal
    to the incoming image; the last has cokernel aug (unchecked when None)."""
    good = all(dims[k] - ranks[k] == (ranks[k - 1] if k else 0)
               for k in range(len(dims) - 1))
    if aug is not None and dims:
        good = good and dims[-1] - (ranks[-1] if ranks else 0) == aug
    return good


def _composites_vanish(mats: list, bases: list[list]) -> bool:
    """Whether consecutive maps of a line compose to zero, which the rank
    identities of `_exact` need to mean exactness.  mats[k] is the matrix of
    the map out of position k, None when a slice is empty; its row keys are
    the entries of bases[k], in the order of mats[k + 1]'s columns."""
    for first, second, keys in zip(mats, mats[1:], bases):
        if first is None or second is None:
            continue
        index = {key: n for n, key in enumerate(keys)}
        for col in first.columns:
            acc: dict = {}
            for key, v in col.items():
                add_into(acc, second.columns[index[key]], v)
            if acc:
                return False
    return True


def _quotient_partitions(P: ParabolicData, cap: int) -> dict[tuple[int, ...], int]:
    """{c: number of multisets of P.quotient_roots with sum c} over the box
    c <= cap * theta, theta the highest root.  On an irreducible flag every
    quotient root has coefficient 1 at s and lies below theta, so a
    multiset's size is c_s, and these are the multisets of at most cap roots."""
    return partition_counts(P.quotient_roots, tuple(cap * h for h in P.rs.highest_root()))


def _enumerate_offsets(rs: RootSystem, max_height: int) -> list[tuple[int, ...]]:
    """All nonzero vectors in Q^+ of height <= max_height, plus zero."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(rs.rank):
        out = [acc + (c,) for acc in out for c in range(max_height - sum(acc) + 1)]
    return sorted(out, key=lambda b: (sum(b), b))


class BGGComplex:
    """The resolution of the trivial module: one module M(w.0) per coset w."""

    def __init__(self, G):
        self.G = G
        self.rs = G.P.rs
        self.maps = StandardMapFamily(G)
        self.uq = self.maps.uq

    def level_slices(self, j: int, beta: tuple[int, ...]) -> list[tuple[object, object]]:
        """The cosets of level j, each with its module's slice at the weight
        -beta, or None when that slice is empty."""
        out = []
        for w in self.G.levels[j]:
            off = tuple(b - d for b, d in zip(beta, self.G.depth[w]))
            out.append((w, None if min(off) < 0 else self.maps.family(w).get(off)))
        return out

    def slice_dims(self, beta: tuple[int, ...]) -> list[int]:
        return [sum(sl.dim for _, sl in self.level_slices(j, beta) if sl is not None)
                for j in range(len(self.G.levels))]

    def differential_matrix(self, j: int, beta: tuple[int, ...]) -> QMatrix:
        """Matrix of the level-j differential C_j -> C_{j-1} on the weight
        -beta slice."""
        tgt_slices = [(w, s) for w, s in self.level_slices(j - 1, beta) if s is not None]
        cols = []
        for w_long, src in self.level_slices(j, beta):
            if src is None:
                continue
            # rows are keyed by (target slice number, word index)
            ys = [(n, self.maps.y_signed(w_short, w_long), tgt)
                  for n, (w_short, tgt) in enumerate(tgt_slices)
                  if (w_short, w_long) in self.maps.scaled]
            for u in src.basis_words:
                cols.append({(n, k): v for n, y, tgt in ys
                             for k, v in tgt.reduce_element(
                                 self.uq.multiply(self.uq.fword(u), y)).items()})
        return QMatrix(sum(s.dim for _, s in tgt_slices), cols)

    def verify_squared_zero(self) -> dict:
        """The composite of consecutive differentials vanishes, checked as
        algebra identities against each target module."""
        G = self.G
        checks = []
        ok = True
        for j in range(2, len(G.levels)):
            for w_a in G.levels[j]:
                for w_c in G.levels[j - 2]:
                    acc: AlgElement = {}
                    found = False
                    for w_b in G.levels[j - 1]:
                        k1 = (w_c, w_b)
                        k2 = (w_b, w_a)
                        if k1 in self.maps.scaled and k2 in self.maps.scaled:
                            found = True
                            term = self.uq.multiply(self.maps.y_signed(w_b, w_a),
                                                    self.maps.y_signed(w_c, w_b))
                            add_into(acc, term)
                    if not found:
                        continue
                    sl = self.maps.family(w_c).get(G.offset(w_c, w_a))
                    is_zero = not sl.reduce_element(acc)
                    ok = ok and is_zero
                    checks.append({"from": str(w_a), "to": str(w_c), "zero": is_zero})
        return {"ok": ok, "composites": checks}

    def verify_exactness(self, max_height: int) -> dict:
        """Slicewise rank-exactness against the trivial module, for all
        offsets up to the given height."""
        ok = True
        records = []
        for beta in _enumerate_offsets(self.rs, max_height):
            m_nu = int(not any(beta))  # the trivial module lives at weight 0
            dims = self.slice_dims(beta)
            euler = sum((-1) ** j * d for j, d in enumerate(dims))
            euler_ok = euler == m_nu
            ranks = []
            for j in range(1, len(dims)):
                if dims[j] == 0 and dims[j - 1] == 0:
                    ranks.append(0)
                    continue
                ranks.append(rank(self.differential_matrix(j, beta)))
            # levels run bottom-up; at level 0 the augmentation absorbs m_nu
            good = _exact(dims[::-1], ranks[::-1], m_nu)
            ok = ok and good and euler_ok
            records.append({"offset": list(beta), "dims": dims, "ranks": ranks,
                            "target_mult": m_nu, "euler_ok": euler_ok, "exact": good})
        return {"ok": ok, "max_height": max_height, "slices": records}


# ---------------------------------------------------------------------------
# induced modules with a Levi tensor fiber, and the double complex


class TensorFiber:
    """The Levi top of M(mu) tensor the dual of the Levi top of M(nu), read
    from the two modules' slice families, with explicit generator actions and
    a cyclic lift from the vector v_mu (x) ksi_{-nu}."""

    def __init__(self, mu_family: SliceFamily, nu_family: SliceFamily):
        self.mu_family, self.nu_family = mu_family, nu_family
        self.uq = uq = mu_family.uq
        self.P = mu_family.P
        self.dim = mu_family.levi_dim * nu_family.levi_dim
        mu_wts, nu_wts = ([fam.lam - uq.rs.root_to_weight(off) for off, _ in fam.levi_basis]
                          for fam in (mu_family, nu_family))
        # tensor basis index: p * nu_dim + r
        self.weights: list[Weight] = [a - b for a in mu_wts for b in nu_wts]
        # generator v_mu (x) ksi_{-nu}: each Levi basis starts at its top
        self.gen_index = 0
        self._gen_mats: dict[tuple, list[dict[int, RatFunc]]] = {}
        self._lift: list[AlgElement] | None = None

    def offsets(self, omega: Weight) -> list[tuple[int, tuple[int, ...]]]:
        """(t, root coordinates of omega minus the weight of basis vector t)
        for every t; integral, because every w.0 lies in the root lattice."""
        rs = self.uq.rs
        return [(t, rs.weight_root_coords_int(omega - wt)) for t, wt in enumerate(self.weights)]

    def generator_matrix(self, letter: tuple) -> list[dict[int, RatFunc]]:
        """Sparse columns of one letter ("F", i), ("E", i) or ("K", i, e) on
        the fiber: the sum over the coproduct terms c a (x) b of c M_mu(a) (x)
        M_nu(kappa(b))^T, the dual factor acting through the antipode."""
        m = self._gen_mats.get(letter)
        if m is not None:
            return m
        uq = self.uq
        nn = self.nu_family.levi_dim
        out: list[dict[int, RatFunc]] = [{} for _ in range(self.dim)]
        for (a, b), c in uq.coproduct(uq.from_letters([letter])).items():
            ma = self.mu_family.levi_matrix({a: RatFunc.one()})
            mb = self.nu_family.levi_matrix(uq.antipode({b: RatFunc.one()}))
            # column (p, r) gains c * M_mu(a)[p2, p] * M_nu(kappa(b))[r, r2] at row (p2, r2)
            for p, col_a in enumerate(ma):
                for r2, col_b in enumerate(mb):
                    part = {p2 * nn + r2: va for p2, va in col_a.items()}
                    for r, vb in col_b.items():
                        add_into(out[p * nn + r], part, c * vb)
        self._gen_mats[letter] = out
        return out

    def cyclic_lift(self) -> list[AlgElement]:
        """For each basis vector an element of the Levi subalgebra carrying
        the generator to it."""
        if self._lift is not None:
            return self._lift
        uq = self.uq
        n = self.dim
        letters = []
        for i in sorted(self.P.S):
            letters.append(("F", i))
            letters.append(("E", i))
        # reached vectors in echelon form; row p of `ech` is the image of
        # the generator under row_elts[p]
        ech = Echelon()
        row_elts: dict[int, AlgElement] = {}

        def insert(vec: dict[int, RatFunc], elt: AlgElement) -> bool:
            combo: dict[int, RatFunc] = {}
            res = ech.reduce(vec, combo)
            if not res:
                return False
            p = ech.insert(res)
            elt = dict(elt)
            for pc, f in combo.items():
                add_into(elt, row_elts[pc], -f)
            row_elts[p] = scaled(elt, res[p].inverse())
            return True

        gen_vec = {self.gen_index: RatFunc.one()}
        insert(gen_vec, self.uq.one())
        frontier = [(gen_vec, self.uq.one())]
        while frontier and len(ech) < n:
            nxt = []
            for vec, elt in frontier:
                for letter in letters:
                    mat = self.generator_matrix(letter)
                    nv: dict[int, RatFunc] = {}
                    for c, x in vec.items():
                        add_into(nv, mat[c], x)
                    gelt = uq.F(letter[1]) if letter[0] == "F" else uq.E(letter[1])
                    nelt = uq.multiply(gelt, elt)
                    if nv and insert(nv, nelt):
                        nxt.append((nv, nelt))
            frontier = nxt
        if len(ech) != n:
            raise CertificationError("fiber is not cyclic over the Levi part")
        # solve for each standard basis vector
        lift: list[AlgElement] = []
        for idx in range(n):
            combo: dict[int, RatFunc] = {}
            if ech.reduce({idx: RatFunc.one()}, combo):
                raise CertificationError("cyclic solve failed")
            elt: AlgElement = {}
            for pc, f in combo.items():
                add_into(elt, row_elts[pc], f)
            lift.append(elt)
        self._lift = lift
        return lift


def _cell_coords(uq: UqAlgebra, x: AlgElement) -> dict[tuple, list | dict[int, RatFunc]]:
    """x grouped by cell (F-content, E-content, K-exponent), each cell the list
    of its monomials (F-word, E-word, coefficient), unreduced: `WSlice._place`
    reduces the cells once all lie in its window, and builds no other quotient."""
    r = uq.r
    out: dict[tuple, list] = {}
    for (fw, kv, ew), c in x.items():
        cell = (tuple(fw.count(i) for i in range(1, r + 1)),
                tuple(ew.count(i) for i in range(1, r + 1)), kv)
        out.setdefault(cell, []).append((fw, ew, c))
    return out


def _reduce_cell(uq: UqAlgebra, cf: tuple[int, ...], ce: tuple[int, ...],
                 monomials: list) -> dict[int, RatFunc]:
    """A cell's monomials with both word factors Serre-reduced, keyed by
    fi * dim(E-content) + ei over the two weight spaces' basis positions."""
    one = RatFunc.one()
    fsp, esp = uq.weight_space(cf), uq.weight_space(ce)
    local: dict[int, RatFunc] = {}
    for fw, ew, c in monomials:
        ec = esp.reduce_coords({ew: one})
        for fi, a in fsp.reduce_coords({fw: one}).items():
            add_into(local, {fi * esp.dim + ei: b for ei, b in ec.items()}, c * a)
    return local


class WSlice:
    """Fixed-weight slice of an induced module with tensor fiber.

    Coordinates are cells (F-content, E-content, fiber index) with both word
    factors already reduced through the cached Serre quotients; on top of
    that only the fiber-absorption relations are eliminated.  Every relation
    is a true one, so reducing an element to zero certifies that it
    vanishes; dimension claims are certified against the character oracle.
    F-contents are capped at k1cap * theta + depth and E-contents at
    k2cap * theta + depth, theta the highest root and depth the complex's
    `levi_depth`.
    """

    def __init__(self, fiber: TensorFiber, omega: Weight, k1cap: int, k2cap: int,
                 depth: tuple[int, ...],
                 products: dict[tuple, dict[tuple, list | dict[int, RatFunc]]]):
        self.fiber = fiber
        # cell coordinates of u * v * letter for basis words u, v, shared by
        # every slice of the double complex
        self._products = products
        self.uq = fiber.uq
        self.P = fiber.P
        self.omega = omega
        self.k1cap = k1cap
        self.k2cap = k2cap
        hr = self.uq.rs.highest_root()
        self.capF = tuple(k1cap * h + d for h, d in zip(hr, depth))
        self.capE = tuple(k2cap * h + d for h, d in zip(hr, depth))
        self.cells = self._cells(omega)
        # flat coordinate layout: per cell a block of fdim * edim entries
        self._offset: dict[tuple, int] = {}
        pos = 0
        for cf, ce, t in self.cells:
            self._offset[(cf, ce, t)] = pos
            pos += self.uq.weight_space(cf).dim * self.uq.weight_space(ce).dim
        self.total = pos
        # K eigenvalues by (kv, ce, t), emptied after use: the complex keeps its slices
        self._k_scalars: dict[tuple, RatFunc] = {}
        self._ech = _echelon_of(self._absorption_rows())
        self._k_scalars.clear()
        self._basis_pos = [k for k in range(self.total) if k not in self._ech.rows]

    @property
    def dim(self) -> int:
        return len(self._basis_pos)

    def basis_monomials(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """Representative free monomials for the residual basis positions."""
        info = []
        for cf, ce, t in self.cells:
            fsp = self.uq.weight_space(cf)
            esp = self.uq.weight_space(ce)
            for u in fsp.basis_words:
                for v in esp.basis_words:
                    info.append((u, v, t))
        return [info[k] for k in self._basis_pos]

    def _cells(self, omega: Weight) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """Window cells of the given total weight, largest first so that
        elimination keeps the smallest spanning cells as the basis."""
        cells = []
        for t, delta in self.fiber.offsets(omega):
            for cf in itertools.product(*(range(c + 1) for c in self.capF)):
                ce = tuple(x + d for x, d in zip(cf, delta))
                if any(x < 0 for x in ce) or any(x > y for x, y in zip(ce, self.capE)):
                    continue
                cells.append((cf, ce, t))
        cells.sort(key=lambda c: (-(sum(c[0]) + sum(c[1])), c))
        return cells

    def _place(self, cells: dict[tuple, list | dict[int, RatFunc]],
               t: int) -> dict[int, RatFunc] | None:
        """Flat sparse coordinates of cell coordinates (see `_cell_coords`)
        applied to fiber vector t; None when some cell leaves the window.  A
        cell is reduced when first placed, and stored back in `cells`."""
        offsets = [self._offset.get((cf, ce, t)) for cf, ce, _ in cells]
        if None in offsets:
            return None
        vec: dict[int, RatFunc] = {}
        for (cf, ce, kv), off in zip(cells, offsets):
            local = cells[cf, ce, kv]
            if type(local) is list:
                local = cells[cf, ce, kv] = _reduce_cell(self.uq, cf, ce, local)
            scal = None
            if any(kv):  # K^kv moves past the E-word onto the fiber vector
                scal = self._k_scalars.get((kv, ce, t))
                if scal is None:
                    wt = self.fiber.weights[t] + self.uq.rs.root_to_weight(ce)
                    scal = self._k_scalars[kv, ce, t] = self.uq.k_scalar(kv, wt.coords)
            for k, c in local.items():  # add_into, shifted by off, without a new dict
                c = c if scal is None else c * scal
                cur = vec.get(k + off)
                vec[k + off] = s = c if cur is None else cur + c
                if s.is_zero():
                    del vec[k + off]
        return vec

    def _absorption_rows(self) -> list[dict[int, RatFunc]]:
        uq = self.uq
        rs = uq.rs
        rows: list[dict[int, RatFunc]] = []
        for i in sorted(self.P.S):
            for letter in (("F", i), ("E", i)):
                lw = rs.simple_root(i)
                base_omega = self.omega + (lw if letter[0] == "F" else -lw)
                gelt = uq.F(i) if letter[0] == "F" else uq.E(i)
                mat = self.fiber.generator_matrix(letter)
                for cf, ce, t in self._cells(base_omega):
                    esp = uq.weight_space(ce)
                    # a basis word's Serre residue is its own unit vector, so
                    # the fiber side of the relation is one entry per t2
                    for fi, u in enumerate(uq.weight_space(cf).basis_words):
                        for ei, v in enumerate(esp.basis_words):
                            cells = self._products.get((u, v, letter))
                            if cells is None:
                                cells = self._products[(u, v, letter)] = _cell_coords(
                                    uq, uq.multiply(uq.fword(u, v), gelt))
                            row = self._place(cells, t)
                            if row is None:
                                continue
                            for t2, w in mat[t].items():
                                off = self._offset.get((cf, ce, t2))
                                if off is None:
                                    break
                                add_into(row, {off + fi * esp.dim + ei: -w})
                            else:
                                rows.append(row)
        return rows

    def reduce_applied(self, x: AlgElement, t: int) -> dict[int, RatFunc]:
        """Residue of (algebra element) acting on fiber basis vector t, keyed
        by flat position and supported on the basis positions."""
        vec = self._place(_cell_coords(self.uq, x), t)
        if vec is None:
            raise TruncationError("element leaves the window")
        return self._ech.reduce(vec)

    def oracle_dim(self) -> int:
        """Product-character dimension of the same filtration piece: symmetric
        powers of the (abelian) quotient on both sides, S^k counted by the
        partitions into quotient roots with s-coordinate k."""
        sm = _quotient_partitions(self.P, self.k1cap)
        sp = _quotient_partitions(self.P, self.k2cap)
        return sum(m * sp.get(tuple(x + d for x, d in zip(c, delta)), 0)
                   for _, delta in self.fiber.offsets(self.omega) for c, m in sm.items())


class DoubleComplex:
    """Bigraded family of induced modules with tensor fiber indexed by pairs
    of minimal coset representatives, with row maps from the intertwiners and
    column maps from their images under the algebra involution.

    With the row maps twisted by (-1)^(column index) the total differential
    squares to zero; the checkable core is that untwisted row and column maps
    commute, which reduces to commutator identities against the generator.
    """

    def __init__(self, maps: StandardMapFamily):
        """maps: the standard maps of a coset graph, such as a `BGGComplex`'s;
        each fiber reads the Levi tops of their modules.  ValueError unless
        the parabolic is an irreducible flag."""
        if not maps.G.P.irreducible_flag:
            raise ValueError("the double complex needs an irreducible flag")
        self.maps = maps
        self.G = maps.G
        self.rs = self.G.P.rs
        # per node, the most letters below the highest weight of any Levi top
        self.levi_depth = tuple(max(off[i] for w in self.G.cosets
                                    for off, _ in maps.family(w).levi_offsets)
                                for i in range(self.rs.rank))
        self.uq = maps.uq
        self._fibers: dict[tuple, TensorFiber] = {}
        self._slices: dict[tuple, WSlice] = {}
        self._products: dict[tuple, dict[tuple, list | dict[int, RatFunc]]] = {}

    def fiber(self, w1, w2) -> TensorFiber:
        key = (w1, w2)
        fb = self._fibers.get(key)
        if fb is None:
            fb = TensorFiber(self.maps.family(w1), self.maps.family(w2))
            self._fibers[key] = fb
        return fb

    def wslice(self, w1, w2, omega: Weight, k1cap: int, k2cap: int) -> WSlice:
        """The slice, built once; TruncationError when its dimension differs
        from the character oracle's, so no check computes on a wrong slice."""
        key = (w1, w2, omega.coords, k1cap, k2cap)
        sl = self._slices.get(key)
        if sl is None:
            sl = WSlice(self.fiber(w1, w2), omega, k1cap, k2cap, self.levi_depth,
                        self._products)
            oracle = sl.oracle_dim()
            if sl.dim != oracle:
                raise TruncationError("slice dim %d differs from oracle %d" % (sl.dim, oracle))
            self._slices[key] = sl
        return sl

    def x_element(self, w2_short, w2_long) -> AlgElement:
        """Column intertwiner: involution image of the row intertwiner."""
        return self.uq.eta(self.maps.y(w2_short, w2_long))

    def verify_anticommute(self, k1cap: int = 2, k2cap: int = 2) -> dict:
        """For every pair of a row arrow and a column arrow, the commutator of
        the two intertwiners kills the generator of the target module; also
        checked after left multiplication by window monomials up to the box."""
        uq = self.uq
        rs = self.rs
        G = self.G
        s = G.P.s
        hr = rs.highest_root()
        ok = True
        records = []
        for a1 in G.arrows:
            for a2 in G.arrows:
                y = self.maps.y(a1.source, a1.target)
                x = self.x_element(a2.source, a2.target)
                comm: AlgElement = {}
                add_into(comm, uq.multiply(y, x))
                add_into(comm, uq.multiply(x, y), RatFunc.from_int(-1))
                fb = self.fiber(a1.source, a2.source)
                # y lowers the generator's weight s1.0 - s2.0 by s1.0 - t1.0
                # and x raises it by s2.0 - t2.0
                omega = G.dot[a1.target] - G.dot[a2.target]
                sl = self.wslice(a1.source, a2.source, omega, k1cap, k2cap)
                base_zero = not sl.reduce_applied(comm, fb.gen_index)
                # left multiples filling the box: monomials of bidegree
                # (k1cap - 1, k2cap - 1)
                extra_ok = True
                tested = 0
                for cf, ce, t in sl.cells:
                    if t != fb.gen_index:
                        continue
                    # multipliers from the genuine box: content bounded by
                    # sums of quotient roots, no surplus Levi letters
                    if any(cf[i] > (k1cap - 1) * hr[i] for i in range(rs.rank)):
                        continue
                    if any(ce[i] > (k2cap - 1) * hr[i] for i in range(rs.rank)):
                        continue
                    fw = uq.weight_space(cf).basis_words[0]
                    ew = uq.weight_space(ce).basis_words[0]
                    prod = uq.multiply(uq.fword(fw, ew), comm)
                    om2 = (omega - rs.root_to_weight(cf)
                           + rs.root_to_weight(ce))
                    sl2 = self.wslice(a1.source, a2.source, om2,
                                      k1cap + cf[s - 1], k2cap + ce[s - 1])
                    if sl2.reduce_applied(prod, fb.gen_index):
                        extra_ok = False
                    tested += 1
                    if tested >= 6:
                        break
                good = base_zero and extra_ok
                ok = ok and good
                records.append({
                    "row_arrow": [str(a1.source), str(a1.target)],
                    "col_arrow": [str(a2.source), str(a2.target)],
                    "generator_zero": base_zero,
                    "box_multiples_zero": extra_ok,
                    "box_multiples_tested": tested,
                })
        return {"ok": ok, "k1cap": k1cap, "k2cap": k2cap, "pairs": records}

    def _map_matrix(self, src: WSlice, tgt: WSlice, elt: AlgElement) -> QMatrix:
        """Matrix of the module map sending the source generator to
        elt (x) target generator, on the given slices."""
        uq = self.uq
        lift = src.fiber.cyclic_lift()
        return QMatrix(tgt.dim, [
            tgt.reduce_applied(uq.multiply(uq.multiply(uq.fword(fw, ew), lift[t]), elt),
                               tgt.fiber.gen_index)
            for fw, ew, t in src.basis_monomials()])

    def _line_exactness(self, mods: list, omega: Weight, rows: bool, cap: int,
                        maps: list[AlgElement]) -> dict | None:
        """Rank-exactness of one row or column on a fixed-weight window, with
        every composite of consecutive maps certified zero.

        mods: list of (w1, w2) pairs ordered from the top of the line down;
        maps[k] sends the generator of mods[k] into the module of mods[k + 1].
        Each slice is the full fixed-weight piece of the filtration by the
        capped side: the raising side on a row, the lowering side on a column."""
        slices = []
        for w1, w2 in mods:
            counts = [delta[self.G.P.s - 1] for _, delta in self.fiber(w1, w2).offsets(omega)]
            other = max([0] + [cap - c if rows else cap + c for c in counts])
            k1, k2 = (other, cap) if rows else (cap, other)
            slices.append(self.wslice(w1, w2, omega, k1, k2))
        dims = [sl.dim for sl in slices]
        if all(d == 0 for d in dims):
            return None
        mats = [self._map_matrix(slices[k], slices[k + 1], maps[k])
                if dims[k] and dims[k + 1] else None for k in range(len(mods) - 1)]
        ranks = [0 if m is None else rank(m) for m in mats]
        exact = (_exact(dims, ranks, None) and _composites_vanish(
            mats, [sl._basis_pos for sl in slices[1:]]))
        return {"omega": list(omega.coords), "dims": dims, "ranks": ranks,
                "exact": exact}

    def _chain(self) -> list:
        levels = self.G.levels
        if any(len(lvl) != 1 for lvl in levels):
            raise ValueError("line verification needs one coset per length")
        return [lvl[0] for lvl in reversed(levels)]

    def _window_weights(self, w1_end, w2_end, k1lim: int, k2lim: int) -> list[Weight]:
        """Weights where the terminal module of a line has nonzero slices."""
        rw = self.rs.root_to_weight
        sums_m = _quotient_partitions(self.G.P, k1lim)
        sums_p = _quotient_partitions(self.G.P, k2lim)
        out = {wt - rw(b1) + rw(b2) for wt in self.fiber(w1_end, w2_end).weights
               for b1 in sums_m for b2 in sums_p}
        return sorted(out, key=lambda w: w.coords)

    def _verify_lines(self, rows: bool, cap: int, lim: int) -> dict:
        """Interior exactness of every row (or column) on all slices of a
        finite window, with every slice dimension certified against the
        character oracle.  A row fixes the column coset, caps the raising
        side at cap and runs the lowering side to lim; a column fixes the row
        coset, swaps the two sides and maps through the involution images of
        the row intertwiners."""
        chain = self._chain()
        maps = []
        for k in range(len(chain) - 1):
            y = self.maps.y_signed(chain[k + 1], chain[k])
            maps.append(y if rows else self.uq.eta(y))
        ok = True
        lines = []
        for fixed in chain:
            mods = [(w, fixed) if rows else (fixed, w) for w in chain]
            recs = []
            for omega in self._window_weights(*mods[-1], *((lim, cap) if rows else (cap, lim))):
                rec = self._line_exactness(mods, omega, rows, cap, maps)
                if rec is not None:
                    ok = ok and rec["exact"]
                    recs.append(rec)
            lines.append({"fixed_col" if rows else "fixed_row": str(fixed), "slices": recs})
        return {"ok": ok, "direction": "rows" if rows else "columns", "lines": lines}

    def verify_rows(self, k2cap: int, k1lim: int) -> dict:
        """Interior exactness of every row; see `_verify_lines`."""
        return self._verify_lines(True, k2cap, k1lim)

    def verify_columns(self, k1cap: int, k2lim: int) -> dict:
        """Interior exactness of every column; see `_verify_lines`."""
        return self._verify_lines(False, k1cap, k2lim)
