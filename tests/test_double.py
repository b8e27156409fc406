"""Induced double complex: tensor fibers, window slices, and the rank-one
verification suite."""
from __future__ import annotations

import itertools

import pytest

from qbgg import bgg
from qbgg.bgg import DoubleComplex, TensorFiber, _cell_coords
from qbgg.cartan import ParabolicData, RootSystem, Weight
from qbgg.cli import main
from qbgg.qfield import QMatrix, RatFunc, add_into
from qbgg.uqalg import UqAlgebra
from qbgg.verma import SliceFamily, StandardMapFamily
from qbgg.weyl import BruhatGraph

from oracles import free_vector, place


def _dc(name: str, S) -> DoubleComplex:
    return DoubleComplex(StandardMapFamily(BruhatGraph(ParabolicData(RootSystem(name), set(S)))))


def _matmul(a: list[dict], b: list[dict]) -> list[dict]:
    """Product of two matrices given as sparse columns."""
    out = []
    for col in b:
        acc: dict = {}
        for k, x in col.items():
            add_into(acc, a[k], x)
        out.append(acc)
    return out


@pytest.fixture(scope="module")
def rank_one():
    return _dc("A1", ())


@pytest.fixture(scope="module")
def cp2():
    return _dc("A2", (1,))


def test_quotient_partitions_count_multisets_of_at_most_cap_roots():
    # on an irreducible flag a multiset of quotient roots has as many roots
    # as its sum's s-coordinate, so the box c <= cap * theta of partition
    # counts holds exactly the multisets of at most cap roots
    cases = 0
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "E6", "E7"):
        rs = RootSystem(name)
        for s in range(1, rs.rank + 1):
            P = ParabolicData(rs, set(range(1, rs.rank + 1)) - {s})
            if not P.irreducible_flag:
                continue
            for cap in range(3 if name[0] == "E" else 4):
                brute: dict = {}
                for size in range(cap + 1):
                    for ms in itertools.combinations_with_replacement(P.quotient_roots, size):
                        c = tuple(sum(b[i] for b in ms) for i in range(rs.rank))
                        brute[c] = brute.get(c, 0) + 1
                assert bgg._quotient_partitions(P, cap) == brute
                cases += 1
    assert cases == 85


def test_fibers_read_the_standard_maps_families(cp2):
    # each fiber's two Levi tops are the modules of the standard maps, not
    # copies, and its generator is the pair of highest weight vectors
    G = cp2.G
    for w1 in G.cosets:
        for w2 in G.cosets:
            fb = cp2.fiber(w1, w2)
            assert fb.mu_family is cp2.maps.family(w1)
            assert fb.nu_family is cp2.maps.family(w2)
            assert fb.weights[fb.gen_index] == G.dot[w1] - G.dot[w2]


def test_double_verify_builds_one_slice_family_per_coset(capsys, monkeypatch):
    built = []
    original = SliceFamily.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SliceFamily, "__init__", counted)
    assert main(["double", "verify", "--type", "A2", "--s", "1", "--box", "1,1"]) == 0
    capsys.readouterr()
    assert len(built) == len(BruhatGraph(ParabolicData(RootSystem("A2"), {1})).cosets) == 3


def test_levi_module_commutator(cp2):
    # [E_1, F_1] acts as ([wt_1])-diagonal on a Levi module of the flag
    uq = cp2.uq
    fam = SliceFamily(uq, Weight((1, 0)), cp2.G.P.S)
    assert fam.levi_dim == 2
    weights = [fam.lam - uq.rs.root_to_weight(off) for off, _ in fam.levi_basis]
    e = fam.levi_matrix(uq.E(1))
    f = fam.levi_matrix(uq.F(1))
    comm = _matmul(e, f)
    fe = _matmul(f, e)
    d = uq.rs.d[0]
    den = RatFunc.q_power(d) - RatFunc.q_power(-d)
    for r in range(fam.levi_dim):
        for c in range(fam.levi_dim):
            expect = RatFunc.zero()
            if r == c:
                k = d * weights[r].coords[0]
                expect = (RatFunc.q_power(k) - RatFunc.q_power(-k)) / den
            assert comm[c].get(r, RatFunc.zero()) - fe[c].get(r, RatFunc.zero()) == expect


# (type, Levi nodes, mu, nu) of a fiber M(mu) (x) M(nu)*
_FIBERS = {
    # Levi A1 of the projective plane: the fiber of cp2.fiber(w1, w0)
    "A2": ("A2", {1}, (1, -2), (0, -3)),
    # Levi B2 with d = (2, 1) and cubic Serre relations; dim 16 * 4
    "B3": ("B3", {2, 3}, (-2, 1, 1), (-1, 0, 1)),
    # Levi A2 inside C3; dim 8 * 3
    "C3": ("C3", {1, 2}, (1, 1, -3), (0, 1, -2)),
}


def _fiber(case: str) -> TensorFiber:
    name, S, mu, nu = _FIBERS[case]
    uq = UqAlgebra(RootSystem(name))
    return TensorFiber(SliceFamily(uq, Weight(mu), S), SliceFamily(uq, Weight(nu), S))


def _vanishes(fb: TensorFiber, terms) -> bool:
    """Whether sum c * (product of letters) kills every fiber basis vector."""
    for t in range(fb.dim):
        total: dict = {}
        for coeff, letters in terms:
            vec = {t: coeff}
            for letter in reversed(letters):
                nxt: dict = {}
                for c, x in vec.items():
                    add_into(nxt, fb.generator_matrix(letter)[c], x)
                vec = nxt
            add_into(total, vec)
        if total:
            return False
    return True


@pytest.mark.parametrize("case", list(_FIBERS))
def test_tensor_fiber_commutator(case):
    # the coproduct-and-antipode action satisfies the defining relations of
    # U_q(l), with the real d_i of each Levi node
    fb = _fiber(case)
    rs = fb.uq.rs
    one = RatFunc.one()
    S = sorted(fb.P.S)
    for i in S:
        assert not _vanishes(fb, [(one, [("E", i)])])
        assert not _vanishes(fb, [(one, [("F", i)])])
        k = fb.generator_matrix(("K", i, 1))
        for r in range(fb.dim):
            for c in range(fb.dim):
                k_exp = rs.d[i - 1] * fb.weights[r].coords[i - 1]
                expect = RatFunc.q_power(k_exp) if r == c else RatFunc.zero()
                assert k[c].get(r, RatFunc.zero()) == expect
        den = RatFunc.q_power(rs.d[i - 1]) - RatFunc.q_power(-rs.d[i - 1])
        for j in S:
            comm = [(one, [("E", i), ("F", j)]), (-one, [("F", j), ("E", i)])]
            if i == j:
                comm += [(-one / den, [("K", i, 1)]), (one / den, [("K", i, -1)])]
            assert _vanishes(fb, comm)
            aij = rs.bform[i - 1][j - 1]
            for x, e in (("E", aij), ("F", -aij)):
                assert _vanishes(fb, [(one, [("K", i, 1), (x, j), ("K", i, -1)]),
                                      (-RatFunc.q_power(e), [(x, j)])])
            if i != j:
                serre = fb.uq.serre_fword_elements(i, j)
                for x in ("E", "F"):
                    assert _vanishes(fb, [(c, [(x, a) for a in w])
                                          for w, c in serre.items()])


@pytest.mark.parametrize("case", list(_FIBERS))
def test_levi_matrix_is_multiplicative(case):
    fb = _fiber(case)
    uq = fb.uq
    S = sorted(fb.P.S)
    i, j = S[0], S[-1]
    words = [[("E", i), ("F", j)], [("F", i), ("K", j, -1)],
             [("K", i, 1), ("E", j), ("F", i)], [("F", j), ("F", i), ("E", i)]]
    for fam in (fb.mu_family, fb.nu_family):
        for wx in words:
            for wy in words:
                x, y = uq.from_letters(wx), uq.from_letters(wy)
                lhs = fam.levi_matrix(uq.multiply(x, y))
                rhs = _matmul(fam.levi_matrix(x), fam.levi_matrix(y))
                assert lhs == rhs


def test_cyclic_lift(cp2):
    w0, w1 = cp2._chain()[0], cp2._chain()[1]
    fb = cp2.fiber(w1, w0)
    lift = fb.cyclic_lift()
    assert len(lift) == fb.dim


def test_wslice_dim_matches_oracle(cp2):
    w0, w1 = cp2._chain()[0], cp2._chain()[1]
    fb = cp2.fiber(w1, w0)
    omega = fb.weights[fb.gen_index]
    sl = cp2.wslice(w1, w0, omega, 1, 1)
    assert sl.dim == sl.oracle_dim()
    assert sl.dim > 0


@pytest.mark.parametrize("name, S", [("A2", ()), ("A3", (2,))], ids=["A2-none", "A3-2"])
def test_double_complex_needs_an_irreducible_flag(name, S):
    maps = StandardMapFamily(BruhatGraph(ParabolicData(RootSystem(name), set(S))))
    with pytest.raises(ValueError, match="irreducible flag"):
        DoubleComplex(maps)


@pytest.mark.parametrize("name, S, depth", [
    ("A1", (), (0,)), ("A2", (1,), (1, 0)), ("A3", (2, 3), (0, 1, 1)),
    ("C2", (1,), (2, 0)), ("B2", (2,), (0, 2)), ("B3", (2, 3), (0, 2, 4))],
    ids=["A1", "A2-1", "A3-2,3", "C2-1", "B2-2", "B3-2,3"])
def test_levi_depth_is_the_deepest_levi_top_offset(name, S, depth):
    # 0 at the crossed node, where no Levi top has letters
    assert _dc(name, S).levi_depth == depth


@pytest.mark.parametrize("name, S", [("A2", (1,)), ("C2", (1,)), ("B2", (2,))],
                         ids=["A2-1", "C2-1", "B2-2"])
@pytest.mark.parametrize("rows", [True, False], ids=["rows", "columns"])
def test_windows_one_letter_too_shallow_never_pass(name, S, rows):
    # with one letter fewer at the deepest node, some element of a line's
    # map leaves its window: the check refuses, it does not pass
    dc = _dc(name, S)
    depth = list(dc.levi_depth)
    depth[depth.index(max(depth))] -= 1
    dc.levi_depth = tuple(depth)
    try:
        rep = dc.verify_rows(1, 1) if rows else dc.verify_columns(1, 1)
    except bgg.TruncationError:
        return
    assert not rep["ok"]


def test_basis_word_pairs_are_unit_vectors(cp2):
    # `_absorption_rows` writes the fiber side of each relation as one entry
    # per fiber index: a pair of Serre-quotient basis words reduces to its own
    # unit vector, also where the quotient has relations
    uq = cp2.uq
    w0, w1 = cp2._chain()[0], cp2._chain()[1]
    fb = cp2.fiber(w1, w0)
    omega = fb.weights[fb.gen_index]
    checked = with_relations = 0
    for k1, k2 in ((1, 1), (2, 1), (1, 2)):
        sl = cp2.wslice(w1, w0, omega, k1, k2)
        for cf, ce, t in sl.cells:
            off = sl._offset[(cf, ce, t)]
            fsp, esp = uq.weight_space(cf), uq.weight_space(ce)
            with_relations += len(fsp.words) > fsp.dim or len(esp.words) > esp.dim
            for fi, u in enumerate(fsp.basis_words):
                for ei, v in enumerate(esp.basis_words):
                    assert sl._place(_cell_coords(uq, uq.fword(u, v)), t) == \
                        {off + fi * esp.dim + ei: RatFunc.one()}
                    checked += 1
    assert checked and with_relations


def test_shared_products_place_like_free_vectors(cp2):
    # each absorption product u * v * letter comes from the complex's one
    # table, reduced by whichever slice met it first; placed in any slice and
    # at any fiber index it equals the product placed afresh and the
    # per-monomial reference, also where it leaves the window (None)
    uq = cp2.uq
    rs = uq.rs
    w0, w1 = cp2._chain()[0], cp2._chain()[1]
    fb = cp2.fiber(w1, w0)
    omega = fb.weights[fb.gen_index]
    placed = outside = 0
    for k1, k2 in ((1, 1), (2, 1), (1, 2)):
        sl = cp2.wslice(w1, w0, omega, k1, k2)
        for i in sorted(sl.P.S):
            for letter, g, base in ((("F", i), uq.F(i), omega + rs.simple_root(i)),
                                    (("E", i), uq.E(i), omega - rs.simple_root(i))):
                for cf, ce, t in sl._cells(base):
                    for u in uq.weight_space(cf).basis_words:
                        for v in uq.weight_space(ce).basis_words:
                            x = uq.multiply(uq.fword(u, v), g)
                            row = sl._place(cp2._products[(u, v, letter)], t)
                            assert row == sl._place(_cell_coords(uq, x), t) == free_vector(sl, x, t)
                            placed += 1
                            outside += row is None
    assert placed > outside > 0


def test_cached_placement_matches_the_uncached_one(cp2):
    # `_place` keeps each K eigenvalue per (kv, ce, t) and adds into one
    # dict; placed twice, every table product that fits a slice equals the
    # reference that scales and adds each reduced cell afresh, also where
    # cells of several K exponents share a block of coordinates
    w0, w1 = cp2._chain()[0], cp2._chain()[1]
    fb = cp2.fiber(w1, w0)
    omega = fb.weights[fb.gen_index]
    placed = merged = 0
    for k1, k2 in ((1, 1), (2, 1), (1, 2)):
        sl = cp2.wslice(w1, w0, omega, k1, k2)
        for t in range(fb.dim):
            for cells in cp2._products.values():
                row = sl._place(cells, t)
                if row is not None:
                    assert row == sl._place(cells, t) == place(sl, cells, t)
                    placed += 1
                    merged += len({cell[:2] for cell in cells}) < len(cells)
    assert placed > merged > 0


def test_rank_one_anticommute(rank_one):
    rep = rank_one.verify_anticommute(k1cap=2, k2cap=2)
    assert rep["ok"]
    assert rep["pairs"]


def test_rank_one_rows_and_columns(rank_one):
    rows = rank_one.verify_rows(k2cap=1, k1lim=2)
    cols = rank_one.verify_columns(k1cap=1, k2lim=2)
    assert rows["ok"] and cols["ok"]
    for line in rows["lines"] + cols["lines"]:
        for rec in line["slices"]:
            assert rec["exact"]


def test_rank_identities_need_vanishing_composites():
    # dims (1, 2, 1) with ranks (1, 1) meet every rank identity, but the maps
    # e_1 and then e_1^T compose to 1: the line is not a complex
    one = RatFunc.one()
    first = QMatrix(2, [{0: one}])
    assert bgg._exact([1, 2, 1], [1, 1], None)
    assert not bgg._composites_vanish([first, QMatrix(1, [{0: one}, {}])],
                                      [[0, 1]])
    assert bgg._composites_vanish([first, QMatrix(1, [{}, {0: one}])],
                                  [[0, 1]])
    # the middle keys are read in the order of the second map's columns
    assert bgg._composites_vanish([first, QMatrix(1, [{0: one}, {}])],
                                  [[1, 0]])


def test_line_composites_are_certified(cp2, monkeypatch):
    # A2/P1 lines have three positions: every row and column window with
    # two nonempty maps multiplies them, and every composite vanishes
    original = bgg._composites_vanish
    columns = []

    def counted(mats, bases):
        columns.extend(len(a.columns) for a, b in zip(mats, mats[1:])
                       if a is not None and b is not None)
        return original(mats, bases)

    monkeypatch.setattr(bgg, "_composites_vanish", counted)
    rows = cp2.verify_rows(k2cap=1, k1lim=1)
    cols = cp2.verify_columns(k1cap=1, k2lim=1)
    assert rows["ok"] and cols["ok"]
    assert sum(columns) == 16


@pytest.mark.parametrize("name", ["rank_one", "cp2"], ids=["A1", "A2"])
def test_columns_mirror_rows(request, name):
    # the involution carries the module of (w1, w2) at weight omega to that of
    # (w2, w1) at -omega and the row maps to the column maps, so with the
    # windows swapped each column repeats a row; asymmetric windows catch a
    # column walk that swaps the two caps
    dc = request.getfixturevalue(name)
    rows = dc.verify_rows(k2cap=1, k1lim=2)
    cols = dc.verify_columns(k1cap=1, k2lim=2)

    def records(rep, key, sign):
        return sorted((line[key], [sign * x for x in rec["omega"]], rec["dims"],
                       rec["ranks"]) for line in rep["lines"] for rec in line["slices"])

    row_recs = records(rows, "fixed_col", -1)
    assert row_recs
    assert records(cols, "fixed_row", 1) == row_recs


@pytest.mark.parametrize("name, cap, lim", [("cp2", 1, 1), ("rank_one", 1, 2), ("cp2", 1, 2)],
                         ids=["A2-1,1", "A1-1,2", "A2-1,2"])
@pytest.mark.parametrize("rows", [True, False], ids=["rows", "columns"])
def test_lines_report_the_weights_of_their_terminal_window(request, name, cap, lim, rows):
    # a line's window is its terminal pair's fiber weights, minus sums of at
    # most `lim` quotient roots and plus sums of at most `cap` on a row, the
    # two sides swapped on a column; the line reports exactly those weights
    dc = request.getfixturevalue(name)
    P = dc.G.P

    def sums(k):
        return [P.rs.root_to_weight(tuple(sum(b[i] for b in ms) for i in range(P.rs.rank)))
                for size in range(k + 1)
                for ms in itertools.combinations_with_replacement(P.quotient_roots, size)]

    rep = dc.verify_rows(cap, lim) if rows else dc.verify_columns(cap, lim)
    lower, upper = sums(lim if rows else cap), sums(cap if rows else lim)
    chain = dc._chain()
    assert len(rep["lines"]) == len(chain)
    for fixed, line in zip(chain, rep["lines"]):
        end = dc.fiber(*((chain[-1], fixed) if rows else (fixed, chain[-1])))
        window = {(wt - m + p).coords for wt in end.weights for m in lower for p in upper}
        assert sorted(tuple(rec["omega"]) for rec in line["slices"]) == sorted(window)


def test_x_elements_mirror_y(rank_one):
    # the column maps are the eta-images of the row maps
    dc = rank_one
    chain = dc._chain()
    # chain runs from the longest coset down; the arrow goes short to long
    x = dc.x_element(chain[1], chain[0])
    for (fw, kv, ew), c in x.items():
        assert fw == ()
        assert ew
