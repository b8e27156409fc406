"""The rank-one quantum coordinate algebra, its weight-zero subalgebra (the
quantum sphere), and the associated two-sided differential calculus.

The coordinate algebra is presented by generators a, b, c, d; every relation
used by the normal-form multiplication is certified against the dual pairing
with the rank-one quantized enveloping algebra, computed through tensor
powers of the two-dimensional representation.  The spanning words
F^i K^e E^k are paired with a monomial a row at a time, by weight: one chain
E^k e_J serves all of them, K^e acts on each link by a scalar, and each link
meets at most one F^i.  Differentials are the dual actions of the raising and
lowering generators on column indices.
"""
from __future__ import annotations

from itertools import product

from .qfield import QMatrix, RatFunc, add_into, kernel_basis, rank

# normal monomial: exponents (i, j, k, l) of a^i b^j c^k d^l with i*l == 0
Mono = tuple[int, int, int, int]
# Every Elem is built through add_into, which drops cancelled entries, so two
# elements are equal exactly when their dicts compare equal.
Elem = dict[Mono, RatFunc]

_LETTERS = "abcd"
# matrix-coefficient index pair (row, column) of each generator
_IJ = {"a": (1, 1), "b": (1, 2), "c": (2, 1), "d": (2, 2)}
_GEN = {ij: x for x, ij in _IJ.items()}


def one() -> Elem:
    return {(0, 0, 0, 0): RatFunc.one()}


def gen(x: str) -> Elem:
    m = [0, 0, 0, 0]
    m[_LETTERS.index(x)] = 1
    return {tuple(m): RatFunc.one()}


def _normalize(m: Mono, coeff: RatFunc, out: Elem) -> None:
    """Resolve mixed a/d monomials with ad = 1 + q^{-1} bc."""
    i, j, k, l = m
    if i == 0 or l == 0:
        add_into(out, {m: coeff})
        return
    # a^i b^j c^k d^l = q^{-(j+k)} a^{i-1} b^j c^k (1 + q^{-1} b c) d^{l-1}
    f = coeff * RatFunc.q_power(-(j + k))
    _normalize((i - 1, j, k, l - 1), f, out)
    _normalize((i - 1, j + 1, k + 1, l - 1), f * RatFunc.q_power(-1), out)


def _mul_letter(m: Mono, x: str, coeff: RatFunc, out: Elem) -> None:
    """Append one generator on the right of a normal monomial."""
    i, j, k, l = m
    if x == "a":
        if l == 0:
            # b a = q a b and c a = q a c
            _normalize((i + 1, j, k, 0), coeff * RatFunc.q_power(j + k), out)
        else:
            # d a = a d + (q - q^{-1}) b c
            _mul_letter((i, j, k, l - 1), "a", coeff, _tmp := {})
            for m2, c2 in _tmp.items():
                _mul_letter(m2, "d", c2, out)
            gap = RatFunc.q_power(1) - RatFunc.q_power(-1)
            _mul_letter((i, j, k, l - 1), "b", coeff * gap, _tmp2 := {})
            for m2, c2 in _tmp2.items():
                _mul_letter(m2, "c", c2, out)
    elif x == "b":
        # d b = q b d
        _normalize((i, j + 1, k, l), coeff * RatFunc.q_power(l), out)
    elif x == "c":
        # d c = q c d
        _normalize((i, j, k + 1, l), coeff * RatFunc.q_power(l), out)
    else:
        _normalize((i, j, k, l + 1), coeff, out)


def mul(x: Elem, y: Elem) -> Elem:
    out: Elem = {}
    for m2, c2 in y.items():
        word = _word(m2)
        for m1, c1 in x.items():
            cur = {m1: c1 * c2}
            for letter in word:
                nxt: Elem = {}
                for m, c in cur.items():
                    _mul_letter(m, letter, c, nxt)
                cur = nxt
            add_into(out, cur)
    return out


def mul_all(parts: list[Elem]) -> Elem:
    out = one()
    for p in parts:
        out = mul(out, p)
    return out


def _word(m: Mono) -> str:
    i, j, k, l = m
    return "a" * i + "b" * j + "c" * k + "d" * l


def weight(m: Mono) -> int:
    """Right weight: the column-index grading (a, c count +1; b, d count -1)."""
    i, j, k, l = m
    return i - j + k - l


def degree(m: Mono) -> int:
    return sum(m)


# ---------------------------------------------------------------------------
# dual pairing through tensor powers of the two-dimensional representation

def _apply(vec: dict, letter) -> dict:
    """Action of "E", "F" or ("K", exponent) on a tensor power of the
    two-dimensional module through the iterated coproduct.  Index 1 has
    K-weight +1 and index 2 has -1; E at position s picks up K on every later
    factor, F picks up K^{-1} on every earlier one, and K^e acts on all."""
    out: dict = {}
    for J, c in vec.items():
        wts = [1 if j == 1 else -1 for j in J]
        if letter == "E" or letter == "F":
            src, dst = (2, 1) if letter == "E" else (1, 2)
            for s, j in enumerate(J):
                if j == src:
                    e = sum(wts[s + 1:]) if letter == "E" else -sum(wts[:s])
                    add_into(out, {J[:s] + (dst,) + J[s + 1:]:
                                   c * RatFunc.q_power(e)})
        else:
            out[J] = c * RatFunc.q_power(letter[1] * sum(wts))
    return out


def pair_row(letters: str, max_step: int) -> dict[int, RatFunc]:
    """Values of a product of matrix coefficients on the words of
    `_spanning_words(max_step)`, as a sparse vector by word position.

    Every word is F^i K^e E^k.  E^k e_J has the single weight wt(J) + 2k, so
    K^e scales it by q^{e (wt J + 2k)}, and F^i meets e_I only if wt(I) =
    wt(J) + 2k - 2i.  One E-chain thus serves every word, each k pairs with at
    most one i, and each value is a q-power times one of the chain's cores."""
    I = tuple(_IJ[x][0] for x in letters)
    J = tuple(_IJ[x][1] for x in letters)
    wJ = J.count(1) - J.count(2)
    shift = (wJ - I.count(1) + I.count(2)) // 2
    row: dict[int, RatFunc] = {}
    vec = {J: RatFunc.one()}
    for k in range(max_step + 1):
        i = shift + k
        if 0 <= i <= max_step:
            v = vec
            for _ in range(i):
                v = _apply(v, "F")
            if I in v:
                # F^i K^e E^k is word number (i, e + max_step, k) of the list
                for e in range(-max_step, max_step + 1):
                    pos = (i * (2 * max_step + 1) + e + max_step) * (max_step + 1) + k
                    row[pos] = v[I] * RatFunc.q_power(e * (wJ + 2 * k))
        vec = _apply(vec, "E")
    return row


def _spanning_words(max_step: int) -> list[list]:
    out = []
    for i in range(max_step + 1):
        for e in range(-max_step, max_step + 1):
            for k in range(max_step + 1):
                out.append(["F"] * i + ([("K", e)] if e else []) + ["E"] * k)
    return out


def _rho(word: list) -> dict[tuple[int, int], RatFunc]:
    """The two-dimensional representation of a word, as a sparse 2x2 matrix:
    E = e_12, F = e_21 and K^e = diag(q^e, q^-e).  Each factor has at most one
    entry per column, so no two terms of a product entry meet."""
    out = {(1, 1): RatFunc.one(), (2, 2): RatFunc.one()}
    for x in word:
        m = ({(1, 2): RatFunc.one()} if x == "E" else {(2, 1): RatFunc.one()}
             if x == "F" else {(1, 1): RatFunc.q_power(x[1]),
                               (2, 2): RatFunc.q_power(-x[1])})
        out = {(r, c2): v * m[c, c2] for (r, c), v in out.items()
               for c2 in (1, 2) if (c, c2) in m}
    return out


def verify_relations() -> dict:
    """Certify the multiplication against the pairing: each generator pairs
    with every spanning word as the word's matrix entry in the
    two-dimensional representation, the degree-two relation space has
    dimension six, every normal-form rewrite is a pairing identity, and
    products agree with concatenation on samples."""
    words = _spanning_words(3)
    # degree one anchors the pairing's scale on every word
    rhos = [_rho(w) for w in words]
    anchor_ok = all(pair_row(x, 3) == {n: r[_IJ[x]] for n, r in enumerate(rhos)
                                       if _IJ[x] in r} for x in _LETTERS)
    monos2 = ["".join(p) for p in product(_LETTERS, repeat=2)]
    # one table: the unit and every degree-two monomial on every word, as
    # sparse vectors by word position
    table = {m: pair_row(m, 3) for m in [""] + monos2}
    kernel_dim = len(monos2) - rank(QMatrix(len(words), [table[m] for m in monos2]))
    # the six rewriting relations and the determinant identity
    gap = RatFunc.q_power(1) - RatFunc.q_power(-1)
    relations = [
        ("ba", [("ab", RatFunc.q_power(1))]),
        ("ca", [("ac", RatFunc.q_power(1))]),
        ("cb", [("bc", RatFunc.one())]),
        ("db", [("bd", RatFunc.q_power(1))]),
        ("dc", [("cd", RatFunc.q_power(1))]),
        ("da", [("ad", RatFunc.one()), ("bc", gap)]),
        ("ad", [("", RatFunc.one()), ("bc", RatFunc.q_power(-1))]),
    ]
    rel_ok = True
    for lhs, rhs in relations:
        acc: dict[int, RatFunc] = {}
        for m, c in rhs:
            add_into(acc, table[m], c)
        rel_ok = rel_ok and acc == table[lhs]
    # normal-form products match concatenated words on samples
    samples = ["da", "dc", "add", "dda", "abcd", "dcba", "bdac", "ddaa"]
    prod_ok = True
    for s in samples:
        # by linearity, the product's row is the sum of its monomials' rows
        acc: dict[int, RatFunc] = {}
        for m, c in mul_all([gen(x) for x in s]).items():
            add_into(acc, pair_row(_word(m), len(s)), c)
        if acc != pair_row(s, len(s)):
            prod_ok = False
    ok = anchor_ok and kernel_dim == 6 and rel_ok and prod_ok
    return {"ok": ok, "degree2_kernel_dim": kernel_dim,
            "rewrites_match_pairing": rel_ok,
            "products_match_pairing": prod_ok}


# ---------------------------------------------------------------------------
# differential operators: dual action on column indices

def _column_action(x: Elem, letter) -> Elem:
    """Apply "E", "F" or ("K", exponent) to the column indices: the pairing's
    tensor-power action, with each word re-spelled from its (row, column)
    pairs and multiplied out."""
    out: Elem = {}
    for m, c in x.items():
        word = _word(m)
        rows = [_IJ[ch][0] for ch in word]
        for cols, f in _apply({tuple(_IJ[ch][1] for ch in word): c}, letter).items():
            nw = [_GEN[ij] for ij in zip(rows, cols)]
            add_into(out, mul_all([gen(ch) for ch in nw]), f)
    return out


def del_hol(x: Elem) -> Elem:
    """Holomorphic differential: lowers the right weight by two."""
    return _column_action(x, "F")


def del_antihol(x: Elem) -> Elem:
    """Antiholomorphic differential: raises the right weight by two."""
    return _column_action(x, "E")


# the sphere subalgebra: weight-zero part, generated in degree two
B_GENS = {"x_minus": ("ab",), "x_zero": ("bc",), "x_plus": ("cd",)}

# degree windows of the calculus checks: weight-zero elements up to WINDOW,
# and the form components, two degrees above them, up to FIBER_WINDOW
WINDOW = 4
FIBER_WINDOW = WINDOW + 2


def b_gen(name: str) -> Elem:
    return mul_all([gen(ch) for ch in B_GENS[name][0]])


def monomials_of_weight(w: int, max_degree: int) -> list[Mono]:
    out = []
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            for k in range(max_degree + 1 - i - j):
                for l in range(max_degree + 1 - i - j - k):
                    if i * l == 0 and weight((i, j, k, l)) == w:
                        out.append((i, j, k, l))
    out.sort(key=lambda m: (degree(m), m))
    return out


def component_fiber_dims() -> dict:
    """Dimension of each form component modulo the augmentation ideal of the
    sphere subalgebra, computed on the degree window FIBER_WINDOW.

    The two-column complexes have componentwise fibers of dimension one:
    binomial(1, k) per column and binomial(2, k) in total degree k."""
    gens = [b_gen(n) for n in B_GENS]
    comps = {}
    for (n, m) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        w = 2 * (m - n)
        window = monomials_of_weight(w, FIBER_WINDOW)
        inner = [mm for mm in window if degree(mm) <= FIBER_WINDOW - 2]
        prods = []
        for g in gens:
            for mm in inner:
                prods.append(mul(g, {mm: RatFunc.one()}))
        sub = rank(QMatrix(len(window), prods))
        comps[(n, m)] = len(window) - sub
    total = {0: comps[(0, 0)],
             1: comps[(1, 0)] + comps[(0, 1)],
             2: comps[(1, 1)]}
    ok = (comps[(0, 0)] == 1 and comps[(1, 0)] == 1
          and comps[(0, 1)] == 1 and comps[(1, 1)] == 1)
    return {"ok": ok, "components": {f"{n},{m}": v for (n, m), v in comps.items()},
            "total_by_degree": total, "max_degree": FIBER_WINDOW}


def b_window() -> list[Elem]:
    """Products of sphere generators up to degree WINDOW."""
    out = [one()]
    frontier = [one()]
    for _ in range(WINDOW // 2):
        nxt = []
        for f in frontier:
            for name in B_GENS:
                nxt.append(mul(f, b_gen(name)))
        out.extend(nxt)
        frontier = nxt
    return out


def verify_leibniz() -> dict:
    """Both differentials satisfy the plain Leibniz rule on products of
    sphere elements (the grading twist is trivial in weight zero)."""
    elems = [b_gen(name) for name in B_GENS]
    pairs_ok = True
    checked = 0
    for f in elems + [mul(elems[0], elems[1]), mul(elems[2], elems[1])]:
        for g in elems:
            for D in (del_hol, del_antihol):
                rhs = mul(D(f), g)
                add_into(rhs, mul(f, D(g)))
                if D(mul(f, g)) != rhs:
                    pairs_ok = False
                checked += 1
    return {"ok": pairs_ok, "products_checked": checked}


def verify_d_squared() -> dict:
    """The total differential squares to zero: with the sign twist on the
    antiholomorphic family this reduces to the two differentials commuting
    on weight-zero elements."""
    ok = True
    checked = 0
    for m in monomials_of_weight(0, WINDOW):
        x = {m: RatFunc.one()}
        if del_hol(del_antihol(x)) != del_antihol(del_hol(x)):
            ok = False
        checked += 1
    return {"ok": ok, "elements_checked": checked}


def verify_volume_form() -> dict:
    """The unit of the top component is a volume form: it is coinvariant,
    the grading twist fixes the sphere subalgebra so it is central, and it
    generates the top component over the subalgebra on the window."""
    # the grading twist sigma = K^2 on column indices fixes weight zero
    twist_ok = True
    for name in B_GENS:
        g = b_gen(name)
        for e in (2, -2):
            if _column_action(g, ("K", e)) != g:
                twist_ok = False
    # centrality: g * vol equals vol * sigma(g), with vol the unit
    central_ok = True
    vol = one()
    for name in B_GENS:
        g = b_gen(name)
        if mul(g, vol) != mul(vol, _column_action(g, ("K", 2))):
            central_ok = False
    # generation: the window of the top component equals the subalgebra
    # window; vol is the unit, so the multiples f * vol are the f themselves
    window = monomials_of_weight(0, WINDOW)
    multiples = b_window()
    gen_dim = rank(QMatrix(len(window), multiples))
    sub_dim = rank(QMatrix(len(window), [{m: RatFunc.one()} for f in multiples
                                         for m in f]))
    gen_ok = gen_dim == sub_dim and gen_dim > 0
    ok = twist_ok and central_ok and gen_ok
    return {"ok": ok, "twist_fixes_subalgebra": twist_ok,
            "central": central_ok, "generated_dim": gen_dim,
            "subalgebra_window_dim": sub_dim}


def sphere_relation() -> dict:
    """Among the unit, the three sphere generators and their six ordered
    pairwise products there is exactly one linear relation."""
    names = list(B_GENS)
    elems: list[tuple[str, Elem]] = [("1", one())]
    for n in names:
        elems.append((n, b_gen(n)))
    for p in range(3):
        for r in range(p, 3):
            elems.append((names[p] + "*" + names[r],
                          mul(b_gen(names[p]), b_gen(names[r]))))
    ker = kernel_basis(QMatrix(len(monomials_of_weight(0, 4)), [e for _, e in elems]))
    out = {"ok": len(ker) == 1, "kernel_dim": len(ker)}
    if len(ker) == 1:
        out["relation"] = {elems[i][0]: str(c) for i, c in enumerate(ker[0])
                          if not c.is_zero()}
    return out


def verify_calculus() -> dict:
    """Run every check of the quantum-sphere calculus."""
    rel = verify_relations()
    dims = component_fiber_dims()
    lei = verify_leibniz()
    dsq = verify_d_squared()
    vol = verify_volume_form()
    sph = sphere_relation()
    ok = all(r["ok"] for r in (rel, dims, lei, dsq, vol, sph))
    return {"ok": ok, "relations": rel, "fiber_dims": dims, "leibniz": lei,
            "d_squared": dsq, "volume_form": vol, "sphere_relation": sph}
