"""Characters of finite-dimensional Levi modules and related counting.

Weight multiplicities come from Freudenthal's recursion run inside the
Levi subsystem; dimensions are cross-checked against the Weyl dimension
formula.  Both run on the invariant form scaled by `RootSystem.denom`, which
is integral; Freudenthal's formula and Weyl's are ratios of values of that
form, so the scale cancels and every multiplicity and dimension is exact.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cartan import ParabolicData, RootSystem, Weight
from .qfield import CertificationError

CharMap = dict[Weight, int]


def _two_rho_S_weight(P: ParabolicData) -> Weight:
    rs = P.rs
    out = None
    for b in P.levi_positive_roots:
        w = rs.root_to_weight(b)
        out = w if out is None else out + w
    return out if out is not None else Weight((0,) * rs.rank)


def _dominantize_S(P: ParabolicData, mu: Weight) -> Weight:
    """Representative of the Levi Weyl orbit in the S-dominant chamber."""
    rs = P.rs
    coords = list(mu.coords)
    S0 = [i - 1 for i in sorted(P.S)]
    changed = True
    while changed:
        changed = False
        for j in S0:
            if coords[j] < 0:
                c = coords[j]
                for k in range(rs.rank):
                    coords[k] -= c * rs.cartan[k][j]
                changed = True
    return Weight(tuple(coords))


def _levi_orbit(P: ParabolicData, mu: Weight) -> list[Weight]:
    simples = [(i - 1, P.rs.simple_root(i).coords) for i in sorted(P.S)]
    seen = {mu.coords}
    frontier = [mu.coords]
    while frontier:
        nxt = []
        for w in frontier:
            for j, alpha in simples:
                c = w[j]
                if c:
                    r = tuple(x - c * a for x, a in zip(w, alpha))
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return [Weight(w) for w in seen]


def levi_weight_multiplicities(P: ParabolicData, lam: Weight) -> CharMap:
    """Freudenthal multiplicities of the simple Levi module with highest
    weight lam (lam must be S-dominant).

    The recursion runs over S-dominant weights only; the full character is
    spread over Levi Weyl orbits afterwards.
    """
    rs = P.rs
    if not P.is_S_dominant(lam):
        raise ValueError("highest weight %s is not S-dominant" % (lam,))
    two_rho = _two_rho_S_weight(P)
    pos = P.levi_positive_roots
    pos_w = [rs.root_to_weight(b) for b in pos]

    cas: dict[Weight, int] = {}

    def casimir(mu: Weight) -> int:
        c = cas.get(mu)
        if c is None:
            c = cas[mu] = rs.inner_scaled(mu, mu) + rs.inner_scaled(mu, two_rho)
        return c

    c_lam = casimir(lam)

    # candidate S-dominant weights: walk down by positive Levi roots,
    # dominantize, keep those inside the Casimir bound
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for aw in pos_w:
                cand = _dominantize_S(P, mu - aw)
                if cand in seen:
                    continue
                c = casimir(cand)
                if c > c_lam or (c == c_lam and cand != lam):
                    continue
                if any(x < 0 for x in rs.weight_root_coords_int(lam - cand)):
                    continue
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt

    def ht_from_top(mu: Weight) -> int:
        return sum(rs.weight_root_coords_int(lam - mu))

    order = sorted(seen, key=lambda mu: (ht_from_top(mu), mu.coords))
    dom_mult: CharMap = {lam: 1}
    for mu in order:
        if mu == lam:
            continue
        acc = 0
        for aw in pos_w:
            k = 1
            while True:
                up = mu + aw.scale(k)
                c_up = casimir(up)
                if c_up > c_lam:
                    break
                m_up = dom_mult.get(_dominantize_S(P, up), 0)
                if m_up:
                    acc += 2 * m_up * rs.inner_scaled(up, aw)
                k += 1
        m = Fraction(acc, c_lam - casimir(mu))
        if m.denominator != 1 or m < 0:
            raise CertificationError("multiplicity %s is not a natural number" % m)
        if m:
            dom_mult[mu] = int(m)
    mult: CharMap = {}
    for mu, m in dom_mult.items():
        for w in _levi_orbit(P, mu):
            mult[w] = m
    return mult


def levi_dim_weyl(P: ParabolicData, lam: Weight) -> int:
    """Weyl dimension formula over the Levi positive roots."""
    rs = P.rs
    two_rho = _two_rho_S_weight(P)
    num = den = 1
    for b in P.levi_positive_roots:
        bw = rs.root_to_weight(b)
        # each factor (lam + rho_S, b) / (rho_S, b), scaled by 2 denom
        num *= 2 * rs.inner_scaled(lam, bw) + rs.inner_scaled(two_rho, bw)
        den *= rs.inner_scaled(two_rho, bw)
    d = Fraction(num, den)
    if d.denominator != 1 or d <= 0:
        raise CertificationError("Weyl dimension %s is not a positive integer" % d)
    return int(d)


def levi_irrep(P: ParabolicData, lam: Weight) -> tuple[CharMap, int]:
    """Character and dimension of the simple Levi module; the two dimension
    computations must agree."""
    ch = levi_weight_multiplicities(P, lam)
    dim = sum(ch.values())
    dim2 = levi_dim_weyl(P, lam)
    if dim != dim2:
        raise CertificationError("Freudenthal and Weyl dimension disagree: %d vs %d" % (dim, dim2))
    return ch, dim


def quotient_weights(P: ParabolicData) -> list[Weight]:
    """Weights of the nilradical-opposite quotient: the negatives of the
    positive roots outside the Levi."""
    return [-P.rs.root_to_weight(b) for b in P.quotient_roots]


def exterior_power_char(rank: int, weights: list[Weight], k: int) -> CharMap:
    """Character of the k-th exterior power of a multiplicity-free weight list."""
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


def char_equal(a: CharMap, b: CharMap) -> bool:
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def verify_dim_identity(G) -> dict:
    """Degreewise comparison of exterior powers of the quotient with the sum
    of Levi modules at dot-orbit points, as dimensions and as characters."""
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
            lam = G.W.shifted_act(w, zero)
            ch, dim = levi_irrep(P, lam)
            lam_chars.append(ch)
            dims.append(dim)
        ext = exterior_power_char(rs.rank, qw, j)
        ext_dim = sum(ext.values())
        dim_sum = sum(dims)
        rec = {"degree": j, "exterior_dim": ext_dim, "module_dims": dims,
               "dims_match": ext_dim == dim_sum}
        total: CharMap = {}
        for ch in lam_chars:
            for wt, m in ch.items():
                total[wt] = total.get(wt, 0) + m
        rec["weights_match"] = char_equal(ext, total)
        ok = ok and rec["dims_match"] and rec["weights_match"]
        levels_out.append(rec)
    return {"ok": ok, "levels": levels_out,
            "quotient_dim": len(qw), "coset_count": sum(len(l) for l in G.levels)}


@lru_cache(maxsize=None)
def _kostant_partition_cached(roots: tuple, beta: tuple) -> int:
    return _kp(roots, beta, 0)


def _kp(roots: tuple, beta: tuple, start: int) -> int:
    if all(c == 0 for c in beta):
        return 1
    if start >= len(roots):
        return 0
    total = 0
    r = roots[start]
    kmax = min((b // c for b, c in zip(beta, r) if c > 0), default=None)
    if kmax is None:
        return _kp(roots, beta, start + 1)
    for k in range(kmax + 1):
        total += _kp(roots, tuple(b - k * c for b, c in zip(beta, r)), start + 1)
    return total


def kostant_partition(rs: RootSystem, beta: tuple[int, ...],
                      roots: list[tuple[int, ...]] | None = None) -> int:
    """Number of ways to write beta as a sum of the given positive roots
    (all of them when roots is None; an empty list partitions only zero)."""
    if any(c < 0 for c in beta):
        return 0
    if roots is None:
        roots = rs.positive_roots
    return _kostant_partition_cached(tuple(roots), tuple(beta))
