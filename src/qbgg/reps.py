"""Characters of finite-dimensional Levi modules and related counting.

Freudenthal's recursion runs inside the Levi subsystem on S-dominant integer
weight tuples; a module's dimension, the multiplicities times their Levi
Weyl orbit sizes, is cross-checked against the Weyl dimension formula.  Both
run on the invariant form scaled by `RootSystem.denom`, which is integral;
the formulas are ratios of its values, so every result is exact.  Both read
the Levi root data that `ParabolicData.levi_data` builds once per parabolic
and keeps for as long as the parabolic lives.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cartan import ParabolicData, RootSystem, Weight
from .qfield import CertificationError

CharMap = dict[Weight, int]
DomChar = dict[tuple[int, ...], int]  # S-dominant weights as coordinate tuples


def _dot(a, b) -> int:
    return sum(map(int.__mul__, a, b))


def _reflect(j: int, alpha: list, mu: tuple[int, ...]) -> tuple[int, ...]:
    """s_j(mu) = mu - mu_j alpha_j."""
    out = list(mu)
    for k, a in alpha:
        out[k] -= mu[j] * a
    return tuple(out)


def _dominantize_S(refl: list, mu: tuple[int, ...]) -> tuple[int, ...]:
    """Representative of the Levi Weyl orbit in the S-dominant chamber."""
    coords = list(mu)
    changed = True
    while changed:
        changed = False
        for j, alpha in refl:
            c = coords[j]
            if c < 0:
                for k, a in alpha:
                    coords[k] -= c * a
                changed = True
    return tuple(coords)


def levi_weight_multiplicities(P: ParabolicData, lam: Weight) -> DomChar:
    """Freudenthal multiplicities of the simple Levi module with highest
    weight lam (lam must be S-dominant), on its S-dominant weights.

    Each positive Levi root a carries g_a = Gram a, (a, a) and (a, 2 rho_S)
    in P.levi_data, so (mu + k a, a) and the Casimir value of mu + k a are
    integer updates along the a-string through mu.
    """
    rs = P.rs
    if not P.is_S_dominant(lam):
        raise ValueError("highest weight %s is not S-dominant" % (lam,))
    refl, two_rho, roots = P.levi_data
    cas: DomChar = {}

    def casimir(mu: tuple[int, ...]) -> int:
        if mu not in cas:
            shifted = tuple(map(int.__add__, mu, two_rho))
            cas[mu] = sum(x * _dot(row, shifted) for x, row in zip(mu, rs.gram) if x)
        return cas[mu]

    top = lam.coords
    c_lam = casimir(top)
    # S-dominant candidates: walk down by positive Levi roots, dominantize,
    # keep those inside the Casimir bound and below lam, with their depth
    depth = {top: 0}
    frontier = [top]
    while frontier:
        nxt = []
        for mu in frontier:
            for aw, _, _, _ in roots:
                nu = _dominantize_S(refl, tuple(map(int.__sub__, mu, aw)))
                if nu in depth or casimir(nu) >= c_lam:
                    continue
                diff = tuple(map(int.__sub__, top, nu))
                below = [_dot(row, diff) for row in rs.adj]
                if min(below) >= 0:
                    depth[nu] = sum(below)
                    nxt.append(nu)
        frontier = nxt

    dom: DomChar = {top: 1}
    for mu in sorted(depth, key=lambda mu: (depth[mu], mu))[1:]:
        acc = 0
        for aw, g, aa, rho2 in roots:
            # nu = mu + k a for k = 1, 2, ... inside the Casimir bound
            ip, nu = _dot(mu, g), mu
            c = cas[mu] + 2 * ip + aa + rho2
            while c <= c_lam:
                ip += aa
                nu = tuple(map(int.__add__, nu, aw))
                acc += 2 * dom.get(_dominantize_S(refl, nu), 0) * ip
                c += 2 * ip + aa + rho2
        m, r = divmod(acc, c_lam - cas[mu])
        if r or m < 0:
            raise CertificationError("multiplicity %s is not a natural number"
                                     % Fraction(acc, c_lam - cas[mu]))
        if m:
            dom[mu] = m
    return dom


def levi_orbit_size(P: ParabolicData, mu: tuple[int, ...]) -> int:
    """|W_S mu| for S-dominant mu: |W_S| / |W_J|, J = {j in S : mu_j = 0}
    (Chevalley), where |W_X| is the product of (ht a + 1) / ht a over the
    positive roots a of X (Macdonald); those of S outside J meet mu's support."""
    num = den = 1
    for b in P.levi_positive_roots:
        if any(c and mu[i] for i, c in enumerate(b)):
            num, den = num * (sum(b) + 1), den * sum(b)
    return num // den


def levi_dim_weyl(P: ParabolicData, lam: Weight) -> int:
    """Weyl dimension formula over the Levi positive roots: each factor
    (lam + rho_S, a) / (rho_S, a), scaled by 2 denom, is
    (2 (lam, a) + (2 rho_S, a)) / (2 rho_S, a), and (lam, a) = <lam, g_a>."""
    num = den = 1
    for _, g, _, rho2 in P.levi_data[2]:
        num *= 2 * _dot(lam.coords, g) + rho2
        den *= rho2
    d, r = divmod(num, den)
    if r or d <= 0:
        raise CertificationError("Weyl dimension %s is not a positive integer"
                                 % Fraction(num, den))
    return d


def levi_irrep(P: ParabolicData, lam: Weight) -> tuple[DomChar, int]:
    """S-dominant multiplicities and dimension of the simple Levi module; the
    dimension summed over orbits must agree with Weyl's formula."""
    dom = levi_weight_multiplicities(P, lam)
    dim = sum(m * levi_orbit_size(P, mu) for mu, m in dom.items())
    dim2 = levi_dim_weyl(P, lam)
    if dim != dim2:
        raise CertificationError("Freudenthal and Weyl dimension disagree: %d vs %d" % (dim, dim2))
    return dom, dim


def levi_character(P: ParabolicData, dom: DomChar) -> CharMap:
    """The full character: each S-dominant multiplicity spread over its Levi
    Weyl orbit, which is walked by simple reflections."""
    refl = P.levi_data[0]
    ch: CharMap = {}
    for mu, m in dom.items():
        orbit = frontier = {mu}
        while frontier:
            frontier = {_reflect(j, alpha, w) for w in frontier
                        for j, alpha in refl if w[j]} - orbit
            orbit = orbit | frontier
        ch.update(dict.fromkeys(map(Weight, orbit), m))
    return ch


def quotient_weights(P: ParabolicData) -> list[Weight]:
    """Weights of the nilradical-opposite quotient: the negatives of the
    positive roots outside the Levi."""
    return [-P.rs.root_to_weight(b) for b in P.quotient_roots]


def exterior_layers(rank: int, weights: list[tuple[int, ...]], top: int) -> list[DomChar]:
    """Characters of the exterior powers 0..top of a multiplicity-free weight
    list in one pass: each weight shifts layer j - 1 into layer j, for j
    from top down to 1."""
    layers: list[DomChar] = [{(0,) * rank: 1}] + [{} for _ in range(top)]
    for i, w in enumerate(weights):
        for j in range(min(i + 1, top), 0, -1):
            hi = layers[j]
            for mu, m in layers[j - 1].items():
                key = tuple(map(int.__add__, mu, w))
                hi[key] = hi.get(key, 0) + m
    return layers


def exterior_dominant_chars(P: ParabolicData,
                            weights: list[tuple[int, ...]]) -> list[tuple[int, DomChar]]:
    """(dimension, character on S-dominant weights) of the k-th exterior
    power of the weights, k = 0..N, from the layers up to N/2: degree
    k > N/2 is layer N - k under mu -> sigma - mu, sigma the sum of all N
    weights.  Raises unless each simple reflection in S permutes the
    weights, which makes every exterior power W_S-invariant."""
    refl = P.levi_data[0]
    for j, alpha in refl:
        if sorted(_reflect(j, alpha, mu) for mu in weights) != sorted(weights):
            raise CertificationError("s_%d does not permute the quotient weights" % (j + 1))
    n = len(weights)
    layers = exterior_layers(P.rs.rank, weights, n // 2)
    sigma = tuple(map(sum, zip(*weights)))
    S0 = [j for j, _ in refl]
    out = []
    for k in range(n + 1):
        if 2 * k <= n:
            full = layers[k]
            dom = {mu: m for mu, m in full.items() if all(mu[j] >= 0 for j in S0)}
        else:  # sigma - mu is S-dominant when mu_j <= sigma_j for j in S
            full = layers[n - k]
            dom = {tuple(map(int.__sub__, sigma, mu)): m for mu, m in full.items()
                   if all(mu[j] <= sigma[j] for j in S0)}
        out.append((sum(full.values()), dom))
    return out


def char_equal(a: dict, b: dict) -> bool:
    return {k: v for k, v in a.items() if v} == {k: v for k, v in b.items() if v}


def verify_dim_identity(G) -> dict:
    """Degreewise comparison of exterior powers of the quotient with the sum
    of Levi modules at dot-orbit points, as dimensions and as characters on
    S-dominant weights."""
    P = G.P
    qw = [w.coords for w in quotient_weights(P)]
    ext = exterior_dominant_chars(P, qw)
    levels_out = []
    for j, lvl in enumerate(G.levels):
        total: DomChar = {}
        dims = []
        for w in lvl:
            dom, dim = levi_irrep(P, G.dot[w])
            dims.append(dim)
            for mu, m in dom.items():
                total[mu] = total.get(mu, 0) + m
        levels_out.append({"degree": j, "exterior_dim": ext[j][0], "module_dims": dims,
                           "dims_match": ext[j][0] == sum(dims),
                           "weights_match": char_equal(ext[j][1], total)})
    ok = all(r["dims_match"] and r["weights_match"] for r in levels_out)
    return {"ok": ok, "levels": levels_out,
            "quotient_dim": len(qw), "coset_count": sum(len(l) for l in G.levels)}


def partition_counts(roots, top: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{c: number of multisets of roots with sum c} over the contents c <= top,
    nonzero entries only: each root, the highest first so that the table stays
    small, adds its multiples to the table of the roots before it."""
    table = {(0,) * len(top): 1}
    for r in sorted(roots, key=sum, reverse=True):
        for c, m in list(table.items()):
            c = tuple(a + b for a, b in zip(c, r))
            while all(x <= t for x, t in zip(c, top)):
                table[c] = table.get(c, 0) + m
                c = tuple(a + b for a, b in zip(c, r))
    return table


@lru_cache(maxsize=None)
def _kostant_partition_cached(roots: tuple, beta: tuple) -> int:
    return partition_counts(roots, beta).get(beta, 0)


def kostant_partition(rs: RootSystem, beta: tuple[int, ...],
                      roots: list[tuple[int, ...]] | None = None) -> int:
    """Number of ways to write beta as a sum of the given positive roots
    (all of them when roots is None; an empty list partitions only zero)."""
    if any(c < 0 for c in beta):
        return 0
    if roots is None:
        roots = rs.positive_roots
    return _kostant_partition_cached(tuple(roots), tuple(beta))
