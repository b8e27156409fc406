"""Fixed pure-Python job that measures how fast the host runs right now.

While a pass runs, `run.py` times `job()` every few tenths of a second in its
own CPU time, on the CPU the pass is pinned to, and scales the pass's times
by it.  The job never touches qbgg, so a change to qbgg cannot move it; what
moves it is the host: the speed of the physical core under that CPU and the
neighbours that share it.  Its work resembles qbgg's: a permutation-group
closure over tuples, as in the Weyl-group build, and sparse
integer-polynomial gcds with dict coefficients, as in Q(q) normalization.
"""
from __future__ import annotations

from math import gcd


def group_closure(n: int) -> int:
    """Order of the symmetric group S_n, found by closure under generators."""
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = tuple(w[i] for i in g)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def _prem(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Pseudo-remainder of a by b, divided by its content."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        a = {e: v * lb for e, v in a.items()}
        for e, v in b.items():
            k = e + da - db
            nv = a.get(k, 0) - v * la
            if nv:
                a[k] = nv
            else:
                a.pop(k, None)
    g = 0
    for v in a.values():
        g = gcd(g, v)
    return {e: v // g for e, v in a.items()}


def polynomial_gcds(n: int) -> int:
    """Euclid's algorithm on n pairs of polynomials with a common factor."""
    distinct = set()
    for i in range(n):
        common = {0: -1, 1: 1, 2: i % 3 + 1}
        a = _mul(_mul({0: i + 1, 1: -3, 2: 1 + i % 5, 3: 2}, common),
                 {0: 2, 1: i % 7 + 1, 2: -1})
        b = _mul(_mul({0: 2, 1: i % 7 + 1, 2: -1}, common),
                 {0: 1, 1: i % 4 + 2})
        while b:
            a, b = b, _prem(a, b)
        distinct.add(tuple(sorted(a.items())))
    return len(distinct)


def job() -> None:
    """About 6 ms of work on the 2-vCPU Xeon VM the benchmark was written on."""
    assert group_closure(6) == 720
    assert polynomial_gcds(60) > 0
