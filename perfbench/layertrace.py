"""Per-layer tracing of qbgg from outside the package.

`LayerTracer` wraps the public entry points of each qbgg module, records a
span around every call and aggregates the spans as they close: call count,
self time (span time minus the time of directly nested spans), total time
(outermost spans only, so recursion is not counted twice) and, for some
entries, the largest object built.  Spans are aggregated rather than kept,
because the hot entries run millions of times per request.

A function imported by name into another module is a separate binding, so
every module attribute that holds the original object is replaced, and a
class is traced through its ``__init__``.  Leaving the ``with`` block restores
every original.
"""
from __future__ import annotations

import sys
import time


# (metric prefix, module, qualified name, shape stat, shape from the call's
# positional arguments; for a class the first is the new instance)
TARGETS = [
    ("qfield.normalize", "qbgg.qfield", "RatFunc._normalize", None, None),
    ("qfield.laurent_gcd", "qbgg.qfield", "laurent_gcd", None, None),
    ("qfield.rank", "qbgg.qfield", "rank", "max_cells",
     lambda a: a[0].rows * a[0].cols),
    ("qfield.kernel_basis", "qbgg.qfield", "kernel_basis", None, None),
    ("uqalg.multiply", "qbgg.uqalg", "UqAlgebra.multiply", None, None),
    ("uqalg.NMinusWeightSpace", "qbgg.uqalg", "NMinusWeightSpace",
     "max_words", lambda a: len(a[0].words)),
    ("verma.ModuleSlice", "qbgg.verma", "ModuleSlice", None, None),
    ("verma.singular_vectors", "qbgg.verma", "singular_vectors", None, None),
    ("verma.StandardMapFamily", "qbgg.verma", "StandardMapFamily", None, None),
    ("bgg.BGGComplex.verify_squared_zero", "qbgg.bgg",
     "BGGComplex.verify_squared_zero", None, None),
    ("bgg.BGGComplex.verify_exactness", "qbgg.bgg",
     "BGGComplex.verify_exactness", None, None),
    ("bgg.BGGComplex.differential_matrix", "qbgg.bgg",
     "BGGComplex.differential_matrix", None, None),
    ("bgg.WSlice", "qbgg.bgg", "WSlice",
     "max_total", lambda a: a[0].total),
    ("bgg.WSlice.reduce_applied", "qbgg.bgg", "WSlice.reduce_applied",
     None, None),
    ("bgg.TensorFiber.cyclic_lift", "qbgg.bgg", "TensorFiber.cyclic_lift",
     None, None),
    ("bgg.DoubleComplex.verify_anticommute", "qbgg.bgg",
     "DoubleComplex.verify_anticommute", None, None),
    ("bgg.DoubleComplex.verify_rows", "qbgg.bgg",
     "DoubleComplex.verify_rows", None, None),
    ("bgg.DoubleComplex.verify_columns", "qbgg.bgg",
     "DoubleComplex.verify_columns", None, None),
    ("weyl.WeylGroup", "qbgg.weyl", "WeylGroup",
     "max_order", lambda a: len(a[0].elements)),
    ("weyl.BruhatGraph", "qbgg.weyl", "BruhatGraph",
     "max_cosets", lambda a: len(a[0].cosets)),
    ("weyl.incomparability_report", "qbgg.weyl", "incomparability_report",
     None, None),
    ("reps.levi_irrep", "qbgg.reps", "levi_irrep", None, None),
    ("reps.verify_dim_identity", "qbgg.reps", "verify_dim_identity",
     None, None),
    ("qsphere.verify_calculus", "qbgg.qsphere", "verify_calculus", None, None),
    ("qsphere.mul", "qbgg.qsphere", "mul", None, None),
    ("cli.main", "qbgg.cli", "main", None, None),
]


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "shape", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.shape = 0
        self.depth = 0


def _resolve(module: str, qualname: str):
    """Return (owner, attribute name, raw attribute) for a dotted name."""
    owner = sys.modules[module]
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[name]
    return owner, name, raw


class LayerTracer:
    """Context manager that traces the entries in `TARGETS` while active."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.cache_lookups = 0
        self.cache_hits = 0
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, stat: _Stat, fn, shape):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self_s += dt - stack.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.total_s += dt
                if stack:
                    stack[-1] += dt
            if shape is not None:
                stat.shape = max(stat.shape, shape(args))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def _install(self, prefix, module, qualname, shape) -> None:
        stat = self.stats[prefix] = _Stat()
        owner, name, raw = _resolve(module, qualname)
        if isinstance(raw, type):
            init = vars(raw)["__init__"]
            self._patch(raw, "__init__", self._span(stat, init, shape))
        elif isinstance(raw, staticmethod):
            self._patch(owner, name,
                        staticmethod(self._span(stat, raw.__func__, shape)))
        elif isinstance(owner, type):
            self._patch(owner, name, self._span(stat, raw, shape))
        else:
            # every module that imported the function by name
            wrapped = self._span(stat, raw, shape)
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == "qbgg"
                                       or modname.startswith("qbgg.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, attr, wrapped)

    def _install_cache_counter(self) -> None:
        uqalg = sys.modules["qbgg.uqalg"]
        cls = uqalg.UqAlgebra
        inner = vars(cls)["_mul_letter"]
        tracer = self

        def counted(uq, nw, letter):
            tracer.cache_lookups += 1
            if (nw, letter) in uq._mul_letter_cache:
                tracer.cache_hits += 1
            return inner(uq, nw, letter)

        counted.__wrapped__ = inner
        self._patch(cls, "_mul_letter", counted)

    def __enter__(self) -> "LayerTracer":
        try:
            for prefix, module, qualname, _, shape in TARGETS:
                self._install(prefix, module, qualname, shape)
            self._install_cache_counter()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def summary(self) -> dict[str, float]:
        """Flat metrics named ``<module>.<entry>.<stat>``."""
        out: dict[str, float] = {}
        for prefix, _, _, shape_name, _ in TARGETS:
            st = self.stats[prefix]
            out[prefix + ".calls"] = st.calls
            out[prefix + ".self_s"] = st.self_s
            out[prefix + ".total_s"] = st.total_s
            if shape_name is not None:
                out[prefix + "." + shape_name] = st.shape
        out["uqalg.mul_letter_cache.lookups"] = self.cache_lookups
        out["uqalg.mul_letter_cache.hit_ratio"] = (
            self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0)
        return out
