"""Command-line front end with machine-readable verification reports.

Simple roots use 1-based Bourbaki indexing.  Every subcommand prints a JSON
report; exit code 0 means all checks passed, 1 means a verification failure,
2 means a usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from . import __version__
from .cartan import ParabolicData, RootSystem
from .weyl import BruhatGraph, incomparability_report
from .reps import kostant_partition, verify_dim_identity
from .uqalg import UqAlgebra
from .bgg import BGGComplex, DoubleComplex
from . import qsphere

SCHEMA_VERSION = 1

DEFAULT_HEIGHTS = {("A1", ""): 8, ("A2", "1"): 5, ("A3", "1,3"): 3}


class UsageError(Exception):
    pass


def _parse_parabolic(args, irreducible: bool = False) -> ParabolicData:
    """The parabolic of --type and --s; with irreducible, refused unless it
    is an irreducible flag, the scope of the dimension identities and the
    double complex."""
    try:
        rs = RootSystem(args.type)
    except (ValueError, KeyError) as exc:
        raise UsageError("bad --type %r: %s" % (args.type, exc))
    S: set[int] = set()
    if args.s.strip():
        for part in args.s.split(","):
            try:
                S.add(int(part))
            except ValueError:
                raise UsageError("bad index in --s: %r" % part)
    if any(i < 1 or i > rs.rank for i in S):
        raise UsageError("--s indices must lie in 1..%d" % rs.rank)
    P = ParabolicData(rs, S)
    if irreducible and not P.irreducible_flag:
        raise UsageError("not an irreducible flag: --s must miss exactly "
                         "one cominuscule node")
    return P


def _check_window(args) -> None:
    """Reject windows that would make a check cover no cases."""
    height = getattr(args, "height", None)
    if height is not None and height < 0:
        raise UsageError("--height must be at least 0")
    box = getattr(args, "box", None)
    if box is not None and min(box) < 1:
        raise UsageError("--box caps must be at least 1")


def _chain_graph(P: ParabolicData) -> BruhatGraph:
    """The coset graph, refused unless every level holds one coset; the
    double complex's rows and columns are built for chains only."""
    G = BruhatGraph(P)
    for k, lvl in enumerate(G.levels):
        if len(lvl) > 1:
            raise UsageError("the double complex needs a chain coset graph; "
                             "level %d holds %d cosets" % (k, len(lvl)))
    return G


def _check(checks: list, check_id: str, context: str, fn) -> bool:
    t0 = time.monotonic()
    try:
        ok, witness = fn()
    except Exception as exc:  # surface failures in the report, not a trace
        ok, witness = False, {"error": "%s: %s" % (type(exc).__name__, exc)}
    checks.append({"check_id": check_id, "context": context,
                   "status": "pass" if ok else "fail", "witness": witness,
                   "elapsed_ms": int((time.monotonic() - t0) * 1000)})
    return ok


def _emit(report: dict, args) -> int:
    report["schema_version"] = SCHEMA_VERSION
    report["version"] = __version__
    report["status"] = ("pass" if all(c["status"] == "pass"
                                      for c in report["checks"]) else "fail")
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["status"] == "pass" else 1


def _config_echo(args) -> dict:
    # schema-1 reports keep the fields of two retired no-op options
    out = {"type": args.type, "s": args.s, "assist": False, "threads": 1}
    for key in ("height", "box"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


# ---------------------------------------------------------------------------

def cmd_cartan_info(args) -> int:
    P = _parse_parabolic(args)
    rs = P.rs
    checks: list = []

    def info():
        data = {
            "rank": rs.rank,
            "cartan_matrix": rs.cartan,
            "symmetrizers": rs.d,
            "positive_root_count": len(rs.positive_roots),
            "positive_roots": [list(b) for b in rs.positive_roots],
            "highest_root": list(rs.highest_root()),
            "S": sorted(P.S),
            "irreducible_flag": P.irreducible_flag,
        }
        return True, data

    _check(checks, "cartan.info", "root system and parabolic data", info)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_weyl_graph(args) -> int:
    P = _parse_parabolic(args)
    checks: list = []
    holder: dict = {}

    def build():
        G = BruhatGraph(P)
        holder["G"] = G
        levels = [[str(w) for w in lvl] for lvl in G.levels]
        arrows = [{"source": str(a.source), "target": str(a.target),
                   "root": list(a.root), "sign": G.sign(a.source, a.target)}
                  for a in G.arrows]
        squares = [[str(w) for w in sq] for sq in G.squares]
        return True, {"levels": levels, "arrows": arrows, "squares": squares}

    ok = _check(checks, "weyl.graph", "coset graph with arrows and signs", build)
    if ok:
        G = holder["G"]

        def signs():
            bad = [sq for sq in G.squares
                   if (G.sign(sq[0], sq[1]) * G.sign(sq[1], sq[3])
                       * G.sign(sq[0], sq[2]) * G.sign(sq[2], sq[3])) != -1]
            return not bad, {"squares_checked": len(G.squares)}

        _check(checks, "weyl.signs", "product -1 around every square", signs)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_dims_verify(args) -> int:
    P = _parse_parabolic(args, irreducible=True)
    checks: list = []
    G = BruhatGraph(P)

    def dims():
        rep = verify_dim_identity(G)
        return rep["ok"], rep

    def incomp():
        rep = incomparability_report(G)
        return rep["ok"], {"ok": rep["ok"], "pairs_checked": len(rep["pairs"]),
                           "arrows_checked": len(rep["arrows"])}

    _check(checks, "dims.identity",
           "exterior powers of the quotient vs dot-orbit modules", dims)
    _check(checks, "dims.incomparability",
           "dot-point differences and arrow coefficients", incomp)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_bgg_build(args) -> int:
    P = _parse_parabolic(args)
    checks: list = []

    def build():
        G = BruhatGraph(P)
        bgg = BGGComplex(G)
        data = {"levels": [[str(w) for w in lvl] for lvl in G.levels],
                "arrows": []}
        for a in G.arrows:
            y = bgg.maps.y(a.source, a.target)
            data["arrows"].append({
                "source": str(a.source), "target": str(a.target),
                "sign": G.sign(a.source, a.target),
                "map_terms": len(y)})
        return True, data

    _check(checks, "bgg.build", "standard maps for every arrow", build)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_bgg_verify(args) -> int:
    P = _parse_parabolic(args)
    checks: list = []
    G = BruhatGraph(P)
    bgg = BGGComplex(G)
    height = args.height
    if height is None:
        height = DEFAULT_HEIGHTS.get((args.type, args.s), 3)

    def squared():
        rep = bgg.verify_squared_zero()
        return rep["ok"], rep

    def exact():
        rep = bgg.verify_exactness(height)
        return rep["ok"], rep

    _check(checks, "bgg.squared_zero", "composites vanish exactly", squared)
    _check(checks, "bgg.exactness",
           "slicewise ranks and Euler characteristics to height %d" % height,
           exact)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_double_verify(args) -> int:
    P = _parse_parabolic(args, irreducible=True)
    checks: list = []
    dc = DoubleComplex(_chain_graph(P))
    k1, k2 = args.box

    def anti():
        rep = dc.verify_anticommute(k1cap=k1, k2cap=k2)
        return rep["ok"], rep

    def rows():
        rep = dc.verify_rows(k2cap=1, k1lim=1)
        return rep["ok"], rep

    def cols():
        rep = dc.verify_columns(k1cap=1, k2lim=1)
        return rep["ok"], rep

    _check(checks, "double.anticommute",
           "mixed maps anticommute on the bidegree box (%d,%d)" % (k1, k2),
           anti)
    _check(checks, "double.rows", "row complexes exact on verified windows",
           rows)
    _check(checks, "double.columns",
           "column complexes exact on verified windows", cols)
    return _emit({"config": _config_echo(args), "checks": checks}, args)


def cmd_podles_demo(args) -> int:
    checks: list = []

    def demo():
        rep = qsphere.verify_calculus()
        return rep["ok"], rep

    _check(checks, "podles.calculus",
           "coordinate relations, differentials, volume form", demo)
    report = {"config": {}, "checks": checks,
              "generators": sorted(qsphere.B_GENS),
              "coordinate_relations": [
                  "ba = q ab", "ca = q ac", "cb = bc", "db = q bd",
                  "dc = q cd", "da = ad + (q - q^-1) bc",
                  "ad = 1 + q^-1 bc"]}
    return _emit(report, args)


def cmd_all(args) -> int:
    P = _parse_parabolic(args, irreducible=True)
    checks: list = []
    G = _chain_graph(P)
    height = args.height
    if height is None:
        height = DEFAULT_HEIGHTS.get((args.type, args.s), 3)

    _check(checks, "dims.identity", "dimension identity",
           lambda: (lambda rep: (rep["ok"], {"levels": len(rep["levels"])}))(
               verify_dim_identity(G)))
    _check(checks, "dims.incomparability", "incomparability conditions",
           lambda: (lambda rep: (rep["ok"], {"pairs": len(rep["pairs"])}))(
               incomparability_report(G)))

    def pbw():
        from .bgg import _enumerate_offsets
        uq = UqAlgebra(P.rs)
        bad = []
        for beta in _enumerate_offsets(P.rs, 4):
            if sum(beta) == 0:
                continue
            if uq.weight_space(beta).dim != kostant_partition(P.rs, beta):
                bad.append(list(beta))
        return not bad, {"bad": bad}

    _check(checks, "uq.pbw_dims", "lowering algebra graded dimensions", pbw)

    bgg = BGGComplex(G)
    _check(checks, "bgg.squared_zero", "composites vanish",
           lambda: (lambda rep: (rep["ok"], {"composites": len(rep["composites"])}))(
               bgg.verify_squared_zero()))
    _check(checks, "bgg.exactness", "slicewise exactness to height %d" % height,
           lambda: (lambda rep: (rep["ok"], {"slices": len(rep["slices"])}))(
               bgg.verify_exactness(height)))

    dc = DoubleComplex(G, uq=bgg.uq)
    k1, k2 = args.box
    _check(checks, "double.anticommute", "anticommutation on box",
           lambda: (lambda rep: (rep["ok"], {"pairs": len(rep["pairs"])}))(
               dc.verify_anticommute(k1cap=k1, k2cap=k2)))
    _check(checks, "double.rows", "row exactness",
           lambda: (lambda rep: (rep["ok"], {"lines": len(rep["lines"])}))(
               dc.verify_rows(k2cap=1, k1lim=1)))
    _check(checks, "double.columns", "column exactness",
           lambda: (lambda rep: (rep["ok"], {"lines": len(rep["lines"])}))(
               dc.verify_columns(k1cap=1, k2lim=1)))

    _check(checks, "podles.calculus", "rank-one sphere calculus",
           lambda: (lambda rep: (rep["ok"], {}))(qsphere.verify_calculus()))

    return _emit({"config": _config_echo(args), "checks": checks}, args)


# ---------------------------------------------------------------------------

def _box(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated ints")
    return int(parts[0]), int(parts[1])


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: a parse leaves no state in it, and
    argparse's objects form reference cycles that one build per call would
    leave to the cyclic collector."""
    ap = argparse.ArgumentParser(
        prog="qbgg",
        description="Exact verification of quantum parabolic resolutions "
                    "and the rank-one quantum-sphere calculus. "
                    "Simple roots use 1-based Bourbaki indexing.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, height=False, box=False):
        p.add_argument("--type", default="A1", help="Cartan type, e.g. A2")
        p.add_argument("--s", default="",
                       help="comma-separated 1-based Levi node indices; "
                            "empty for the Borel case")
        p.add_argument("--output", default=None, help="write JSON here")
        if height:
            p.add_argument("--height", type=int, default=None,
                           help="weight-slice height cap")
        if box:
            p.add_argument("--box", type=_box, default=(2, 2),
                           help="bidegree caps k1,k2 of the anticommutation "
                                "window only; the rows and columns checks keep "
                                "their 1,1 windows")

    pc = sub.add_parser("cartan", help="root system data")
    pcs = pc.add_subparsers(dest="sub", required=True)
    common(pcs.add_parser("info"))

    pw = sub.add_parser("weyl", help="coset graph")
    pws = pw.add_subparsers(dest="sub", required=True)
    common(pws.add_parser("graph"))

    pd = sub.add_parser("dims", help="dimension identities")
    pds = pd.add_subparsers(dest="sub", required=True)
    common(pds.add_parser("verify"))

    pb = sub.add_parser("bgg", help="resolution complex")
    pbs = pb.add_subparsers(dest="sub", required=True)
    common(pbs.add_parser("build"))
    common(pbs.add_parser("verify"), height=True)

    pdo = sub.add_parser("double", help="induced double complex")
    pdos = pdo.add_subparsers(dest="sub", required=True)
    common(pdos.add_parser("verify"), box=True)

    pp = sub.add_parser("podles", help="quantum sphere calculus")
    pps = pp.add_subparsers(dest="sub", required=True)
    common(pps.add_parser("demo"))

    common(sub.add_parser("all", help="full verification suite"),
           height=True, box=True)
    return ap


DISPATCH = {
    ("cartan", "info"): cmd_cartan_info,
    ("weyl", "graph"): cmd_weyl_graph,
    ("dims", "verify"): cmd_dims_verify,
    ("bgg", "build"): cmd_bgg_build,
    ("bgg", "verify"): cmd_bgg_verify,
    ("double", "verify"): cmd_double_verify,
    ("podles", "demo"): cmd_podles_demo,
    ("all", None): cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command, getattr(args, "sub", None))
    try:
        _check_window(args)
        return DISPATCH[key](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
