"""Command-line front end with machine-readable verification reports.

Simple roots use 1-based Bourbaki indexing.  Every subcommand prints a JSON
report; exit code 0 means all checks passed, 1 means a verification failure,
2 means a usage error or a coset walk refused as too large.

Each `cmd_*` validates its arguments, builds what its checks share and
returns the checks as (check id, context, thunk returning (ok, witness));
`main` runs them.  An exception while building, such as a certificate that
fails inside a constructor, becomes one failed check `setup`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

from . import __version__
from .cartan import ParabolicData, RootSystem
from .weyl import BruhatGraph, GroupTooLarge, incomparability_report
from .reps import kostant_partition, verify_dim_identity
from .bgg import BGGComplex, DoubleComplex, _enumerate_offsets
from .verma import StandardMapFamily
from . import qsphere

SCHEMA_VERSION = 1

DEFAULT_HEIGHTS = {("A1", ()): 8, ("A2", (1,)): 5}

# podles demo reports no config, and the generators and relations it checks
PODLES_FIELDS = {"config": {}, "generators": sorted(qsphere.B_GENS),
                 "coordinate_relations": [
                     "ba = q ab", "ca = q ac", "cb = bc", "db = q bd",
                     "dc = q cd", "da = ad + (q - q^-1) bc", "ad = 1 + q^-1 bc"]}


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


def _check_output(path: str | None) -> None:
    """Refuse an --output the report could not be written to, before any
    build, so that no work is lost to a failing write."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise UsageError("--output directory %r does not exist" % parent)
    if os.path.isdir(path):
        raise UsageError("--output %r is a directory" % path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError("--output %r is not writable" % path)


def _height(args, P: ParabolicData) -> int:
    """--height, or the default height of the parabolic, keyed by its parsed
    type and sorted nodes however --type and --s spell them."""
    return (DEFAULT_HEIGHTS.get((str(P.rs.ctype), tuple(sorted(P.S))), 3)
            if args.height is None else args.height)


def _chain_graph(P: ParabolicData) -> BruhatGraph:
    """The coset graph, refused unless every level holds one coset; the
    double complex's rows and columns are built for chains only."""
    G = BruhatGraph(P)
    for k, lvl in enumerate(G.levels):
        if len(lvl) > 1:
            raise UsageError("the double complex needs a chain coset graph; "
                             "level %d holds %d cosets" % (k, len(lvl)))
    return G


def _verifier(fn, *args, count: str | None = None, **kwargs):
    """The thunk of a check that runs fn, a verifier returning a report with
    "ok": the witness is the report, or with count the length of
    report[count]."""
    def thunk():
        rep = fn(*args, **kwargs)
        return rep["ok"], (rep if count is None else {count: len(rep[count])})
    return thunk


def _error(exc: Exception) -> dict:
    return {"error": "%s: %s" % (type(exc).__name__, exc)}


def _check(check_id: str, context: str, fn) -> dict:
    t0 = time.monotonic()
    try:
        ok, witness = fn()
    except Exception as exc:  # surface failures in the report, not a trace
        ok, witness = False, _error(exc)
    return {"check_id": check_id, "context": context,
            "status": "pass" if ok else "fail", "witness": witness,
            "elapsed_ms": int((time.monotonic() - t0) * 1000)}


def _config_echo(args) -> dict:
    # schema-1 reports keep the fields of two retired no-op options
    out = {"type": args.type, "s": args.s, "assist": False, "threads": 1}
    for key in ("height", "box"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


# ---------------------------------------------------------------------------

def cmd_cartan_info(args) -> list:
    P = _parse_parabolic(args)
    rs = P.rs

    def info():
        return True, {
            "rank": rs.rank,
            "cartan_matrix": rs.cartan,
            "symmetrizers": rs.d,
            "positive_root_count": len(rs.positive_roots),
            "positive_roots": [list(b) for b in rs.positive_roots],
            "highest_root": list(rs.highest_root()),
            "S": sorted(P.S),
            "irreducible_flag": P.irreducible_flag,
        }

    return [("cartan.info", "root system and parabolic data", info)]


def cmd_weyl_graph(args) -> list:
    G = BruhatGraph(_parse_parabolic(args))

    def graph():
        return True, {
            "levels": [[str(w) for w in lvl] for lvl in G.levels],
            "arrows": [{"source": str(a.source), "target": str(a.target),
                        "root": list(a.root),
                        "sign": G.sign(a.source, a.target)}
                       for a in G.arrows],
            "squares": [[str(w) for w in sq] for sq in G.squares]}

    def signs():
        bad = [sq for sq in G.squares
               if (G.sign(sq[0], sq[1]) * G.sign(sq[1], sq[3])
                   * G.sign(sq[0], sq[2]) * G.sign(sq[2], sq[3])) != -1]
        return not bad, {"squares_checked": len(G.squares)}

    return [("weyl.graph", "coset graph with arrows and signs", graph),
            ("weyl.signs", "product -1 around every square", signs)]


def cmd_dims_verify(args) -> list:
    G = BruhatGraph(_parse_parabolic(args, irreducible=True))

    def incomp():
        rep = incomparability_report(G)
        return rep["ok"], {"ok": rep["ok"], "pairs_checked": len(rep["pairs"]),
                           "arrows_checked": len(rep["arrows"])}

    return [("dims.identity",
             "exterior powers of the quotient vs dot-orbit modules",
             _verifier(verify_dim_identity, G)),
            ("dims.incomparability",
             "dot-point differences and arrow coefficients", incomp)]


def cmd_bgg_build(args) -> list:
    G = BruhatGraph(_parse_parabolic(args))

    def build():
        bgg = BGGComplex(G)
        arrows = [{"source": str(a.source), "target": str(a.target),
                   "sign": G.sign(a.source, a.target),
                   "map_terms": len(bgg.maps.y(a.source, a.target))}
                  for a in G.arrows]
        return True, {"levels": [[str(w) for w in lvl] for lvl in G.levels],
                      "arrows": arrows}

    return [("bgg.build", "standard maps for every arrow", build)]


def cmd_bgg_verify(args) -> list:
    bgg = BGGComplex(BruhatGraph(_parse_parabolic(args)))
    height = _height(args, bgg.G.P)
    return [("bgg.squared_zero", "composites vanish exactly",
             _verifier(bgg.verify_squared_zero)),
            ("bgg.exactness",
             "slicewise ranks and Euler characteristics to height %d" % height,
             _verifier(bgg.verify_exactness, height))]


def cmd_double_verify(args) -> list:
    dc = DoubleComplex(StandardMapFamily(
        _chain_graph(_parse_parabolic(args, irreducible=True))))
    k1, k2 = args.box
    return [("double.anticommute",
             "mixed maps anticommute on the bidegree box (%d,%d)" % (k1, k2),
             _verifier(dc.verify_anticommute, k1cap=k1, k2cap=k2)),
            ("double.rows", "row complexes exact on verified windows",
             _verifier(dc.verify_rows, k2cap=1, k1lim=1)),
            ("double.columns", "column complexes exact on verified windows",
             _verifier(dc.verify_columns, k1cap=1, k2lim=1))]


def cmd_podles_demo(args) -> list:
    return [("podles.calculus",
             "coordinate relations, differentials, volume form",
             _verifier(qsphere.verify_calculus))]


def cmd_all(args) -> list:
    P = _parse_parabolic(args, irreducible=True)
    G = _chain_graph(P)
    bgg = BGGComplex(G)
    dc = DoubleComplex(bgg.maps)
    height = _height(args, P)
    k1, k2 = args.box

    def pbw():
        bad = [list(beta) for beta in _enumerate_offsets(P.rs, 4)
               if sum(beta) and bgg.uq.weight_space(beta).dim
               != kostant_partition(P.rs, beta)]
        return not bad, {"bad": bad}

    return [
        ("dims.identity", "dimension identity",
         _verifier(verify_dim_identity, G, count="levels")),
        ("dims.incomparability", "incomparability conditions",
         _verifier(incomparability_report, G, count="pairs")),
        ("uq.pbw_dims", "lowering algebra graded dimensions", pbw),
        ("bgg.squared_zero", "composites vanish",
         _verifier(bgg.verify_squared_zero, count="composites")),
        ("bgg.exactness", "slicewise exactness to height %d" % height,
         _verifier(bgg.verify_exactness, height, count="slices")),
        ("double.anticommute", "anticommutation on box",
         _verifier(dc.verify_anticommute, k1cap=k1, k2cap=k2, count="pairs")),
        ("double.rows", "row exactness",
         _verifier(dc.verify_rows, k2cap=1, k1lim=1, count="lines")),
        ("double.columns", "column exactness",
         _verifier(dc.verify_columns, k1cap=1, k2lim=1, count="lines")),
        ("podles.calculus", "rank-one sphere calculus",
         lambda: (qsphere.verify_calculus()["ok"], {})),
    ]


# ---------------------------------------------------------------------------

def _box(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated ints")
    return int(parts[0]), int(parts[1])


# window options, added to the requests that name them in DISPATCH
OPTIONS = {
    "height": {"type": int, "default": None,
               "help": "weight-slice height cap"},
    "box": {"type": _box, "default": (2, 2),
            "help": "bidegree caps k1,k2 of the anticommutation window only; "
                    "the rows and columns checks keep their 1,1 windows"},
}

HELP = {"cartan": "root system data", "weyl": "coset graph",
        "dims": "dimension identities", "bgg": "resolution complex",
        "double": "induced double complex",
        "podles": "quantum sphere calculus", "all": "full verification suite"}

# (command, subcommand): (command function, window options)
DISPATCH = {
    ("cartan", "info"): (cmd_cartan_info, ()),
    ("weyl", "graph"): (cmd_weyl_graph, ()),
    ("dims", "verify"): (cmd_dims_verify, ()),
    ("bgg", "build"): (cmd_bgg_build, ()),
    ("bgg", "verify"): (cmd_bgg_verify, ("height",)),
    ("double", "verify"): (cmd_double_verify, ("box",)),
    ("podles", "demo"): (cmd_podles_demo, ()),
    ("all", None): (cmd_all, ("height", "box")),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built from DISPATCH: a parse leaves no
    state in it, and argparse's objects form reference cycles that one build
    per call would leave to the cyclic collector."""
    ap = argparse.ArgumentParser(
        prog="qbgg",
        description="Exact verification of quantum parabolic resolutions "
                    "and the rank-one quantum-sphere calculus. "
                    "Simple roots use 1-based Bourbaki indexing.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for (command, subcommand), (_, options) in DISPATCH.items():
        if subcommand is None:
            p = sub.add_parser(command, help=HELP[command])
        else:
            if command not in groups:
                groups[command] = sub.add_parser(
                    command, help=HELP[command]).add_subparsers(
                        dest="sub", required=True)
            p = groups[command].add_parser(subcommand)
        p.add_argument("--type", default="A1", help="Cartan type, e.g. A2")
        p.add_argument("--s", default="",
                       help="comma-separated 1-based Levi node indices; "
                            "empty for the Borel case")
        p.add_argument("--output", default=None, help="write JSON here")
        for name in options:
            p.add_argument("--" + name, **OPTIONS[name])
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command, getattr(args, "sub", None))
    try:
        _check_window(args)
        _check_output(args.output)
        checks = DISPATCH[key][0](args)
    except (UsageError, GroupTooLarge) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a failure while building is a failed report
        failure = (False, _error(exc))
        checks = [("setup", "objects the checks share", lambda: failure)]
    report = (dict(PODLES_FIELDS) if key == ("podles", "demo")
              else {"config": _config_echo(args)})
    report["checks"] = [_check(*check) for check in checks]
    passed = all(c["status"] == "pass" for c in report["checks"])
    report.update(schema_version=SCHEMA_VERSION, version=__version__,
                  status="pass" if passed else "fail")
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
