"""The report-hash corpus: CLI requests whose reports must stay byte for byte.

``REQUESTS`` is the one list of gated requests.  CI runs
``tests/test_report_hashes.py`` under ``PYTHONOPTIMIZE=1 PYTHONHASHSEED=0`` and
under ``PYTHONHASHSEED=1``, so a request added here must keep its report with
asserts stripped and under either hash seed, and that test checks that every
benchmark request (``perfbench/run.py``'s ``WORKLOADS``) is here too.

Run from the root of a checkout::

    python tests/report_hashes.py            # print each request's record
    python tests/report_hashes.py --record   # rewrite tests/report_hashes.json

Every request runs in this one process through ``qbgg.cli.main``.  A request
that prints a report records its exit code and the report's hash as the
benchmark computes it (``perfbench/run.py``): the sha256 of its canonical JSON
with the measured keys ``elapsed_ms`` and ``metrics`` removed.  One that
prints nothing (a refused request, exit 2) records its exit code and its empty
stdout.  ``tests/test_report_hashes.py`` compares the records with the file.
Record only when a change to the reports is intended.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "report_hashes.json"

sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "perfbench")]
from qbgg.cli import main  # noqa: E402
from run import report_hash  # noqa: E402

REQUESTS = [
    # the benchmark's and CI's requests
    ["cartan", "info", "--type", "A3", "--s", "1,3"],
    ["weyl", "graph", "--type", "A2", "--s", "1"],
    ["bgg", "build", "--type", "A2", "--s", "1"],
    ["all", "--type", "A1", "--s", ""],
    ["all", "--type", "A2", "--s", "1"],
    ["podles", "demo"],
    ["bgg", "verify", "--type", "A2", "--s", "1", "--height", "3"],
    ["bgg", "verify", "--type", "C3", "--s", "1,2", "--height", "3"],
    ["bgg", "verify", "--type", "A4", "--s", "1,2,4", "--height", "3"],
    ["double", "verify", "--type", "A2", "--s", "1", "--box", "2,2"],
    ["double", "verify", "--type", "C2", "--s", "1", "--box", "1,1"],
    ["dims", "verify", "--type", "E6", "--s", "2,3,4,5,6"],
    ["dims", "verify", "--type", "E7", "--s", "1,2,3,4,5,6"],
    ["cartan", "info", "--type", "A60", "--s", ""],
    ["weyl", "graph", "--type", "D5", "--s", ""],
    ["double", "verify", "--type", "A1", "--s", "", "--box", "2,2"],
    ["double", "verify", "--type", "B2", "--s", "2", "--box", "1,1"],
    ["dims", "verify", "--type", "A3", "--s", "1,3"],
    ["bgg", "verify", "--type", "A3", "--s", "1,3", "--height", "5"],
    ["dims", "verify", "--type", "A5", "--s", "1,2,4,5"],
    ["dims", "verify", "--type", "D5", "--s", "1,2,3,4"],
    ["bgg", "verify", "--type", "A2", "--s", "1", "--height", "5"],
    # the double complex on a chain at the smallest box, and refused on a
    # coset graph that is not a chain
    ["double", "verify", "--type", "A2", "--s", "1", "--box", "1,1"],
    ["all", "--type", "A2", "--s", "1", "--box", "1,1"],
    ["double", "verify", "--type", "A3", "--s", "1,3"],
    ["all", "--type", "A3", "--s", "1,3"],
    # several squares above one coset
    ["bgg", "verify", "--type", "B2", "--s", "", "--height", "3"],
    ["bgg", "verify", "--type", "G2", "--s", "", "--height", "3"],
    ["bgg", "verify", "--type", "A3", "--s", "", "--height", "3"],
    # CP^3: the double complex on a chain of type A3
    ["double", "verify", "--type", "A3", "--s", "2,3", "--box", "1,1"],
    # a coset graph with squares, and so a nontrivial GF(2) sign solve
    ["weyl", "graph", "--type", "A3", "--s", ""],
    # map_terms counts basis words, so pins them; D4's Serre quotients have
    # three pairs of commuting nodes
    ["bgg", "build", "--type", "C3", "--s", "1,2"],
    ["bgg", "verify", "--type", "D4", "--s", "2,3,4", "--height", "2"],
]


def run_request(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    text = out.getvalue()
    if not text:
        return {"argv": argv, "exit": code, "stdout": ""}
    return {"argv": argv, "exit": code, "sha256": report_hash(json.loads(text))}


if __name__ == "__main__":
    records = [run_request(argv) for argv in REQUESTS]
    if sys.argv[1:] == ["--record"]:
        CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    elif sys.argv[1:]:
        sys.exit("usage: python tests/report_hashes.py [--record]")
    else:
        print(json.dumps(records))
