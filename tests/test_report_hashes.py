"""Every request of the report-hash corpus keeps its recorded report.

The requests run in one subprocess (`tests/report_hashes.py`), so their
caches are those of a fresh process, and its environment is this one's: CI
runs this module under ``PYTHONOPTIMIZE=1`` and two fixed ``PYTHONHASHSEED``
values.  A report's hash is the benchmark's (`perfbench/run.py`), whose own
tests check that it ignores only the measured keys.  Re-record with
``python tests/report_hashes.py --record`` only when a change to the reports
is intended.
"""
from __future__ import annotations

import json
import subprocess
import sys

from report_hashes import CORPUS, HERE, REQUESTS
from run import WORKLOADS


def test_every_corpus_report_keeps_its_hash():
    recorded = json.loads(CORPUS.read_text())
    assert [r["argv"] for r in recorded] == REQUESTS
    run = subprocess.run([sys.executable, str(HERE / "report_hashes.py")],
                         capture_output=True, text=True, check=True)
    changed = [" ".join(new["argv"]) for old, new in zip(recorded, json.loads(run.stdout))
               if old != new]
    assert changed == []


def test_every_benchmark_request_is_in_the_corpus():
    requests = [argv for workload in WORKLOADS.values() for argv in workload]
    assert requests
    assert [argv for argv in requests if argv not in REQUESTS] == []
