"""Tests of the benchmark itself: the correctness gate, the tracer and the
layer predictions the workloads were chosen for.

Run from the root of the repository::

    python3 -m pytest -q perfbench

The traced passes take about a minute and a half in all.
"""
from __future__ import annotations

import os
import sys

import pytest

import layertrace
import run

SHAPE_SUFFIXES = (".calls", ".max_cells", ".max_words", ".max_total",
                  ".max_order", ".max_cosets", ".lookups", ".hit_ratio")


@pytest.fixture(scope="module")
def expected():
    return run.load_json(run.HASHES)


@pytest.fixture(scope="module")
def traced():
    """One traced pass per workload, each in a fresh interpreter."""
    cache: dict[str, dict] = {}

    def get(workload: str) -> dict:
        if workload not in cache:
            cache[workload] = run.run_pass(run.WORKLOADS[workload], True,
                                           run.RUN_DEADLINE_S)
        return cache[workload]

    return get


def test_every_request_has_a_recorded_hash(expected):
    keys = {run.request_key(r) for reqs in run.WORKLOADS.values() for r in reqs}
    assert keys == set(expected)


def test_report_hash_ignores_measurements_only():
    base = {"checks": [{"status": "pass", "elapsed_ms": 5}], "status": "pass"}
    timed = {"checks": [{"status": "pass", "elapsed_ms": 900,
                         "metrics": {"normalize_calls": 7}}],
             "status": "pass"}
    changed = {"checks": [{"status": "fail", "elapsed_ms": 5}],
               "status": "pass"}
    assert run.report_hash(base) == run.report_hash(timed)
    assert run.report_hash(base) != run.report_hash(changed)


def test_wrong_recorded_hash_is_a_failure(expected, traced):
    out = traced("tour")
    failures, checked_s = run.check_pass(out, expected)
    assert failures == [] and checked_s > 0
    wrong = dict(expected)
    key = run.request_key(run.WORKLOADS["tour"][0])
    wrong[key] = "0" * 64
    failures, _ = run.check_pass(out, wrong)
    assert failures == ["%s: report hash differs from the recorded one" % key]


def test_nonzero_exit_and_unparsable_report_are_failures(expected, traced):
    res = dict(traced("tour")["results"][0])
    key = run.request_key(res["argv"])
    bad_exit = {"results": [dict(res, rc=1)]}
    no_report = {"results": [dict(res, report="Traceback ...")]}
    assert run.check_pass(bad_exit, expected)[0] == ["%s: exit code 1" % key]
    assert run.check_pass(no_report, expected)[0] == [
        "%s: no parsable report" % key]


def test_timed_out_pass_is_killed_and_reaped():
    with pytest.raises(run.PassError, match="timed out"):
        run.run_pass(run.WORKLOADS["cosets"], False, 1.0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_tracer_wraps_every_binding_site_and_restores_it():
    sys.path.insert(0, str(run.SRC))
    try:
        import qbgg.cli  # noqa: F401  loads every module the CLI uses
    finally:
        sys.path.remove(str(run.SRC))
    mods = {name: sys.modules["qbgg." + name]
            for name in ("qfield", "bgg", "verma", "qsphere", "cli", "reps",
                         "weyl", "uqalg")}
    sites = [("bgg", "rank"), ("qsphere", "rank"), ("qsphere", "kernel_basis"),
             ("verma", "kernel_basis"), ("bgg", "levi_irrep"),
             ("cli", "verify_dim_identity"), ("cli", "incomparability_report"),
             ("qfield", "laurent_gcd"), ("cli", "main")]
    before = {site: getattr(mods[site[0]], site[1]) for site in sites}
    normalize = vars(mods["qfield"].RatFunc)["_normalize"]
    init = vars(mods["uqalg"].NMinusWeightSpace)["__init__"]
    with layertrace.LayerTracer():
        for (mod, name), original in before.items():
            assert getattr(mods[mod], name).__wrapped__ is original
        assert isinstance(vars(mods["qfield"].RatFunc)["_normalize"],
                          staticmethod)
        assert vars(mods["uqalg"].NMinusWeightSpace)["__init__"] is not init
    for (mod, name), original in before.items():
        assert getattr(mods[mod], name) is original
    assert vars(mods["qfield"].RatFunc)["_normalize"] is normalize
    assert vars(mods["uqalg"].NMinusWeightSpace)["__init__"] is init


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_pass_reports_every_per_layer_metric(workload, traced,
                                                    expected):
    out = traced(workload)
    assert run.check_pass(out, expected)[0] == []
    names = {m["name"] for m in run.load_json(run.SPEC)["per_layer"]}
    assert names - {"trace.overhead_frac"} <= set(out["layers"])


def test_traced_counts_repeat_exactly(traced):
    first = traced("tour")["layers"]
    second = run.run_pass(run.WORKLOADS["tour"], True,
                          run.RUN_DEADLINE_S)["layers"]
    counts = sorted(k for k in first if k.endswith(SHAPE_SUFFIXES))
    assert counts
    assert [first[k] for k in counts] == [second[k] for k in counts]


def test_layer_isolation_predictions(traced):
    cosets = traced("cosets")["layers"]
    assert cosets["qfield.normalize.calls"] == 0
    assert cosets["uqalg.multiply.calls"] == 0
    assert traced("resolution")["layers"]["bgg.WSlice.calls"] == 0
    assert traced("tour")["layers"]["qsphere.verify_calculus.calls"] >= 1
