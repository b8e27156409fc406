"""Command-line interface: exit codes, report schema, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qbgg
from qbgg import bgg
from qbgg.cli import main
from qbgg.uqalg import NMinusWeightSpace


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_pass_exit_zero(capsys):
    code, rep = _run(capsys, ["dims", "verify", "--type", "A3", "--s", "1,3"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["schema_version"] == 1
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_usage_errors_exit_two(capsys):
    assert main(["dims", "verify", "--type", "A3", "--s", "9"]) == 2
    capsys.readouterr()
    assert main(["dims", "verify", "--type", "Z9", "--s", ""]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bgg", "verify", "--type", "A2", "--s", "1", "--height", "-1"],
    ["all", "--type", "A1", "--s", "", "--height", "-1"],
    ["double", "verify", "--type", "A2", "--s", "1", "--box", "0,0"],
    ["double", "verify", "--type", "A2", "--s", "1", "--box", "2,0"],
    ["all", "--type", "A1", "--s", "", "--box", "0,1"],
])
def test_empty_windows_exit_two_before_building(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a coset graph for an invalid window")
    monkeypatch.setattr("qbgg.cli.BruhatGraph", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["dims", "verify", "--type", "C3", "--s", "2,3"],
    ["dims", "verify", "--type", "A2", "--s", ""],
    ["double", "verify", "--type", "G2", "--s", "1", "--box", "1,1"],
    ["all", "--type", "G2", "--s", "1"],
])
def test_non_irreducible_flags_exit_two_before_building(capsys, monkeypatch,
                                                         argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a coset graph outside an irreducible flag")
    monkeypatch.setattr("qbgg.cli.BruhatGraph", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_reports_deterministic(capsys):
    def snapshot():
        code, rep = _run(capsys, ["weyl", "graph", "--type", "A2", "--s", "1"])
        assert code == 0
        for c in rep["checks"]:
            c.pop("elapsed_ms")
        return rep
    assert snapshot() == snapshot()


def test_report_round_trips(capsys):
    code, rep = _run(capsys, ["cartan", "info", "--type", "B2", "--s", "2"])
    assert code == 0
    assert json.loads(json.dumps(rep)) == rep


@pytest.mark.parametrize("type_,spellings,height", [
    ("A1", ["", " "], 8), ("A2", ["1", "01", " 1"], 5)])
def test_default_height_ignores_how_the_parabolic_is_spelled(capsys, type_,
                                                             spellings, height):
    for s in spellings:
        code, rep = _run(capsys, ["bgg", "verify", "--type", type_, "--s", s])
        assert code == 0
        exactness = {c["check_id"]: c for c in rep["checks"]}["bgg.exactness"]
        assert exactness["context"].endswith("to height %d" % height)
        assert exactness["witness"]["max_height"] == height


@pytest.mark.parametrize("argv", [
    ["weyl", "graph", "--type", "E8", "--s", ""],
    ["bgg", "build", "--type", "A9", "--s", ""],
    ["bgg", "verify", "--type", "E7", "--s", "7"],
])
def test_oversized_coset_walks_exit_two_before_walking(capsys, argv):
    # the walks would take minutes; the count that refuses them takes none
    t0 = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the coset walk would store")
    assert "Traceback" not in captured.err


def test_bgg_verify_report_shape(capsys):
    code, rep = _run(capsys, ["bgg", "verify", "--type", "A2", "--s", "1",
                              "--height", "3"])
    assert code == 0
    by_id = {c["check_id"]: c for c in rep["checks"]}
    slices = by_id["bgg.exactness"]["witness"]["slices"]
    assert slices
    for rec in slices:
        assert {"offset", "dims", "ranks", "exact"} <= set(rec)


def test_retired_flags_exit_two_and_config_keeps_their_fields(capsys):
    base = ["cartan", "info", "--type", "A1", "--s", ""]
    for extra in (["--assist"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
    capsys.readouterr()
    code, rep = _run(capsys, base)
    assert code == 0
    assert rep["config"]["assist"] is False
    assert rep["config"]["threads"] == 1


def test_podles_demo(capsys):
    code, rep = _run(capsys, ["podles", "demo"])
    assert code == 0
    assert "coordinate_relations" in rep
    assert any("da" in r for r in rep["coordinate_relations"])


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["cartan", "info", "--type", "A1", "--s", "",
                 "--output", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"


def test_all_builds_the_standard_maps_once(capsys, monkeypatch):
    # the double complex takes the resolution's maps, whose mu is zero
    built = []

    class Counted(bgg.StandardMapFamily):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(bgg, "StandardMapFamily", Counted)
    code, _ = _run(capsys, ["all", "--type", "A2", "--s", "1", "--height", "1",
                            "--box", "1,1"])
    assert code == 0
    assert len(built) == 1


def test_all_builds_each_weight_space_once(capsys, monkeypatch):
    # uq.pbw_dims reads the algebra of the standard maps, so its weight
    # spaces are the ones the resolution and the double complex share, and
    # no quotient of one content and one set of tails is built twice
    built = []
    original = NMinusWeightSpace.__init__

    def counted(self, uq, beta, tails=(), dim=None):
        built.append((beta, tails))
        original(self, uq, beta, tails, dim)

    monkeypatch.setattr(NMinusWeightSpace, "__init__", counted)
    assert main(["all", "--type", "A2", "--s", "1"]) == 0
    capsys.readouterr()
    # 22 Serre quotients and 21 module quotients with a tail, over 24 contents
    assert len(built) == len(set(built)) == 43
    assert len({beta for beta, _ in built}) == 24


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_output_exits_two_before_building(tmp_path, capsys,
                                                     monkeypatch, target):
    # a missing directory, or a directory in place of a file, is refused
    # before the coset graph is built, not after every check has run
    def refuse(*args, **kwargs):
        raise AssertionError("built a coset graph for an unwritable --output")
    monkeypatch.setattr("qbgg.cli.BruhatGraph", refuse)
    out = tmp_path / target
    assert main(["weyl", "graph", "--type", "A2", "--s", "1",
                 "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --output")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["double", "verify", "--type", "A3", "--s", "1,3", "--box", "1,1"],
    ["all", "--type", "A3", "--s", "1,3"],
])
def test_non_chain_coset_graph_exits_two_before_building(capsys, monkeypatch,
                                                          argv):
    def refuse(*args, **kwargs):
        raise AssertionError("built a double complex on a non-chain graph")
    monkeypatch.setattr("qbgg.cli.DoubleComplex", refuse)
    t0 = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - t0 < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "chain" in captured.err


def _without_elapsed(rep: dict) -> dict:
    for c in rep["checks"]:
        c.pop("elapsed_ms")
    return rep


def test_refused_requests_leave_the_shared_parser_unchanged(capsys):
    # the parser is built once per process: after a refused --box and an
    # unparsable one, a request on the defaults reports what a fresh
    # process reports
    valid = ["double", "verify", "--type", "A1", "--s", ""]
    assert main(["double", "verify", "--type", "A2", "--s", "1",
                 "--box", "0,1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["double", "verify", "--box", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, rep = _run(capsys, valid)
    assert code == 0
    env = dict(os.environ, PYTHONPATH=str(Path(qbgg.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "qbgg.cli"] + valid,
                           capture_output=True, text=True, env=env, check=True)
    assert _without_elapsed(rep) == _without_elapsed(json.loads(fresh.stdout))
    assert rep["config"]["box"] == [2, 2]
