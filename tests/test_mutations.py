"""Every check can fail: each test plants one defect, and the check that
guards against it must report `fail`, with exit code 1 and no traceback."""
from __future__ import annotations

import json

from qbgg import reps
from qbgg.cli import main


def _failed_check(capsys, argv, check_id):
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(captured.out)
    assert code == 1
    assert report["status"] == "fail"
    return next(c for c in report["checks"] if c["check_id"] == check_id)


def test_dims_identity_fails_on_a_shifted_quotient_weight(capsys, monkeypatch):
    # one quotient weight moved by a simple root of the Levi: the quotient
    # is no longer W_S-stable, which the certificate catches
    original = reps.quotient_weights

    def shifted(P):
        qw = original(P)
        return [qw[0] + P.rs.simple_root(min(P.S))] + qw[1:]

    monkeypatch.setattr(reps, "quotient_weights", shifted)
    check = _failed_check(capsys, ["dims", "verify", "--type", "A3", "--s", "1,3"],
                          "dims.identity")
    assert check["status"] == "fail"
    assert "does not permute the quotient weights" in check["witness"]["error"]


def test_dims_identity_fails_on_a_bumped_multiplicity(capsys, monkeypatch):
    # one S-dominant Freudenthal multiplicity raised by one: the module's
    # dimension no longer meets Weyl's formula
    original = reps.levi_weight_multiplicities
    bumped = []

    def bump_one(P, lam):
        dom = original(P, lam)
        if not bumped and len(dom) > 1:
            bumped.append(lam)
            dom[list(dom)[-1]] += 1
        return dom

    monkeypatch.setattr(reps, "levi_weight_multiplicities", bump_one)
    check = _failed_check(capsys, ["dims", "verify", "--type", "A3", "--s", "1,3"],
                          "dims.identity")
    assert bumped
    assert check["status"] == "fail"
    assert "Freudenthal and Weyl dimension disagree" in check["witness"]["error"]
