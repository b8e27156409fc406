"""Every check can fail: each test plants one defect, and the check that
guards against it must report `fail`, with exit code 1 and no traceback."""
from __future__ import annotations

import json

import pytest

from qbgg import bgg, qsphere, reps, verma
from qbgg.bgg import TensorFiber
from qbgg.cartan import ParabolicData
from qbgg.cli import DISPATCH, build_parser, main
from qbgg.qfield import CertificationError, RatFunc, add_into
from qbgg.uqalg import UqAlgebra
from qbgg.verma import StandardMapFamily
from qbgg.weyl import BruhatGraph


def _failed_report(capsys, argv) -> dict:
    """The checks of a failed report by check id."""
    code = main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    report = json.loads(captured.out)
    assert code == 1
    assert report["status"] == "fail"
    return {c["check_id"]: c for c in report["checks"]}


def _failed_check(capsys, argv, check_id):
    return _failed_report(capsys, argv)[check_id]


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


def test_dims_incomparability_fails_on_a_raised_alpha_s_coefficient(capsys, monkeypatch):
    # every arrow's dot-point difference reads one more alpha_s than it has:
    # the arrows no longer step by exactly one along the crossed node
    original = ParabolicData.alpha_s_coefficient
    monkeypatch.setattr(ParabolicData, "alpha_s_coefficient",
                        lambda self, w: original(self, w) + 1)
    checks = _failed_report(capsys, ["dims", "verify", "--type", "A3", "--s", "1,3"])
    assert checks["dims.incomparability"]["status"] == "fail"
    assert checks["dims.incomparability"]["witness"]["ok"] is False
    assert checks["dims.identity"]["status"] == "pass"


def test_podles_calculus_fails_on_a_wrong_determinant_coefficient(capsys, monkeypatch):
    # the normal form rewrites ad as 1 + q^{-2} bc instead of 1 + q^{-1} bc:
    # products of mixed a/d words no longer pair like their words
    def normalize(m, coeff, out):
        i, j, k, l = m
        if i == 0 or l == 0:
            add_into(out, {m: coeff})
            return
        f = coeff * RatFunc.q_power(-(j + k))
        normalize((i - 1, j, k, l - 1), f, out)
        normalize((i - 1, j + 1, k + 1, l - 1), f * RatFunc.q_power(-2), out)

    monkeypatch.setattr(qsphere, "_normalize", normalize)
    check = _failed_check(capsys, ["podles", "demo"], "podles.calculus")
    assert check["status"] == "fail"
    assert check["witness"]["relations"]["products_match_pairing"] is False


def test_podles_calculus_fails_on_a_misplaced_coproduct_factor(capsys, monkeypatch):
    # E picks up K on the earlier tensor factors instead of the later ones:
    # the pairing no longer respects the rewriting relations
    original = qsphere._apply

    def apply(vec, letter):
        if letter != "E":
            return original(vec, letter)
        out: dict = {}
        for J, c in vec.items():
            wts = [1 if j == 1 else -1 for j in J]
            for s, j in enumerate(J):
                if j == 2:
                    add_into(out, {J[:s] + (1,) + J[s + 1:]:
                                   c * RatFunc.q_power(sum(wts[:s]))})
        return out

    monkeypatch.setattr(qsphere, "_apply", apply)
    check = _failed_check(capsys, ["podles", "demo"], "podles.calculus")
    assert check["status"] == "fail"
    relations = check["witness"]["relations"]
    assert relations["rewrites_match_pairing"] is False
    assert relations["degree2_kernel_dim"] == 4


def test_podles_calculus_fails_on_a_rescaled_k_factor(capsys, monkeypatch):
    # K^e read as q^{e (wt J + k)}: every word's column is scaled by q^{-e k},
    # which keeps every linear relation among the rows; only the degree-one
    # anchor against the two-dimensional representation sees it
    original = qsphere.pair_row

    def rescaled(letters, max_step):
        n = max_step + 1
        return {pos: v * RatFunc.q_power(
                    -(pos // n % (2 * max_step + 1) - max_step) * (pos % n))
                for pos, v in original(letters, max_step).items()}

    monkeypatch.setattr(qsphere, "pair_row", rescaled)
    check = _failed_check(capsys, ["podles", "demo"], "podles.calculus")
    relations = check["witness"]["relations"]
    assert relations["ok"] is False
    assert relations["rewrites_match_pairing"] is True
    assert relations["products_match_pairing"] is True
    assert relations["degree2_kernel_dim"] == 6


def test_double_lines_fail_on_a_scaled_fiber_entry(capsys, monkeypatch):
    # one entry of F_1's matrix on each tensor fiber doubled: the absorption
    # relations then kill a vector that survives in the module, so a slice
    # falls below the product-character oracle.  A smaller quotient only
    # makes the commutators of `double.anticommute` reduce to zero more
    # easily; it fails because every slice it builds meets the oracle too
    original = TensorFiber.generator_matrix

    def scaled_entry(self, letter):
        mat = original(self, letter)
        c = next((c for c, col in enumerate(mat) if col), None)
        if letter != ("F", 1) or c is None:
            return mat
        k, v = next(iter(mat[c].items()))
        return mat[:c] + [{**mat[c], k: v * RatFunc.from_int(2)}] + mat[c + 1:]

    monkeypatch.setattr(TensorFiber, "generator_matrix", scaled_entry)
    checks = _failed_report(capsys, ["double", "verify", "--type", "A2",
                                     "--s", "1", "--box", "1,1"])
    for check_id, oracle in (("double.anticommute", 4), ("double.rows", 1),
                             ("double.columns", 1)):
        assert checks[check_id]["status"] == "fail"
        assert checks[check_id]["witness"] == {
            "error": "TruncationError: slice dim 0 differs from oracle %d" % oracle}


def test_double_checks_fail_on_a_window_oracle_one_too_large(capsys, monkeypatch):
    # the double complex's partition table reads one more at every nonzero
    # content it lists.  The module slices read `verma`'s binding and still
    # meet their own certificate, so set-up passes, and every slice the
    # three checks build then differs from its oracle: the oracle is a check
    # of its own, not a count of the window's cells
    original = bgg.partition_counts
    monkeypatch.setattr(bgg, "partition_counts", lambda roots, top: {
        c: m + any(c) for c, m in original(roots, top).items()})
    checks = _failed_report(capsys, ["double", "verify", "--type", "A2",
                                     "--s", "1", "--box", "1,1"])
    assert "setup" not in checks
    for check_id, dim, oracle in (("double.anticommute", 3, 9), ("double.rows", 1, 2),
                                  ("double.columns", 1, 2)):
        assert checks[check_id]["status"] == "fail"
        assert checks[check_id]["witness"] == {
            "error": "TruncationError: slice dim %d differs from oracle %d" % (dim, oracle)}


def test_bgg_build_fails_on_a_doubled_singular_vector(capsys, monkeypatch):
    # the singular space of an arrow reads as two-dimensional, so its
    # standard map is not determined up to scale
    original = verma.singular_vectors

    def first_twice(family, beta):
        sv = original(family, beta)
        return sv[:1] + sv

    monkeypatch.setattr(verma, "singular_vectors", first_twice)
    check = _failed_check(capsys, ["bgg", "build", "--type", "A2", "--s", "1"], "bgg.build")
    assert check["witness"] == {"error": "CertificationError: singular space at "
                                         "arrow e -> s2 has dimension 2"}


def test_bgg_squared_zero_fails_on_a_flipped_standard_map(capsys, monkeypatch):
    # one map of a square negated after the squares are normalized: its two
    # composites then add up instead of cancelling
    original = StandardMapFamily._normalize_squares

    def flip_one(self):
        original(self)
        w1, w2 = self.G.squares[0][:2]
        key = (w1, w2)
        self.scaled[key] = {nw: -c for nw, c in self.scaled[key].items()}

    monkeypatch.setattr(StandardMapFamily, "_normalize_squares", flip_one)
    check = _failed_check(capsys, ["bgg", "verify", "--type", "A3", "--s", "1,3",
                                   "--height", "1"], "bgg.squared_zero")
    assert check["status"] == "fail"
    assert [c for c in check["witness"]["composites"] if not c["zero"]]


def test_bgg_exactness_fails_on_a_zero_standard_map(capsys, monkeypatch):
    # one standard map replaced by zero: the ranks fall short of exactness
    original = StandardMapFamily._normalize_squares

    def zero_one(self):
        original(self)
        a = self.G.arrows[0]
        self.scaled[(a.source, a.target)] = {}

    monkeypatch.setattr(StandardMapFamily, "_normalize_squares", zero_one)
    checks = _failed_report(capsys, ["bgg", "verify", "--type", "A2", "--s", "1",
                                     "--height", "2"])
    exactness = checks["bgg.exactness"]
    assert exactness["status"] == "fail"
    assert [s for s in exactness["witness"]["slices"] if not s["exact"]]
    # known limitation: a zero map composes to zero with anything, so
    # bgg.squared_zero cannot see this defect
    assert checks["bgg.squared_zero"]["status"] == "pass"


def test_weyl_signs_fails_on_a_flipped_arrow_sign(capsys, monkeypatch):
    # one arrow of a square changes sign after the signs are assigned and
    # certified: that square's product becomes +1
    original = BruhatGraph._assign_signs

    def flip_one(self):
        signs = original(self)
        w1, w2 = self.squares[0][:2]
        signs[(w1, w2)] *= -1
        return signs

    monkeypatch.setattr(BruhatGraph, "_assign_signs", flip_one)
    checks = _failed_report(capsys, ["weyl", "graph", "--type", "A3", "--s", "1,3"])
    assert checks["weyl.signs"]["status"] == "fail"
    assert checks["weyl.signs"]["witness"] == {"squares_checked": 1}


def test_bgg_verify_fails_on_a_tail_one_letter_too_long(capsys, monkeypatch):
    # every module drops the words that end in F_i^{m_i + 2} instead of
    # F_i^{m_i + 1}: its slices are larger than the induced character
    original = verma.SliceFamily.__init__

    def longer(self, *args):
        original(self, *args)
        self.tails = tuple(t + t[:1] for t in self.tails)

    monkeypatch.setattr(verma.SliceFamily, "__init__", longer)
    check = _failed_check(capsys, ["bgg", "verify", "--type", "C3", "--s", "1,2",
                                   "--height", "3"], "setup")
    assert check["witness"]["error"].startswith("CertificationError: ")


@pytest.mark.parametrize("name,S", [("C3", "1,2"), ("A3", "1,3")])
def test_bgg_verify_fails_on_a_serre_coefficient_times_q(capsys, monkeypatch, name, S):
    # one coefficient of every quantum Serre relation is multiplied by q: the
    # module slices are no longer the modules' weight spaces, although no
    # Serre quotient of U_q(n-) alone is built for them
    original = UqAlgebra.serre_fword_elements

    def skewed(self, i, j):
        rel = original(self, i, j)
        first = min(rel)
        return {w: c * RatFunc.q_power(w == first) for w, c in rel.items()}

    monkeypatch.setattr(UqAlgebra, "serre_fword_elements", skewed)
    check = _failed_check(capsys, ["bgg", "verify", "--type", name, "--s", S,
                                   "--height", "3"], "setup")
    assert check["witness"]["error"].startswith("CertificationError: ")


def test_bgg_verify_fails_on_an_adjacent_pair_taken_to_commute(capsys, monkeypatch):
    # F_1 and F_2 of C3 are taken to commute: words that differ by swapping
    # adjacent letters 1 and 2 share a column, and their Serre rows are gone
    original = UqAlgebra.__init__

    def merged(self, rs):
        original(self, rs)
        self.free[1].add(2)
        self.free[2].add(1)

    monkeypatch.setattr(UqAlgebra, "__init__", merged)
    check = _failed_check(capsys, ["bgg", "verify", "--type", "C3", "--s", "1,2",
                                   "--height", "3"], "setup")
    assert check["witness"]["error"].startswith("CertificationError: ")


def _planted(*args):
    raise CertificationError("planted")


@pytest.mark.parametrize("argv", [
    ["bgg", "verify", "--type", "A2", "--s", "1", "--height", "2"],
    ["double", "verify", "--type", "A1", "--s", "", "--box", "1,1"],
    ["all", "--type", "A1", "--s", ""],
])
def test_standard_maps_failing_during_setup_give_a_failed_report(
        capsys, monkeypatch, argv):
    # the commands build their standard maps before any check runs
    monkeypatch.setattr(StandardMapFamily, "_normalize_squares", _planted)
    check = _failed_check(capsys, argv, "setup")
    assert check["status"] == "fail"
    assert check["witness"] == {"error": "CertificationError: planted"}


def test_coset_signs_failing_during_setup_give_a_failed_report(capsys,
                                                               monkeypatch):
    monkeypatch.setattr(BruhatGraph, "_assign_signs", _planted)
    check = _failed_check(capsys, ["dims", "verify", "--type", "A3",
                                   "--s", "1,3"], "setup")
    assert check["status"] == "fail"
    assert check["witness"] == {"error": "CertificationError: planted"}


# check id -> the tests above in which a planted defect fails it
COVERED = {
    "dims.identity": ["test_dims_identity_fails_on_a_shifted_quotient_weight",
                      "test_dims_identity_fails_on_a_bumped_multiplicity"],
    "dims.incomparability": ["test_dims_incomparability_fails_on_a_raised_alpha_s_coefficient"],
    "podles.calculus": ["test_podles_calculus_fails_on_a_wrong_determinant_coefficient",
                        "test_podles_calculus_fails_on_a_misplaced_coproduct_factor",
                        "test_podles_calculus_fails_on_a_rescaled_k_factor"],
    "double.anticommute": ["test_double_lines_fail_on_a_scaled_fiber_entry",
                           "test_double_checks_fail_on_a_window_oracle_one_too_large"],
    "double.rows": ["test_double_lines_fail_on_a_scaled_fiber_entry",
                    "test_double_checks_fail_on_a_window_oracle_one_too_large"],
    "double.columns": ["test_double_lines_fail_on_a_scaled_fiber_entry",
                       "test_double_checks_fail_on_a_window_oracle_one_too_large"],
    "bgg.build": ["test_bgg_build_fails_on_a_doubled_singular_vector"],
    "bgg.squared_zero": ["test_bgg_squared_zero_fails_on_a_flipped_standard_map"],
    "bgg.exactness": ["test_bgg_exactness_fails_on_a_zero_standard_map"],
    "weyl.signs": ["test_weyl_signs_fails_on_a_flipped_arrow_sign"],
    "setup": ["test_standard_maps_failing_during_setup_give_a_failed_report",
              "test_coset_signs_failing_during_setup_give_a_failed_report",
              "test_bgg_verify_fails_on_a_tail_one_letter_too_long",
              "test_bgg_verify_fails_on_a_serre_coefficient_times_q",
              "test_bgg_verify_fails_on_an_adjacent_pair_taken_to_commute"],
}

# check ids that no planted defect fails yet, each with the reason
KNOWN_GAPS = {
    "cartan.info": "its thunk only formats objects built during setup, so a "
                   "defect there shows as `setup`",
    "weyl.graph": "its thunk only formats objects built during setup, so a "
                  "defect there shows as `setup`",
    "uq.pbw_dims": "the runtime check is exact in one direction only; a "
                   "mutation waits for a two-sided weight-space certificate",
}


def test_every_check_id_is_covered_or_a_known_gap():
    # the ids every request emits on A1, and `setup`, which `main` gives a
    # failure while building
    emitted = {"setup"}
    for (command, subcommand), (cmd, _) in DISPATCH.items():
        argv = [command] + ([subcommand] if subcommand else []) + ["--s", ""]
        emitted |= {check_id for check_id, _, _ in cmd(build_parser().parse_args(argv))}
    assert not COVERED.keys() & KNOWN_GAPS.keys()
    assert COVERED.keys() | KNOWN_GAPS.keys() == emitted
    assert all(callable(globals().get(name)) for names in COVERED.values() for name in names)
