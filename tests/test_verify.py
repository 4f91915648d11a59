import re

import pytest

from gvexact import cli, verify
from gvexact.qalgebra import NoSuchDecomposition, QLaurent, QRatio, cyclotomic
from gvexact.verify import SUITES, VerificationFailure, check_free_energy_poles, run_suites


def test_suite_names():
    assert set(SUITES) == {
        "vev-oracle",
        "exp-formula",
        "pole-structure",
        "q-lemmas",
        "rset-sanity",
        "free-energy-poles",
    }


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


def test_fast_suites_pass():
    results = run_suites(["vev-oracle", "rset-sanity"])
    assert all(ok for _, ok, _ in results)


def test_crashing_suite_is_a_failure(monkeypatch):
    def crash():
        raise NoSuchDecomposition("modular remainder is not a constant")

    monkeypatch.setitem(verify.SUITES, "q-lemmas", crash)
    results = run_suites(["q-lemmas", "rset-sanity"])
    assert results[0] == (
        "q-lemmas", False, "NoSuchDecomposition: modular remainder is not a constant"
    )
    assert results[1][:2] == ("rset-sanity", True)


def test_verify_runs_the_scaled_forest_checks(capsys):
    assert cli.main(["verify", "--suite", "pole-structure"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("pole-structure: PASS")
    assert int(re.search(r"\((\d+) scaled checks\)", line).group(1)) > 0


def test_free_energy_poles_suite_reads_one_degree_per_orbit(capsys):
    assert cli.main(["verify", "--suite", "free-energy-poles"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("free-energy-poles: PASS")
    reps, degrees = map(int, re.search(r"at (\d+) orbit representatives of (\d+) degrees",
                                       line).groups())
    assert 0 < reps < degrees == 83 + 69 + 69 + 27  # P2 cap 6, F0 and F1 cap 4, (0,-2) cap 6


def over(*factors) -> QRatio:
    den = QLaurent.one()
    for j in factors:
        den = den * cyclotomic(j)
    return QRatio(QLaurent.const(3), den)


def test_free_energy_pole_check():
    check_free_energy_poles((2, 1, 0), over(1, 1, 2, 2))  # Phi_1^2 Phi_2^2: j | 2
    check_free_energy_poles((3, 3, 0), over(1, 3, 3, 6, 6, 2))  # j | 6 at gcd 3
    for d, f in [((2, 1, 0), over(3)),  # a Phi_3 pole at gcd(d) = 1
                 ((1, 1, 1), over(1, 1, 1)),  # Phi_1^3: order above 2
                 ((2, 2, 0), over(3, 3))]:  # 3 does not divide 2 gcd = 4
        with pytest.raises(VerificationFailure):
            check_free_energy_poles(d, f)
