import pytest

from gvexact import verify
from gvexact.qalgebra import NoSuchDecomposition
from gvexact.verify import SUITES, run_suites


def test_suite_names():
    assert set(SUITES) == {
        "vev-oracle",
        "exp-formula",
        "pole-structure",
        "q-lemmas",
        "rset-sanity",
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
