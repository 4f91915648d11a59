"""The framed cyclic trace that the def and matrix paths share: the matrix
path's Schur-basis trace of Gram matrices against the power-sum-basis
transfer-matrix trace it replaced (`oracles.z_coefficient_matrix_transfer`)
and the r-set sum before that (`oracles.z_coefficient_matrix_rsets`), the
Gram matrices against the vertex numerators, and the def path's trace of W
numerators against its r-tuple sum (`oracles.z_numerator_tuples`)."""

import copy
import math

import pytest

from gvexact.gv import PRESETS
from gvexact.partitions import enumerate_partitions, kappa, z_factor
from gvexact.qalgebra import QLaurent
from gvexact.schur_vertex import w_numerator
from gvexact.series import (
    _exact_quotient,
    build_z_series,
    degree_vectors,
    gram_matrix,
    z_coefficient_matrix,
    z_numerator,
)
from oracles import (
    transfer_matrix,
    z_coefficient_matrix_rsets,
    z_coefficient_matrix_transfer,
    z_numerator_tuples,
)

# sweep-wide benchmark gammas, r = 2 and r = 3 cases and the r = 4 surfaces;
# their degrees include zero entries such as (3, 0) and (2, 0, 0, 1, 0, 0)
TRACE_GAMMAS = [
    (2, 1, -1, 1),
    (1, -1, -1, 1, -2),
    (-2, 0, 2, 1, 0, -2),
    (-1, -2, 2, -1),
    (-2, -1, 2, 1, 2),
    (-1, 1, 2, 1, -1, -2),
    (0, -2),
    (-1, -1),
    (2, 2),
    PRESETS["P2"],
    PRESETS["F0"],
    PRESETS["F1"],
]


@pytest.mark.parametrize("gamma", TRACE_GAMMAS, ids=str)
def test_trace_matches_rset_sum(gamma):
    for d in degree_vectors(len(gamma), 4):
        assert z_coefficient_matrix(gamma, d) == z_coefficient_matrix_rsets(gamma, d), (gamma, d)


@pytest.mark.parametrize("gamma", TRACE_GAMMAS, ids=str)
def test_schur_trace_matches_transfer_trace(gamma):
    for d in degree_vectors(len(gamma), 5):
        assert z_coefficient_matrix(gamma, d) == z_coefficient_matrix_transfer(gamma, d), (gamma, d)


def test_gram_matrix_is_the_vertex_numerator():
    # G(m, n)[rho][sigma] = (-1)^(m+n) x^(-kappa(rho)-kappa(sigma)) w_numerator(rho, sigma),
    # a missing entry counting as 0, for m + n <= 8 and for m, n <= 5: the
    # signs cancel around the cycle, so framing slot i by q^((gamma_i+2) F2)
    # gives the def path's trace, and the def/matrix check compares the
    # skew-Schur eta-sum with the power-sum Gram contraction (column
    # orthogonality of the characters)
    for m, n in [(m, n) for m in range(9) for n in range(9) if m + n <= 8 or max(m, n) <= 5]:
        gram = gram_matrix(m, n)
        for rho in enumerate_partitions(m):
            for sigma in enumerate_partitions(n):
                w = w_numerator(rho, sigma).shifted(-kappa(rho) - kappa(sigma))
                want = -w if (m + n) % 2 else w
                assert gram.get(rho, {}).get(sigma, QLaurent.zero()) == want, (rho, sigma)


@pytest.mark.parametrize("gamma,cap", [(PRESETS["P2"], 12), (PRESETS["F0"], 6)], ids=str)
def test_matrix_path_agrees_with_def_to_its_cap(gamma, cap):
    zs = build_z_series(gamma, cap)
    for d in degree_vectors(len(gamma), cap):
        assert z_coefficient_matrix(gamma, d) == zs.get(d), d


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient(720, 36) == 20
    with pytest.raises(ArithmeticError):
        _exact_quotient(720, 7)


# every preset to |d| <= 5, the other trace gammas to 4, and three r = 2
# gammas to 6: r = 2 has no middle product, and a zero entry of d is a slot
# with the one state ()
DEF_TRACE_CAPS = {
    **{gamma: 4 for gamma in TRACE_GAMMAS},
    **{gamma: 5 for gamma in PRESETS.values()},
    (1, 1): 6,
    (0, -2): 6,
    (-1, -1): 6,
}


@pytest.mark.parametrize("gamma,cap", DEF_TRACE_CAPS.items(), ids=str)
def test_def_trace_matches_tuple_sum(gamma, cap):
    for d in degree_vectors(len(gamma), cap):
        assert z_numerator(gamma, d) == z_numerator_tuples(gamma, d), (gamma, d)


def test_slot_weight_is_an_integer():
    # d!^2 / (z(lam) z(mu) z(nu)) splits as d!/(z(lam) z(mu)) times d!/z(nu)
    for n in range(9):
        for k in range(n + 1):
            for lam in enumerate_partitions(k):
                for mu in enumerate_partitions(n - k):
                    assert math.factorial(n) % (z_factor(lam) * z_factor(mu)) == 0, (lam, mu)


@pytest.mark.parametrize("a", range(5))
def test_empty_slot_is_the_identity(a):
    # the empty slot's one Schur state () has kappa 0, so any framing q^(a F2)
    # leaves it alone, in the Schur basis as in the power-sum one
    assert gram_matrix(0, 0) == {(): {(): QLaurent.one()}}
    assert transfer_matrix(0, a, 0, 0) == {(): {(): QLaurent.one()}}


def test_cached_gram_matrices_are_not_changed_by_the_trace():
    # gram_matrix is memoized, so its dicts are shared between calls and
    # gammas; a trace that wrote into them would change later results
    gamma, d = (-1, 1, 2, 1, -1, -2), (1, 2, 0, 1, 0, 0)
    r = len(gamma)
    keys = [(d[i], d[(i + 1) % r]) for i in range(r)]
    first = z_coefficient_matrix(gamma, d)
    cached = {key: copy.deepcopy(gram_matrix(*key)) for key in keys}
    assert z_coefficient_matrix(gamma, d) == first
    for key, mat in cached.items():
        assert gram_matrix(*key) == mat, key
    assert first == z_coefficient_matrix_transfer(gamma, d)
    # the def path's matrices hold references into the w_numerator cache
    pairs = [(lam, lamp) for i in range(r) for lam in enumerate_partitions(d[i])
             for lamp in enumerate_partitions(d[(i + 1) % r])]
    cached = {pair: copy.deepcopy(w_numerator(*pair)) for pair in pairs}
    first = z_numerator(gamma, d)
    assert z_numerator(gamma, d) == first
    for pair, w in cached.items():
        assert w_numerator(*pair) == w, pair
    assert first == z_numerator_tuples(gamma, d)
