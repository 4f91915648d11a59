"""The framed cyclic trace that the def and matrix paths share: the matrix
path's transfer-matrix trace against the r-set sum it replaced
(`oracles.z_coefficient_matrix_rsets`), and the def path's trace of W
numerators against its r-tuple sum (`oracles.z_numerator_tuples`)."""

import copy
import math

import pytest

from gvexact.gv import PRESETS
from gvexact.partitions import enumerate_partitions, z_factor
from gvexact.qalgebra import QLaurent
from gvexact.schur_vertex import w_numerator
from gvexact.series import degree_vectors, transfer_matrix, z_coefficient_matrix, z_numerator
from oracles import z_coefficient_matrix_rsets, z_numerator_tuples

# sweep-wide benchmark gammas, r = 2 and r = 3 cases and the r = 4 surfaces,
# each to |d| <= 4 (the matrix path's cap); that includes degrees with zero
# entries such as (3, 0) and (2, 0, 0, 1, 0, 0)
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
    assert transfer_matrix(0, a, 0, 0) == {(): {(): QLaurent.one()}}


def test_cached_transfer_matrices_are_not_changed_by_the_trace():
    # transfer_matrix is memoized, so its dicts are shared between calls and
    # gammas; a trace that wrote into them would change later results
    gamma, d = (-1, 1, 2, 1, -1, -2), (1, 2, 0, 1, 0, 0)
    first = z_coefficient_matrix(gamma, d)
    cached = {key: copy.deepcopy(transfer_matrix(*key)) for key in cached_keys(gamma, d)}
    assert z_coefficient_matrix(gamma, d) == first
    for key, mat in cached.items():
        assert transfer_matrix(*key) == mat, key
    assert z_coefficient_matrix(gamma, d) == z_coefficient_matrix_rsets(gamma, d)
    # the def path's matrices hold references into the w_numerator cache
    r = len(gamma)
    pairs = [(lam, lamp) for i in range(r) for lam in enumerate_partitions(d[i])
             for lamp in enumerate_partitions(d[(i + 1) % r])]
    cached = {pair: copy.deepcopy(w_numerator(*pair)) for pair in pairs}
    first = z_numerator(gamma, d)
    assert z_numerator(gamma, d) == first
    for pair, w in cached.items():
        assert w_numerator(*pair) == w, pair
    assert first == z_numerator_tuples(gamma, d)


def cached_keys(gamma, d):
    r = len(gamma)
    caps = [min(d[i - 1], d[i]) for i in range(r)]
    return [(d[i], gamma[i] + 2, caps[i], caps[(i + 1) % r]) for i in range(r)]
