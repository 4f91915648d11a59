"""The matrix-element path as a cyclic transfer-matrix trace, checked against
the r-set sum it replaced (`oracles.z_coefficient_matrix_rsets`)."""

import copy
import math

import pytest

from gvexact.gv import PRESETS
from gvexact.partitions import enumerate_partitions, z_factor
from gvexact.qalgebra import QLaurent
from gvexact.series import degree_vectors, transfer_matrix, z_coefficient_matrix
from oracles import z_coefficient_matrix_rsets

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


def cached_keys(gamma, d):
    r = len(gamma)
    caps = [min(d[i - 1], d[i]) for i in range(r)]
    return [(d[i], gamma[i] + 2, caps[i], caps[(i + 1) % r]) for i in range(r)]
