import pytest

from gvexact.qalgebra import QRatio, t_k_qratio
from gvexact.series import (
    DegreeSeries,
    build_z_series,
    degree_vectors,
    downward_closure,
    f_connected,
    z_coefficient_def,
    z_coefficient_graphs,
    z_coefficient_matrix,
)

ONE = QRatio.one()
T = t_k_qratio(1)


def test_hand_oracles():
    assert z_coefficient_def((1, 1, 1), (1, 0, 0)) == -(ONE / T)
    for g1 in (-1, 0, 1):
        for g2 in (-2, 1, 2):
            expect = (ONE + ONE / T) ** 2 * ((-1) ** (g1 + g2))
            assert z_coefficient_def((g1, g2), (1, 1)) == expect
    # single-box degree: always +-1/t
    for gamma in [(1, 1, 1), (0, -2), (2, 2, 0, 1)]:
        r = len(gamma)
        for i in range(r):
            d = tuple(1 if j == i else 0 for j in range(r))
            expect = (ONE / T) * ((-1) ** gamma[i])
            assert z_coefficient_def(gamma, d) == expect


def test_def_equals_matrix():
    cases = [
        ((1, 1), 4),
        ((-1, -1), 4),
        ((0, -2), 3),
        ((2, 2), 3),
        ((1, 1, 1), 3),
        ((-1, 0, 2), 3),
        ((1, 0, -1, 0), 2),
    ]
    for gamma, cap in cases:
        for d in degree_vectors(len(gamma), cap):
            assert z_coefficient_def(gamma, d) == z_coefficient_matrix(gamma, d), (
                gamma,
                d,
            )


def test_all_forest_sum_equals_z():
    for gamma in [(1, 1), (-1, -1), (1, 1, 1)]:
        for d in degree_vectors(len(gamma), 3):
            assert z_coefficient_graphs(gamma, d) == z_coefficient_def(gamma, d)


def test_log_series_basics():
    z = DegreeSeries(2, 3)
    z.constant = ONE
    f = z.log()
    assert not f.coefficients and f.constant.is_zero()
    with pytest.raises(ValueError):
        DegreeSeries(2, 2).log()  # constant term 0


def test_log_visits_degrees_where_z_vanishes():
    # log(1 + cQ_1) = sum_k (-1)^(k+1) c^k Q_1^k / k
    c = ONE + ONE / T
    z = DegreeSeries(2, 5)
    z.constant = ONE
    z.set((1, 0), c)
    f = z.log()
    expect = {(k, 0): c**k * QRatio.const((-1) ** (k + 1)) / k for k in range(1, 6)}
    assert f.coefficients == expect


def test_log_series_low_degrees():
    gamma = (1, 1, 1)
    zs = build_z_series(gamma, 2)
    fs = zs.log()
    # minimal nonzero degree: F = Z
    assert fs.get((1, 0, 0)) == zs.get((1, 0, 0))
    # second order in one variable: F = Z - Z^2/2
    d1, d2 = (1, 0, 0), (2, 0, 0)
    z1, z2 = zs.get(d1), zs.get(d2)
    assert fs.get(d2) == z2 - z1 * z1 * QRatio.const(1) / 2
    # mixed second order: F_(1,1,0) = Z_(1,1,0) - Z_(1,0,0) Z_(0,1,0)
    assert fs.get((1, 1, 0)) == zs.get((1, 1, 0)) - zs.get((1, 0, 0)) * zs.get((0, 1, 0))


def test_log_equals_connected_forests():
    for gamma in [(1, 1), (-1, -1), (0, -2), (1, 1, 1)]:
        r = len(gamma)
        zs = build_z_series(gamma, 3)
        fs = zs.log()
        for d in degree_vectors(r, 3):
            assert f_connected(gamma, d) == fs.get(d), (gamma, d)


def test_cyclic_symmetry_for_constant_gamma():
    gamma = (1, 1, 1)
    for d in degree_vectors(3, 3):
        rot = (d[1], d[2], d[0])
        assert z_coefficient_def(gamma, d) == z_coefficient_def(gamma, rot)


def test_support_restriction_matches_full_series():
    gamma = (1, 1, 1)
    targets = [(2, 2, 2), (1, 1, 0)]
    zs = build_z_series(gamma, 6, degrees=targets)
    full = build_z_series(gamma, 4)
    for d in [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)]:
        assert zs.get(d) == full.get(d)
    fs = zs.log()
    ffull = full.log()
    for d in [(1, 1, 0), (2, 1, 1), (2, 2, 0)]:
        assert fs.get(d) == ffull.get(d)


def test_downward_closure():
    s = downward_closure([(2, 1)])
    assert s == {(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}


def test_strict_coefficient_lookup():
    zs = build_z_series((1, 1), 2)
    assert zs.coefficient((1, 0)) == zs.get((1, 0))
    with pytest.raises(KeyError):
        zs.coefficient((3, 0))  # beyond the truncation


def test_degree_vector_order_is_graded_lex():
    got = list(degree_vectors(2, 2))
    assert got == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
