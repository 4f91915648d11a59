import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gvexact.gv import PRESETS, integrality_report
from gvexact.qalgebra import QLaurent, QRatio, degree_denominator, t_k_qratio
from gvexact.series import (
    DegreeSeries,
    _cofactor,
    _mul_add,
    _reduce,
    build_z_series,
    cyclic_runs,
    degree_vectors,
    downward_closure,
    f_connected,
    z_coefficient_graphs,
    z_coefficient_matrix,
)
from oracles import every_degree_series, qbinomial, z_coefficient_graphs_oracle

ONE = QRatio.one()
T = t_k_qratio(1)


def test_hand_oracles():
    assert build_z_series((1, 1, 1), 1).get((1, 0, 0)) == -(ONE / T)
    for g1 in (-1, 0, 1):
        for g2 in (-2, 1, 2):
            expect = (ONE + ONE / T) * (ONE + ONE / T) * ((-1) ** abs(g1 + g2))
            assert build_z_series((g1, g2), 2).get((1, 1)) == expect
    # single-box degree: always +-1/t
    for gamma in [(1, 1, 1), (0, -2), (2, 2, 0, 1)]:
        r = len(gamma)
        zs = build_z_series(gamma, 1)
        for i in range(r):
            d = tuple(1 if j == i else 0 for j in range(r))
            expect = (ONE / T) * ((-1) ** abs(gamma[i]))
            assert zs.get(d) == expect


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
        zs = build_z_series(gamma, cap)
        for d in degree_vectors(len(gamma), cap):
            assert zs.get(d) == z_coefficient_matrix(gamma, d), (gamma, d)


def test_all_forest_sum_equals_z():
    for gamma in [(1, 1), (-1, -1), (1, 1, 1)]:
        zs = build_z_series(gamma, 3)
        for d in degree_vectors(len(gamma), 3):
            assert z_coefficient_graphs(gamma, d) == zs.get(d)


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
    z.set_numerator((1, 0), T.num + QLaurent.one())  # c times D_(1,0) = [1]^2
    f = z.log()
    expect, power = {}, ONE
    for k in range(1, 6):
        power = power * c
        expect[k, 0] = power * QRatio.const((-1) ** (k + 1)) / k
    assert f.coefficients == expect


def log_oracle(z: DegreeSeries) -> dict:
    """The QRatio Euler recursion that DegreeSeries.log replaced:
    |d| F_d = |d| Z_d - sum_{0<e<d} |e| F_e Z_(d-e), one gcd per operation."""
    out = {}
    weighted = {}  # |e| F_e
    for d in degree_vectors(z.r, z.max_total):
        try:
            acc = z.get(d) * sum(d)  # every kept degree, not one per orbit
        except KeyError:
            continue
        for e, fe in weighted.items():
            rest = tuple(a - b for a, b in zip(d, e))
            if min(rest) >= 0:  # below a kept d, so kept; a zero Z adds nothing
                acc = acc - fe * z.get(rest)
        if not acc.is_zero():
            weighted[d] = acc
            out[d] = acc / sum(d)
    return out


@pytest.mark.parametrize(
    "gamma, cap, degrees",
    [
        (PRESETS["P2"], 5, None),
        (PRESETS["F0"], 4, None),
        (PRESETS["B2"], 3, None),
        (PRESETS["B3"], 3, None),
        ((0, -2), 5, None),
        ((-1, -1), 5, None),
        (PRESETS["P2"], 6, [(2, 2, 2), (1, 1, 0)]),
    ],
    ids=["P2", "F0", "B2", "B3", "0,-2", "-1,-1", "P2-support"],
)
def test_integer_log_matches_ratio_recursion(gamma, cap, degrees):
    zs = build_z_series(gamma, cap, degrees=degrees)
    expect = log_oracle(zs)
    assert expect and zs.log().coefficients == expect


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


@pytest.mark.parametrize("gamma", [(1, 1), (-1, -1), (0, -2)])
def test_connected_forest_sum_matches_the_ratio_sum(gamma):
    # one reduction over every forest's exponent vector == a QRatio sum of reduced H(W)
    nonzero = 0
    for d in degree_vectors(2, 4):
        got = f_connected(gamma, d)
        assert got == z_coefficient_graphs_oracle(gamma, d, connected_only=True), d
        nonzero += not got.is_zero()
    assert nonzero > 5


def test_cyclic_symmetry_for_constant_gamma():
    # each series holds d, or its rotation, alone with what lies below, so
    # the two traces are taken apart
    gamma = (1, 1, 1)
    for d in degree_vectors(3, 3):
        rot = (d[1], d[2], d[0])
        assert build_z_series(gamma, 3, [d]).get(d) == build_z_series(gamma, 3, [rot]).get(rot)


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


def test_reports_reduce_no_coefficient():
    # the def path reads numerators only; a ratio is made when it is read
    _reduce.cache_clear()
    zs = build_z_series(PRESETS["P2"], 4)
    fs = zs.log()
    for d in degree_vectors(3, 4):
        assert integrality_report(PRESETS["P2"], d, fs).integral
    info = _reduce.cache_info()
    assert info.hits == info.misses == info.currsize == 0
    d = (2, 1, 0)
    assert fs.get(d) == QRatio(fs.numerator(d), degree_denominator(d) * QLaurent.const(3))
    # one reduction for the whole orbit: every orbit-mate reads the same ratio
    assert all(fs.get(e) is fs.get(d) for e in itertools.permutations(d))
    info = _reduce.cache_info()
    assert info.misses == info.currsize == 1 and info.hits == 2 * 6


def test_strict_coefficient_lookup():
    zs = build_z_series((1, 1), 2)
    assert QRatio(zs.numerator((1, 0)), degree_denominator((1, 0))) == zs.get((1, 0))
    assert DegreeSeries(2, 2).numerator((1, 1)).is_zero()  # kept, but zero
    with pytest.raises(KeyError):
        zs.numerator((3, 0))  # beyond the truncation


def test_strict_ratio_lookup():
    zs = build_z_series(PRESETS["P2"], 3, degrees=[(2, 1, 0)])
    assert zs.get((1, 1, 0)) == build_z_series(PRESETS["P2"], 2).get((1, 1, 0))
    z = DegreeSeries(2, 2)
    assert z.get((1, 1)).is_zero() and z.get((0, 0)).is_zero()  # kept, but zero
    fs = zs.log()
    for d in [(2, 2, 0),  # beyond the cap
              (0, 0, 1)]:  # inside the cap, outside the support
        with pytest.raises(KeyError):
            zs.get(d)
        with pytest.raises(KeyError):
            fs.get(d)


@pytest.mark.parametrize("d", [(1, 0), (2, -1, 0), (1, 0, 0, 0), (0, 0)])
def test_malformed_degree_is_a_key_error(d):
    # a degree of the wrong length or with a negative entry is no kept degree,
    # not a silent zero, and the integer report refuses it too
    fs = build_z_series((1, 1, 1), 3).log()
    for read in (fs.key, fs.numerator, fs.get):
        with pytest.raises(KeyError):
            read(d)
    if any(d):
        with pytest.raises(KeyError):
            integrality_report((1, 1, 1), d, fs)


def test_degree_vector_order_is_graded_lex():
    got = list(degree_vectors(2, 2))
    assert got == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_cofactor_is_the_product_of_squared_binomials():
    # one builder call, cached on its sorted q-numbers, so the permutations
    # of a pair list share one value
    for d in [(3, 0, 2), (2, 2, 1, 0), (4, 1), (1, 1, 1)]:
        for e in itertools.product(*(range(x + 1) for x in d)):
            expect = QLaurent.one()
            for di, ei in zip(d, e):
                b = qbinomial(di, ei)
                expect = expect * b * b
            assert _cofactor(d, e) == expect, (d, e)
            assert _cofactor(d[::-1], e[::-1]) == expect, (d, e)
    assert _cofactor((3, 2), (3, 0)).is_one()


int_dicts = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=5)


@given(int_dicts, int_dicts.map(QLaurent), int_dicts.map(QLaurent), st.integers(-5, 5))
@example({0: 0, 2: -3}, QLaurent.zero(), QLaurent({1: 2}), 3)
@example({0: 0, -1: 5}, QLaurent({-1: 2, 4: -1}), QLaurent.zero(), -2)
def test_mul_add_adds_the_shifted_product(acc, a, b, shift):
    # acc may hold zeros and negative values; it is changed in place
    out = dict(acc)
    _mul_add(out, a, b, shift)
    assert QLaurent(out) == QLaurent(acc) + (a * b).shifted(shift)
    if shift == 0:
        plain = dict(acc)
        _mul_add(plain, a, b)
        assert plain == out


@pytest.mark.parametrize("d, runs", [
    ((1, 0, 0, 2), [(1, 0, 0, 2)]),  # wraps around the cycle
    ((1, 2, 3, 4), [(1, 2, 3, 4)]),
    ((0, 0, 3, 0), [(0, 0, 3, 0)]),
    ((1, 0, 1, 0), [(0, 0, 1, 0), (1, 0, 0, 0)]),
    ((2, 0, 1, 0, 1, 0), [(0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0), (2, 0, 0, 0, 0, 0)]),
    ((1, 1, 0, 2, 0, 1), [(0, 0, 0, 2, 0, 0), (1, 1, 0, 0, 0, 1)]),
    ((1, 0, 2), [(1, 0, 2)]),  # r = 3: every support is one run
], ids=str)
def test_cyclic_runs(d, runs):
    assert cyclic_runs(d) == runs
    assert tuple(map(sum, zip(*runs))) == d  # the runs partition d's support


@pytest.mark.parametrize("gamma", [
    PRESETS["F0"], PRESETS["F1"], PRESETS["B2"], PRESETS["B3"], (-2, 0, 2, 1, 0, -2),
], ids=str)
def test_split_degrees_factor_on_the_full_computation(gamma):
    # on the full trace and full box at every degree, not on the engine's split:
    # Z_d is the product over d's cyclic runs, and F_d = 0 off one-run supports
    zs, fs = every_degree_series(gamma, 4)
    split = [d for d in degree_vectors(len(gamma), 4) if len(cyclic_runs(d)) > 1]
    assert split
    for d in split:
        prod = QLaurent.one()
        for run in cyclic_runs(d):
            prod = prod * zs.numerator(run)
        assert zs.numerator(d) == prod, d
        assert fs.numerator(d).is_zero(), d


def test_matrix_and_def_share_one_reduction():
    gamma = (-2, 0, 2, 1, 0, -2)
    zs = build_z_series(gamma, 3)
    for d in [(1, 1, 1, 0, 0, 0), (0, 2, 0, 0, 0, 1), (1, 0, 1, 0, 1, 0)]:
        m = z_coefficient_matrix(gamma, d)
        assert m is zs.get(d), d  # equal numerators: one reduction, one shared ratio
    d = (1, 1, 1, 0, 0, 0)
    num = zs.numerator(d)
    e = num.max_exp()
    changed = QLaurent({**num.coeffs, e: num.coeffs[e] + 1})
    shape = (1, 1, 1)
    assert _reduce(1, shape, num) is zs.get(d)
    assert _reduce(1, shape, changed) != zs.get(d)
    assert _reduce(1, shape, changed) == QRatio(changed, degree_denominator(d))
    assert _reduce(3, shape, num) != zs.get(d)  # the weight is part of the key
