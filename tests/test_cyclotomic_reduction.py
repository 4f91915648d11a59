"""Z, F and matrix coefficients reduced over the cyclotomic factors of their
denominator (`qalgebra.qnum_ratio`), checked against the polynomial-gcd
reduction `oracles.ratio`."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvexact.gv import PRESETS
from gvexact.qalgebra import (
    QLaurent,
    QRatio,
    cyclotomic,
    degree_counts,
    degree_denominator,
    qnum,
    qnum_product,
    qnum_ratio,
)
from gvexact.series import (
    DegreeSeries,
    build_z_series,
    degree_vectors,
    z_coefficient_matrix,
)
from oracles import ratio

# the six gammas of the benchmark's sweep-wide workload at seed 0
SWEEP_GAMMAS = [
    (2, 1, -1, 1),
    (1, -1, -1, 1, -2),
    (-2, 0, 2, 1, 0, -2),
    (-1, -2, 2, -1),
    (-2, -1, 2, 1, 2),
    (-1, 1, 2, 1, -1, -2),
]
CASES = [(g, 4) for g in SWEEP_GAMMAS] + [(PRESETS["P2"], 6), (PRESETS["F0"], 4)]


def same(a: QRatio, b: QRatio) -> bool:
    return a.num == b.num and a.den == b.den


def const(v) -> QLaurent:
    return QLaurent.const(v)


@pytest.mark.parametrize("gamma,cap", CASES, ids=str)
def test_series_coefficients_match_gcd_reduction(gamma, cap):
    zs = build_z_series(gamma, cap)
    fs = zs.log()
    checked = 0
    # every degree, read through the orbit representative the series keys it on
    for d in degree_vectors(len(gamma), cap):
        zn = zs.numerator(d)
        if zn.is_zero():
            continue
        den = degree_denominator(d)
        assert same(zs.get(d), ratio(zn, den)), d
        # the matrix path's numerator, over D_d prod d_i!^2
        scale = math.prod(math.factorial(di) ** 2 for di in d)
        got = qnum_ratio(Fraction(1, scale), degree_counts(d), zn * const(scale))
        assert same(got, ratio(zn * const(scale), den * const(scale))), d
        checked += 1
    for d in degree_vectors(len(gamma), cap):
        fn = fs.numerator(d)
        if fn.is_zero():
            continue
        expect = ratio(fn, degree_denominator(d) * const(sum(d)))
        assert same(fs.get(d), expect), d
        checked += 1
    assert checked > 30


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)


@PROPERTY
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(-5, 5), max_size=5).map(QLaurent),
    st.dictionaries(st.integers(1, 12), st.integers(0, 3), max_size=3),
    st.dictionaries(st.integers(-6, 6).filter(bool), st.integers(-4, 2), max_size=4),
    st.fractions(max_denominator=12),
)
def test_random_numerators_match_gcd_reduction(p, phis, counts, c):
    num = p
    for j, e in phis.items():
        for _ in range(e):
            num = num * cyclotomic(j)
    top, bottom = const(c.numerator) * num, const(c.denominator)
    for k, e in counts.items():
        for _ in range(abs(e)):
            if e > 0:
                top = top * qnum(k)
            else:
                bottom = bottom * qnum(k)
    got = qnum_ratio(c, counts, num)
    expect = ratio(top, bottom)
    assert same(got, expect)
    assert got.den.min_exp() == 0 and got.den.coeffs[got.den.max_exp()] > 0


@PROPERTY
@given(
    st.dictionaries(st.integers(-8, 8), st.integers(-5, 5), max_size=5).map(QLaurent),
    st.lists(st.integers(1, 12), max_size=5),
)
def test_qnum_product_denominator_matches_the_oracle(num, ks):
    # a denominator of q-numbers, born factored, against the expanded product
    # reduced by the polynomial gcd and factored by trial division
    counts: dict[int, int] = {}
    for k in ks:
        counts[k] = counts.get(k, 0) - 1
    assert same(qnum_ratio(1, counts, num), ratio(num, qnum_product(ks)))


def test_coefficient_reads_take_no_gcd():
    # the reads come with q-number counts
    gamma = SWEEP_GAMMAS[0]
    zs = build_z_series(gamma, 4)
    fs = zs.log()
    z = {d: zs.get(d) for d in degree_vectors(4, 4) if zs.numerator(d)}
    f = {d: fs.get(d) for d in degree_vectors(4, 4) if fs.numerator(d)}
    m = {d: z_coefficient_matrix(gamma, d) for d in degree_vectors(4, 3)}
    zdef = {d: build_z_series(gamma, 2, [d]).get(d) for d in degree_vectors(4, 2)}
    assert len(z) > 30 and len(f) > 30
    for d, v in m.items():
        assert same(v, z[d]), d
        assert same(v, ratio(zs.numerator(d), degree_denominator(d))), d
    for d, v in zdef.items():
        assert same(v, z[d]), d
    for d, v in f.items():
        assert same(v, ratio(fs.numerator(d), degree_denominator(d) * const(sum(d)))), d


def test_zero_numerator():
    assert qnum_ratio(1, degree_counts((2, 1)), QLaurent.zero()).is_zero()
    assert qnum_ratio(Fraction(1, 3), {2: -1}, QLaurent.zero()).is_zero()
    with pytest.raises(ZeroDivisionError):
        qnum_ratio(1, {0: -1}, QLaurent.zero())  # a zero numerator hides no [0]
    zs = DegreeSeries(2, 2, weighted=True)
    zs.set_numerator((1, 1), QLaurent.zero())
    assert zs.get((1, 1)).is_zero()
    # a zero overwrites a stored numerator and its reduced ratio
    zs.set_numerator((1, 1), QLaurent.one())
    assert not zs.get((1, 1)).is_zero()
    zs.set_numerator((1, 1), QLaurent.zero())
    assert not zs.numerators and not zs.coefficients and zs.get((1, 1)).is_zero()


def test_negative_exponents_fold_modulo_j():
    # [3] = x^-3 Phi_1 Phi_2 Phi_3 Phi_6 and [4] = x^-4 Phi_1 Phi_2 Phi_4 Phi_8;
    # num reaches below x^0, and the fold modulo x^j - 1 must not depend on
    # where it starts
    for shift in (-11, -7, -3, 0, 5):
        for j in (3, 4, 6, 8):
            num = (cyclotomic(j) * QLaurent({0: 2, 3: -1, 5: 1})).shifted(shift)
            counts = {3: -2, 4: -1}
            got = qnum_ratio(1, counts, num)
            expect = ratio(num, qnum(3) * qnum(3) * qnum(4))
            assert same(got, expect), (shift, j)
            assert len(got.den.coeffs) > 1
    # divisible by nothing: the denominator stays whole
    num = QLaurent({-5: 1, -2: 2})  # x^-5 (1 + 2x^3)
    got = qnum_ratio(1, {3: -1}, num)
    assert same(got, ratio(num, qnum(3)))
    assert got.den == qnum(3).shifted(3)


def test_degrees_with_zero_entries():
    gamma = (-2, 0, 2, 1, 0, -2)
    zs = build_z_series(gamma, 3)
    fs = zs.log()
    for d in [(2, 0, 0, 1, 0, 0), (0, 3, 0, 0, 0, 0), (1, 0, 1, 0, 0, 1)]:
        assert degree_counts(d) == degree_counts(tuple(x for x in d if x))
        assert same(zs.get(d), ratio(zs.numerator(d), degree_denominator(d)))
        assert same(z_coefficient_matrix(gamma, d), zs.get(d))
        expect = ratio(fs.numerator(d), degree_denominator(d) * const(sum(d)))
        assert same(fs.get(d), expect)
    assert fs.get((2, 0, 0, 1, 0, 0)).is_zero()  # slots 1 and 4 are not adjacent
    assert not fs.get((1, 0, 0, 0, 0, 1)).is_zero()


def test_numerator_divisible_by_all_of_the_denominator():
    d = (2, 1, 0)
    rest = QLaurent({-1: 3, 2: -6})
    s = DegreeSeries(3, 3)
    s.set_numerator(d, degree_denominator(d) * rest)
    got = s.get(d)
    assert got.is_laurent() and got.den.is_one()
    assert got.num == rest


def test_weighted_degree_shares_content_with_numerator():
    d = (2, 1)  # |d| = 3
    s = DegreeSeries(2, 3, weighted=True)
    for num in (QLaurent({0: 6, 2: 3}),  # content 3, the weight
                QLaurent({0: 6, 2: -12}),  # content 6
                degree_denominator(d) * const(3),  # the whole denominator
                qnum(1) * qnum(1) * const(9)):
        s.set_numerator(d, num)
        got = s.get(d)
        assert same(got, ratio(num, degree_denominator(d) * const(3))), num
        assert math.gcd(*got.num.coeffs.values(), *got.den.coeffs.values()) == 1
    s.set_numerator(d, degree_denominator(d) * const(6))
    assert s.get(d) == QRatio.const(2)


def test_zero_and_zero_qnumber_branches_with_a_numerator():
    p = QLaurent({-2: 1, 1: 4})
    assert qnum_ratio(3, {0: 1, 2: -1}, p).is_zero()
    assert qnum_ratio(0, {2: -1}, p).is_zero()
    assert same(qnum_ratio(5, {0: 0, 1: 0}, p), ratio(p * const(5)))
    with pytest.raises(ZeroDivisionError):
        qnum_ratio(1, {0: -1, 2: 1}, p)
    # a positive count multiplies a non-monomial numerator too
    assert same(qnum_ratio(Fraction(2, 3), {2: 1, 1: -2}, p),
                ratio(p * qnum(2) * const(2), qnum(1) * qnum(1) * const(3)))
