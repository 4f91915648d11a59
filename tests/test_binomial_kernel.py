"""The cyclotomic kernel (each Phi_j as binomials x^d - 1 with Mobius
exponents) and the cross-cancelled QRatio products and sums over the lcm,
against the algorithms they replaced (tests/oracles.py) and a reduction by
the polynomial gcd."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvexact import gv
from gvexact.qalgebra import QLaurent, QRatio, _phi_power, _times_phis, cyclotomic, mobius
from oracles import (
    cyclotomic_oracle,
    inverse,
    phi_power_oracle,
    ratio,
    ratio_add_oracle,
    ratio_mul_oracle,
)

P = QLaurent({-3: 2, 0: -1, 4: 5, 7: 1})  # divisible by no Phi_j with j <= 60


def test_cyclotomics_match_the_divisor_chain():
    for n in range(1, 61):
        assert cyclotomic(n) == cyclotomic_oracle(n), n
    with pytest.raises(ValueError):
        cyclotomic(0)


@pytest.mark.parametrize("j", range(1, 61))
def test_every_product_and_quotient_of_one_phi_power(j):
    for e in range(1, 4):
        power = phi_power_oracle(((j, e),))
        assert _phi_power(((j, e),)) == power
        assert _times_phis(P, ((j, e),)) == P * power
        for f in range(e + 1):
            assert _times_phis(P * power, ((j, -f),)) == P * phi_power_oracle(((j, e - f),))
    assert _times_phis(P, ((j, 2), (j, -2))) == P


def test_products_and_quotients_of_two_phi_powers():
    for i in range(1, 25):
        for j in range(i + 1, 25):
            for a in range(1, 4):
                for b in range(1, 4):
                    pi, pj = phi_power_oracle(((i, a),)), phi_power_oracle(((j, b),))
                    assert _phi_power(((i, a), (j, b))) == pi * pj
                    # Phi_i^a up and Phi_j^b down, in one call
                    assert _times_phis(P * pj, ((i, a), (j, -b))) == P * pi, (i, a, j, b)


def test_an_inexact_quotient_raises():
    for j in range(1, 61):
        square = P * phi_power_oracle(((j, 2),))
        for p, factors in ((P, ((j, -1),)),
                           (square, ((j, -3),)),
                           (square + QLaurent.monomial(1), ((j, -1),)),
                           (square, ((j, -2), (j + 1, -1)))):
            with pytest.raises(ValueError):
                _times_phis(p, factors)


def test_mobius_has_one_home():
    assert gv.mobius is mobius
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=300)

laurents = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=4).map(QLaurent)


def phi_product(c: int, e: int, js: list[int]) -> QLaurent:
    out = QLaurent.monomial(e, c)
    for j in js:
        out = out * cyclotomic_oracle(j)
    return out


# c x^e prod Phi_j: integer content when |c| > 1, a constant den when js is empty
phi_products = st.builds(
    phi_product,
    st.integers(-9, 9).filter(bool),
    st.integers(-6, 6),
    st.lists(st.integers(1, 12), max_size=4),
)
# numerators that share Phi_j with the other operand's denominator
numerators = st.one_of(
    laurents, phi_products, st.builds(lambda p, q: p * q, laurents, phi_products)
)
ratios = st.builds(ratio, numerators, phi_products)
divisors = st.builds(ratio, phi_products, phi_products)


def same(got: QRatio, *expect: QRatio) -> bool:
    return all(got.num == e.num and got.den == e.den for e in expect)


@PROPERTY
@given(ratios, ratios, divisors)
def test_products_and_sums_match_the_full_reduction(a, b, d):
    assert same(a * b, ratio_mul_oracle(a, b), ratio(a.num * b.num, a.den * b.den))
    full_sum = ratio(a.num * b.den + b.num * a.den, a.den * b.den)
    assert same(a + b, ratio_add_oracle(a, b), full_sum)
    assert same(a - b, ratio_add_oracle(a, -b))
    # equal denominators, and a sum that cancels to zero
    c = ratio(b.num, a.den)
    assert same(a + c, ratio_add_oracle(a, c), ratio(a.num + b.num, a.den))
    assert (a - a).is_zero() and (a - a).den.is_one()
    assert same(a * inverse(d), ratio(a.num * d.den, a.den * d.num))
    for unit in (QRatio.const(-3), QRatio(QLaurent.monomial(-2, 4)) * Fraction(1, 6)):
        assert same(a * unit, ratio_mul_oracle(a, unit))
        assert same(a + unit, ratio_add_oracle(a, unit))
