import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvexact import qalgebra
from gvexact.partitions import enumerate_partitions, parts_gcd
from gvexact.qalgebra import (
    NoSuchDecomposition,
    NotSymmetricInT,
    QLaurent,
    QRatio,
    RPoly,
    _laurent,
    _phi_factors,
    cyclotomic,
    degree_denominator,
    format_qratio,
    pole_extract,
    qnum,
    qnum_product,
    qnum_ratio,
    qnum_sum,
    t_k_in_t,
    t_k_qratio,
    to_t_poly,
    to_y_poly,
    try_to_t_poly,
)
from oracles import (
    FractionRPoly,
    degree_denominator_chain,
    gcd_ratio,
    laurent_to_poly_oracle,
    phi_power_oracle,
    pole_extract_oracle,
    qbinomial,
    qfactorial,
    qlaurent_gcd,
    qnum_chain,
    ratio_add_oracle,
)


def q(k):
    return QRatio(qnum(k))


def test_qnum_examples():
    assert qnum(0).is_zero()
    assert qnum(1) == QLaurent({1: Fraction(1), -1: Fraction(-1)})
    for k in range(1, 8):
        assert qnum(-k) == -qnum(k)


def test_qnum_product():
    assert qnum_product(()) == QLaurent.one()
    assert qnum_product((1, 1)) == qnum(1) * qnum(1)
    assert qnum_product((2, 1)) == qnum(2) * qnum(1)


def test_equal_polynomials_hash_equal_however_built():
    # the hash is kept in a slot on first use; _laurent, which skips
    # __init__, starts that slot empty like __init__ does
    built = QLaurent({3: 2, -1: -5, 0: 0})
    wrapped = _laurent({-1: -5, 3: 2})
    summed = QLaurent.monomial(3, 2) + QLaurent.monomial(-1, -5)
    assert built == wrapped == summed
    assert hash(built) == hash(wrapped) == hash(summed) == hash(built)
    assert len({built, wrapped, summed}) == 1
    den = qnum(2) * qnum(3)
    assert _phi_factors(den) == _phi_factors(_laurent(dict(den.coeffs)))
    assert hash(QLaurent()) == hash(_laurent({})) == hash(QLaurent.zero())


def test_field_arith():
    inv1 = QRatio(QLaurent.one(), qnum(1))
    assert (inv1 + -inv1).is_zero()
    assert (q(2) / q(1)) * (q(1) / q(2)) == QRatio.one()
    div = q(6) / q(2)
    # polynomial-division oracle: [6]/[2] = q^2 + 1 + q^-2
    expect = QLaurent({4: Fraction(1), 0: Fraction(1), -4: Fraction(1)})
    assert div == QRatio(expect)
    with pytest.raises(ZeroDivisionError):
        q(1) / QRatio.zero()


def test_reduction_normalization():
    f = QRatio(qnum(2) * qnum(3), qnum(3) * qnum(1))
    g = QRatio(qnum(2), qnum(1))
    assert f == g
    # lowest exponent 0, positive lead, coefficient content 1 over num and den
    assert f.den.min_exp() == 0
    assert math.gcd(*f.num.coeffs.values(), *f.den.coeffs.values()) == 1
    assert f.den.coeffs[f.den.max_exp()] > 0


def test_substitute_power_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        a = QRatio(qnum(rng.randint(1, 5)), qnum(rng.randint(1, 4)))
        b = QRatio(qnum(rng.randint(1, 6))) + QRatio.const(rng.randint(-2, 2))
        m = rng.randint(1, 4)
        assert (a + b).substitute_power(m) == a.substitute_power(m) + b.substitute_power(m)
        assert (a * b).substitute_power(m) == a.substitute_power(m) * b.substitute_power(m)
    for k in range(1, 6):
        for m in range(1, 5):
            assert QRatio(qnum(k)).substitute_power(m) == QRatio(qnum(k * m))
    inv1 = QRatio(QLaurent.one(), qnum(1))
    assert inv1.substitute_power(2) == QRatio(QLaurent.one(), qnum(2))


def test_to_t_poly_examples():
    qq = QRatio(QLaurent({2: Fraction(1), -2: Fraction(1)}))
    assert to_t_poly(qq) == RPoly([2, 1])
    f = (q(3) / q(1)) * (q(3) / q(1))
    assert to_t_poly(f) == RPoly([9, 6, 1])
    assert to_t_poly(QRatio.one()) == RPoly([1])
    with pytest.raises(NotSymmetricInT):
        to_t_poly(QRatio(qnum(1)))  # antisymmetric
    with pytest.raises(NotSymmetricInT):
        to_t_poly(QRatio(QLaurent.one(), qnum(1) * qnum(1)))  # genuine pole
    # half-integer symmetric input goes to y but not t
    half = QRatio(QLaurent({1: Fraction(1), -1: Fraction(1)}))
    with pytest.raises(NotSymmetricInT):
        to_t_poly(half)
    assert to_y_poly(half) == RPoly([2, 1])


def test_t_k_examples_and_round_trip():
    assert t_k_in_t(1) == RPoly([0, 1])
    assert t_k_in_t(2) == RPoly([0, 4, 1])
    assert t_k_in_t(3) == RPoly([0, 9, 6, 1])
    t = t_k_qratio(1)
    for k in range(1, 21):
        p = t_k_in_t(k)
        assert p.is_integral()
        assert to_t_poly(t_k_qratio(k)) == p
        # literal round trip: re-expand the t-polynomial in q and convert back
        expanded, power = QRatio.zero(), QRatio.one()
        for c in p.coeffs:
            expanded, power = expanded + power * c, power * t
        assert to_t_poly(expanded) == p


def test_substitute_matches_t_k():
    # q -> q^2 maps t to t_2 = t(t+4)
    t = t_k_qratio(1)
    t2 = t.substitute_power(2)
    assert to_t_poly(t2) == t_k_in_t(2)


def test_pole_extract_golden():
    g, rem = pole_extract(q(9) / (q(3) * q(3) * q(3)), 3, "plain")
    assert g == 3 and rem == RPoly([1])
    g, rem = pole_extract(q(1) / (q(1) * q(1) * q(1)), 1, "plain")
    assert g == 1 and rem.is_zero()
    # [12]/([6][2]^2) carries the even/odd pole shape: plain fails, half works
    f = q(12) / (q(6) * q(2) * q(2))
    with pytest.raises(NoSuchDecomposition):
        pole_extract(f, 2, "plain")
    g, rem = pole_extract(f, 2, "half")
    assert g == 2
    assert rem == RPoly([2, 4, 1])  # the y-image of t + 2


def test_pole_extract_rejects_nonpolynomial():
    f = QRatio(QLaurent.one(), qnum(2) * qnum(2))  # 1/t_2 is not a t_1 pole
    with pytest.raises(NoSuchDecomposition):
        pole_extract(f, 1, "plain")
    # t_4 [2]/[4] = [4][2] folds to 0 modulo x^8 - 1, but [4]^2 does not divide it
    for mode, shape in (("plain", QRatio.one()), ("half", QRatio.one() + t_k_qratio(2) / 2)):
        f = QRatio.const(Fraction(3, 5)) / t_k_qratio(4) * shape + q(2) / q(4)
        with pytest.raises(NoSuchDecomposition, match="does not divide"):
            pole_extract(f, 4, mode)
        with pytest.raises(NoSuchDecomposition, match="folded"):
            pole_extract(f + QRatio(QLaurent({2: 1, -2: 1})) / t_k_qratio(4), 4, mode)


def test_qnum_parity_membership():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 6)
        parts = [rng.randint(1, 8) for _ in range(m)]
        prod = QRatio.one()
        for a in parts:
            prod = prod * QRatio(qnum(a))
        in_y = True
        try:
            to_y_poly(prod)
        except NotSymmetricInT:
            in_y = False
        assert in_y == (m % 2 == 0)
        in_t = try_to_t_poly(prod) is not None
        assert in_t == (m % 2 == 0 and sum(parts) % 2 == 0)


def test_scaled_ratio_constant_terms():
    # [ka]/[a] constant term and the even/odd y-remainder
    for k in range(1, 9):
        for a in range(1, 9):
            f = q(k * a) / q(a)
            if k % 2 == 1 or a % 2 == 0:
                p = to_t_poly(f)
                assert p.is_integral() and p[0] == k
            else:
                # f = R t + k + (k/2)y with R in Q[y], and k + (k/2)y = (k/2)(x + 1/x)
                rem = QRatio(QLaurent({1: k, -1: k}), QLaurent.const(2))
                to_y_poly((f - rem) / t_k_qratio(1))
                with pytest.raises(NotSymmetricInT):
                    to_y_poly((f - rem - QRatio.const(1)) / t_k_qratio(1))


def test_lcm_gcd_ratio_is_integral():
    rng = random.Random(5)
    hits = 0
    while hits < 40:
        a, b, c = (rng.randint(1, 20) for _ in range(3))
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        hits += 1
        num = (
            qnum(math.lcm(a, b, c))
            * qnum(math.gcd(a, b))
            * qnum(math.gcd(b, c))
            * qnum(math.gcd(c, a))
        )
        den = qnum(a) * qnum(b) * qnum(c) * qnum(1)
        f = QRatio(num) / QRatio(den)
        assert f.is_laurent()
        assert f.num.is_symmetric() and f.num.has_integer_powers()
        assert f.den.is_one()
        assert f.num.value_at_one() == 1


def test_scaled_partition_pole_constant():
    for d in range(2, 7):
        for lam in enumerate_partitions(d):
            if len(lam) < 2:
                continue
            for k in range(1, 9):
                if not all(
                    math.gcd(k, parts_gcd(lam[:i] + lam[i + 1 :])) == 1
                    for i in range(len(lam))
                ):
                    continue
                if not (k % 2 == 1 or d % 2 == 0):
                    continue
                num = QLaurent.one()
                for part in lam:
                    num = num * qnum(k * part)
                f = QRatio(num) / (QRatio(qnum(k) * qnum(k)) * QRatio(qnum_product(lam)))
                g, rem = pole_extract(f, 1, "plain")
                assert g == k ** (len(lam) - 2)
                assert rem.is_integral()


def test_serialization_exact():
    f = q(2) / q(1) + QRatio.const(Fraction(1, 3))
    text = format_qratio(f)
    assert "/" in text or "x^" in text
    assert "." not in text  # never decimal floats


# ---------------------------------------------------------------------------
# Property tests: the integer kernel against Fraction evaluation at points
# ---------------------------------------------------------------------------

POINTS = (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3))
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

laurents = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=4).map(QLaurent)


def phi_product(c: int, e: int, js: list[int]) -> QLaurent:
    out = QLaurent.monomial(e, c)
    for j in js:
        out = out * cyclotomic(j)
    return out


# every denominator of the engine: an integer times a monomial times Phi_j
phi_products = st.builds(
    phi_product,
    st.integers(-9, 9).filter(bool),
    st.integers(-6, 6),
    st.lists(st.integers(1, 12), max_size=3),
)
ratios = st.builds(QRatio, laurents, phi_products)
# the ratios that can divide: a Phi_j product over a Phi_j product
divisors = st.builds(QRatio, phi_products, phi_products)
# the units of the ring: nonzero Fractions and rational multiples of x^e
units = st.one_of(
    st.fractions(max_denominator=12).filter(bool),
    st.builds(
        lambda e, c, den: QRatio(QLaurent.monomial(e, c), QLaurent.const(den)),
        st.integers(-6, 6),
        st.integers(-9, 9).filter(bool),
        st.integers(1, 9),
    ),
)


def value(f: QRatio, x0: Fraction) -> Fraction | None:
    """f at x = x0 in Fractions, or None where the denominator vanishes."""
    num, den = (sum(c * x0**e for e, c in p.coeffs.items()) for p in (f.num, f.den))
    return num / den if den else None


def poly_value(p: RPoly, v: Fraction) -> Fraction:
    return sum(c * v**i for i, c in enumerate(p.coeffs))


def assert_normalized(f: QRatio) -> None:
    coeffs = (*f.num.coeffs.values(), *f.den.coeffs.values())
    assert all(type(c) is int for c in coeffs)
    assert f.den.min_exp() == 0 and f.den.coeffs[f.den.max_exp()] > 0
    assert math.gcd(*coeffs) == 1
    assert f.den.is_one() if f.is_zero() else qlaurent_gcd(f.num, f.den).is_one()


@PROPERTY
@given(ratios, ratios, divisors, st.integers(1, 3), units)
def test_ratio_arithmetic_matches_fraction_evaluation(a, b, d, m, u):
    # a unit factor skips the factoring; the result must equal the gcd reduction
    uq = u if isinstance(u, QRatio) else QRatio.const(u)
    by_unit = gcd_ratio(a.num * uq.num, a.den * uq.den)
    over_unit = gcd_ratio(a.num * uq.den, a.den * uq.num)
    assert a * u == u * a == by_unit and a / u == over_unit
    assert u / d == gcd_ratio(uq.num * d.den, uq.den * d.num)
    for f in (a * u, a / u, u / d):
        assert_normalized(f)
    ops = {
        "+": (a + b, lambda x, y: x + y),
        "-": (a - b, lambda x, y: x - y),
        "*": (a * b, lambda x, y: x * y),
        "/": (a / d, lambda x, y: x / y),
    }
    for f, _ in ops.values():
        assert_normalized(f)
    sub = a.substitute_power(m)
    assert_normalized(sub)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert (a * d) / d == a
    for x0 in POINTS:
        va, vb, vd = value(a, x0), value(b, x0), value(d, x0)
        if va is not None and vb is not None and vd is not None:
            for op, (f, fn) in ops.items():
                if op != "/":
                    assert value(f, x0) == fn(va, vb), op
                elif vd:
                    assert value(f, x0) == fn(va, vd), op
        va_m = value(a, x0**m)
        if va_m is not None:
            assert value(sub, x0) == va_m


@PROPERTY
@given(
    st.dictionaries(st.integers(1, 5), st.integers(-4, 4), max_size=3),
    st.integers(-4, 4),
    st.integers(1, 6),
    st.booleans(),
)
def test_t_and_y_images_match_fraction_evaluation(pairs, c0, den, even):
    # a symmetric numerator over an integer constant
    step = 2 if even else 1
    num = {0: c0}
    for e, c in pairs.items():
        num[step * e] = num[-step * e] = c
    f = QRatio(QLaurent(num), QLaurent.const(den))
    assert_normalized(f)
    for x0 in POINTS:
        expect = value(f, x0)
        assert poly_value(to_y_poly(f), x0 + 1 / x0 - 2) == expect
        if even:
            assert poly_value(to_t_poly(f), (x0 - 1 / x0) ** 2) == expect


@PROPERTY
@given(ratios, st.integers(1, 4))
def test_substitute_power_equals_full_gcd_construction(a, m):
    sub = a.substitute_power(m)
    full = gcd_ratio(a.num.substitute_power(m), a.den.substitute_power(m))
    assert sub.num == full.num and sub.den == full.den


@PROPERTY
@given(laurents, phi_products, st.integers(1, 4))
def test_factored_denominator_is_the_gcd_reduction(num, den, m):
    # QRatio keeps den as lead prod Phi_j^e: den's monomial moves into num,
    # and the expanded den is the one the polynomial gcd leaves
    r = QRatio(num, den)
    assert r.lead > 0 and all(e > 0 for _, e in r.phis) and list(r.phis) == sorted(r.phis)
    assert r.den == gcd_ratio(r.num, r.den).den == phi_power_oracle(r.phis) * QLaurent.const(r.lead)
    assert r.substitute_power(m).phis == _phi_factors(r.den.substitute_power(m))
    for x0 in POINTS:
        if value(QRatio(den), x0):
            assert value(r, x0) == value(QRatio(num), x0) / value(QRatio(den), x0)


non_monomials = ratios.filter(lambda r: r.phis or len(r.num.coeffs) > 1)


@PROPERTY
@given(non_monomials, non_monomials)
def test_sums_and_products_factor_no_denominator(a, b):
    # non-monomial operands carry their Phi_j exponents, so + and * never look one up
    before = _phi_factors.cache_info()
    a + b, a - b, a * b
    assert _phi_factors.cache_info() == before


@PROPERTY
@given(ratios, st.integers(1, 6))
def test_substitute_power_builds_and_factors_no_denominator(a, m):
    # the Phi_j(x^m) are factored in closed form, so no denominator is
    # expanded (`_phi_power`) or trial-factored (`_phi_factors`)
    before = _phi_factors.cache_info(), qalgebra._phi_power.cache_info()
    a.substitute_power(m)
    assert (_phi_factors.cache_info(), qalgebra._phi_power.cache_info()) == before


def test_phis_at_power_is_the_factoring_of_phi_j_at_x_to_the_m():
    for j in range(1, 16):
        for m in range(1, 8):
            expect = _phi_factors(cyclotomic(j).substitute_power(m))
            assert qalgebra._phis_at_power(((j, 1),), m) == expect, (j, m)


@pytest.mark.parametrize("make", [
    lambda: QRatio.const(0.1),
    lambda: QRatio.one() * 0.5,
    lambda: t_k_qratio(1) + 0.1,
    lambda: qnum_ratio(0.3, {1: -1}),
    lambda: qnum_sum([(0.5, {2: 1}), (1, {1: -1})], memo=False),
], ids=["const", "mul", "add", "qnum_ratio", "qnum_sum"])
def test_a_float_is_refused(make):
    # a float's binary expansion would pass for an exact value (0.1 as
    # 3602879701896397/2^55), so exact arithmetic takes no float
    with pytest.raises(TypeError):
        make()


@PROPERTY
@given(
    st.fractions(max_denominator=12),
    st.dictionaries(st.integers(-9, 9).filter(bool), st.integers(-3, 3), max_size=5),
)
def test_qnum_ratio_equals_reduced_ratio_products(c, counts):
    expect = QRatio.const(c)
    for k, e in counts.items():
        for _ in range(abs(e)):
            expect = expect * q(k) if e > 0 else expect / q(k)
    got = qnum_ratio(c, counts)
    assert got.num == expect.num and got.den == expect.den
    assert_normalized(got)


def test_qnum_ratio_zero_branches():
    assert qnum_ratio(3, {0: 1, 2: -1}).is_zero()
    assert qnum_ratio(0, {2: -1}).is_zero()
    assert qnum_ratio(5, {0: 0, 1: 0}) == QRatio.const(5)
    with pytest.raises(ZeroDivisionError):
        qnum_ratio(1, {0: -1, 2: 1})
    with pytest.raises(ZeroDivisionError):
        QRatio(QLaurent.one(), qnum(0))


qnum_terms = st.tuples(
    st.lists(
        st.tuples(
            st.fractions(max_denominator=12),
            st.dictionaries(st.integers(-9, 9), st.integers(-3, 3), max_size=4)
            .filter(lambda counts: counts.get(0, 0) >= 0),
        ),
        max_size=3,
    ),
    # c/[a] - m c/[am] vanishes at x = 1: the sum shares Phi_1 with its denominator
    st.lists(
        st.builds(lambda a, m, c: [(c, {a: -1}), (-m * c, {a * m: -1})],
                  st.integers(1, 4), st.integers(1, 4), st.integers(-3, 3).filter(bool)),
        max_size=1,
    ),
).map(lambda t: t[0] + sum(t[1], []))


@PROPERTY
@given(qnum_terms, st.one_of(st.none(), laurents))
def test_qnum_sum_equals_summed_qnum_ratios(terms, num):
    # every term may hold negative k and [0] with a positive exponent
    expect = QRatio.zero()
    for c, counts in terms:
        expect = ratio_add_oracle(expect, qnum_ratio(c, counts, num))
    got = qnum_sum(terms, num)
    assert got.num == expect.num and got.den == expect.den
    assert_normalized(got)


def test_qnum_sum_edge_cases():
    assert qnum_sum([]).is_zero()
    assert qnum_sum([(2, {3: -1, -2: 1}), (2, {3: -1, 2: 1})]).is_zero()  # [-2] = -[2]
    assert qnum_sum([(Fraction(1, 2), {2: -2}), (Fraction(-1, 2), {2: -2})]).is_zero()
    assert qnum_sum([(1, {0: 2, 1: -1}), (3, {1: 1})]) == qnum_ratio(3, {1: 1})
    assert qnum_sum([(1, {2: -1}), (-1, {-2: -1})]) == qnum_ratio(2, {2: -1})
    # 1/[2] - 2/[4] = [1]^2/[4]: the sum is reduced by Phi_1 Phi_2
    assert qnum_sum([(1, {2: -1}), (-2, {4: -1})]) == qnum_ratio(1, {1: 2, 4: -1})
    with pytest.raises(ZeroDivisionError):
        qnum_sum([(1, {1: 1}), (0, {0: -1})])


@pytest.fixture
def common_calls(monkeypatch):
    """The factors of every `_common_phis` call, which tests for shared Phi_j."""
    calls = []
    common = qalgebra._common_phis

    def spy(num, factors):
        calls.append(factors)
        return common(num, factors)

    monkeypatch.setattr(qalgebra, "_common_phis", spy)
    return calls


def test_equal_powers_of_a_phi_cancel_in_a_sum(common_calls):
    x2m1 = QLaurent({2: 1, 0: -1})  # x^2 - 1 = Phi_1 Phi_2, held to equal powers
    assert QRatio(QLaurent.monomial(2), x2m1) + QRatio(QLaurent.const(-1), x2m1) == QRatio.one()
    # 2x/(Phi_1^2 Phi_2^2) - x^2/(Phi_1^2 Phi_2) = -x(x + 2)/(Phi_1 Phi_2^2): only Phi_1,
    # at -2 in both terms, is tested, and one power of it cancels
    a = QRatio(QLaurent.monomial(1, 2), x2m1 * x2m1)
    b = QRatio(QLaurent.monomial(2, -1), x2m1 * QLaurent({1: 1, 0: -1}))
    common_calls.clear()
    got = a + b
    assert common_calls == [((1, 2),)]
    assert got == QRatio(QLaurent({2: -1, 1: -2}), x2m1 * QLaurent({1: 1, 0: 1}))
    assert got.num == ratio_add_oracle(a, b).num and got.den == ratio_add_oracle(a, b).den
    assert got == gcd_ratio(a.num * b.den + b.num * a.den, a.den * b.den)


@pytest.mark.parametrize("terms, tested", [
    # 1/[2]^2 + 1/[2]: each Phi_j of [2] has its lowest exponent, -2, in one term
    ([(1, {2: -2}), (1, {2: -1})], ()),
    # 1/[2] - 2/[4] = [1]^2/[4]: Phi_1, Phi_2 and Phi_4 are at -1 in both terms, and
    # Phi_1 Phi_2 cancel; Phi_8 is in one term
    ([(1, {2: -1}), (-2, {4: -1})], ((1, 1), (2, 1), (4, 1))),
    # 1/[1] + [1]/(2 [2][3]): Phi_1 and Phi_2 are at -1 in both terms; Phi_3, Phi_4
    # and Phi_6 are in one
    ([(1, {1: -1}), (Fraction(1, 2), {3: -1, 1: 1, 2: -1})], ((1, 1), (2, 1))),
])
def test_qnum_sum_tests_only_a_phi_two_terms_hold_lowest(common_calls, terms, tested):
    got = qnum_sum(terms, memo=False)
    assert common_calls == [tested]
    expect = QRatio.zero()
    for c, counts in terms:
        expect = ratio_add_oracle(expect, qnum_ratio(c, counts))
    assert got.num == expect.num and got.den == expect.den


def test_product_with_cancelling_middle_terms_holds_no_zero():
    for a, b, expect in [
        ({1: 1, 0: 1}, {1: 1, 0: -1}, {2: 1, 0: -1}),  # (x + 1)(x - 1)
        ({2: 1, 1: 1, 0: 1}, {1: -1, 0: 1}, {3: -1, 0: 1}),  # (x^2 + x + 1)(1 - x)
        ({-2: 1, 0: 2, 2: 1}, {-2: 1, 0: -2, 2: 1}, {-4: 1, 0: -2, 4: 1}),
    ]:
        got = QLaurent(a) * QLaurent(b)
        assert 0 not in got.coeffs.values()
        assert got == QLaurent(expect) and hash(got) == hash(QLaurent(expect))


@PROPERTY
@given(qnum_terms)
def test_memoized_qnum_sum_equals_an_uncached_one(terms):
    # negative k, zero exponents and [0] with a positive exponent included
    got = qnum_sum(terms)
    expect = qnum_sum(terms, memo=False)
    assert got.num == expect.num and got.den == expect.den
    # the key is canonical: neither dict order nor a zero exponent changes it
    reordered = [(c, {**dict(reversed(counts.items())), 10: 0}) for c, counts in terms]
    assert qnum_sum(reordered) is got


def test_qnum_sum_memo_keys_and_failures():
    a = qnum_sum([(3, {5: 1, -2: -1})])
    assert qnum_sum([(Fraction(6, 2), {-2: -1, 4: 0, 5: 1})]) is a
    b = qnum_sum([(-3, {5: 1, -2: -1})])
    assert b is not a and b == -a
    num = QLaurent({0: 2, 1: 1})
    # a reduction with a numerator is not memoized
    assert qnum_ratio(3, {2: -1}, num) is not qnum_ratio(3, {2: -1}, num)
    for _ in range(3):  # a failed reduction is not cached
        with pytest.raises(ZeroDivisionError):
            qnum_sum([(1, {0: -1, 2: 1})])
        with pytest.raises(ZeroDivisionError):
            qnum_ratio(1, {2: 1, 0: -1})


def test_equality_with_a_number_is_a_type_error():
    for value in (QRatio.one(), QRatio.zero(), RPoly([1]), RPoly()):
        for number in (1, 0, Fraction(1, 2)):
            with pytest.raises(TypeError):
                value == number
            with pytest.raises(TypeError):
                number != value
    assert QRatio.one() != "1" and RPoly([1]) != (1,)


def test_t_k_table_is_integer():
    for k in range(1, 21):
        coeffs = t_k_in_t(k).coeffs
        assert all(c.denominator == 1 for c in coeffs)
        assert coeffs[1] == k * k and coeffs[k] == 1
    with pytest.raises(ValueError):
        t_k_in_t(0)


def test_q_factorials_and_binomials():
    # the builder's [n]! and qbinom(n, k) = [n]...[n-k+1] / [k]! against the chains
    assert qnum_product(range(1, 1)).is_one() and qnum_product(range(1, 4)) == qfactorial(3)
    for n in range(8):
        assert qnum_product(range(1, n + 1)) == qfactorial(n)
        for k in range(n + 1):
            b = qnum_product(range(n - k + 1, n + 1), range(1, k + 1))
            assert b == qbinomial(n, k)
            assert b == qnum_product(range(1, n + 1), [*range(1, k + 1), *range(1, n - k + 1)])
            assert b == qbinomial(n, n - k) and b.is_symmetric()
            assert b * qfactorial(k) * qfactorial(n - k) == qfactorial(n)
            # q -> 1 gives the ordinary binomial
            assert b.value_at_one() == math.comb(n, k)


@PROPERTY
@given(st.lists(st.integers(-6, 8), max_size=6), st.lists(st.integers(-6, 8).filter(bool), max_size=4))
def test_qnum_product_is_the_chain_quotient(up, down):
    # one exact division of two product chains, in any order of the q-numbers;
    # a quotient that is not a Laurent polynomial is a ValueError
    try:
        expect = qnum_chain(up).divide_exact(qnum_chain(down))
    except ValueError:
        with pytest.raises(ValueError):
            qnum_product(up, down)
    else:
        assert qnum_product(up, down) == expect
        assert qnum_product(up[::-1], down[::-1]) is qnum_product(up, down)


def test_qnum_product_refuses_what_is_no_product():
    assert qnum_product((4,), (2,)) == QLaurent({2: 1, -2: 1})  # [4]/[2] = q + 1/q
    assert qnum_product((3, 0, 2)).is_zero()
    with pytest.raises(ValueError):
        qnum_product((3,), (2,))  # [3]/[2] is no Laurent polynomial
    with pytest.raises(ValueError):
        qnum_product((2, 2), (4,))
    with pytest.raises(ZeroDivisionError):
        qnum_product((2,), (0,))


def test_kernel_rejects_non_integers():
    with pytest.raises(ValueError):
        QLaurent({0: Fraction(1, 2)})
    assert QLaurent({0: Fraction(4, 2)}).coeffs == {0: 2}
    # 2x + 1 divides neither x + 1 nor 2x^2 + 3x + 2 over Z; the quotient never floors
    with pytest.raises(ValueError):
        QLaurent({0: 1, 1: 1}).divide_exact(QLaurent({0: 1, 1: 2}))
    with pytest.raises(ValueError):
        QLaurent({0: 2, 1: 3, 2: 2}).divide_exact(QLaurent({0: 1, 1: 2}))
    assert QRatio.const(Fraction(-2, 6)) == QRatio(QLaurent.const(-1), QLaurent.const(3))


# ---------------------------------------------------------------------------
# Denominators: integer times monomial times cyclotomic polynomials
# ---------------------------------------------------------------------------

# degree <= 4, with no cyclotomic factor or with one beside another factor
NON_CYCLOTOMIC = (
    QLaurent({0: 1, 2: 3}),
    QLaurent({0: 2, 1: 1}),
    QLaurent({0: -3, 2: 1}),
    QLaurent({0: 5, 1: 1, 4: 1}),
    cyclotomic(3) * QLaurent({0: 1, 1: 1, 2: 2}),
    cyclotomic(1) * QLaurent({0: 3, 3: 1}).shifted(-2),
)


@pytest.mark.parametrize("den", NON_CYCLOTOMIC, ids=str)
def test_non_cyclotomic_denominator_is_refused(den):
    with pytest.raises(ValueError):
        _phi_factors(den)
    with pytest.raises(ValueError):
        QRatio(QLaurent.monomial(3, -2), den)
    with pytest.raises(ValueError):
        QRatio(QLaurent({0: 1, 5: 2, -1: 7}), den)
    with pytest.raises(ValueError):
        q(2) / QRatio(den)
    # a monomial dividend, whose quotient skips the factoring of num/den
    for one in (1, Fraction(1, 2), QRatio(QLaurent.monomial(-3, 5))):
        with pytest.raises(ValueError):
            one / QRatio(den)
    # a zero numerator is 0 whatever the denominator
    assert QRatio(QLaurent.zero(), den).is_zero()


def test_refusal_builds_no_cyclotomic_above_the_degree():
    # 3 + x^16 has no cyclotomic factor, so the trial runs j up to 2 * 16^2;
    # only the Phi_j of degree phi(j) <= 16, all with j <= 60, are built; each
    # Phi_j is the entry ((j, 1),) of the Phi_j product cache
    qalgebra._phi_power.cache_clear()
    with pytest.raises(ValueError):
        _phi_factors(QLaurent({0: 3, 16: 1}))
    built = qalgebra._phi_power.cache_info().currsize
    for j in range(1, 61):
        cyclotomic(j)
    assert built and qalgebra._phi_power.cache_info().currsize == 60


def test_phi_factors_exponents():
    # j above the degree 12 of the product: Phi_7, Phi_14 and Phi_18 have degree 6
    assert _phi_factors(cyclotomic(7) * cyclotomic(14)) == ((7, 1), (14, 1))
    assert _phi_factors(cyclotomic(14) * cyclotomic(18)) == ((14, 1), (18, 1))
    den = phi_product(-6, -5, [1, 2, 2, 5, 10, 10, 10, 12])
    assert _phi_factors(den) == ((1, 1), (2, 2), (5, 1), (10, 3), (12, 1))
    assert _phi_factors(qnum(3) * qnum(3)) == ((1, 2), (2, 2), (3, 2), (6, 2))


def test_multiplicities_up_to_three_on_both_sides():
    p = QLaurent({-2: 3, 0: 1, 3: -2})  # divisible by no Phi_j below
    for j in (1, 2, 3, 4, 6, 7, 12):
        for a in range(4):
            for b in range(4):
                num = phi_product(2, 1, [j] * a + [5]) * p
                den = phi_product(-4, -3, [j] * b + [1])
                f = QRatio(num, den)
                assert f == gcd_ratio(num, den), (j, a, b)
                assert_normalized(f)
                # [j]^b, which holds Phi_j^b, given as a q-number count
                bottom = QLaurent.const(3)
                for _ in range(b):
                    bottom = bottom * qnum(j)
                assert qnum_ratio(Fraction(1, 3), {j: -b}, num) == gcd_ratio(num, bottom)


# ---------------------------------------------------------------------------
# RPoly's integer numerators over one denominator against the Fraction oracle
# ---------------------------------------------------------------------------


def symmetric_ratio(pairs: dict[int, int], c0: int, den: int) -> QRatio:
    """sum_e c_e (x^e + x^-e) + c0 over den; an odd e is a half-integer q-power."""
    num = {0: c0}
    for e, c in pairs.items():
        num[e] = num[-e] = c
    return QRatio(QLaurent(num), QLaurent.const(den))


symmetric_ratios = st.builds(
    symmetric_ratio,
    st.dictionaries(st.integers(1, 8), st.integers(-9, 9), max_size=4),
    st.integers(-9, 9),
    st.integers(1, 30),
)
# the same with integer q-powers only: every ratio has a t-image
even_ratios = st.builds(
    symmetric_ratio,
    st.dictionaries(st.integers(1, 4).map(lambda e: 2 * e), st.integers(-9, 9), max_size=3),
    st.integers(-9, 9),
    st.integers(1, 30),
)


def same_poly(new: RPoly, old: FractionRPoly) -> bool:
    return (new.coeffs == old.coeffs and new.degree() == old.degree()
            and new.is_integral() == old.is_integral() and new.is_zero() == old.is_zero()
            and all(new[i] == old[i] for i in range(-1, len(old.coeffs) + 2)))


@PROPERTY
@given(symmetric_ratios)
def test_images_match_fraction_oracle(f):
    for step, image in ((2, to_t_poly), (1, to_y_poly)):
        try:
            old = laurent_to_poly_oracle(f, step)
        except NotSymmetricInT:
            with pytest.raises(NotSymmetricInT):
                image(f)
            continue
        new, read = image(f), image(f)
        # den and the verdict are known before any coefficient is built
        assert new._nums is None
        assert new.den == math.lcm(*(c.denominator for c in old.coeffs))
        assert new.is_integral() == old.is_integral() and new._nums is None
        # an unread image hashes as a read one and equals it
        assert read.nums == read._nums  # the first read builds and keeps them
        assert hash(new) == hash(read) and new == read and read == new
        assert same_poly(new, old)
        assert math.gcd(new.den, *new.nums) == 1 and new.den > 0


@PROPERTY
@given(st.lists(st.fractions(max_denominator=12), max_size=5))
def test_rpoly_arithmetic_matches_fraction_oracle(a):
    # RPoly keeps no arithmetic: its constructor, == and hash against the oracle
    new, old = RPoly(a), FractionRPoly(a)
    assert same_poly(new, old)
    assert math.gcd(new.den, *new.nums) == 1 and new.den > 0
    assert new == RPoly(old.coeffs) and hash(new) == hash(RPoly(old.coeffs))


def same_extraction(f: QRatio, k: int, mode: str) -> None:
    try:
        g_old, rem_old = pole_extract_oracle(f, k, mode)
    except NoSuchDecomposition:
        with pytest.raises(NoSuchDecomposition):
            pole_extract(f, k, mode)
        return
    g_new, rem_new = pole_extract(f, k, mode)
    assert g_new == g_old and same_poly(rem_new, rem_old)


@PROPERTY
@given(even_ratios, symmetric_ratios, st.fractions(max_denominator=12), st.integers(1, 4),
       st.integers(1, 7))
def test_pole_extract_matches_fraction_oracle(p, any_f, g, k, m):
    # g/t_k + p has the plain shape; (g/t_k)(1 + t_(k/2)/2) + p the half one
    same_extraction(QRatio.const(g) / t_k_qratio(k) + p, k, "plain")
    same_extraction(any_f, k, "plain")
    same_extraction(any_f / t_k_qratio(k), k, "plain")
    even = 2 * k
    half = QRatio.const(g) / t_k_qratio(even) * (QRatio.one() + t_k_qratio(k) * Fraction(1, 2))
    same_extraction(half + any_f, even, "half")
    same_extraction(any_f / t_k_qratio(even), even, "half")
    # t_2k [m]/[2k] = [2k][m] folds to 0 modulo x^4k - 1, and [2k]^2 divides it
    # only when 2k | m: the fold passes and, for most m, the division fails
    plain = QRatio.const(g) / t_k_qratio(even) + p
    same_extraction(plain + q(2 * m) / q(even), even, "plain")
    same_extraction(half + p + q(m) / q(even), even, "half")


def test_degree_denominator_is_cached_on_the_shape(monkeypatch):
    # every permutation of d, zeros included, has the same sorted q-numbers, so
    # all share one entry of the builder's cache; the value is the product
    # chain over d itself
    shapes = [(3, 0, 1, 0, 2), (2, 2, 0, 1), (4, 0, 0), (0, 1, 0, 0, 1), (5,)]
    for d in shapes:
        perms = set(itertools.permutations(d))
        monkeypatch.setattr(qalgebra, "_suffix_products", {(): QLaurent.one()})
        for perm in perms:
            assert degree_denominator(perm) == degree_denominator_chain(perm), perm
        # a cold D_d builds one entry per suffix of its 2 |d| sorted q-numbers,
        # the empty one included; every other permutation reads the whole one
        assert len(qalgebra._suffix_products) == 2 * sum(d) + 1, d


def test_cold_product_of_many_q_numbers_needs_no_recursion(monkeypatch):
    # the builder extends the longest cached suffix in a loop, so a cold
    # product deeper than the recursion limit is built and cached suffix by suffix
    monkeypatch.setattr(qalgebra, "_suffix_products", {(): QLaurent.one()})
    assert qnum_product([1] * 600) == qnum_chain([1] * 600)
    assert len(qalgebra._suffix_products) == 601
    assert qnum_product([2] + [1] * 600) == qnum(2) * qnum_chain([1] * 600)
    assert len(qalgebra._suffix_products) == 602  # one step from the cached [1]^600
