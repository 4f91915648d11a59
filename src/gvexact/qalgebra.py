"""Exact Laurent polynomials in x = q^(1/2), reduced ratios, and the
symmetrization maps onto polynomials in t = [1]^2 and y = [1/2]^2.

Exponents are stored as integers counting units of 1/2 (so the q-power k
lives at exponent 2k).  Laurent polynomials have integer coefficients; every
rational value, constants included, is a QRatio: a Laurent numerator over a
denominator kept factored, lead prod Phi_j^e, reduced over those Phi_j with
no polynomial gcd (only a denominator given as a polynomial is factored,
once).  The t- and y-images are polynomials over Q, kept as integer
numerators over one denominator (RPoly).  Membership of an image in Q[t] and
in Z[t] is decided on the Laurent numerator alone; the integer numerators of
the image are built only when first read.  No floating point ever enters: a
float given as a constant is a TypeError.  One cached builder
(`qnum_product`) forms every product and exact quotient of q-numbers, [n]!,
D_d and the binomial and Mobius cofactors among them; a product extends its
longest cached suffix in one loop.  One kernel (`_times_phis`) applies
every product of Phi_j powers, through the binomials
Phi_j = prod_(d | j) (x^d - 1)^mobius(j/d); a product of two ratios tests
each numerator only against the other's Phi_j and adds the exponents, and
q -> q^m maps each Phi_j to its Phi_k in closed form (`_phis_at_power`).
Every sum of ratios, of q-number products (`qnum_sum`) or of two QRatios,
goes through one core (`_ratio_sum`): the terms are added as integers
over lcm(lead) prod Phi_j^(-min e_j) and reduced once, testing only a Phi_j
whose lowest exponent two terms share.  One loop (`_mul_add`) forms every
product of Laurent polynomials.  Pole extraction folds the Laurent numerator
of f t_k modulo x^(2k) - 1 and divides it once, exactly, by [k]^2, never
evaluating at roots of unity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class NotSymmetricInT(ValueError):
    """Raised when a ratio has no image in Q[t] (or Q[y] in half mode)."""


class NoSuchDecomposition(ValueError):
    """Raised when pole extraction modulo t_k fails to produce the stated shape."""


# ---------------------------------------------------------------------------
# Laurent polynomials in x = q^(1/2)
# ---------------------------------------------------------------------------


class QLaurent:
    """Laurent polynomial in x = q^(1/2) with integer coefficients.

    Immutable by convention; `coeffs` maps exponent (int, units of 1/2)
    to a nonzero int.  Integral Fractions are accepted and stored as ints;
    any other coefficient is a ValueError.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    n = int(v)
                    if n != v:
                        raise ValueError(f"QLaurent coefficient {v} is not an integer")
                    c[e] = n
        self.coeffs, self._hash = c, None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent()

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent({0: 1})

    @staticmethod
    def const(v) -> "QLaurent":
        return QLaurent({0: v})

    @staticmethod
    def monomial(e: int, v=1) -> "QLaurent":
        return QLaurent({e: v})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: 1}

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QLaurent) and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coeffs.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "QLaurent") -> "QLaurent":
        c = dict(self.coeffs)
        for e, v in other.coeffs.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        return _laurent(c)

    def __neg__(self) -> "QLaurent":
        return _laurent({e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        return self + (-other)

    def __mul__(self, other: "QLaurent") -> "QLaurent":
        if not self.coeffs or not other.coeffs:
            return QLaurent.zero()
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # a monomial: the exponents stay distinct, the products nonzero
            ((e1, v1),) = a.items()
            return _laurent({e1 + e2: v1 * v2 for e2, v2 in b.items()})
        c: dict[int, int] = {}
        _mul_add(c, self, other)
        return _laurent(c if all(c.values()) else {e: v for e, v in c.items() if v})

    def shifted(self, k: int) -> "QLaurent":
        """Multiply by x^k."""
        return _laurent({e + k: c for e, c in self.coeffs.items()})

    def substitute_power(self, m: int) -> "QLaurent":
        """The ring map q -> q^m (every exponent multiplied by m)."""
        return _laurent({e * m: c for e, c in self.coeffs.items()})

    # -- predicates and evaluations ------------------------------------------

    def is_symmetric(self) -> bool:
        """Invariant under q -> 1/q, i.e. coeffs[e] == coeffs[-e]."""
        return all(self.coeffs.get(-e) == v for e, v in self.coeffs.items())

    def has_integer_powers(self) -> bool:
        return all(e % 2 == 0 for e in self.coeffs)

    def value_at_one(self) -> int:
        """Evaluation at x = 1 (q = 1)."""
        return sum(self.coeffs.values())

    # -- polynomial helpers (treating self as a polynomial in x) -------------

    def divide_exact(self, other: "QLaurent") -> "QLaurent":
        """The Laurent polynomial self/other over Z; raises ValueError when
        other does not divide self (a leading coefficient that does not
        divide, or a nonzero remainder)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return QLaurent.zero()
        sv, ov = self.min_exp(), other.min_exp()
        num = [0] * (self.max_exp() - sv + 1)
        for e, c in self.coeffs.items():
            num[e - sv] = c
        den = [(e - ov, c) for e, c in other.coeffs.items()]
        dd = other.max_exp() - ov
        lead = other.coeffs[other.max_exp()]
        q: dict[int, int] = {}
        for nd in range(len(num) - 1, dd - 1, -1):
            if num[nd]:
                f, r = divmod(num[nd], lead)
                if r:
                    raise ValueError("division is not exact")
                q[nd - dd + sv - ov] = f
                for e, c in den:
                    num[e + nd - dd] -= f * c
        if any(num):
            raise ValueError("division is not exact")
        return _laurent(q)

    def __repr__(self) -> str:
        return f"QLaurent({format_qlaurent(self)})"


def _laurent(c: dict[int, int]) -> QLaurent:
    """Wrap a dict that already maps exponents to nonzero ints."""
    out = QLaurent.__new__(QLaurent)
    out.coeffs, out._hash = c, None
    return out


def _mul_add(acc: dict[int, int], a: QLaurent, b: QLaurent, shift: int = 0) -> None:
    """acc += x^shift a b, in place on a dict of exponents to coefficients
    that may hold zeros."""
    a, b = a.coeffs, b.coeffs
    if len(a) > len(b):
        a, b = b, a
    for e1, v1 in a.items():
        e1 += shift
        for e2, v2 in b.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + v1 * v2


# ---------------------------------------------------------------------------
# q-numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def qnum(k: int) -> QLaurent:
    """[k] = q^(k/2) - q^(-k/2)."""
    if k == 0:
        return QLaurent.zero()
    return QLaurent({k: 1, -k: -1})


def mobius(n: int) -> int:
    """Classical Mobius function by trial factorization."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1, increasing."""
    if n < 1:
        raise ValueError("divisors needs n >= 1")
    return [d for d in range(1, n + 1) if n % d == 0]


def cyclotomic(n: int) -> QLaurent:
    """The n-th cyclotomic polynomial Phi_n(x), from its binomials (`_times_phis`),
    through the cache of Phi_j products (`_phi_power`)."""
    if n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    return _phi_power(((n, 1),))


def _times_phis(p: QLaurent, factors: tuple[tuple[int, int], ...]) -> QLaurent:
    """p prod Phi_j^e over the (j, e) of factors, e of either sign: p times the
    binomials of positive net exponent, then divided exactly by the others
    (`divide_exact`: a ValueError when the quotient is not a Laurent polynomial).
    Multiplying first keeps that division exact when the whole product is one."""
    up, down = _binomial_split(factors)
    if up is not None:
        p = p * up
    return p if down is None else p.divide_exact(down)


@lru_cache(maxsize=None)
def _binomial_split(factors: tuple[tuple[int, int], ...]) -> tuple[QLaurent | None, ...]:
    """(up, down) with prod Phi_j^e = up / down over the (j, e) of factors, through
    Phi_j = prod_(d | j) (x^d - 1)^mobius(j/d): each binomial x^d - 1, with its
    exponent netted over the factors, goes up or down.  Both (None when empty) are sparse."""
    net: dict[int, int] = {}
    for j, e in factors:
        for d in divisors(j):
            net[d] = net.get(d, 0) + mobius(j // d) * e
    out = [QLaurent.one(), QLaurent.one()]  # up, down
    for d, n in sorted(net.items()):
        for _ in range(abs(n)):  # a product with x^d - 1: a shift and a subtraction
            out[n < 0] = out[n < 0] * QLaurent({d: 1, 0: -1})
    return tuple(None if p.is_one() else p for p in out)


@lru_cache(maxsize=None)
def _cyclotomic_indices(k: int) -> tuple[int, ...]:
    """The divisors j of 2k: [k] = x^-k prod_j Phi_j(x)."""
    return tuple(divisors(2 * k))


def qnum_ratio(const, counts: dict[int, int], num: QLaurent | None = None) -> "QRatio":
    """const * num * prod_k [k]^counts[k] as a canonical QRatio: the one-term `qnum_sum`."""
    return qnum_sum(((const, counts),), num)


def qnum_sum(terms, num: QLaurent | None = None, memo: bool = True) -> "QRatio":
    """num * sum over (const, counts) of const * prod_k [k]^counts[k] as a
    canonical QRatio, with no gcd; num, an integer Laurent polynomial, is 1 if left out.

    [k] = x^-k prod_{j | 2k} Phi_j(x) and [-k] = -[k], so a term is c x^s prod Phi_j^e_j,
    and the terms go to `_ratio_sum` with the numerators c.numerator x^s.
    [0] with a positive exponent makes a term 0; in a denominator it is a ZeroDivisionError.
    With no num, unless `memo` is False, the sum is memoized on its canonical terms, Fraction(const)
    and the sorted nonzero (k, e) pairs, as amplitudes repeat: it is shared and read-only."""
    if num is None and memo:
        return _memo_sum(tuple((_exact(c), tuple(sorted((k, e) for k, e in counts.items() if e)))
                               for c, counts in terms))
    walked = []
    for const, counts in terms:
        c = _exact(const)
        phis: dict[int, int] = {}
        shift = 0
        for k, e in counts.items():
            if not e:
                continue
            if k == 0:
                if e < 0:
                    raise ZeroDivisionError("q-number [0] in a denominator")
                c = Fraction(0)
                continue
            if k < 0:
                k = -k
                if e % 2:
                    c = -c
            shift -= k * e
            for j in _cyclotomic_indices(k):
                phis[j] = phis.get(j, 0) + e
        if c:
            walked.append((_laurent({shift: c.numerator}), c.denominator, phis))
    return _ratio_sum(walked, num)


def _exact(v) -> Fraction:
    """Fraction(v) for an exact number v; a float is a TypeError, since its
    binary expansion would pass for an exact value (0.1 for 3602879701896397/2^55)."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; exact arithmetic takes an int or a Fraction")
    return Fraction(v)


def _ratio_sum(terms, num: QLaurent | None = None) -> "QRatio":
    """num * sum over (p, lead, phis) of p prod Phi_j^phis[j] / lead as a canonical QRatio,
    for integer Laurent polynomials p and num (1 if left out), nonzero integers lead and
    signed exponents phis, a dict.  The terms add up as integers over
    lcm(lead) prod Phi_j^(-min e_j), and the sum is reduced once, by the highest powers of
    the Phi_j left in the denominator that divide it (`_common_phis`): the Phi_j are monic,
    primitive, irreducible and pairwise coprime.  Each p is prime to the Phi_j of negative
    exponent in its own term, as a reduced numerator or a monomial is.  So a Phi_j whose
    lowest exponent only one term attains divides every term of the sum but that one, not
    the sum, and is tested only when num is given."""
    if len(terms) == 1:  # every qnum_ratio and QRatio(num, den): nothing to add
        ((total, lcm, low),) = terms
        low, ties = dict(sorted(low.items())), ()
    else:
        low, ties = {}, set()
        for j in sorted(set().union(*(p for _, _, p in terms))):
            es = [p.get(j, 0) for _, _, p in terms]
            low[j] = e = min(es)
            if es.count(e) > 1:  # lowest exponent attained twice
                ties.add(j)
        lcm = math.lcm(*(lead for _, lead, _ in terms))
        acc: dict[int, int] = {}
        for p, lead, phis in terms:
            f = lcm // lead
            excess = tuple((j, x - e) for j, e in low.items() if (x := phis.get(j, 0)) > e)
            if excess:
                _mul_add(acc, p * QLaurent.const(f) if f > 1 else p, _phi_power(excess))
            else:
                for e, v in p.coeffs.items():
                    acc[e] = acc.get(e, 0) + f * v
        total = _laurent(acc if all(acc.values()) else {e: v for e, v in acc.items() if v})
    total = total if num is None else total * num
    common = _common_phis(total, () if len(total.coeffs) < 2 else tuple(
        (j, -e) for j, e in low.items() if e < 0 and (num is not None or j in ties)))
    for j, k in common:
        low[j] += k
    # the Phi_j left up and the common ones divided out, in one call of the kernel
    total = _times_phis(total, tuple((j, e) for j, e in low.items() if e > 0)
                        + tuple((j, -k) for j, k in common))
    return QRatio._coprime(total, lcm, tuple((j, -e) for j, e in low.items() if e < 0))


@lru_cache(maxsize=None)
def _memo_sum(terms) -> "QRatio":
    return qnum_sum([(c, dict(pairs)) for c, pairs in terms], memo=False)


@lru_cache(maxsize=None)
def _phi_power(factors: tuple[tuple[int, int], ...]) -> QLaurent:
    """prod Phi_j^e over the (j, e) pairs.  Cached: the denominators of
    the degrees of a series and the amplitude products repeat, so a run
    needs only a few dozen distinct products."""
    return _times_phis(QLaurent.one(), factors)


def _phi_divides(p: QLaurent, j: int, i: int = 0) -> bool:
    """Whether Phi_j divides q = theta^i p, theta = x d/dx, for the Laurent
    polynomial p (q = sum c_e e^i x^e).  Phi_j divides x^j - 1, so q is
    first folded modulo x^j - 1 (x^e -> x^(e mod j)) to j coefficients, and
    only the fold is reduced modulo the monic Phi_j, by synthetic division;
    for j = 1, 2 the test is then q(1) = 0 and q(-1) = 0."""
    fold = [0] * j
    for e, v in p.coeffs.items():
        fold[e % j] += v * e**i if i else v
    phi = cyclotomic(j).coeffs
    n = max(phi)
    for top in range(j - 1, n - 1, -1):
        f = fold[top]
        if f:
            for e, v in phi.items():
                fold[top - n + e] -= f * v
    return not any(fold[:n])


def _phi_multiplicity(p: QLaurent, j: int, most: int) -> int:
    """The largest k <= most with Phi_j^k | p: Phi_j is squarefree and
    prime to x, so that holds when Phi_j divides theta^i p for every i < k."""
    k = 0
    while k < most and _phi_divides(p, j, k):
        k += 1
    return k


def _common_phis(num: QLaurent, factors: tuple) -> tuple[tuple[int, int], ...]:
    """(j, k) for each (j, e) of factors with Phi_j^k | num, 0 < k <= e maximal."""
    return tuple((j, k) for j, e in factors if (k := _phi_multiplicity(num, j, e)))


@lru_cache(maxsize=None)
def _phis_at_power(phis: tuple[tuple[int, int], ...], m: int) -> tuple[tuple[int, int], ...]:
    """The sorted (k, c), c > 0, with prod Phi_j(x^m)^e = prod Phi_k^c over the
    (j, e) of phis, with no polynomial built: Phi_j(x^m) = prod_(d | j)
    (x^(dm) - 1)^mobius(j/d) and x^n - 1 = prod_(k | n) Phi_k, so c is the
    sum of e mobius(j/d) over the d | j with k | dm.  Cached, as the
    denominators that a run substitutes repeat."""
    net: dict[int, int] = {}
    for j, e in phis:
        for d in divisors(j):
            for k in divisors(d * m):
                net[k] = net.get(k, 0) + mobius(j // d) * e
    return tuple((k, c) for k, c in sorted(net.items()) if c)


@lru_cache(maxsize=None)
def _phi_factors(den: QLaurent) -> tuple[tuple[int, int], ...]:
    """The (j, e) with den = c x^s prod Phi_j^e, by trial over increasing j;
    any other den is a ValueError once j > 2 deg^2 for the degree deg left,
    as phi(j) >= sqrt(j/2).  Only QRatio(num, den) calls it, on its own or
    in a quotient (`__truediv__`), and its denominators repeat (`gv verify
    --suite pole-structure` factors 3 distinct ones in 73 calls), so it is cached."""
    rest = den.max_exp() - den.min_exp()
    out = []
    j = 1
    while rest:
        if j > 2 * rest * rest:
            raise ValueError(f"{format_qlaurent(den)} is not c x^s prod Phi_j^e")
        n = sum(math.gcd(i, j) == 1 for i in range(j))  # phi(j), the degree of Phi_j
        e = _phi_multiplicity(den, j, rest // n)  # 0, with Phi_j unbuilt, if n > rest
        if e:
            out.append((j, e))
            rest -= e * n
        j += 1
    return tuple(out)


def qnum_product(up, down=()) -> QLaurent:
    """prod_(k in up) [k] / prod_(k in down) [k] as an integer Laurent
    polynomial, so [p] for a partition p; the empty product is 1.  A quotient
    that is not a Laurent polynomial is a ValueError (`divide_exact`).  Every
    product of q-numbers is built here: [n]! is qnum_product(range(1, n + 1)),
    and D_d (`degree_denominator`), the log's cofactors and the Mobius
    cofactors are one call each.  Cached on up and down sorted in
    non-increasing order (`_suffix_product`, `_qnum_quotient`); the result is
    shared and read-only."""
    up, down = tuple(sorted(up, reverse=True)), tuple(sorted(down, reverse=True))
    return _qnum_quotient(up, down) if down else _suffix_product(up)


@lru_cache(maxsize=None)
def _qnum_quotient(up: tuple[int, ...], down: tuple[int, ...]) -> QLaurent:
    """A quotient of two sorted products: one exact division."""
    return _suffix_product(up).divide_exact(_suffix_product(down))


_suffix_products: dict[tuple[int, ...], QLaurent] = {(): QLaurent.one()}


def _suffix_product(up: tuple[int, ...]) -> QLaurent:
    """The product over a sorted tuple, cached with each of its suffixes: one
    loop builds it from the longest suffix in the cache (the empty one at
    worst), [up[i]] times the product of up[i + 1:], so [n]! reuses [n-1]!
    and D_d its suffixes, with no recursion however many q-numbers it has."""
    i = next(i for i in range(len(up) + 1) if up[i:] in _suffix_products)
    out = _suffix_products[up[i:]]
    for i in range(i - 1, -1, -1):
        out = _suffix_products[up[i:]] = qnum(up[i]) * out
    return out


def degree_counts(d: tuple[int, ...]) -> dict[int, int]:
    """The q-number exponents of 1 / D_d: [k]^-2 for every d_i >= k."""
    out: dict[int, int] = {}
    for di in d:
        for k in range(1, di + 1):
            out[k] = out.get(k, 0) - 2
    return out


def degree_denominator(d: tuple[int, ...]) -> QLaurent:
    """D_d = prod_i [d_i]!^2: Z_d D_d and |d| F_d D_d are integer Laurent
    polynomials.  Its leading coefficient is 1.  The permutations of d, and
    its zeros, leave the sorted q-numbers unchanged, so they share one entry
    of the `qnum_product` cache."""
    return qnum_product([k for di in d for k in range(1, di + 1)] * 2)


# ---------------------------------------------------------------------------
# Reduced ratios
# ---------------------------------------------------------------------------


class QRatio:
    """Reduced ratio num / (lead prod Phi_j^e) of an integer Laurent
    polynomial num and a denominator kept factored: a positive integer lead
    and `phis`, the sorted (j, e) with e > 0.

    QRatio(num, den) takes any den that is an integer times a monomial times
    Phi_j, as q-numbers, D_d and t_k are, and factors it once (`_phi_factors`);
    the one term x^-s num / den goes through `_ratio_sum`, which divides out
    the highest power of each Phi_j that divides num, with no polynomial gcd.
    Invariants: num is prime to every Phi_j of phis, and lead to num's
    content (a rational constant a/b has num a, lead b).  The form is
    canonical, so == and hash use (num, lead, phis); `den` expands the
    denominator when read.
    """

    __slots__ = ("num", "lead", "phis")

    def __init__(self, num: QLaurent, den: QLaurent | None = None):
        if den is None:
            den = QLaurent.one()
        if den.is_zero():
            raise ZeroDivisionError("QRatio with zero denominator")
        phis = _phi_factors(den) if num and len(den.coeffs) > 1 else ()
        r = _ratio_sum([(QLaurent.monomial(-den.min_exp()), den.coeffs[den.max_exp()],
                         {j: -e for j, e in phis})], num)
        self.num, self.lead, self.phis = r.num, r.lead, r.phis

    @staticmethod
    def _coprime(num: QLaurent, lead: int, phis: tuple[tuple[int, int], ...]) -> "QRatio":
        """num / (lead prod Phi_j^e) for a num prime to those Phi_j: the
        gcd of lead and num's content divided out, and lead made positive."""
        g = math.gcd(lead, *num.coeffs.values())
        g = -g if lead < 0 else g
        if g != 1:
            num = _laurent({e: c // g for e, c in num.coeffs.items()})
        out = QRatio.__new__(QRatio)
        out.num, out.lead, out.phis = num, lead // g, phis if num else ()
        return out

    @property
    def den(self) -> QLaurent:
        """lead prod Phi_j^e, expanded."""
        return _phi_power(self.phis) * QLaurent.const(self.lead)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "QRatio":
        return QRatio(QLaurent.zero())

    @staticmethod
    def one() -> "QRatio":
        return QRatio(QLaurent.one())

    @staticmethod
    def const(v) -> "QRatio":
        v = _exact(v)
        return QRatio._coprime(QLaurent.const(v.numerator), v.denominator, ())

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        """A Laurent polynomial over Q: the denominator is a constant."""
        return not self.phis

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            raise TypeError("compare a QRatio with a QRatio, not with a number")
        return isinstance(other, QRatio) and (
            (self.num, self.lead, self.phis) == (other.num, other.lead, other.phis))

    def __hash__(self):
        return hash((self.num, self.lead, self.phis))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "QRatio":
        return v if isinstance(v, QRatio) else QRatio.const(v)

    def __add__(self, other) -> "QRatio":
        """a/b + c/d through `_ratio_sum`, on the factored denominators."""
        return _ratio_sum([(r.num, r.lead, {j: -e for j, e in r.phis})
                           for r in (self, QRatio._coerce(other))])

    __radd__ = __add__

    def __neg__(self) -> "QRatio":
        out = QRatio.__new__(QRatio)
        out.num, out.lead, out.phis = -self.num, self.lead, self.phis
        return out

    def __sub__(self, other) -> "QRatio":
        return self + (-QRatio._coerce(other))

    # Both operands are reduced, so in a/b c/d only a and d, or c and b, can
    # share a Phi_j (Knuth, TAOCP vol. 2, 4.5.1), and a monomial numerator (a
    # unit) shares none: each pair is tested and divided out of the numerator
    # before the product is formed, and the exponents of b and d add up.

    def __mul__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        (a, b), (c, d) = (self.num, self.phis), (o.num, o.phis)
        ad = tuple((j, -k) for j, k in _common_phis(a, d)) if len(a.coeffs) > 1 else ()
        cb = tuple((j, -k) for j, k in _common_phis(c, b)) if len(c.coeffs) > 1 else ()
        phis = dict(b)
        for j, e in d + ad + cb:
            phis[j] = phis.get(j, 0) + e
        return QRatio._coprime(_times_phis(a, ad) * _times_phis(c, cb), self.lead * o.lead,
                               tuple(sorted((j, e) for j, e in phis.items() if e)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        return self * QRatio(o.den, o.num)  # o.num becomes a denominator: refused unless cyclotomic

    def __rtruediv__(self, other) -> "QRatio":
        return QRatio._coerce(other) / self

    def substitute_power(self, m: int) -> "QRatio":
        """q -> q^m, a ring homomorphism; m >= 1.  The denominator's factors
        follow in closed form (`_phis_at_power`), with no polynomial built."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        # q -> q^m maps a Bezout identity u*num + v*den = 1 to another one and
        # keeps every coefficient, so the image of a reduced ratio is reduced.
        return QRatio._coprime(self.num.substitute_power(m), self.lead,
                               _phis_at_power(self.phis, m))

    def __repr__(self) -> str:
        return f"QRatio({format_qratio(self)})"


# ---------------------------------------------------------------------------
# Dense rational polynomials (used for both the t- and y-images)
# ---------------------------------------------------------------------------


class RPoly:
    """Dense univariate polynomial over Q, trailing zeros trimmed, stored as
    integer numerators `nums` over one positive denominator `den`, reduced
    (the gcd of den and every numerator is 1; zero is () over 1).

    Serves for both the t- and the y-images; the variable is bookkeeping at
    the call sites.  The form is canonical, so == and hash use (nums, den),
    and `is_integral` is den == 1.  It has no arithmetic, which runs on the
    Laurent numerators; a Fraction is built only when a coefficient is read
    (`coeffs`, `[]`).  An image from `to_t_poly` or `to_y_poly` knows its den
    at once and builds `nums` from its Laurent numerator on first read
    (`_image_nums`).
    """

    __slots__ = ("_nums", "den", "_src")

    def __init__(self, coeffs=()):
        """sum_i coeffs[i] t^i for rational coeffs.  Over the lcm of their
        denominators the numerators are already reduced: a coefficient with
        the most factors p of that lcm has a numerator prime to p."""
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        self.den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (self.den // c.denominator) for c in cs]
        while nums and not nums[-1]:
            nums.pop()
        self._nums = tuple(nums)

    @property
    def nums(self) -> tuple[int, ...]:
        if self._nums is None:
            self._nums = _image_nums(*self._src)
        return self._nums

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        return len(self.nums) - 1

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            raise TypeError("compare an RPoly with an RPoly, not with a number")
        return isinstance(other, RPoly) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def is_integral(self) -> bool:
        return self.den == 1

    def __repr__(self) -> str:
        return f"RPoly({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# t_k, symmetrization, pole extraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _t_k_coeffs(k: int) -> tuple[int, ...]:
    """Integer coefficients of t_k = [k]^2 in t:
    sum_{j=1..k} k C(j+k-1, 2j-1) / j t^j, each division exact."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coeffs = [0] * (k + 1)
    for j in range(1, k + 1):
        c, r = divmod(k * math.comb(j + k - 1, 2 * j - 1), j)
        if r:
            raise ValueError(f"t_{k} has a non-integer coefficient at t^{j}")
        coeffs[j] = c
    return tuple(coeffs)


@lru_cache(maxsize=None)
def t_k_in_t(k: int) -> RPoly:
    """t_k = [k]^2 as an integer polynomial in t."""
    return RPoly(_t_k_coeffs(k))


def _laurent_to_poly(f: QRatio, step: int) -> RPoly:
    """Symmetric numerator with exponents in step*Z over a constant
    denominator -> polynomial (t or y), with `nums` left unbuilt.

    Each pair x^e + x^-e with e = m*step is 2 + t_m, and t_m is monic in Z[t]
    (t for step 2, y for step 1), so the basis change to powers of t is
    unitriangular over Z and the image has the numerator's content.  f is
    reduced, so that content is prime to the constant den, and the image
    over den is already reduced: membership and `is_integral` need only
    these O(E) checks, never the O(E^2) build."""
    if not f.is_laurent():
        raise NotSymmetricInT("nontrivial denominator after reduction")
    p = f.num
    if not p.is_symmetric():
        raise NotSymmetricInT("not invariant under q -> 1/q")
    if any(e % step for e in p.coeffs):
        raise NotSymmetricInT("exponent parity does not match the target ring")
    out = RPoly.__new__(RPoly)
    out._nums, out._src, out.den = None, (p, step), f.lead
    return out


def _image_nums(p: QLaurent, step: int) -> tuple[int, ...]:
    """The integer coefficients of the image of p, with no Fraction; the
    top one is p's leading coefficient, so only zero needs trimming."""
    if not p:
        return ()
    out = [0] * (max(p.coeffs) // step + 1)
    for e, c in p.coeffs.items():
        if e == 0:
            out[0] += c
        elif e > 0:
            out[0] += 2 * c
            for j, a in enumerate(_t_k_coeffs(e // step)):
                out[j] += a * c
    return tuple(out)


def to_t_poly(f: QRatio) -> RPoly:
    """Unique image in Q[t] of a q->1/q symmetric Laurent polynomial with
    integer q-powers; raises NotSymmetricInT otherwise."""
    return _laurent_to_poly(f, 2)


def to_y_poly(f: QRatio) -> RPoly:
    """Same as to_t_poly but onto Q[y], allowing half-integer q-powers."""
    return _laurent_to_poly(f, 1)


def try_to_t_poly(f: QRatio) -> RPoly | None:
    try:
        return to_t_poly(f)
    except NotSymmetricInT:
        return None


@lru_cache(maxsize=None)
def t_k_qratio(k: int) -> QRatio:
    """t_k = [k]^2 as a QRatio, cached: the result is shared and read-only."""
    return QRatio(qnum_product((k, k)))


def pole_extract(f: QRatio, k: int, mode: str = "plain") -> tuple[Fraction, RPoly]:
    """Decompose f against the simple pole at t_k = 0.

    plain: f = g/t_k + remainder(t)           -> (g, remainder in t)
    half : f = (g/t_k)(1 + t_{k/2}/2) + rem   -> (g, remainder in y),
           only for even k.
    Raises NoSuchDecomposition when f*t_k is not a (suitably symmetric)
    Laurent polynomial or has no such shape.

    With f t_k = N/c, 1 = h/2 and 1 + t_{k/2}/2 = h/2 for h = x^m + x^-m,
    m = 0 (plain) or k (half), so the shape holds when [k]^2 =
    x^-2k (x^2k - 1)^2 divides 2N - c g h.  Then N folded modulo x^2k - 1 is
    c g at residue m, where h folds to 2, and 0 at every other residue; that
    fixes g, and one exact division by [k]^2 gives the remainder.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if mode not in ("plain", "half"):
        raise ValueError(f"unknown pole_extract mode {mode!r}")
    if mode == "half" and k % 2:
        raise ValueError("half mode needs even k")
    step, m = (2, 0) if mode == "plain" else (1, k)
    prod = f * t_k_qratio(k)
    try:
        c = _laurent_to_poly(prod, step).den
    except NotSymmetricInT as exc:
        raise NoSuchDecomposition(str(exc)) from exc
    fold = [0] * (2 * k)
    for e, v in prod.num.coeffs.items():
        fold[e % (2 * k)] += v
    cg, fold[m] = fold[m], 0
    if any(fold):
        raise NoSuchDecomposition(f"f t_{k} folded modulo x^{2 * k} - 1 is not c g at residue {m}")
    cgh = QLaurent.monomial(m, cg) + QLaurent.monomial(-m, cg)
    rem = qnum_ratio(Fraction(1, 2 * c), {k: -2}, QLaurent.const(2) * prod.num - cgh)
    if not rem.is_laurent():
        raise NoSuchDecomposition(f"[{k}]^2 does not divide f t_{k} - g h/2")
    return Fraction(cg, c), _laurent_to_poly(rem, step)


# ---------------------------------------------------------------------------
# Serialization (exact strings; used by the CLI JSON schema)
# ---------------------------------------------------------------------------


def format_qlaurent(p: QLaurent) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs):
        parts.append(f"{p.coeffs[e]}*x^{e}")
    return " + ".join(parts)


def format_qratio(f: QRatio) -> str:
    if f.den.is_one():
        return format_qlaurent(f.num)
    return f"({format_qlaurent(f.num)}) / ({format_qlaurent(f.den)})"

