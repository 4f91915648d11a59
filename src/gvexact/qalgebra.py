"""Exact Laurent polynomials in x = q^(1/2), reduced ratios, and the
symmetrization maps onto polynomials in t = [1]^2 and y = [1/2]^2.

Exponents are stored as integers counting units of 1/2 (so the q-power k
lives at exponent 2k).  Laurent polynomials have integer coefficients; every
rational value, constants included, is a QRatio of two of them, and the t-
and y-images are polynomials over Q, kept as integer numerators over one
denominator (RPoly).  Membership of an image in Q[t] and in Z[t] is decided
on the Laurent numerator alone; the integer numerators of the image are
built only when first read.  No floating point ever enters.
Ratios are reduced over the cyclotomic factors Phi_j of their denominators,
with no polynomial gcd.  One kernel (`_times_phis`) applies every product of
Phi_j powers, through the binomials Phi_j = prod_(d | j) (x^d - 1)^mobius(j/d);
a product of two ratios tests each numerator only against the other's
denominator.  Every sum of ratios, of q-number products (`qnum_sum`) or of two
QRatios, goes through one core (`_ratio_sum`): the terms are added as integers
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

from gvexact.partitions import Partition


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


def _primitive(*polys: dict[int, int]) -> tuple[dict[int, int], ...]:
    """Integer polynomials divided by the gcd of all their coefficients,
    signed so that the last one has a positive leading coefficient."""
    g = math.gcd(*(c for p in polys for c in p.values()))
    if polys[-1] and polys[-1][max(polys[-1])] < 0:
        g = -g
    if g in (0, 1):
        return polys
    return tuple({e: c // g for e, c in p.items()} for p in polys)


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


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> QLaurent:
    """The n-th cyclotomic polynomial Phi_n(x), from its binomials (`_times_phis`)."""
    if n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    return _times_phis(QLaurent.one(), ((n, 1),))


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
        for d in range(1, j + 1):
            if j % d == 0:
                net[d] = net.get(d, 0) + mobius(j // d) * e
    out = [QLaurent.one(), QLaurent.one()]  # up, down
    for d, n in sorted(net.items()):
        for _ in range(abs(n)):  # a product with x^d - 1: a shift and a subtraction
            out[n < 0] = out[n < 0] * QLaurent({d: 1, 0: -1})
    return tuple(None if p.is_one() else p for p in out)


@lru_cache(maxsize=None)
def _cyclotomic_indices(k: int) -> tuple[int, ...]:
    """The divisors j of 2k: [k] = x^-k prod_j Phi_j(x)."""
    return tuple(j for j in range(1, 2 * k + 1) if (2 * k) % j == 0)


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
        return _memo_sum(tuple((Fraction(c), tuple(sorted((k, e) for k, e in counts.items() if e)))
                               for c, counts in terms))
    walked = []
    for const, counts in terms:
        c = Fraction(const)
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


def _ratio_sum(terms, num: QLaurent | None = None) -> "QRatio":
    """num * sum over (p, lead, phis) of p prod Phi_j^phis[j] / lead as a canonical QRatio,
    for integer Laurent polynomials p and num (1 if left out), positive integers lead and
    signed exponents phis, a dict.  The terms add up as integers over
    lcm(lead) prod Phi_j^(-min e_j), and the sum is reduced once, by the highest powers of
    the Phi_j left in the denominator that divide it (`_common_phis`): the Phi_j are monic,
    primitive, irreducible and pairwise coprime.  Each p is prime to the Phi_j of negative
    exponent in its own term, as a reduced numerator or a monomial is.  So a Phi_j whose
    lowest exponent only one term attains divides every term of the sum but that one, not
    the sum, and is tested only when num is given."""
    if len(terms) == 1:  # every qnum_ratio: nothing to add
        ((total, lcm, low),) = terms
        low, ties = dict(sorted(low.items())), ()
    else:
        exps = {j: sorted(p.get(j, 0) for _, _, p in terms)
                for j in sorted(set().union(*(p for _, _, p in terms)))}
        low = {j: e[0] for j, e in exps.items()}
        ties = {j for j, e in exps.items() if e[1] == e[0]}  # lowest exponent attained twice
        lcm = math.lcm(*(lead for _, lead, _ in terms))
        acc: dict[int, int] = {}
        for p, lead, phis in terms:
            excess = tuple((j, phis.get(j, 0) - e) for j, e in low.items() if phis.get(j, 0) > e)
            _mul_add(acc, p * QLaurent.const(lcm // lead) if lead < lcm else p, _phi_power(excess))
        total = _laurent(acc if all(acc.values()) else {e: v for e, v in acc.items() if v})
    total = total if num is None else total * num
    common = _common_phis(total, () if len(total.coeffs) < 2 else tuple(
        (j, -e) for j, e in low.items() if e < 0 and (num is not None or j in ties)))
    for j, k in common:
        low[j] += k
    # the Phi_j left up and the common ones divided out, in one call of the kernel
    total = _times_phis(total, tuple((j, e) for j, e in low.items() if e > 0)
                        + tuple((j, -k) for j, k in common))
    den = _phi_power(tuple((j, -e) for j, e in low.items() if e < 0))
    return QRatio._coprime(total, den * QLaurent.const(lcm) if lcm > 1 else den)


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
def _phi_factors(den: QLaurent) -> tuple[tuple[int, int], ...]:
    """The (j, e) with den = c x^s prod Phi_j^e, by trial over increasing j;
    any other den is a ValueError once j > 2 deg^2 for the degree deg left,
    as phi(j) >= sqrt(j/2).  Cached: the denominators of a run repeat (one
    poles-graphs sample factors 33 distinct ones in 665 calls)."""
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


def qnum_product(p: Partition) -> QLaurent:
    """[p] = prod over parts [p_i]; empty product is 1."""
    out = QLaurent.one()
    for a in p:
        out = out * qnum(a)
    return out


@lru_cache(maxsize=None)
def qfactorial(n: int) -> QLaurent:
    """[n]! = [1][2]...[n]; [0]! = 1."""
    return QLaurent.one() if n == 0 else qfactorial(n - 1) * qnum(n)


def qbinomial(n: int, k: int) -> QLaurent:
    """[n]! / ([k]! [n-k]!), an integer Laurent polynomial for 0 <= k <= n."""
    return qfactorial(n).divide_exact(qfactorial(k) * qfactorial(n - k))


@lru_cache(maxsize=None)
def qfactorial_over(n: int, p: Partition) -> QLaurent:
    """[n]! / [p] for |p| <= n, an integer Laurent polynomial."""
    return qfactorial(n).divide_exact(qnum_product(p))


def degree_counts(d: tuple[int, ...]) -> dict[int, int]:
    """The q-number exponents of 1 / D_d: [k]^-2 for every d_i >= k."""
    out: dict[int, int] = {}
    for di in d:
        for k in range(1, di + 1):
            out[k] = out.get(k, 0) - 2
    return out


def degree_denominator(d: tuple[int, ...]) -> QLaurent:
    """D_d = prod_i [d_i]!^2: Z_d D_d and |d| F_d D_d are integer Laurent
    polynomials.  Its leading coefficient is 1."""
    return _shape_denominator(tuple(sorted(di for di in d if di)))


@lru_cache(maxsize=None)
def _shape_denominator(shape: tuple[int, ...]) -> QLaurent:
    """D_d for the sorted nonzero parts of d.  Cached on that shape, not on d:
    the degrees of a run share few shapes (the 403 degrees of a sweep-wide
    sample have 11)."""
    out = QLaurent.one()
    for di in shape:
        out = out * qfactorial(di) * qfactorial(di)
    return out


# ---------------------------------------------------------------------------
# Reduced ratios
# ---------------------------------------------------------------------------


class QRatio:
    """Reduced ratio num/den of integer Laurent polynomials.

    den must be an integer times a monomial times Phi_j, as q-numbers, D_d
    and t_k are (`_phi_factors`); num and den are divided once by the
    highest power of each Phi_j that divides both, with no polynomial gcd.

    Invariants after construction: den has lowest exponent 0 and a positive
    leading coefficient; num and den share no polynomial factor, and the gcd
    of all their coefficients is 1 (a rational constant a/b is QRatio(a, b)).
    Monomial units stay in the numerator, so the numerator may be a genuine
    Laurent polynomial.  The form is canonical, so == and hash use (num, den).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QLaurent, den: QLaurent | None = None):
        if den is None:
            den = QLaurent.one()
        if den.is_zero():
            raise ZeroDivisionError("QRatio with zero denominator")
        if num and len(den.coeffs) > 1:
            inverse = tuple((j, -k) for j, k in _common_phis(num, _phi_factors(den)))
            num, den = _times_phis(num, inverse), _times_phis(den, inverse)
        self._normalize(num, den)

    def _normalize(self, num: QLaurent, den: QLaurent) -> None:
        """Store num/den, already free of common polynomial factors, with
        den shifted to lowest exponent 0 and the integer content divided out."""
        if num.is_zero():
            self.num = QLaurent.zero()
            self.den = QLaurent.one()
            return
        dv = den.min_exp()
        if dv:
            num, den = num.shifted(-dv), den.shifted(-dv)
        nc, dc = _primitive(num.coeffs, den.coeffs)
        self.num = _laurent(nc)
        self.den = _laurent(dc)

    @staticmethod
    def _coprime(num: QLaurent, den: QLaurent) -> "QRatio":
        """num/den for operands known to share no polynomial factor: the
        constructor without the factoring."""
        out = QRatio.__new__(QRatio)
        out._normalize(num, den)
        return out

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "QRatio":
        return QRatio(QLaurent.zero())

    @staticmethod
    def one() -> "QRatio":
        return QRatio(QLaurent.one())

    @staticmethod
    def const(v) -> "QRatio":
        v = Fraction(v)
        return QRatio(QLaurent.const(v.numerator), QLaurent.const(v.denominator))

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        """A Laurent polynomial over Q: the denominator is a constant."""
        return len(self.den.coeffs) == 1

    def is_monomial(self) -> bool:
        """A nonzero rational multiple of a power of x, a unit of the ring."""
        return len(self.num.coeffs) == 1 and len(self.den.coeffs) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            raise TypeError("compare a QRatio with a QRatio, not with a number")
        return (
            isinstance(other, QRatio)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def _coerce(v) -> "QRatio":
        return v if isinstance(v, QRatio) else QRatio.const(v)

    def __add__(self, other) -> "QRatio":
        """a/b + c/d through `_ratio_sum`: a reduced den is its lead times
        prod Phi_j^e (`_phi_factors`, cached), as Phi_j is monic."""
        return _ratio_sum([(r.num, r.den.coeffs[r.den.max_exp()],
                            {j: -e for j, e in _phi_factors(r.den)})
                           for r in (self, QRatio._coerce(other))])

    __radd__ = __add__

    def __neg__(self) -> "QRatio":
        out = QRatio.__new__(QRatio)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "QRatio":
        return self + (-QRatio._coerce(other))

    # Both operands are reduced, so a monomial factor (a unit, constants
    # included) cannot create a common factor: those products skip the fold
    # tests.  Otherwise, in a/b c/d only a and d, or c and b, can share a
    # Phi_j (Knuth, TAOCP vol. 2, 4.5.1): each pair is tested and divided
    # before the two products are formed.

    def __mul__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        (a, b), (c, d) = (self.num, self.den), (o.num, o.den)
        if a and c and not (self.is_monomial() or o.is_monomial()):
            ad = tuple((j, -k) for j, k in _common_phis(a, _phi_factors(d)))
            cb = tuple((j, -k) for j, k in _common_phis(c, _phi_factors(b)))
            a, d = _times_phis(a, ad), _times_phis(d, ad)
            c, b = _times_phis(c, cb), _times_phis(b, cb)
        return QRatio._coprime(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("QRatio division by zero")
        inverse = QRatio._coprime(o.den, o.num)
        _phi_factors(inverse.den)  # o.num becomes a denominator: refuse it unless cyclotomic
        return self * inverse

    def __rtruediv__(self, other) -> "QRatio":
        return QRatio._coerce(other) / self

    def substitute_power(self, m: int) -> "QRatio":
        """q -> q^m, a ring homomorphism; m >= 1."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        # q -> q^m maps a Bezout identity u*num + v*den = 1 to another one and
        # keeps every coefficient, den's lowest exponent 0 and its lead sign,
        # so the image of a reduced ratio is reduced.
        return QRatio._coprime(self.num.substitute_power(m), self.den.substitute_power(m))

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
    out._nums, out._src, out.den = None, (p, step), f.den.coeffs[0]
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
    return QRatio(qnum(k) * qnum(k))


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

