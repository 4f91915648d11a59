"""Exact Laurent polynomials in x = q^(1/2), reduced ratios, and the
symmetrization maps onto polynomials in t = [1]^2 and y = [1/2]^2.

Exponents are stored as integers counting units of 1/2 (so the q-power k
lives at exponent 2k).  Laurent polynomials have integer coefficients; every
rational value, constants included, is a QRatio of two of them, and the t-
and y-images are polynomials over Fractions.  No floating point ever enters.
Ratios are reduced over the cyclotomic factors Phi_j of their denominators,
with no polynomial gcd.  Pole extraction works by exact polynomial remainder
arithmetic modulo t_k, never by evaluating at roots of unity.
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

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    n = int(v)
                    if n != v:
                        raise ValueError(f"QLaurent coefficient {v} is not an integer")
                    c[e] = n
        self.coeffs = c

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
        return hash(frozenset(self.coeffs.items()))

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
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                s = c.get(e, 0) + v1 * v2
                if s:
                    c[e] = s
                else:
                    c.pop(e, None)
        return _laurent(c)

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
    out.coeffs = c
    return out


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


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> QLaurent:
    """The n-th cyclotomic polynomial Phi_n(x): x^n - 1 divided exactly by
    Phi_j for every proper divisor j of n."""
    if n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    out = QLaurent({n: 1, 0: -1})
    for j in range(1, n):
        if n % j == 0:
            out = out.divide_exact(cyclotomic(j))
    return out


@lru_cache(maxsize=None)
def _cyclotomic_indices(k: int) -> tuple[int, ...]:
    """The divisors j of 2k: [k] = x^-k prod_j Phi_j(x)."""
    return tuple(j for j in range(1, 2 * k + 1) if (2 * k) % j == 0)


def qnum_ratio(const, counts: dict[int, int], num: QLaurent | None = None) -> "QRatio":
    """const * num * prod_k [k]^counts[k] as a canonical QRatio: the one-term `qnum_sum`."""
    return qnum_sum(((const, counts),), num)


def qnum_sum(terms, num: QLaurent | None = None) -> "QRatio":
    """num * sum over (const, counts) of const * prod_k [k]^counts[k] as a
    canonical QRatio, with no gcd; num, an integer Laurent polynomial, is 1 if left out.

    [k] = x^-k prod_{j | 2k} Phi_j(x) and [-k] = -[k], so a term is c x^s prod Phi_j^e_j,
    and the terms add up as integers over lcm(den c) prod Phi_j^(-min e_j).  The Phi_j are
    monic, primitive, irreducible and pairwise coprime, so the sum is reduced once, by the
    highest powers of the Phi_j left in the denominator that divide it (`_common_phis`).
    [0] with a positive exponent makes a term 0; in a denominator it is a ZeroDivisionError."""
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
            walked.append((c, shift, phis))
    if len(walked) == 1:  # every qnum_ratio: c x^s over its own Phi_j, nothing to add
        c, shift, phis = walked[0]
        low, lcm = dict(sorted(phis.items())), c.denominator
        total = _laurent({shift: c.numerator})
    else:
        low = {j: min(p.get(j, 0) for _, _, p in walked)
               for j in sorted(set().union(*(p for _, _, p in walked)))}
        lcm = math.lcm(*(c.denominator for c, _, _ in walked))
        acc: dict[int, int] = {}
        for c, shift, phis in walked:
            n = c.numerator * (lcm // c.denominator)
            excess = tuple((j, phis.get(j, 0) - e) for j, e in low.items()
                           if phis.get(j, 0) > e)
            for e, v in _phi_power(excess).coeffs.items():
                acc[e + shift] = acc.get(e + shift, 0) + n * v
        total = _laurent({e: v for e, v in acc.items() if v})
    if num is not None:
        total = total * num
    if len(total.coeffs) > 1:
        common = _common_phis(total, tuple((j, -e) for j, e in low.items() if e < 0))
        if common:
            total = total.divide_exact(_phi_power(common))
            for j, k in common:
                low[j] += k
    up = tuple((j, e) for j, e in low.items() if e > 0)
    if up:
        total = total * _phi_power(up)
    down = tuple((j, -e) for j, e in low.items() if e < 0)
    return QRatio._coprime(total, _phi_power(down) * QLaurent.const(lcm))


@lru_cache(maxsize=None)
def _phi_power(factors: tuple[tuple[int, int], ...]) -> QLaurent:
    """prod Phi_j^e over the (j, e) pairs.  Cached: the denominators of
    the degrees of a series and the amplitude products repeat, so a run
    needs only a few dozen distinct products."""
    out = QLaurent.one()
    for j, e in factors:
        for _ in range(e):
            out = out * cyclotomic(j)
    return out


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
    out = QLaurent.one()
    for di in d:
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
            common = _common_phis(num, _phi_factors(den))
            if common:
                p = _phi_power(common)
                num, den = num.divide_exact(p), den.divide_exact(p)
        self._normalize(num, den)

    def _normalize(self, num: QLaurent, den: QLaurent) -> None:
        """Store num/den, already free of common polynomial factors, with
        den shifted to lowest exponent 0 and the integer content divided out."""
        if num.is_zero():
            self.num = QLaurent.zero()
            self.den = QLaurent.one()
            return
        dv = den.min_exp()
        nc, dc = _primitive(num.shifted(-dv).coeffs, den.shifted(-dv).coeffs)
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
        o = QRatio._coerce(other)
        if self.den == o.den:
            return QRatio(self.num + o.num, self.den)
        return QRatio(self.num * o.den + o.num * self.den, self.den * o.den)

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
    # tests, and only a divisor's numerator, new to a denominator, is factored.

    def __mul__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        num, den = self.num * o.num, self.den * o.den
        if self.is_monomial() or o.is_monomial():
            return QRatio._coprime(num, den)
        return QRatio(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRatio":
        o = QRatio._coerce(other)
        if o.is_zero():
            raise ZeroDivisionError("QRatio division by zero")
        num, den = self.num * o.den, self.den * o.num
        if self.is_monomial():
            _phi_factors(o.num)  # o.num becomes a denominator: refuse it unless cyclotomic
            return QRatio._coprime(num, den)
        return QRatio(num, den)

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
    """Dense univariate polynomial over Fractions, trailing zeros trimmed.

    Serves for both the t- and the y-images; the variable is bookkeeping at
    the call sites.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]  # not rebuilt
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            raise TypeError("compare an RPoly with an RPoly, not with a number")
        return isinstance(other, RPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "RPoly") -> "RPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "RPoly":
        return RPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RPoly") -> "RPoly":
        return self + (-other)

    def __mul__(self, other) -> "RPoly":
        """The product with a scalar."""
        return RPoly([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, other: "RPoly") -> tuple["RPoly", "RPoly"]:
        if other.is_zero():
            raise ZeroDivisionError
        num = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(num) - d)
        while len(num) - 1 >= d and num:
            nd = len(num) - 1
            f = num[-1] / lead
            q[nd - d] = f
            for j, b in enumerate(other.coeffs):
                num[nd - d + j] -= f * b
            while num and not num[-1]:
                num.pop()
        return RPoly(q), RPoly(num)

    def mod(self, other: "RPoly") -> "RPoly":
        return self.divmod(other)[1]

    def divide_exact(self, other: "RPoly") -> "RPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division not exact")
        return q

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def constant(self) -> Fraction:
        return self[0]

    def constant_only(self) -> Fraction | None:
        return self[0] if self.degree() <= 0 else None

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
    denominator -> polynomial (t or y).

    Each pair x^e + x^-e with e = m*step is 2 + t_m, and t_m is t_k_in_t(m)
    in the target variable (t for step 2, y for step 1).  The integer image
    of the numerator is divided by the denominator at the end."""
    if not f.is_laurent():
        raise NotSymmetricInT("nontrivial denominator after reduction")
    p = f.num
    if not p.is_symmetric():
        raise NotSymmetricInT("not invariant under q -> 1/q")
    if any(e % step for e in p.coeffs):
        raise NotSymmetricInT("exponent parity does not match the target ring")
    out = [0] * (max(p.coeffs, default=0) // step + 1)
    for e, c in p.coeffs.items():
        if e == 0:
            out[0] += c
        elif e > 0:
            out[0] += 2 * c
            for j, a in enumerate(_t_k_coeffs(e // step)):
                out[j] += a * c
    den = f.den.coeffs[0]
    return RPoly([Fraction(c, den) for c in out])


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


def t_k_qratio(k: int) -> QRatio:
    """t_k = [k]^2 as a QRatio."""
    return QRatio(qnum(k) * qnum(k))


def pole_extract(f: QRatio, k: int, mode: str = "plain") -> tuple[Fraction, RPoly]:
    """Decompose f against the simple pole at t_k = 0.

    plain: f = g/t_k + remainder(t)           -> (g, remainder in t)
    half : f = (g/t_k)(1 + t_{k/2}/2) + rem   -> (g, remainder in y),
           only for even k.
    Raises NoSuchDecomposition when f*t_k is not a (suitably symmetric)
    Laurent polynomial or the modular remainder has the wrong shape.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    prod = f * t_k_qratio(k)
    if mode == "plain":
        try:
            p = to_t_poly(prod)
        except NotSymmetricInT as exc:
            raise NoSuchDecomposition(str(exc)) from exc
        q, r = p.divmod(t_k_in_t(k))
        g = r.constant_only()
        if g is None:
            raise NoSuchDecomposition("modular remainder is not a constant")
        return g, q
    if mode == "half":
        if k % 2:
            raise ValueError("half mode needs even k")
        try:
            p = to_y_poly(prod)
        except NotSymmetricInT as exc:
            raise NoSuchDecomposition(str(exc)) from exc
        tk_y = to_y_poly(t_k_qratio(k))
        half_y = to_y_poly(QRatio.one() + t_k_qratio(k // 2) * Fraction(1, 2))
        rp = p.mod(tk_y)
        rh = half_y.mod(tk_y)
        if rh.is_zero():
            raise NoSuchDecomposition("degenerate half-mode modulus")
        g = rp.coeffs[-1] / rh.coeffs[-1] if rp.coeffs else Fraction(0)
        if rh * g != rp:
            raise NoSuchDecomposition("modular remainder not proportional to 1 + t_{k/2}/2")
        rem = (p - half_y * g).divide_exact(tk_y)
        return g, rem
    raise ValueError(f"unknown pole_extract mode {mode!r}")


# ---------------------------------------------------------------------------
# Serialization (exact strings; used by the CLI JSON schema)
# ---------------------------------------------------------------------------


def format_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


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

