"""Truncated multivariate formal series over exact ratios: the partition
function by the definitional and matrix-element paths, the free energy
F = log Z by the Euler-operator recursion, and the connected-graph free energy.

Degree vectors are tuples d in Z^r_{>=0}; a DegreeSeries keeps every
coefficient with total degree up to its cap, sparse across vectors.

Z, log Z and the matrix path run on integer Laurent numerators over the fixed
denominator D_d = prod_i [d_i]!^2 of each degree, with no polynomial gcd.  A
series keeps only the numerators and reduces a coefficient to a QRatio the
first time it is read.  D_d is a product of cyclotomic polynomials Phi_j, so
a coefficient is reduced over the cyclotomic factors of its denominator
(`qalgebra.qnum_ratio`), again with no polynomial gcd.  The graphs path
adds the q-number exponent vectors of every combined forest's amplitude
over one common cyclotomic denominator and reduces the sum once
(`qalgebra.qnum_sum`), with no QRatio arithmetic.  The matrix path is the
trace of a cyclic product of transfer matrices over the intermediate Fock
states, one matrix per slot, whose entries are memoized per slot and shared
across degrees and gammas.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

# amplitude_H is unused here but stays importable: perfbench/worker.py's traced runs wrap it
from gvexact.graph_engine import amplitude_H  # noqa: F401
from gvexact.graph_engine import amplitude_counts, enumerate_combined_forests
from gvexact.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_rsets,
    kappa,
    union,
    weight,
    z_factor,
)
from gvexact.qalgebra import (
    QLaurent,
    QRatio,
    degree_counts,
    qbinomial,
    qfactorial_over,
    qnum_ratio,
    qnum_sum,
)
from gvexact.schur_vertex import matrix_element_char, w_numerator


def degree_vectors(r: int, max_total: int):
    """Nonzero degree vectors in graded lexicographic order."""
    for total in range(1, max_total + 1):
        for head in _compositions(total, r):
            yield head


def _compositions(total: int, r: int):
    if r == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, r - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Partition-function coefficients
# ---------------------------------------------------------------------------


def _check_degree(gamma: tuple[int, ...], d: tuple[int, ...]) -> None:
    if len(d) != len(gamma) or len(gamma) < 2:
        raise ValueError("gamma and degree must share a length r >= 2")
    if not any(d):
        raise ValueError("degree zero is the constant term")


def z_numerator(gamma: tuple[int, ...], d: tuple[int, ...]) -> QLaurent:
    """Z_d D_d, where Z_d = (-1)^(gamma.d) sum over r-tuples lambda^i in
    P_{d_i} of prod_i q^(gamma_i kappa(lambda^i)/2) W(lambda^i, lambda^{i+1}).

    Each lambda^i sits in two vertex factors, so D_d splits into one
    integral W [|mu|]! [|nu|]! (`w_numerator`) per factor and the sum needs
    no division."""
    _check_degree(gamma, d)
    r = len(gamma)
    total = QLaurent.zero()
    for lams in itertools.product(*(enumerate_partitions(di) for di in d)):
        term = QLaurent.one()
        for i in range(r):
            term = term * w_numerator(lams[i], lams[(i + 1) % r])
        total = total + term.shifted(sum(g * kappa(lam) for g, lam in zip(gamma, lams)))
    return -total if sum(g * di for g, di in zip(gamma, d)) % 2 else total


def z_coefficient_def(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """The partition-function coefficient Z_d by the definitional path."""
    return qnum_ratio(1, degree_counts(d), z_numerator(gamma, d))


def z_coefficient_matrix(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """The same coefficient as the cyclic trace tr(T_1 ... T_r) of the
    `transfer_matrix` of each slot, summed over the intermediate Fock states
    lambda^i of the vertex-operator product.

    Slot i carries d_i!^2 times its 1 / ([mu^i] [nu^i] z(mu^i) z(nu^i)
    z(lambda^i)), so the trace is one integer sum over the common
    denominator D_d prod_i d_i!^2, reduced over the cyclotomic factors of
    D_d."""
    _check_degree(gamma, d)
    r = len(gamma)
    caps = [min(d[i - 1], d[i]) for i in range(r)]  # |lambda^i| <= caps[i]
    mats = [transfer_matrix(d[i], gamma[i] + 2, caps[i], caps[(i + 1) % r])
            for i in range(r)]
    rows = mats[0]
    for mat in mats[1:]:
        rows = _times(rows, mat)
    total = QLaurent.zero()
    for lam, row in rows.items():
        if lam in row:
            total = total + row[lam]
    if sum(g * di for g, di in zip(gamma, d)) % 2:
        total = -total
    scale = math.prod(math.factorial(di) ** 2 for di in d)
    return qnum_ratio(Fraction(1, scale), degree_counts(d), total)


@lru_cache(maxsize=None)
def _states(cap: int) -> tuple[Partition, ...]:
    """Every partition of weight at most cap."""
    return tuple(p for n in range(cap + 1) for p in enumerate_partitions(n))


def transfer_matrix(di: int, a: int, lo: int, hi: int) -> dict:
    """T[lambda][lambda'] for one slot of degree di and framing
    q^(a F2), a = gamma_i + 2: rows |lambda| <= lo, columns |lambda'| <= hi,
    zero entries left out.  See `transfer_entry`."""
    out = {}
    for lam in _states(lo):
        row = {}
        for lamp in _states(hi):
            entry = transfer_entry(di, a, lam, lamp)
            if entry:
                row[lamp] = entry
        if row:
            out[lam] = row
    return out


@lru_cache(maxsize=None)
def transfer_entry(di: int, a: int, lam: Partition, lamp: Partition) -> QLaurent:
    """sum over mu |- di - |lam|, nu |- di - |lamp| of
    (-1)^(l(mu)+l(nu)) di!^2 / (z(lam) z(mu) z(nu)) [di]!/[mu] [di]!/[nu]
    <lam u mu| q^(a F2) |nu u lamp>.

    The weight is an integer: z(lam) z(mu) divides z(lam u mu), which divides
    di!, and z(nu) divides |nu|!, which divides di!.  It depends on the slot
    alone, so it is shared across degrees and gammas."""
    fact = math.factorial(di)
    total = QLaurent.zero()
    for mu in enumerate_partitions(di - weight(lam)):
        bra = union(lam, mu)
        for nu in enumerate_partitions(di - weight(lamp)):
            elem = matrix_element_char(bra, a, union(nu, lamp))
            if elem:
                c = (_exact_quotient(fact, z_factor(lam) * z_factor(mu))
                     * _exact_quotient(fact, z_factor(nu)))
                if (len(mu) + len(nu)) % 2:
                    c = -c
                total = total + (elem * qfactorial_over(di, mu) * qfactorial_over(di, nu)
                                 * QLaurent.const(c))
    return total


def _exact_quotient(n: int, m: int) -> int:
    q, rem = divmod(n, m)
    if rem:
        raise ArithmeticError(f"{m} does not divide {n}")
    return q


def _times(rows: dict, mat: dict) -> dict:
    """The sparse product of two transfer-matrix chains."""
    out = {}
    for lam, row in rows.items():
        acc = {}
        for mid, x in row.items():
            for lamp, y in mat.get(mid, {}).items():
                xy = x * y
                acc[lamp] = acc[lamp] + xy if lamp in acc else xy
        acc = {lamp: v for lamp, v in acc.items() if v}
        if acc:
            out[lam] = acc
    return out


def z_coefficient_graphs(
    gamma: tuple[int, ...], d: tuple[int, ...], connected_only: bool = False
) -> QRatio:
    """Combined-forest path: sum over r-sets of (1/z) sum_W H(W).

    With connected_only this is the free-energy coefficient, otherwise the
    partition-function coefficient.  Verification-grade (exponential cost).
    """
    terms = []
    for rs in enumerate_rsets(len(gamma), d):
        zden = math.prod(z_factor(p) for tup in (rs.mu, rs.nu, rs.lam) for p in tup)
        for w in enumerate_combined_forests(rs, gamma, connected_only=connected_only):
            const, counts = amplitude_counts(w)
            terms.append((Fraction(const, zden), counts))
    return qnum_sum(terms)


def f_connected(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """Free-energy coefficient as the connected combined-forest sum."""
    return z_coefficient_graphs(gamma, d, connected_only=True)


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------


class DegreeSeries:
    """Formal series sum_d c_d Q^d truncated at a total degree.

    The series holds integer Laurent numerators: c_d = numerators[d] / D_d,
    or c_d = numerators[d] / (|d| D_d) for a `weighted` series.  The
    partition function keeps ZN_d = Z_d D_d; its log, the free energy, is
    weighted and keeps FN_d = |d| F_d D_d.  `get` (and `coefficients`)
    reduces a coefficient to a canonical QRatio the first time it is read
    and caches it; a run that reads only numerators reduces none.

    An optional support set restricts the kept degree vectors further; it
    must be downward closed under the componentwise order, because the log
    recursion reads Z at every degree below a kept one.
    """

    def __init__(self, r: int, max_total: int, support: frozenset | None = None,
                 weighted: bool = False):
        self.r = r
        self.max_total = max_total
        self.support = support
        self.weighted = weighted
        self.numerators: dict[tuple[int, ...], QLaurent] = {}
        self._ratios: dict[tuple[int, ...], QRatio] = {}
        self.constant = QRatio.zero()

    def _keeps(self, d: tuple[int, ...]) -> bool:
        if sum(d) > self.max_total:
            return False
        return self.support is None or d in self.support

    def _weight(self, d: tuple[int, ...]) -> int:
        """c_d = numerators[d] / (weight * D_d)."""
        return sum(d) if self.weighted else 1

    def set_numerator(self, d: tuple[int, ...], num: QLaurent) -> None:
        """Store the numerator of c_d for a nonzero kept degree d."""
        self._ratios.pop(d, None)
        if num.is_zero():
            self.numerators.pop(d, None)
        else:
            self.numerators[d] = num

    def numerator(self, d: tuple[int, ...]) -> QLaurent:
        """The numerator at a nonzero degree d; a degree outside the
        computed range is a KeyError rather than a silent zero."""
        if not self._keeps(d):
            raise KeyError(f"coefficient at {d} was not computed")
        return self.numerators.get(d, QLaurent.zero())

    def get(self, d: tuple[int, ...]) -> QRatio:
        """c_d as a canonical QRatio, reduced on first read over the
        cyclotomic factors of its denominator D_d (times |d| when weighted)
        by `qnum_ratio`, with no polynomial gcd; like `numerator`, a degree
        outside the computed range is a KeyError."""
        if not any(d):
            return self.constant
        out = self._ratios.get(d)
        if out is None:
            num = self.numerator(d)
            if num.is_zero():
                return QRatio.zero()
            out = self._ratios[d] = qnum_ratio(Fraction(1, self._weight(d)),
                                               degree_counts(d), num)
        return out

    @property
    def coefficients(self) -> dict[tuple[int, ...], QRatio]:
        """Every nonzero c_d as a reduced ratio; reading it reduces them all."""
        return {d: self.get(d) for d in self.numerators}

    def log(self) -> "DegreeSeries":
        """F = log Z by the Euler-operator recursion
        |d| F_d = |d| Z_d - sum_{0<e<d} |e| F_e Z_(d-e); needs constant term 1.

        Multiplied through by D_d it runs on integer numerators with no gcd:
        FN_d = |d| F_d D_d = |d| ZN_d - sum_{0<e<d} FN_e ZN_(d-e) cof(d, e),
        where ZN_d = Z_d D_d and cof(d, e) = D_d / (D_e D_(d-e)) =
        prod_i qbinom(d_i, e_i)^2.  Degrees are visited in graded order, so
        every e in the box below d is done before d.  The result is the
        weighted series of the FN_d; nothing is reduced here.
        """
        if self.weighted or self.constant != QRatio.one():
            raise ValueError("log needs an unweighted series with constant term 1")
        out = DegreeSeries(self.r, self.max_total, self.support, weighted=True)
        fn = out.numerators  # FN_e
        for d in degree_vectors(self.r, self.max_total):
            if not self._keeps(d):
                continue
            n = sum(d)
            acc = {e: v * n for e, v in self.numerators.get(d, QLaurent.zero()).coeffs.items()}
            # the box below d; neither 0 nor d itself is in fn
            for e in itertools.product(*(range(x + 1) for x in d)):
                fe = fn.get(e)
                if fe is None:
                    continue
                rest = self.numerators.get(tuple(a - b for a, b in zip(d, e)))
                if rest is not None:
                    _subtract_product(acc, fe * rest, _cofactor(d, e))
            fd = QLaurent(acc)
            if fd:
                fn[d] = fd
        return out


def _subtract_product(acc: dict[int, int], a: QLaurent, b: QLaurent) -> None:
    """acc -= a * b, in place on a dict of exponents to coefficients that
    may hold zeros."""
    a, b = a.coeffs, b.coeffs
    if len(a) > len(b):
        a, b = b, a
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) - v1 * v2


def _cofactor(d: tuple[int, ...], e: tuple[int, ...]) -> QLaurent:
    """D_d / (D_e D_(d-e)) = prod_i qbinom(d_i, e_i)^2."""
    out = QLaurent.one()
    for di, ei in zip(d, e):
        if 0 < ei < di:
            out = out * _qbinomial_squared(di, ei)
    return out


@lru_cache(maxsize=None)
def _qbinomial_squared(n: int, k: int) -> QLaurent:
    b = qbinomial(n, k)
    return b * b


def downward_closure(degrees) -> frozenset:
    """Closure of a degree set under the componentwise order (0 excluded)."""
    out = set()
    for d in degrees:
        for sub in itertools.product(*(range(x + 1) for x in d)):
            if any(sub):
                out.add(sub)
    return frozenset(out)


def build_z_series(
    gamma: tuple[int, ...],
    max_total: int,
    degrees=None,
) -> DegreeSeries:
    """Assemble the partition-function series (definitional path) up to the
    total-degree cap, optionally restricted to the downward closure of an
    explicit degree set."""
    r = len(gamma)
    support = None if degrees is None else downward_closure(degrees)
    z = DegreeSeries(r, max_total, support)
    z.constant = QRatio.one()
    for d in degree_vectors(r, max_total):
        if support is None or d in support:
            z.set_numerator(d, z_numerator(gamma, d))
    return z
