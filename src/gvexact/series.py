"""Truncated multivariate formal series over exact ratios: the partition
function by the definitional and matrix-element paths, the free energy
F = log Z by the Euler-operator recursion, and the connected-graph free energy.

Degree vectors are tuples d in Z^r_{>=0}; a DegreeSeries keeps every
coefficient with total degree up to its cap, sparse across vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gvexact.graph_engine import amplitude_H, enumerate_combined_forests
from gvexact.partitions import (
    enumerate_partitions,
    enumerate_rsets,
    kappa,
    union,
    z_factor,
)
from gvexact.qalgebra import QLaurent, QRatio, qnum_product
from gvexact.schur_vertex import W_vertex, matrix_element_char


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


def z_coefficient_def(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """(-1)^(gamma.d) sum over r-tuples lambda^i in P_{d_i} of
    prod_i q^(gamma_i kappa(lambda^i)/2) W(lambda^i, lambda^{i+1})."""
    r = len(gamma)
    if len(d) != r or r < 2:
        raise ValueError("gamma and degree must share a length r >= 2")
    if not any(d):
        raise ValueError("degree zero is the constant term")
    total = QRatio.zero()
    for lams in itertools.product(*(enumerate_partitions(di) for di in d)):
        term = QRatio.one()
        for i in range(r):
            pref = QLaurent.monomial(gamma[i] * kappa(lams[i]))
            term = term * QRatio(pref) * W_vertex(lams[i], lams[(i + 1) % r])
        total = total + term
    sign = -1 if sum(g * di for g, di in zip(gamma, d)) % 2 else 1
    return total * sign


def z_coefficient_matrix(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """The same coefficient through r-sets and bosonic matrix elements."""
    r = len(gamma)
    if len(d) != r or r < 2:
        raise ValueError("gamma and degree must share a length r >= 2")
    if not any(d):
        raise ValueError("degree zero is the constant term")
    total = QRatio.zero()
    for rs in enumerate_rsets(r, d):
        term = QRatio.one()
        for i in range(r):
            bra = union(rs.lam[i], rs.mu[i])
            ket = union(rs.nu[i], rs.lam[(i + 1) % r])
            if bra or ket:
                term = term * QRatio(matrix_element_char(bra, gamma[i] + 2, ket))
            if term.is_zero():
                break
        if term.is_zero():
            continue
        lsign = sum(len(p) for p in rs.mu) + sum(len(p) for p in rs.nu)
        den = QLaurent.one()
        zden = 1
        for tup in (rs.mu, rs.nu):
            for p in tup:
                den = den * qnum_product(p)
                zden *= z_factor(p)
        for p in rs.lam:
            zden *= z_factor(p)
        coeff = Fraction(-1 if lsign % 2 else 1, zden)
        total = total + term * coeff / QRatio(den)
    sign = -1 if sum(g * di for g, di in zip(gamma, d)) % 2 else 1
    return total * sign


def z_coefficient_graphs(
    gamma: tuple[int, ...], d: tuple[int, ...], connected_only: bool = False
) -> QRatio:
    """Combined-forest path: sum over r-sets of (1/z) sum_W H(W).

    With connected_only this is the free-energy coefficient, otherwise the
    partition-function coefficient.  Verification-grade (exponential cost).
    """
    r = len(gamma)
    total = QRatio.zero()
    for rs in enumerate_rsets(r, d):
        zden = 1
        for tup in (rs.mu, rs.nu, rs.lam):
            for p in tup:
                zden *= z_factor(p)
        inner = QRatio.zero()
        for w in enumerate_combined_forests(rs, gamma, connected_only=connected_only):
            inner = inner + amplitude_H(w)
        total = total + inner * Fraction(1, zden)
    return total


def f_connected(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """Free-energy coefficient as the connected combined-forest sum."""
    return z_coefficient_graphs(gamma, d, connected_only=True)


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------


class DegreeSeries:
    """Formal series sum_d c_d Q^d truncated at a total degree.

    An optional support set restricts the kept degree vectors further; it
    must be downward closed under the componentwise order, because the log
    recursion reads Z at every degree below a kept one.
    """

    def __init__(self, r: int, max_total: int, support: frozenset | None = None):
        self.r = r
        self.max_total = max_total
        self.support = support
        self.coefficients: dict[tuple[int, ...], QRatio] = {}
        self.constant = QRatio.zero()

    def _keeps(self, d: tuple[int, ...]) -> bool:
        if sum(d) > self.max_total:
            return False
        return self.support is None or d in self.support

    def set(self, d: tuple[int, ...], v: QRatio) -> None:
        if not any(d):
            self.constant = v
        elif self._keeps(d):
            if v.is_zero():
                self.coefficients.pop(d, None)
            else:
                self.coefficients[d] = v

    def get(self, d: tuple[int, ...]) -> QRatio:
        if not any(d):
            return self.constant
        return self.coefficients.get(d, QRatio.zero())

    def coefficient(self, d: tuple[int, ...]) -> QRatio:
        """Like get, but a degree outside the computed range is an error
        rather than a silent zero."""
        if any(d) and not self._keeps(d):
            raise KeyError(f"coefficient at {d} was not computed")
        return self.get(d)

    def log(self) -> "DegreeSeries":
        """F = log Z by the Euler-operator recursion
        |d| F_d = |d| Z_d - sum_{0<e<d} |e| F_e Z_(d-e); needs constant term 1.

        Degrees are visited in graded order, so every e < d is done before d.
        """
        if self.constant != QRatio.one():
            raise ValueError("log needs a series with constant term 1")
        out = DegreeSeries(self.r, self.max_total, self.support)
        weighted: dict[tuple[int, ...], QRatio] = {}  # |e| F_e
        for d in degree_vectors(self.r, self.max_total):
            if not self._keeps(d):
                continue
            acc = self.get(d) * sum(d)
            for e, fe in weighted.items():
                rest = tuple(a - b for a, b in zip(d, e))
                if min(rest) >= 0 and rest in self.coefficients:
                    acc = acc - fe * self.coefficients[rest]
            if not acc.is_zero():
                weighted[d] = acc
                out.set(d, acc / sum(d))
        return out


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
            z.set(d, z_coefficient_def(gamma, d))
    return z
