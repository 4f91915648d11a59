"""Principally specialized skew Schur functions, the vertex weight W_{mu,nu},
character-based matrix elements of q^(a*F2), and a direct Fock-space oracle
for words in the operators E_c(n).

The specialization sends the power sum p_i to -1/[i].  Skew Schur values and
W are built from integer character sums as integer Laurent numerators over
q-factorials (`skew_numerator`, `w_numerator`), with no polynomial gcd; the
QRatio forms `skew_schur_qrho` and `W_vertex` reduce a cached numerator once
per entry, over the cyclotomic factors of its q-factorials
(`qalgebra.qnum_ratio`).

Charge is fixed at zero; a fermionic basis state is indexed by a partition
through the descending half-integer slot sequence s_i = lambda_i - i + 1/2
(stored doubled, as odd integers).
"""

from __future__ import annotations

import math
from functools import lru_cache

from gvexact.characters import mn_character
from gvexact.partitions import (
    Partition,
    enumerate_partitions,
    kappa,
    union,
    weight,
    z_factor,
)
from gvexact.qalgebra import QLaurent, QRatio, qnum, qnum_product, qnum_ratio

FockVector = dict[Partition, QRatio]


# ---------------------------------------------------------------------------
# Skew Schur specialization and the vertex weight
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def skew_numerator(mu: Partition, eta: Partition) -> QLaurent:
    """s_{mu/eta}(q^-rho) [n]!, n = |mu| - |eta|: an integer Laurent polynomial.

    The character expansion with p_i = -1/[i], multiplied by n! e! [n]!
    (e = |eta|), is a sum of integers times integer polynomials:
        sum_{rho |- n} (-1)^l(rho) (n!/z_rho) [n]!/[rho]
            * sum_{sigma |- e} chi^eta(sigma) (e!/z_sigma) chi^mu(rho u sigma).
    One exact integer division by n! e! ends it; no gcd is taken."""
    n, e = weight(mu) - weight(eta), weight(eta)
    if n < 0:
        return QLaurent.zero()
    nf, ef = math.factorial(n), math.factorial(e)
    acc: dict[int, int] = {}
    for rho in enumerate_partitions(n):
        inner = 0
        for sigma in enumerate_partitions(e):
            chi_eta = mn_character(eta, sigma)
            if chi_eta:
                chi_mu = mn_character(mu, union(rho, sigma))
                inner += chi_eta * (ef // z_factor(sigma)) * chi_mu
        if inner:
            c = (nf // z_factor(rho)) * inner
            if len(rho) % 2:
                c = -c
            for x, v in qnum_product(range(1, n + 1), rho).coeffs.items():
                acc[x] = acc.get(x, 0) + c * v
    return QLaurent(acc).divide_exact(QLaurent.const(nf * ef))


@lru_cache(maxsize=None)
def skew_schur_qrho(mu: Partition, eta: Partition) -> QRatio:
    """s_{mu/eta}(q^-rho): its numerator over [|mu| - |eta|]!, reduced once
    over the cyclotomic factors of the q-factorial."""
    n = weight(mu) - weight(eta)
    if n < 0:
        return QRatio.zero()
    return qnum_ratio(1, {k: -1 for k in range(1, n + 1)}, skew_numerator(mu, eta))


@lru_cache(maxsize=None)
def w_numerator(mu: Partition, nu: Partition) -> QLaurent:
    """W(mu, nu) [m]! [n]! with m = |mu|, n = |nu|: an integer Laurent
    polynomial,
        (-1)^(m+n) x^(kappa(mu)+kappa(nu)) sum_eta
            (s_{mu/eta} [m-e]!) [m]!/[m-e]! (s_{nu/eta} [n-e]!) [n]!/[n-e]!
    with e = |eta|, summed over skew numerators with no gcd.  Symmetric in
    (mu, nu); memoized on the sorted pair."""
    if nu < mu:
        return w_numerator(nu, mu)
    m, n = weight(mu), weight(nu)
    total = QLaurent.zero()
    for e in range(min(m, n) + 1):
        inner = QLaurent.zero()
        for eta in enumerate_partitions(e):
            inner = inner + skew_numerator(mu, eta) * skew_numerator(nu, eta)
        fm, fn = (qnum_product(range(k - e + 1, k + 1)) for k in (m, n))  # [k]!/[k-e]!
        total = total + inner * fm * fn
    total = total.shifted(kappa(mu) + kappa(nu))
    return -total if (m + n) % 2 else total


@lru_cache(maxsize=None)
def W_vertex(mu: Partition, nu: Partition) -> QRatio:
    """(-1)^(|mu|+|nu|) q^((kappa(mu)+kappa(nu))/2) sum_eta s_{mu/eta} s_{nu/eta}
    at q^-rho: `w_numerator` over [|mu|]! [|nu|]!, reduced once over the
    cyclotomic factors of the q-factorials."""
    if nu < mu:
        return W_vertex(nu, mu)
    counts = {k: -1 for k in range(1, weight(mu) + 1)}
    for k in range(1, weight(nu) + 1):
        counts[k] = counts.get(k, 0) - 1
    return qnum_ratio(1, counts, w_numerator(mu, nu))


@lru_cache(maxsize=None)
def matrix_element_char(mu: Partition, a: int, nu: Partition) -> QLaurent:
    """<mu| q^(a*F2) |nu> = sum over lambda of chi_l(mu) chi_l(nu) q^(a*kappa/2),
    on the bosonic basis; a Laurent polynomial with integer coefficients."""
    d = weight(mu)
    if d != weight(nu):
        raise ValueError("matrix element needs |mu| = |nu|")
    if d == 0:
        return QLaurent.one()
    out = QLaurent.zero()
    for lam in enumerate_partitions(d):
        c = mn_character(lam, mu) * mn_character(lam, nu)
        if c:
            out = out + QLaurent.monomial(a * kappa(lam), c)
    return out


# ---------------------------------------------------------------------------
# Direct Fock action of E_c(n)
# ---------------------------------------------------------------------------


def _slots(lam: Partition, count: int) -> list[int]:
    """First `count` doubled slots 2*(lambda_i - i) + 1, descending."""
    out = []
    for i in range(1, count + 1):
        a = lam[i - 1] if i <= len(lam) else 0
        out.append(2 * a - 2 * i + 1)
    return out


def _slots_to_partition(slots: list[int]) -> Partition:
    slots = sorted(slots, reverse=True)
    parts = []
    for i, s in enumerate(slots, start=1):
        a = (s - 1) // 2 + i
        if a > 0:
            parts.append(a)
    return tuple(parts)


def apply_E(c: int, n: int, vec: FockVector) -> FockVector:
    """Apply E_c(n) = sum_k q^(n(k - c/2)) E_{k-c,k} + delta_{c,0}/[n]."""
    if c == 0 and n == 0:
        raise ValueError("E_0(0) is not well-defined")
    out: FockVector = {}

    def add(lam: Partition, val: QRatio) -> None:
        cur = out.get(lam)
        s = val if cur is None else cur + val
        if s.is_zero():
            out.pop(lam, None)
        else:
            out[lam] = s

    if c == 0:
        inv = QRatio(QLaurent.one(), qnum(n))
        for lam, coeff in vec.items():
            eigen = QLaurent.zero()
            for i, a in enumerate(lam, start=1):
                eigen = eigen + QLaurent.monomial(n * (2 * a - 2 * i + 1))
                eigen = eigen - QLaurent.monomial(n * (1 - 2 * i))
            add(lam, coeff * (QRatio(eigen) + inv))
        return out

    for lam, coeff in vec.items():
        window = len(lam) + abs(c) + 2
        occ = _slots(lam, window)
        occ_set = set(occ)
        floor = occ[-1]  # every odd slot below this is occupied
        for k2 in occ:
            t2 = k2 - 2 * c
            if t2 in occ_set or t2 < floor:
                continue
            lo, hi = min(k2, t2), max(k2, t2)
            height = sum(1 for m in occ if lo < m < hi)
            sign = -1 if height % 2 else 1
            new = [t2 if s == k2 else s for s in occ]
            mono = QLaurent.monomial(n * (k2 - c), sign)
            add(_slots_to_partition(new), coeff * QRatio(mono))
    return out


def vacuum() -> FockVector:
    return {(): QRatio.one()}


def vev_fock(cs: tuple[int, ...], ns: tuple[int, ...]) -> QRatio:
    """<E_{c_1}(n_1) ... E_{c_l}(n_l)>, operators applied right to left.

    Returns 0 when sum(cs) != 0 (the VEV vanishes); raises on (0,0) labels.
    """
    if len(cs) != len(ns):
        raise ValueError("c and n sequences must have equal length")
    if any(c == 0 and n == 0 for c, n in zip(cs, ns)):
        raise ValueError("E_0(0) is not well-defined")
    if sum(cs) != 0:
        return QRatio.zero()
    vec = vacuum()
    # max weight still reachable back to the vacuum: sum of positive c's ahead
    pos_prefix = [0]
    for c in cs:
        pos_prefix.append(pos_prefix[-1] + (c if c > 0 else 0))
    for i in range(len(cs) - 1, -1, -1):
        vec = apply_E(cs[i], ns[i], vec)
        cap = pos_prefix[i]
        vec = {lam: v for lam, v in vec.items() if weight(lam) <= cap}
        if not vec:
            return QRatio.zero()
    return vec.get((), QRatio.zero())

