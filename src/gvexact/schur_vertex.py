"""Principally specialized skew Schur functions, the vertex weight W_{mu,nu},
character-based matrix elements of q^(a*F2), and a direct Fock-space oracle
for words in the operators E_c(n).

The specialization sends the power sum p_i to -1/[i].  Charge is fixed at
zero; a fermionic basis state is indexed by a partition through the
descending half-integer slot sequence s_i = lambda_i - i + 1/2 (stored
doubled, as odd integers).
"""

from __future__ import annotations

from fractions import Fraction
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
from gvexact.qalgebra import QLaurent, QRatio, qnum, qnum_product

FockVector = dict[Partition, QRatio]


# ---------------------------------------------------------------------------
# Skew Schur specialization and the vertex weight
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def skew_schur_qrho(mu: Partition, eta: Partition) -> QRatio:
    """s_{mu/eta}(q^-rho) via the character expansion with p_i = -1/[i]."""
    dm, de = weight(mu), weight(eta)
    if de > dm:
        return QRatio.zero()
    total = QRatio.zero()
    for etap in enumerate_partitions(de):
        chi_eta = mn_character(eta, etap)
        if not chi_eta:
            continue
        for mup in enumerate_partitions(dm - de):
            chi_mu = mn_character(mu, union(mup, etap))
            if not chi_mu:
                continue
            p_val = QRatio(QLaurent.const((-1) ** len(mup)), qnum_product(mup))
            coeff = Fraction(chi_mu * chi_eta, z_factor(mup) * z_factor(etap))
            total = total + p_val * coeff
    return total


def schur_qrho_hook(mu: Partition) -> QRatio:
    """Independent oracle: s_mu(q^-rho) = (-1)^|mu| q^(-kappa/4) / prod [hooks]."""
    if not mu:
        return QRatio.one()
    conj_cols = [sum(1 for a in mu if a > j) for j in range(mu[0])]
    hooks = QLaurent.one()
    for i, a in enumerate(mu):
        for j in range(a):
            h = (a - j) + (conj_cols[j] - i) - 1
            hooks = hooks * qnum(h)
    sign = -1 if weight(mu) % 2 else 1
    num = QLaurent.monomial(-kappa(mu) // 2, sign)
    return QRatio(num) / QRatio(hooks)


@lru_cache(maxsize=None)
def W_vertex(mu: Partition, nu: Partition) -> QRatio:
    """(-1)^(|mu|+|nu|) q^((kappa(mu)+kappa(nu))/2) sum_eta s_{mu/eta} s_{nu/eta}
    at q^-rho.  The eta-sum stops at min(|mu|, |nu|).  Symmetric in (mu, nu);
    memoized on the sorted pair."""
    if nu < mu:
        return W_vertex(nu, mu)
    total = QRatio.zero()
    for d in range(min(weight(mu), weight(nu)) + 1):
        for eta in enumerate_partitions(d):
            total = total + skew_schur_qrho(mu, eta) * skew_schur_qrho(nu, eta)
    sign = -1 if (weight(mu) + weight(nu)) % 2 else 1
    pref = QLaurent.monomial(kappa(mu) + kappa(nu), sign)
    return QRatio(pref) * total


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

