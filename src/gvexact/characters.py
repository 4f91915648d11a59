"""Symmetric-group characters chi^(lambda/eta)(mu) of skew shapes, the
straight chi^lambda(mu) when eta is empty, by the border-strip
(Murnaghan-Nakayama) rule, memoized on (lambda, mu, eta).

The recursion strips the largest part of mu first, which maximizes cache
reuse across the weight-indexed sweeps in the matrix-element sums.  Strips
only shrink a shape, so one that cuts into eta leaves a shape that never
returns to eta, and its path ends at 0 (Stanley, EC2 7.17).
"""

from __future__ import annotations

from functools import lru_cache

from gvexact.partitions import Partition, enumerate_partitions, z_factor


def mn_character(lam: Partition, mu: Partition, eta: Partition = ()) -> int:
    """chi^(lambda/eta)(mu) for |lambda| = |mu| + |eta|, 0 unless eta is inside
    lambda; chi_empty(empty) = 1."""
    if sum(lam) != sum(mu) + sum(eta):
        raise ValueError("character needs |lambda| = |mu| + |eta|")
    return _mn(lam, mu, eta)


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition, eta: Partition) -> int:
    if not mu:
        return int(lam == eta)
    r = mu[0]
    rest = mu[1:]
    l = len(lam)
    # first-column hook lengths ("beta numbers"), strictly decreasing
    beta = [lam[j] + (l - 1 - j) for j in range(l)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((nb if c == b else c for c in beta), reverse=True)
        newlam = tuple(
            c - (l - 1 - j) for j, c in enumerate(new_beta) if c - (l - 1 - j) > 0
        )
        total += (-1) ** height * _mn(newlam, rest, eta)
    return total


def character_table(d: int) -> dict[tuple[Partition, Partition], int]:
    """The full table {(lambda, mu): chi_lambda(mu)} at weight d."""
    ps = enumerate_partitions(d)
    return {(lam, mu): mn_character(lam, mu) for lam in ps for mu in ps}


def check_row_orthogonality(d: int) -> bool:
    """sum_mu chi_l(mu) chi_l'(mu) / z_mu = delta_{l,l'}."""
    from fractions import Fraction

    ps = enumerate_partitions(d)
    for la in ps:
        for lb in ps:
            s = sum(
                Fraction(mn_character(la, mu) * mn_character(lb, mu), z_factor(mu))
                for mu in ps
            )
            if s != (1 if la == lb else 0):
                return False
    return True


def check_column_orthogonality(d: int) -> bool:
    """sum_lambda chi_l(mu) chi_l(nu) = z_mu delta_{mu,nu}."""
    ps = enumerate_partitions(d)
    for mu in ps:
        for nu in ps:
            s = sum(mn_character(lam, mu) * mn_character(lam, nu) for lam in ps)
            if s != (z_factor(mu) if mu == nu else 0):
                return False
    return True
