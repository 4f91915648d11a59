"""Partition arithmetic, enumeration and r-set enumeration.

A partition is represented by a plain tuple of positive integers in
non-increasing order; the empty tuple is the empty partition.  Tuples are
hashable and structurally equal, which is what every memo table downstream
keys on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

Partition = tuple[int, ...]

EMPTY: Partition = ()


def weight(p: Partition) -> int:
    return sum(p)


@lru_cache(maxsize=None)
def enumerate_partitions(d: int) -> tuple[Partition, ...]:
    """All partitions of d, each exactly once, in reverse-lexicographic order.

    Reverse-lex means (d) first and (1,...,1) last; the count is p(d).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return (EMPTY,)

    def gen(n: int, cap: int):
        if n == 0:
            yield ()
            return
        for head in range(min(n, cap), 0, -1):
            for tail in gen(n - head, head):
                yield (head,) + tail

    return tuple(gen(d, d))


@lru_cache(maxsize=None)
def kappa(p: Partition) -> int:
    """kappa(p) = sum p_i (p_i - 2i + 1); twice the content sum, always even.
    Cached, since the framed trace reads it for every row and state."""
    return sum(a * (a - 2 * (i + 1) + 1) for i, a in enumerate(p))


def multiplicities(p: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for a in p:
        m[a] = m.get(a, 0) + 1
    return m


def aut_size(p: Partition) -> int:
    return math.prod(math.factorial(m) for m in multiplicities(p).values())


def z_factor(p: Partition) -> int:
    """Centralizer order of the conjugacy class p: prod(parts) * prod m_k!."""
    return math.prod(p) * aut_size(p)


def parts_gcd(p: Partition) -> int:
    """gcd of the parts; 0 for the empty partition."""
    return math.gcd(*p) if p else 0


def union(p: Partition, q: Partition) -> Partition:
    """Merge the part multisets and re-sort non-increasing."""
    return tuple(sorted(p + q, reverse=True))


def scale(k: int, p: Partition) -> Partition:
    if k <= 0:
        raise ValueError("scale factor must be a positive integer")
    return tuple(k * a for a in p)


@dataclass(frozen=True)
class RSet:
    """Triple of partition r-tuples subject to the cyclic weight balance.

    |mu^i| + |lambda^i| = |nu^i| + |lambda^{i+1}| for all i (indices cyclic);
    the degree vector is (|mu^i| + |lambda^i|)_i.
    """

    mu: tuple[Partition, ...]
    nu: tuple[Partition, ...]
    lam: tuple[Partition, ...]

    @property
    def r(self) -> int:
        return len(self.mu)

    def degree(self) -> tuple[int, ...]:
        return tuple(weight(m) + weight(l) for m, l in zip(self.mu, self.lam))

    def check(self) -> None:
        r = self.r
        if not (len(self.nu) == len(self.lam) == r and r >= 2):
            raise ValueError("r-set tuples must share a length r >= 2")
        for i in range(r):
            lhs = weight(self.mu[i]) + weight(self.lam[i])
            rhs = weight(self.nu[i]) + weight(self.lam[(i + 1) % r])
            if lhs != rhs:
                raise ValueError(f"balance violated at slot {i}: {self}")

    def all_parts(self) -> tuple[int, ...]:
        out: list[int] = []
        for tup in (self.mu, self.nu, self.lam):
            for p in tup:
                out.extend(p)
        return tuple(out)

    def parts_gcd(self) -> int:
        parts = self.all_parts()
        if not parts:
            raise ValueError("gcd of an all-empty r-set is undefined")
        return math.gcd(*parts)

    def scaled(self, k: int) -> "RSet":
        return RSet(
            tuple(scale(k, p) for p in self.mu),
            tuple(scale(k, p) for p in self.nu),
            tuple(scale(k, p) for p in self.lam),
        )


def enumerate_rsets(r: int, degree: tuple[int, ...]) -> list[RSet]:
    """Every r-set of the given degree vector, each exactly once.

    Iterates lambda weights first (they couple adjacent slots through the
    balance constraint), then fills mu^i, nu^i from the forced slot weights.
    """
    if r < 2 or len(degree) != r:
        raise ValueError("need r >= 2 and a degree vector of length r")
    if any(d < 0 for d in degree):
        raise ValueError("degree entries must be >= 0")
    if not any(degree):
        raise ValueError("all-zero degree has no r-sets (constant term)")

    # |lambda^i| <= d_i (mu weight >= 0) and |lambda^{i+1}| <= d_i (nu >= 0).
    caps = [min(degree[i], degree[i - 1]) for i in range(r)]
    out: list[RSet] = []
    for lam_w in itertools.product(*(range(c + 1) for c in caps)):
        mu_w = [degree[i] - lam_w[i] for i in range(r)]
        nu_w = [degree[i] - lam_w[(i + 1) % r] for i in range(r)]
        mu_choices = [enumerate_partitions(w) for w in mu_w]
        nu_choices = [enumerate_partitions(w) for w in nu_w]
        lam_choices = [enumerate_partitions(w) for w in lam_w]
        for mu in itertools.product(*mu_choices):
            for nu in itertools.product(*nu_choices):
                for lam in itertools.product(*lam_choices):
                    rs = RSet(mu, nu, lam)
                    out.append(rs)
    return out


def pentagonal_p(n: int) -> int:
    """Partition counts via the Euler pentagonal recurrence (test oracle)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]
