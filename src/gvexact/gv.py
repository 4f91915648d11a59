"""Mobius inversion of the free energy, the t-integrality verdict, and
Gopakumar-Vafa integer extraction.

The sign convention for extraction: with t = -(2 sin(g_s/2))^2 under
q = e^(i g_s), the genus-g number is (-1)^(g-1) times the coefficient of
t^g in t*G (the g = 0 number comes from the constant term with sign -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from gvexact.qalgebra import (
    NotSymmetricInT,
    QRatio,
    RPoly,
    format_fraction,
    t_k_qratio,
    to_t_poly,
)

PRESETS: dict[str, tuple[int, ...]] = {
    "P2": (1, 1, 1),
    "F0": (0, 0, 0, 0),
    "F1": (1, 0, -1, 0),
    "B2": (0, 0, -1, -1, -1),
    "B3": (-1, -1, -1, -1, -1, -1),
}


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
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def mobius_sum(k: int, term) -> QRatio:
    """sum over k'|k of mobius(k/k') term(k') with q -> q^(k/k')."""
    out = QRatio.zero()
    for kp in divisors(k):
        mu = mobius(k // kp)
        if mu:
            t = term(kp).substitute_power(k // kp)
            out = out + t if mu > 0 else out - t
    return out


def g_of_d(gamma: tuple[int, ...], d: tuple[int, ...], f_lookup) -> QRatio:
    """G_d = sum over k'|k of (k'/k) mobius(k/k') F_{k' d / k}(q^{k/k'}),
    k = gcd(d).  `f_lookup` maps a degree vector to its F coefficient."""
    if not any(d):
        raise ValueError("degree must be nonzero")
    k = math.gcd(*d)
    base = tuple(x // k for x in d)
    return mobius_sum(k, lambda kp: f_lookup(tuple(kp * x for x in base)) * Fraction(kp, k))


@dataclass
class GvReport:
    gamma: tuple[int, ...]
    degree: tuple[int, ...]
    g_poly: RPoly | None  # coefficients of t*G when polynomial in t
    integral: bool
    gv_numbers: list[tuple[int, int]] = field(default_factory=list)
    notes: str = ""
    paths_agree: bool = True

    def to_json_obj(self) -> dict:
        tG = []
        if self.g_poly is not None:
            tG = [format_fraction(c) for c in self.g_poly.coeffs]
        return {
            "gamma": list(self.gamma),
            "degree": list(self.degree),
            "t_times_G": tG,
            "integral": self.integral,
            "gv": [{"g": g, "n": str(n)} for g, n in self.gv_numbers],
            "paths_agree": self.paths_agree,
        }


def integrality_report(
    gamma: tuple[int, ...], d: tuple[int, ...], f_lookup
) -> GvReport:
    """Compute t*G_d, decide Z[t] membership, extract the integer table."""
    g = g_of_d(gamma, d, f_lookup)
    tg = g * t_k_qratio(1)
    try:
        poly = to_t_poly(tg)
    except NotSymmetricInT as exc:
        return GvReport(gamma, d, None, False, notes=f"t*G not in Q[t]: {exc}")
    integral = poly.is_integral()
    gv_numbers: list[tuple[int, int]] = []
    if integral:
        for gi in range(poly.degree() + 1):
            c = poly[gi]
            if c:
                n = int(c) * (-1 if gi % 2 == 0 else 1)  # (-1)^(g-1)
                gv_numbers.append((gi, n))
    notes = "" if integral else "t*G has a non-integer coefficient"
    return GvReport(gamma, d, poly, integral, gv_numbers, notes)
