"""Mobius inversion of the free energy, the t-integrality verdict, and
Gopakumar-Vafa integer extraction.  The inversion runs on the free energy's
integer numerators over one denominator D_d per degree.

The sign convention for extraction: with t = -(2 sin(g_s/2))^2 under
q = e^(i g_s), the genus-g number is (-1)^(g-1) times the coefficient of
t^g in t*G (the g = 0 number comes from the constant term with sign -1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from gvexact.qalgebra import (
    NotSymmetricInT,
    QLaurent,
    QRatio,
    RPoly,
    degree_denominator,
    divisors,
    mobius,
    qnum_product,
    to_t_poly,
)

PRESETS: dict[str, tuple[int, ...]] = {
    "P2": (1, 1, 1),
    "F0": (0, 0, 0, 0),
    "F1": (1, 0, -1, 0),
    "B2": (0, 0, -1, -1, -1),
    "B3": (-1, -1, -1, -1, -1, -1),
}


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
        """The report's JSON object; "notes", which say why a degree was
        rejected, only when there are any."""
        return {
            "gamma": list(self.gamma),
            "degree": list(self.degree),
            # str of a Fraction is "n" or "n/m", in lowest terms
            "t_times_G": [] if self.g_poly is None else [str(c) for c in self.g_poly.coeffs],
            "integral": self.integral,
            "gv": [{"g": g, "n": str(n)} for g, n in self.gv_numbers],
            "paths_agree": self.paths_agree,
            **({"notes": self.notes} if self.notes else {}),
        }


def _mobius_cofactor(d: tuple[int, ...], m: int) -> QLaurent:
    """D_d / D_(d/m)(q^m) = prod_i prod_{j <= d_i, m does not divide j} [j]^2,
    since D_(d/m)(q^m) = prod_i prod_{j <= d_i/m} [mj]^2."""
    return qnum_product([j for di in d for j in range(1, di + 1) if j % m] * 2)


def pole_violation(d: tuple[int, ...], f: QRatio) -> str:
    """The empty string when the reduced denominator of f = F_d is
    c x^s prod Phi_j^e with j | 2 gcd(d) and e <= 2, the paper's pole
    structure; otherwise the first Phi_j^e that breaks it, as a message."""
    k = 2 * math.gcd(*d)
    for j, e in f.phis:
        if k % j or e > 2:
            return f"F_{d} has the pole Phi_{j}^{e}; need j | {k}, e <= 2"
    return ""


def _rejected(gamma, d, fs, poly: RPoly | None, why: str) -> GvReport:
    """A non-integral report whose notes say which half failed: F_d's pole
    structure, or, with that holding, integrality itself."""
    half = pole_violation(d, fs.get(d)) or "F_d has the pole structure, so integrality failed"
    return GvReport(gamma, d, poly, False, notes=f"{why}; {half}")


def integrality_report(gamma: tuple[int, ...], d: tuple[int, ...], fs) -> GvReport:
    """Compute t*G_d from the free-energy series `fs` (the weighted series
    of `DegreeSeries.log`), decide Z[t] membership, extract the integer table.

    G_d = sum over m|k of mobius(m) F_(d/m)(q^m) / m with k = gcd(d), and
    F_e = FN_e / (|e| D_e) with |d/m| = |d|/m, so every term lies over
    |d| D_d:
        G_d = sum_{m|k} mobius(m) FN_(d/m)(q^m) (D_d / D_(d/m)(q^m)) / (|d| D_d).
    The numerator sum is over integers, and t*G_d = ([1]^2 sum).divide_exact(D_d)
    / |d| is one exact division.  D_d has leading coefficient 1, so the
    division succeeds exactly when t*G_d is a Laurent polynomial; when it
    fails the verdict is "not in Q[t]".  A degree outside the computed range
    of `fs` is a KeyError.  A rejected degree's notes also say whether F_d
    breaks the pole structure (`pole_violation`) or integrality failed alone."""
    if not any(d):
        raise ValueError("degree must be nonzero")
    if not fs.weighted:
        raise ValueError("integrality_report needs the free energy from DegreeSeries.log")
    # m = 1 is the first divisor, with mobius 1 and a cofactor of 1
    total = fs.numerator(d)
    for m in divisors(math.gcd(*d))[1:]:
        if mu := mobius(m):
            term = fs.numerator(tuple(x // m for x in d)).substitute_power(m)
            term = term * _mobius_cofactor(d, m)
            total = total + term if mu > 0 else total - term
    try:
        tg = (total * qnum_product((1, 1))).divide_exact(degree_denominator(d))  # t = [1]^2
    except ValueError:
        return _rejected(gamma, d, fs, None,
                         "t*G not in Q[t]: nontrivial denominator after reduction")
    try:
        poly = to_t_poly(QRatio(tg, QLaurent.const(sum(d))))
    except NotSymmetricInT as exc:
        return _rejected(gamma, d, fs, None, f"t*G not in Q[t]: {exc}")
    if not poly.is_integral():
        return _rejected(gamma, d, fs, poly, "t*G has a non-integer coefficient")
    # the numerators are the coefficients; the genus-g number is (-1)^(g-1) times them
    gv_numbers = [(gi, -c if gi % 2 == 0 else c) for gi, c in enumerate(poly.nums) if c]
    return GvReport(gamma, d, poly, True, gv_numbers)
