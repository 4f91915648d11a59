"""Property suites behind `gv verify`: each suite re-derives a family of
identities at a fixed scale and reports pass/fail.

The same functions back the pytest suite; only the pole-structure suite takes
its scales as arguments (the graph-based paths grow exponentially with them).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from gvexact.characters import (
    check_column_orthogonality,
    check_row_orthogonality,
)
from gvexact.graph_engine import (
    amplitude_B,
    amplitude_counts,
    amplitude_H,
    connected_trees_for,
    enumerate_combined_forests,
    g_k_of_w,
    graph_word,
    scale_forest,
    scale_tree_down,
    tree_pole_data,
    tree_type,
    vev_graphs,
)
from gvexact.gv import PRESETS, pole_violation
from gvexact.partitions import (
    enumerate_partitions,
    enumerate_rsets,
    parts_gcd,
    pentagonal_p,
    scale,
    weight,
)
from gvexact.qalgebra import (
    NotSymmetricInT,
    QLaurent,
    QRatio,
    mobius,
    pole_extract,
    qnum,
    qnum_product,
    qnum_ratio,
    qnum_sum,
    t_k_in_t,
    t_k_qratio,
    to_t_poly,
    to_y_poly,
    try_to_t_poly,
)
from gvexact.schur_vertex import matrix_element_char, vev_fock
from gvexact.series import (
    build_z_series,
    degree_vectors,
    f_connected,
    z_coefficient_graphs,
)


class VerificationFailure(AssertionError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise VerificationFailure(msg)


# ---------------------------------------------------------------------------


def suite_rset_sanity() -> str:
    for d in range(31):
        _check(
            len(enumerate_partitions(d)) == pentagonal_p(d),
            f"p({d}) mismatch with the pentagonal recurrence",
        )
    checked = 0
    for r in (2, 3):
        for d in degree_vectors(r, 3):
            rsets = enumerate_rsets(r, d)
            seen = set()
            for rs in rsets:
                rs.check()
                _check(rs.degree() == d, f"degree recompute failed for {rs}")
                key = (rs.mu, rs.nu, rs.lam)
                _check(key not in seen, f"duplicate r-set {rs}")
                seen.add(key)
            checked += len(rsets)
    # brute-force completeness at r=2
    for d in degree_vectors(2, 3):
        got = {
            (rs.mu, rs.nu, rs.lam) for rs in enumerate_rsets(2, d)
        }
        brute = set()
        w = sum(d)
        all_parts = [p for k in range(w + 1) for p in enumerate_partitions(k)]
        for mu in itertools.product(all_parts, repeat=2):
            for nu in itertools.product(all_parts, repeat=2):
                for lam in itertools.product(all_parts, repeat=2):
                    deg = tuple(weight(mu[i]) + weight(lam[i]) for i in range(2))
                    if deg != d:
                        continue
                    ok = all(
                        weight(mu[i]) + weight(lam[i])
                        == weight(nu[i]) + weight(lam[(i + 1) % 2])
                        for i in range(2)
                    )
                    if ok:
                        brute.add((mu, nu, lam))
        _check(got == brute, f"r-set enumeration differs from brute force at {d}")
    return f"r-sets: {checked} enumerated, brute-force cross-check at r=2"


def _over(num: QLaurent, ks) -> QRatio:
    """num / prod_(k in ks) [k], with the denominator born factored."""
    return qnum_ratio(1, {k: -n for k, n in Counter(ks).items()}, num)


def suite_q_lemmas() -> str:
    rng = random.Random(20240809)
    # q-number product membership parities
    for _ in range(150):
        m = rng.randint(1, 6)
        parts = [rng.randint(1, 8) for _ in range(m)]
        prod = QRatio(qnum_product(parts))
        in_y = True
        try:
            to_y_poly(prod)
        except NotSymmetricInT:
            in_y = False
        _check(in_y == (m % 2 == 0), f"y-membership parity failed for {parts}")
        in_t = try_to_t_poly(prod) is not None
        _check(
            in_t == (m % 2 == 0 and sum(parts) % 2 == 0),
            f"t-membership parity failed for {parts}",
        )
    # [ka]/[a]: membership, constant term, even/odd remainder
    for k in range(1, 13):
        for a in range(1, 13):
            f = _over(qnum(k * a), (a,))
            if k % 2 == 1 or a % 2 == 0:
                p = to_t_poly(f)
                _check(p.is_integral() and p[0] == k, f"[{k * a}]/[{a}]")
            else:
                # f modulo t = y(y + 4) is k + (k/2)y = (k/2)(x + 1/x)
                rem = qnum_ratio(Fraction(1, 2), {}, QLaurent({1: k, -1: k}))
                try:
                    to_y_poly((f - rem) * qnum_ratio(1, {1: -2}))
                except NotSymmetricInT:
                    _check(False, f"even/odd remainder failed for k={k}, a={a}")
    # lcm/gcd integrality with constant term 1
    hits = 0
    while hits < 200:
        a, b, c = (rng.randint(1, 20) for _ in range(3))
        if math.gcd(a, math.gcd(b, c)) != 1:
            continue
        hits += 1
        num = qnum_product((math.lcm(a, b, c), math.gcd(a, b), math.gcd(b, c), math.gcd(c, a)))
        f = _over(num, (a, b, c, 1))
        _check(f.is_laurent(), f"lcm/gcd ratio not polynomial for {(a, b, c)}")
        lp = f.num
        _check(
            f.den.is_one() and lp.is_symmetric() and lp.has_integer_powers(),
            f"lcm/gcd ratio not in Z[t] for {(a, b, c)}",
        )
        _check(lp.value_at_one() == 1, f"constant term != 1 for {(a, b, c)}")
    # scaled-partition pole constants
    count_g2 = 0
    for d in range(2, 7):
        for lam in enumerate_partitions(d):
            if len(lam) < 2:
                continue
            for k in range(1, 9):
                drop_ok = all(
                    math.gcd(k, parts_gcd(lam[:i] + lam[i + 1 :])) == 1
                    for i in range(len(lam))
                )
                if not drop_ok or not (k % 2 == 1 or d % 2 == 0):
                    continue
                f = _over(qnum_product(scale(k, lam)), (k, k) + lam)
                g, rem = pole_extract(f, 1, "plain")
                _check(
                    g == Fraction(k ** (len(lam) - 2)) and rem.is_integral(),
                    f"scaled-partition pole failed for {lam}, k={k}",
                )
                count_g2 += 1
    # t_k binomial formula round trip
    for k in range(1, 21):
        _check(
            to_t_poly(t_k_qratio(k)) == t_k_in_t(k), f"t_{k} round trip failed"
        )
    # Mobius key formula
    for k in range(1, 25):
        s = sum(mobius(k // kp) for kp in range(1, k + 1) if k % kp == 0)
        _check(s == (1 if k == 1 else 0), f"Mobius sum failed at {k}")
    # character orthogonality
    for d in range(1, 7):
        _check(check_row_orthogonality(d), f"row orthogonality failed at {d}")
        _check(check_column_orthogonality(d), f"column orthogonality failed at {d}")
    return f"q-number lemmas, {count_g2} pole constants, Mobius, orthogonality"


def suite_vev_oracle() -> str:
    count = 0
    for d in range(1, 4):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for a in range(-2, 3):
                    cs, ns = graph_word(mu, nu, a)
                    g = vev_graphs(cs, ns)
                    f = vev_fock(cs, ns)
                    m = QRatio(matrix_element_char(mu, a, nu))
                    _check(g == f == m, f"three-path VEV failed at {(mu, a, nu)}")
                    count += 1
    rng = random.Random(7)
    extra = 0
    while extra < 50:
        l = rng.randint(2, 5)
        cs = [rng.randint(-3, 3) for _ in range(l - 1)]
        cs.append(-sum(cs))
        if abs(cs[-1]) > 3:
            continue
        ns = [rng.randint(-3, 3) for _ in range(l)]
        if any(c == 0 and n == 0 for c, n in zip(cs, ns)):
            continue
        _check(
            vev_graphs(tuple(cs), tuple(ns)) == vev_fock(tuple(cs), tuple(ns)),
            f"graph/fock VEV failed at {(cs, ns)}",
        )
        extra += 1
    return f"three-path VEV on {count} words + {extra} random words"


def suite_exp_formula() -> str:
    count = 0
    for gamma in [(1, 1), (-1, -1), (0, -2), (1, 1, 1), (-1, -1, -1)]:
        zs = build_z_series(gamma, 3)
        fs = zs.log()
        for d in degree_vectors(len(gamma), 3):
            _check(
                z_coefficient_graphs(gamma, d) == zs.get(d),
                f"all-forest sum != Z at {gamma}, {d}",
            )
            _check(
                f_connected(gamma, d) == fs.get(d),
                f"connected sum != log Z at {gamma}, {d}",
            )
            count += 1
    return f"exponential formula at {count} coefficients"


def suite_free_energy_poles() -> str:
    """The reduced denominator of every F_d of log Z, read once per orbit of
    gamma's symmetry (every other degree of the orbit has the same F_d), is
    c x^s prod Phi_j^e with j | 2 gcd(d) and e <= 2 (`check_free_energy_poles`)."""
    cases = ((PRESETS["P2"], 6), (PRESETS["F0"], 4), (PRESETS["F1"], 4), ((0, -2), 6))
    checked = degrees = 0
    for gamma, cap in cases:
        fs = build_z_series(gamma, cap).log()
        for d in fs.representatives():
            check_free_energy_poles(d, fs.get(d))
            checked += 1
        degrees += len(list(degree_vectors(len(gamma), cap)))
    return f"F_d poles at {checked} orbit representatives of {degrees} degrees"


def check_free_energy_poles(d: tuple[int, ...], f: QRatio) -> None:
    """F_d has poles only at the Phi_j with j | 2 gcd(d), each of order <= 2."""
    bad = pole_violation(d, f)
    _check(not bad, bad)


def suite_pole_structure(
    max_weight: int = 3,
    gammas=((1, 1), (-1, -1), (1, 1, 1)),
    scales: tuple[int, ...] = (2, 3),
) -> str:
    """Per-tree pole decompositions with the g_T scaling law up to
    `max_weight`, and the pole structure of every connected combined forest
    to |d| <= 4 over `gammas`.  For each k in `scales`, forests of cycle rank
    0 over primitive r-sets also get the scaled-amplitude law for H(W_(k))
    and the t-integrality of g_k(W); `gv verify` checks k = 2, 3."""
    trees = 0
    for d in range(1, max_weight + 1):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for a in range(-2, 3):
                    for tr in connected_trees_for(mu, nu, a):
                        pd = tree_pole_data(tr)
                        b = amplitude_B(tr)
                        if pd.type == "III":
                            half = QRatio.one() + t_k_qratio(pd.m // 2) * Fraction(1, 2)
                            pole = half * qnum_ratio(pd.g, {pd.m: -2})
                        else:
                            pole = qnum_ratio(pd.g, {pd.m: -2})
                        rest = to_t_poly(b - pole)
                        _check(
                            rest.is_integral(),
                            f"pole remainder not in Z[t] at {(mu, nu, a)}",
                        )
                        if pd.m > 1:
                            base = tree_pole_data(scale_tree_down(tr, pd.m))
                            _check(
                                pd.g
                                == base.g * pd.m ** (len(mu) + len(nu) - 1),
                                f"g_T scaling failed at {(mu, nu, a)}",
                            )
                        trees += 1
    # combined amplitudes
    combined = scaled = 0
    for gamma in gammas:
        r = len(gamma)
        for d in degree_vectors(r, 4):
            for rs in enumerate_rsets(r, d):
                for w in enumerate_combined_forests(rs, gamma, connected_only=True):
                    beta = w.cycle_rank()
                    h = amplitude_H(w)
                    if beta >= 1:
                        p = try_to_t_poly(h)
                        _check(
                            p is not None and p.is_integral(),
                            f"H not in Z[t] at beta={beta}, {rs}",
                        )
                    else:
                        k = rs.parts_gcd()
                        p = try_to_t_poly(h * t_k_qratio(k))
                        _check(
                            p is not None and p.is_integral(),
                            f"t_k H not in Z[t] at {rs}",
                        )
                    combined += 1
                    if beta == 0 and rs.parts_gcd() == 1:
                        scaled += _check_scaled_forest(w, gamma, scales)
    return f"pole data on {trees} trees, {combined} combined forests ({scaled} scaled checks)"


def _check_scaled_forest(w, gamma, scales) -> int:
    """H(W_(k)) = k^(l-1) H(W)(q^k) times (1 + t_{mk/2}/2) per type-I tree
    (and the sign of gamma.d) for even k, up to Z[t]; g_k(W) has at most
    the t pole for k = 2 and none above.  As 1 + t_n/2 = [4n] / (2 [2n]), the
    reference is one q-number exponent vector, and H(W_(k)) minus it one `qnum_sum`."""
    rs = w.rset
    lm, ln, ll = w.l_counts()
    expo = lm + ln + ll - 1
    odd = sum(g * x for g, x in zip(gamma, rs.degree())) % 2
    type_one = [tree_type(t)[0] for _, _, t in w.trees() if tree_type(t)[2] == "I"]
    for k in scales:
        const, counts = amplitude_counts(w, 1, k)  # H(W)(q^k)
        const *= k**expo
        if k % 2 == 0:
            for m in type_one:
                const = Fraction(const, 2)
                counts[2 * m * k] = counts.get(2 * m * k, 0) + 1
                counts[m * k] = counts.get(m * k, 0) - 1
            if odd:
                const = -const
        scaled = amplitude_counts(scale_forest(w, k))
        diff = try_to_t_poly(qnum_sum((scaled, (-const, counts)), memo=False))
        _check(diff is not None and diff.is_integral(), f"scaling law k={k} at {rs}")
        gkw = g_k_of_w(w, k)
        _check(try_to_t_poly(gkw * t_k_qratio(1)) is not None, f"t*g_{k} pole at {rs}")
        if k > 2:
            _check(try_to_t_poly(gkw) is not None, f"g_{k} not in Q[t] at {rs}")
    return len(scales)


SUITES = {
    "vev-oracle": suite_vev_oracle,
    "exp-formula": suite_exp_formula,
    "pole-structure": suite_pole_structure,
    "free-energy-poles": suite_free_energy_poles,
    "q-lemmas": suite_q_lemmas,
    "rset-sanity": suite_rset_sanity,
}


def run_suites(names) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for each named suite, in order; an unknown
    name is a ValueError before any suite runs."""
    if unknown := [name for name in names if name not in SUITES]:
        raise ValueError(f"unknown suite {unknown[0]!r}; know {', '.join(sorted(SUITES))}")
    out = []
    for name in names:
        try:
            detail = SUITES[name]()
            out.append((name, True, detail))
        except Exception as exc:  # a crashing suite is a failed one
            out.append((name, False, f"{type(exc).__name__}: {exc}"))
    return out
