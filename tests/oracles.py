"""Reference implementations kept as test oracles.

`gcd_ratio(num, den)` reduces a ratio by a primitive pseudo-remainder
polynomial gcd, for any denominator and independent of any factoring; the
differential tests compare QRatio's cyclotomic reduction with it.

These are the ratio-arithmetic versions that the integer pipeline replaced:
the skew-Schur character sum and the vertex weight as sums of reduced
QRatios, and the Mobius inversion G_d with its t-integrality verdict as a
QRatio sum over a coefficient lookup.  They are slow but independent of the
numerator bookkeeping.

The graph amplitudes A(T), A(F), B(T) and H(W) are kept the same way: as
chains of QRatio products and quotients, against the engine's q-number
exponent vectors.  The Schur value by the hook-length formula and the
line-based debug serialization of forests, which the golden files pin, are
kept here too.

The sums of amplitudes are kept the same way: the graphs path's sum over
combined forests and the Mobius combination g_k(W) over divisors (with the
`mobius_sum` it used), each as a QRatio sum of reduced H(W), against the
engine's one reduction over a common cyclotomic denominator.

The matrix-element path's r-set sum is kept as the oracle for its transfer-
matrix trace: every r-set (mu, nu, lambda) of the degree rebuilds its own
r-fold product of bosonic matrix elements.

Helpers that only the tests use live here too, not in the package: the
conjugate partition, and the canonical form of a VEV forest without leaf
indices (`strip_indices`, `forest_canonical`) that groups forests into
equivalence classes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gvexact.characters import mn_character
from gvexact.graph_engine import (
    CombinedForest,
    VevForest,
    amplitude_H,
    enumerate_combined_forests,
    is_leaf,
    node_c,
    node_children,
    node_n,
    tree_leaves,
    zeta,
)
from gvexact.gv import GvReport, divisors, mobius
from gvexact.partitions import (
    enumerate_partitions,
    enumerate_rsets,
    kappa,
    union,
    weight,
    z_factor,
)
from gvexact.qalgebra import (
    NotSymmetricInT,
    QLaurent,
    QRatio,
    _primitive,
    degree_denominator,
    qfactorial_over,
    qnum,
    qnum_product,
    t_k_qratio,
    to_t_poly,
)
from gvexact.schur_vertex import matrix_element_char


def _int_poly_gcd(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Primitive gcd, positive lead, of two nonzero integer polynomials
    (min exp 0)."""

    def pseudo_rem(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
        # primitive pseudo-remainder sequence step
        dv = max(v)
        lead = v[dv]
        u = dict(u)
        while u and max(u) >= dv:
            duu = max(u)
            lu = u[duu]
            # u = lead*u - lu * x^(duu-dv) * v
            nu: dict[int, int] = {}
            for e, c in u.items():
                nu[e] = c * lead
            for e, c in v.items():
                e2 = e + duu - dv
                nu[e2] = nu.get(e2, 0) - lu * c
            u = {e: c for e, c in nu.items() if c}
        return u

    (u,), (v,) = _primitive(a), _primitive(b)
    if max(u) < max(v):
        u, v = v, u
    while v:
        u, v = v, _primitive(pseudo_rem(u, v))[0]
    return u


def qlaurent_gcd(a: QLaurent, b: QLaurent) -> QLaurent:
    """Primitive polynomial gcd in x of the shifted-to-zero operands."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return QLaurent(_int_poly_gcd(a.shifted(-a.min_exp()).coeffs, b.shifted(-b.min_exp()).coeffs))


def gcd_ratio(num: QLaurent, den: QLaurent | None = None) -> QRatio:
    """num/den reduced by the polynomial gcd, for any nonzero den: the
    reference for the engine's cyclotomic reduction."""
    if den is None:
        den = QLaurent.one()
    if den.is_zero():
        raise ZeroDivisionError("QRatio with zero denominator")
    if len(num.coeffs) > 1 and len(den.coeffs) > 1:
        # a monomial is a unit of the Laurent ring and shares no factor
        g = qlaurent_gcd(num, den)
        num, den = num.divide_exact(g), den.divide_exact(g)
    return QRatio._coprime(num, den)


def schur_qrho_hook(mu) -> QRatio:
    """s_mu(q^-rho) = (-1)^|mu| q^(-kappa/4) / prod [hooks]."""
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


def skew_schur_oracle(mu, eta) -> QRatio:
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


def w_vertex_oracle(mu, nu, skew=skew_schur_oracle) -> QRatio:
    """(-1)^(|mu|+|nu|) q^((kappa(mu)+kappa(nu))/2) sum_eta s_{mu/eta} s_{nu/eta}
    at q^-rho, summed as QRatios."""
    total = QRatio.zero()
    for d in range(min(weight(mu), weight(nu)) + 1):
        for eta in enumerate_partitions(d):
            total = total + skew(mu, eta) * skew(nu, eta)
    sign = -1 if (weight(mu) + weight(nu)) % 2 else 1
    return QRatio(QLaurent.monomial(kappa(mu) + kappa(nu), sign)) * total


def g_of_d(gamma, d, f_lookup) -> QRatio:
    """G_d = sum over k'|k of (k'/k) mobius(k/k') F_{k' d / k}(q^{k/k'}),
    k = gcd(d).  `f_lookup` maps a degree vector to its F coefficient."""
    if not any(d):
        raise ValueError("degree must be nonzero")
    k = math.gcd(*d)
    base = tuple(x // k for x in d)
    out = QRatio.zero()
    for kp in divisors(k):
        mu = mobius(k // kp)
        if mu:
            term = f_lookup(tuple(kp * x for x in base)) * Fraction(kp, k)
            term = term.substitute_power(k // kp)
            out = out + term if mu > 0 else out - term
    return out


def integrality_report_oracle(gamma, d, f_lookup) -> GvReport:
    """t*G_d from g_of_d, its Z[t] verdict and the integer table."""
    tg = g_of_d(gamma, d, f_lookup) * t_k_qratio(1)
    try:
        poly = to_t_poly(tg)
    except NotSymmetricInT as exc:
        return GvReport(gamma, d, None, False, notes=f"t*G not in Q[t]: {exc}")
    integral = poly.is_integral()
    gv_numbers = []
    if integral:
        for gi in range(poly.degree() + 1):
            c = poly[gi]
            if c:
                gv_numbers.append((gi, int(c) * (-1 if gi % 2 == 0 else 1)))
    notes = "" if integral else "t*G has a non-integer coefficient"
    return GvReport(gamma, d, poly, integral, gv_numbers, notes)


def tree_merges(root) -> list:
    if is_leaf(root):
        return []
    l, r = node_children(root)
    return tree_merges(l) + tree_merges(r) + [root]


def amplitude_tree_oracle(root) -> QRatio:
    """A(T): prod [zeta_v] / [n_root] for a black root, and
    c_{L(root)} * prod over non-root merges [zeta_v] for a white root."""
    merges = tree_merges(root)
    if not is_leaf(root) and root[3]:  # white root
        l, _ = node_children(root)
        out = QRatio.const(node_c(l))
        for v in merges:
            if v is not root:
                out = out * QRatio(qnum(zeta(v)))
        return out
    n_root = node_n(root)
    num = QLaurent.one()
    for v in merges:
        num = num * qnum(zeta(v))
    return QRatio(num, qnum(n_root))


def amplitude_A_oracle(forest) -> QRatio:
    out = QRatio.one()
    for t in forest:
        out = out * amplitude_tree_oracle(t)
    return out


def amplitude_B_oracle(root) -> QRatio:
    """B(T) = A(T) / ([mu][nu]) where mu, nu are the leaf partitions of T."""
    den = QLaurent.one()
    for lf in tree_leaves(root):
        den = den * qnum(abs(node_c(lf)))
    return amplitude_tree_oracle(root) / QRatio(den)


def amplitude_H_oracle(w) -> QRatio:
    """(-1)^(L1+L2) prod_T B(T) prod_b [h(b)]^2 with L1 = l(mu)+l(nu) and
    L2 = gamma . degree."""
    lm, ln, _ = w.l_counts()
    l2 = sum(g * d for g, d in zip(w.gamma, w.rset.degree()))
    sign = -1 if (lm + ln + l2) % 2 else 1
    out = QRatio.const(sign)
    for _, _, t in w.trees():
        out = out * amplitude_B_oracle(t)
    for b in w.bridges:
        out = out * QRatio(qnum(b.label) * qnum(b.label))
    return out


def mobius_sum(k: int, term) -> QRatio:
    """sum over k'|k of mobius(k/k') term(k') with q -> q^(k/k'); k >= 1."""
    out = QRatio.zero()
    for kp in divisors(k):
        mu = mobius(k // kp)
        if mu:
            t = term(kp).substitute_power(k // kp)
            out = out + t if mu > 0 else out - t
    return out


def g_k_of_w_oracle(w, k: int) -> QRatio:
    """g_k(W) as a QRatio sum over the divisors of reduced H(W_(k'))(q^(k/k'))."""
    lm, ln, ll = w.l_counts()
    expo = lm + ln + ll - 1
    return mobius_sum(k, lambda kp: amplitude_H(w.scaled(kp)) * Fraction(1, kp**expo))


def z_coefficient_graphs_oracle(gamma, d, connected_only: bool = False) -> QRatio:
    """sum over r-sets of (1/z) sum_W H(W) as a QRatio sum of reduced H(W)."""
    total = QRatio.zero()
    for rs in enumerate_rsets(len(gamma), d):
        zden = 1
        for tup in (rs.mu, rs.nu, rs.lam):
            for p in tup:
                zden *= z_factor(p)
        inner = QRatio.zero()
        for w in enumerate_combined_forests(rs, gamma, connected_only=connected_only):
            inner = inner + amplitude_H(w)
        total = total + inner * Fraction(1, zden)
    return total


def z_coefficient_matrix_rsets(gamma, d) -> QRatio:
    """Z_d through r-sets and bosonic matrix elements.

    An r-set term carries 1 / (prod_i [mu^i] [nu^i] z(mu^i) z(nu^i)
    z(lambda^i)); with |mu^i|, |nu^i| <= d_i and |mu^i| + |lambda^i| = d_i
    that divides D_d prod_i d_i!^2, so the r-set sum is one integer sum over
    that common denominator."""
    r = len(gamma)
    scale = math.prod(math.factorial(di) ** 2 for di in d)
    total = QLaurent.zero()
    for rs in enumerate_rsets(r, d):
        term = QLaurent.one()
        for i in range(r):
            bra = union(rs.lam[i], rs.mu[i])
            ket = union(rs.nu[i], rs.lam[(i + 1) % r])
            if bra or ket:
                term = term * matrix_element_char(bra, gamma[i] + 2, ket)
            if term.is_zero():
                break
        if term.is_zero():
            continue
        cofactor = QLaurent.one()
        zden = 1
        for i in range(r):
            cofactor = (cofactor * qfactorial_over(d[i], rs.mu[i])
                        * qfactorial_over(d[i], rs.nu[i]))
            zden *= z_factor(rs.mu[i]) * z_factor(rs.nu[i]) * z_factor(rs.lam[i])
        lsign = sum(len(p) for p in rs.mu) + sum(len(p) for p in rs.nu)
        coeff = -(scale // zden) if lsign % 2 else scale // zden
        total = total + term * cofactor * QLaurent.const(coeff)
    if sum(g * di for g, di in zip(gamma, d)) % 2:
        total = -total
    return QRatio(total, degree_denominator(d) * QLaurent.const(scale))


def _node_lines(root, prefix: str, out: list[str]) -> str:
    """Emit 'vertex <id> c n [white|leaf <index>]' lines; returns the id."""
    if is_leaf(root):
        vid = f"{prefix}"
        out.append(f"vertex {vid} c={root[2]} n={root[3]} leaf={root[1]}")
        return vid
    lid = _node_lines(root[4], prefix + "L", out)
    rid = _node_lines(root[5], prefix + "R", out)
    vid = f"{prefix}"
    color = "white" if root[3] else "black"
    out.append(f"vertex {vid} c={root[1]} n={root[2]} {color}")
    out.append(f"edge {vid} {lid}")
    out.append(f"edge {vid} {rid}")
    return vid


def forest_debug_lines(forest: VevForest, tag: str = "") -> list[str]:
    out: list[str] = []
    for i, tree in enumerate(forest):
        _node_lines(tree, f"{tag}t{i}.", out)
        out.append(f"root {tag}t{i}.")
    return out


def combined_forest_debug_lines(w: CombinedForest) -> list[str]:
    out: list[str] = []
    for i, f in enumerate(w.forests):
        out.extend(forest_debug_lines(f, tag=f"s{i}."))
    for b in w.bridges:
        out.append(
            f"bridge s{b.slot_left}.leaf={b.leaf_left} "
            f"s{b.slot_right}.leaf={b.leaf_right} h={b.label}"
        )
    return out


def conjugate(p) -> tuple:
    """The conjugate partition (rows and columns swapped)."""
    if not p:
        return ()
    return tuple(sum(1 for a in p if a >= i) for i in range(1, p[0] + 1))


def strip_indices(v):
    """A tree node with its leaf indices forgotten (for equivalence classes)."""
    if is_leaf(v):
        return ("L", 0, v[2], v[3])
    return ("M", v[1], v[2], v[3], strip_indices(v[4]), strip_indices(v[5]))


def forest_canonical(forest: VevForest) -> tuple:
    """Canonical serialization without leaf indices; trees sorted, L/R order
    kept (it is labeled by the sign split, so it is structural)."""
    return tuple(sorted(strip_indices(t) for t in forest))
