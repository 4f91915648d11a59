"""Reference implementations kept as test oracles.

`ratio(num, den)` reduces a ratio by a primitive pseudo-remainder
polynomial gcd, factors what is left of the denominator by trial division
with `cyclotomic_oracle` (`cyclotomic_factors`) and builds the canonical
(num, lead, phis) itself, with none of the engine's reduction code.  The
differential tests compare QRatio's cyclotomic reduction with it, and the
tests build every expected ratio with a polynomial denominator through it;
a quotient x / y is x * inverse(y), that is x * ratio(y.den, y.num).  The
engine has no such constructor: its ratios are born factored.

These are the ratio-arithmetic versions that the integer pipeline replaced:
the skew-Schur character sum and the vertex weight as sums of reduced
QRatios, and the Mobius inversion G_d with its t-integrality verdict as a
QRatio sum over a coefficient lookup.  They are slow but independent of the
numerator bookkeeping.  The integer skew numerator is kept as the double sum
over straight characters, chi^eta(sigma) chi^mu(rho u sigma), that the one
sum over skew characters chi^(mu/eta)(rho) replaced
(`skew_numerator_double_sum`), and the border-strip recursion with no inner
shape (`straight_character`), against the skew recursion at eta = ().

The graph amplitudes A(T), A(F), B(T) and H(W) are kept the same way: as
chains of QRatio products and quotients, against the engine's q-number
exponent vectors.  The Schur value by the hook-length formula and the
line-based debug serialization of forests, which the golden files pin, are
kept here too.

The walk that built H(W)'s exponent vector on the forest itself is kept too
(`amplitude_counts_oracle`): the engine reads W_(k)'s vector off W's walk by
label arithmetic, and the tests compare it with this walk over `w.scaled(k)`.

The sums of amplitudes are kept the same way: the graphs path's sum over
combined forests and the Mobius combination g_k(W) over divisors (with the
`mobius_sum` it used), each as a QRatio sum of reduced H(W), against the
engine's one reduction over a common cyclotomic denominator.

The matrix-element path's power-sum-basis trace is kept as the oracle for
its Schur-basis trace of Gram matrices (`z_coefficient_matrix_transfer`):
each slot's transfer matrix T_i[lambda][lambda'] (`transfer_matrix`,
`transfer_entry`) sums bosonic matrix elements of q^((gamma_i+2) F2) over
the power-sum states lambda of the slots.  The r-set sum that the transfer-
matrix trace replaced is kept too: every r-set (mu, nu, lambda) of the
degree rebuilds its own r-fold product of bosonic matrix elements.  The
def path's r-tuple sum is
kept the same way (`z_numerator_tuples`): every r-tuple of partitions
multiplies its own r vertex numerators, against the engine's framed trace.
The computation of Z and log Z at every degree vector is kept the same way
(`every_degree_series`), against the engine's one computation per orbit of
gamma's dihedral symmetry.  The q-number products that the engine takes from
one cached builder (`qnum_product`) are kept as plain product chains in order
(`qnum_chain`, `qfactorial`, `qbinomial`, `qfactorial_over`,
`degree_denominator_chain`).

The t- and y-images are kept the same way: `FractionRPoly`, with one
Fraction per coefficient, and the image and the pole extraction by remainder
arithmetic modulo t_k built on it, against `RPoly`'s integer numerators over
one denominator and the engine's fold of the Laurent numerator modulo
x^(2k) - 1 with one division by [k]^2; and D_d as one product chain over d,
against the engine's D_d cached on the shape of d.

The cyclotomic arithmetic that the binomial kernel (`qalgebra._times_phis`)
replaced is kept the same way: Phi_n as x^n - 1 divided by Phi_j for each
proper divisor j in turn (`cyclotomic_oracle`), a product of Phi_j powers
built one factor at a time (`phi_power_oracle`), and the QRatio product and
sum that reduce the whole product of two reduced ratios again
(`ratio_mul_oracle`, `ratio_add_oracle`), against the kernel's binomials and
the cross-cancelled products and sums over the lcm.

The leaf-position scan that placed each bridge is kept the same way
(`bridges_scan`, `lambda_leaf_positions`): it finds the lambda leaves of
each slot by scanning the slot's sorted parts on a "left" or "right" side,
against the engine's count of the parts that precede each leaf in
`graph_word`'s layout.

Helpers that only the tests use live here too, not in the package: the
conjugate partition, and the canonical form of a VEV forest without leaf
indices (`strip_indices`, `forest_canonical`) that groups forests into
equivalence classes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from gvexact.characters import mn_character
from gvexact.graph_engine import (
    Bridge,
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
    NoSuchDecomposition,
    NotSymmetricInT,
    QLaurent,
    QRatio,
    _t_k_coeffs,
    degree_counts,
    degree_denominator,
    qnum,
    qnum_product,
    qnum_ratio,
    t_k_qratio,
    to_t_poly,
)
from gvexact.schur_vertex import matrix_element_char, w_numerator
from gvexact.series import (
    DegreeSeries,
    _exact_quotient,
    _trace,
    degree_vectors,
    downward_closure,
    z_numerator,
)


def _primitive(*polys: dict[int, int]) -> tuple[dict[int, int], ...]:
    """Integer polynomials divided by the gcd of all their coefficients,
    signed so that the last one has a positive leading coefficient."""
    g = math.gcd(*(c for p in polys for c in p.values()))
    if polys[-1] and polys[-1][max(polys[-1])] < 0:
        g = -g
    if g in (0, 1):
        return polys
    return tuple({e: c // g for e, c in p.items()} for p in polys)


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


def cyclotomic_factors(den: QLaurent) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(c, s, phis) with den = c x^s prod Phi_j^e over the sorted (j, e) of
    phis, by trial division with `cyclotomic_oracle` over increasing j; any
    other den is a ValueError once j > 2 deg^2 for the degree deg left, as
    phi(j) >= sqrt(j/2)."""
    s = den.min_exp()
    rest, phis, j = den.shifted(-s), [], 1
    while (deg := rest.max_exp()) > 0:
        if j > 2 * deg * deg:
            raise ValueError(f"{den!r} is not c x^s prod Phi_j^e")
        e = 0
        while True:
            try:
                rest = rest.divide_exact(cyclotomic_oracle(j))
            except ValueError:
                break
            e += 1
        if e:
            phis.append((j, e))
        j += 1
    return rest.coeffs[0], s, tuple(phis)


def ratio(num: QLaurent, den: QLaurent | None = None) -> QRatio:
    """num/den reduced by the polynomial gcd (`qlaurent_gcd`), for a den that
    is then c x^s prod Phi_j^e (`cyclotomic_factors`), as the canonical
    (num, lead, phis) built here: the reference for the engine's cyclotomic
    reduction, with none of its reduction code."""
    if den is None:
        den = QLaurent.one()
    if den.is_zero():
        raise ZeroDivisionError("ratio with zero denominator")
    if num.is_zero():
        den = QLaurent.one()
    elif len(num.coeffs) > 1 and len(den.coeffs) > 1:
        # a monomial is a unit of the Laurent ring and shares no factor
        g = qlaurent_gcd(num, den)
        num, den = num.divide_exact(g), den.divide_exact(g)
    lead, s, phis = cyclotomic_factors(den)
    g = math.gcd(lead, *num.coeffs.values())
    g = -g if lead < 0 else g
    out = QRatio.__new__(QRatio)
    out.num = QLaurent({e - s: c // g for e, c in num.coeffs.items()})
    out.lead, out.phis = lead // g, phis
    return out


def inverse(y: QRatio) -> QRatio:
    """1 / y by `ratio`, for a nonzero y whose numerator is c x^s prod Phi_j^e:
    the tests' quotient x / y is x * inverse(y)."""
    return ratio(y.den, y.num)


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
    return ratio(num, hooks)


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
            p_val = ratio(QLaurent.const((-1) ** len(mup)), qnum_chain(mup))
            coeff = Fraction(chi_mu * chi_eta, z_factor(mup) * z_factor(etap))
            total = total + p_val * coeff
    return total


@lru_cache(maxsize=None)
def straight_character(lam, mu) -> int:
    """chi^lam(mu) by the border-strip recursion with no inner shape, whose
    base case is chi^empty(empty) = 1: strip mu[0] from the beta numbers
    (first-column hook lengths) of lam, with sign (-1)^height."""
    if not mu:
        return 1
    l = len(lam)
    beta = [a + l - 1 - j for j, a in enumerate(lam)]
    total = 0
    for b in beta:
        nb = b - mu[0]
        if nb >= 0 and nb not in beta:
            new_beta = sorted((nb if c == b else c for c in beta), reverse=True)
            rest = tuple(c - (l - 1 - j) for j, c in enumerate(new_beta) if c > l - 1 - j)
            total += (-1) ** sum(nb < c < b for c in beta) * straight_character(rest, mu[1:])
    return total


def skew_numerator_double_sum(mu, eta) -> QLaurent:
    """s_{mu/eta}(q^-rho) [n]!, n = |mu| - |eta|, as the double character sum
    with p_i = -1/[i], multiplied by n! e! [n]! (e = |eta|):
        sum_{rho |- n} (-1)^l(rho) (n!/z_rho) [n]!/[rho]
            * sum_{sigma |- e} chi^eta(sigma) (e!/z_sigma) chi^mu(rho u sigma),
    divided exactly by n! e!."""
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
    return ratio(num, qnum(n_root))


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
    return amplitude_tree_oracle(root) * ratio(QLaurent.one(), den)


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


def _down(counts: dict[int, int], k: int) -> None:
    if k == 0:
        raise ZeroDivisionError("q-number [0] in a denominator")
    counts[k] = counts.get(k, 0) - 1


def tree_factors_oracle(root, counts: dict[int, int], leaves: bool) -> int:
    """Add the q-number exponents of A(T) to `counts`, and of B(T) when
    `leaves`; return the constant factor.

    Every merge zeta_v goes up except a white root's, whose constant is
    c_{L(root)}; a black root puts [n_root] down, and B(T) puts each leaf's
    [|c|] down.  A [0] that would go down raises ZeroDivisionError."""
    if not is_leaf(root) and root[3]:  # white root
        const = node_c(root[4])
        stack = [root[4], root[5]]
    else:
        const = 1
        _down(counts, node_n(root))
        stack = [root]
    while stack:
        v = stack.pop()
        if is_leaf(v):
            if leaves:
                _down(counts, abs(v[2]))
        else:
            z = zeta(v)
            counts[z] = counts.get(z, 0) + 1
            stack.append(v[4])
            stack.append(v[5])
    return const


def amplitude_counts_oracle(w) -> tuple[int, dict[int, int]]:
    """H(W) = const prod_k [k]^counts[k] as (const, counts), from one walk over
    the trees and bridges of w itself."""
    lm, ln, _ = w.l_counts()
    l2 = sum(g * d for g, d in zip(w.gamma, w.rset.degree()))
    const = -1 if (lm + ln + l2) % 2 else 1
    counts: dict[int, int] = {}
    for f in w.forests:
        for t in f:
            const *= tree_factors_oracle(t, counts, True)
    for b in w.bridges:
        counts[b.label] = counts.get(b.label, 0) + 2
    return const, counts


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
    """g_k(W) as a QRatio sum over the divisors of H(W_(k'))(q^(k/k')), each
    a QRatio product chain over the scaled forest W_(k')."""
    lm, ln, ll = w.l_counts()
    expo = lm + ln + ll - 1
    return mobius_sum(k, lambda kp: amplitude_H_oracle(w.scaled(kp)) * Fraction(1, kp**expo))


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


def z_numerator_tuples(gamma, d) -> QLaurent:
    """Z_d D_d as the sum over r-tuples lambda^i |- d_i of (-1)^(gamma.d)
    x^(sum_i gamma_i kappa(lambda^i)) prod_i w_numerator(lambda^i, lambda^{i+1})."""
    r = len(gamma)
    total = QLaurent.zero()
    for lams in itertools.product(*(enumerate_partitions(di) for di in d)):
        term = w_numerator(lams[0], lams[1])
        for i in range(1, r):
            term = term * w_numerator(lams[i], lams[(i + 1) % r])
        total = total + term.shifted(sum(g * kappa(lam) for g, lam in zip(gamma, lams)))
    return -total if sum(g * di for g, di in zip(gamma, d)) % 2 else total


def z_coefficient_matrix_transfer(gamma, d) -> QRatio:
    """Z_d as the power-sum-basis trace tr(T_1 ... T_r) of the slots'
    `transfer_matrix`es, with no framing, since T_i holds slot i's
    q^((gamma_i+2) F2) itself.  Slot i carries d_i!^2 times its
    1 / ([mu^i] [nu^i] z(mu^i) z(nu^i) z(lambda^i)), so the trace is one
    integer sum over D_d prod_i d_i!^2."""
    r = len(gamma)
    caps = [min(d[i - 1], d[i]) for i in range(r)]  # |lambda^i| <= caps[i]
    mats = [transfer_matrix(d[i], gamma[i] + 2, caps[i], caps[(i + 1) % r])
            for i in range(r)]
    scale = math.prod(math.factorial(di) ** 2 for di in d)
    return qnum_ratio(Fraction(1, scale), degree_counts(d), _trace(gamma, d, mats, (0,) * r))


def _states(cap: int) -> tuple:
    """Every partition of weight at most cap."""
    return tuple(p for n in range(cap + 1) for p in enumerate_partitions(n))


@lru_cache(maxsize=None)
def transfer_matrix(di: int, a: int, lo: int, hi: int) -> dict:
    """T[lambda][lambda'] for one slot of degree di and framing
    q^(a F2), a = gamma_i + 2: rows |lambda| <= lo, columns |lambda'| <= hi,
    zero entries left out.  See `transfer_entry`.  Memoized like its entries,
    so the dicts are shared: callers read them and never change them."""
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
def transfer_entry(di: int, a: int, lam, lamp) -> QLaurent:
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


def every_degree_series(gamma, max_total, degrees=None):
    """(Z, log Z) as series with no symmetry, computed at every kept degree:
    the full-box computation that the engine replaced by one computation per
    orbit of gamma's `stabilizer`.  ZN_d is `z_numerator` at every degree,
    and FN_d = |d| ZN_d - sum_{0<e<d} FN_e ZN_(d-e) prod_i qbinom(d_i, e_i)^2
    is summed over the whole box below d in plain QLaurent arithmetic, keyed
    by the degree itself.  `integrality_report` on the log then gives the
    report of every degree."""
    r = len(gamma)
    support = None if degrees is None else downward_closure(degrees)
    kept = [d for d in degree_vectors(r, max_total) if support is None or d in support]
    zn = {d: z_numerator(gamma, d) for d in kept}
    fn = {}
    for d in kept:  # graded order: the box below d is done
        total = zn[d] * QLaurent.const(sum(d))
        for e in itertools.product(*(range(x + 1) for x in d)):
            if e in fn:
                term = fn[e] * zn[tuple(a - b for a, b in zip(d, e))]
                for di, ei in zip(d, e):
                    b = qbinomial(di, ei)
                    term = term * b * b
                total = total - term
        fn[d] = total
    zs = DegreeSeries(r, max_total, support)
    zs.constant = QRatio.one()
    fs = DegreeSeries(r, max_total, support, weighted=True)
    for d in kept:
        zs.set_numerator(d, zn[d])
        fs.set_numerator(d, fn[d])
    return zs, fs


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
    return ratio(total, degree_denominator(d) * QLaurent.const(scale))


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


def lambda_leaf_positions(mu_or_nu, lam, side: str, offset: int = 0) -> list[int]:
    """Leaf indices (1-based word positions) of the lambda parts on one side,
    found by scanning the slot's parts.

    Left side: the word lists mu u lam ascending, so among equal parts the
    outer (smaller index) ones are lambda's.  Right side: the word lists
    nu u lam descending, outer = larger index.  Returned outer-first within
    each value, values in non-increasing order.
    """
    parts = union(mu_or_nu, lam)
    L = len(parts)
    out: list[int] = []
    for v in sorted(set(lam), reverse=True):
        mult = sum(1 for p in lam if p == v)
        if side == "left":
            # ascending word: position j (1-based) holds parts[L - j]
            positions = [j for j in range(1, L + 1) if parts[L - j] == v]
            out.extend(positions[:mult])
        else:
            positions = [offset + j for j in range(1, L + 1) if parts[j - 1] == v]
            out.extend(sorted(positions, reverse=True)[:mult])
    return out


def bridges_scan(rset) -> tuple[Bridge, ...]:
    """The bridges of every combined forest over the r-set, placed by the
    leaf-position scan of each slot's two sides."""
    r = rset.r
    left_lam, right_lam = [], []
    for i in range(r):
        offset = len(union(rset.mu[i], rset.lam[i]))
        left_lam.append(lambda_leaf_positions(rset.mu[i], rset.lam[i], "left"))
        right_lam.append(lambda_leaf_positions(rset.nu[i], rset.lam[(i + 1) % r], "right", offset))
    bridges = []
    for i in range(r):
        lam_i = tuple(sorted(rset.lam[i], reverse=True))
        lefts, rights = left_lam[i], right_lam[(i - 1) % r]
        for j, h in enumerate(lam_i):
            bridges.append(Bridge(i, lefts[j], (i - 1) % r, rights[j], h))
    return tuple(bridges)


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


def qnum_chain(ks) -> QLaurent:
    """prod [k] over ks as one product chain, in order; the empty product is 1."""
    out = QLaurent.one()
    for k in ks:
        out = out * qnum(k)
    return out


@lru_cache(maxsize=None)
def qfactorial(n: int) -> QLaurent:
    """[n]! = [1][2]...[n] as a product chain; [0]! = 1."""
    return qnum_chain(range(1, n + 1))


@lru_cache(maxsize=None)
def qbinomial(n: int, k: int) -> QLaurent:
    """[n]! / ([k]! [n-k]!) for 0 <= k <= n, one exact division of product chains."""
    return qfactorial(n).divide_exact(qfactorial(k) * qfactorial(n - k))


@lru_cache(maxsize=None)
def qfactorial_over(n: int, p) -> QLaurent:
    """[n]! / [p] for |p| <= n, one exact division of product chains."""
    return qfactorial(n).divide_exact(qnum_chain(p))


def degree_denominator_chain(d) -> QLaurent:
    """D_d = prod_i [d_i]!^2 as one product chain over d, in order."""
    out = QLaurent.one()
    for di in d:
        out = out * qfactorial(di) * qfactorial(di)
    return out


class FractionRPoly:
    """Dense univariate polynomial over Fractions, trailing zeros trimmed:
    one Fraction per coefficient, the t- and y-image type that `RPoly`'s
    integer numerators over one denominator replaced."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionRPoly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionRPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return FractionRPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FractionRPoly([c * other for c in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError
        num = list(self.coeffs)
        d = other.degree()
        lead = other.coeffs[-1]
        q = [Fraction(0)] * max(0, len(num) - d)
        while len(num) - 1 >= d and num:
            nd = len(num) - 1
            f = num[-1] / lead
            q[nd - d] = f
            for j, b in enumerate(other.coeffs):
                num[nd - d + j] -= f * b
            while num and not num[-1]:
                num.pop()
        return FractionRPoly(q), FractionRPoly(num)

    def mod(self, other):
        return self.divmod(other)[1]

    def divide_exact(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division not exact")
        return q

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def constant_only(self):
        return self[0] if self.degree() <= 0 else None


def laurent_to_poly_oracle(f: QRatio, step: int) -> FractionRPoly:
    """The t-image (step 2) or y-image (step 1) with one Fraction per
    coefficient: x^e + x^-e with e = m*step is 2 + t_m."""
    if not f.is_laurent():
        raise NotSymmetricInT("nontrivial denominator after reduction")
    p = f.num
    if not p.is_symmetric():
        raise NotSymmetricInT("not invariant under q -> 1/q")
    if any(e % step for e in p.coeffs):
        raise NotSymmetricInT("exponent parity does not match the target ring")
    out = [0] * (max(p.coeffs, default=0) // step + 1)
    for e, c in p.coeffs.items():
        if e == 0:
            out[0] += c
        elif e > 0:
            out[0] += 2 * c
            for j, a in enumerate(_t_k_coeffs(e // step)):
                out[j] += a * c
    den = f.den.coeffs[0]
    return FractionRPoly([Fraction(c, den) for c in out])


def pole_extract_oracle(f: QRatio, k: int, mode: str = "plain"):
    """`qalgebra.pole_extract` on FractionRPoly images: (g, remainder)."""
    prod = f * t_k_qratio(k)
    tk_t = FractionRPoly(_t_k_coeffs(k))
    if mode == "plain":
        try:
            p = laurent_to_poly_oracle(prod, 2)
        except NotSymmetricInT as exc:
            raise NoSuchDecomposition(str(exc)) from exc
        q, r = p.divmod(tk_t)
        g = r.constant_only()
        if g is None:
            raise NoSuchDecomposition("modular remainder is not a constant")
        return g, q
    try:
        p = laurent_to_poly_oracle(prod, 1)
    except NotSymmetricInT as exc:
        raise NoSuchDecomposition(str(exc)) from exc
    tk_y = laurent_to_poly_oracle(t_k_qratio(k), 1)
    half_y = laurent_to_poly_oracle(QRatio.one() + t_k_qratio(k // 2) * Fraction(1, 2), 1)
    rp = p.mod(tk_y)
    rh = half_y.mod(tk_y)
    if rh.is_zero():
        raise NoSuchDecomposition("degenerate half-mode modulus")
    g = rp.coeffs[-1] / rh.coeffs[-1] if rp.coeffs else Fraction(0)
    if rh * g != rp:
        raise NoSuchDecomposition("modular remainder not proportional to 1 + t_{k/2}/2")
    return g, (p - half_y * g).divide_exact(tk_y)


@lru_cache(maxsize=None)
def cyclotomic_oracle(n: int) -> QLaurent:
    """Phi_n(x): x^n - 1 divided exactly by Phi_j for every proper divisor j of n."""
    if n < 1:
        raise ValueError("cyclotomic needs n >= 1")
    out = QLaurent({n: 1, 0: -1})
    for j in range(1, n):
        if n % j == 0:
            out = out.divide_exact(cyclotomic_oracle(j))
    return out


def phi_power_oracle(factors) -> QLaurent:
    """prod Phi_j^e over the (j, e) pairs, e >= 0, one factor at a time."""
    out = QLaurent.one()
    for j, e in factors:
        for _ in range(e):
            out = out * cyclotomic_oracle(j)
    return out


def ratio_mul_oracle(a: QRatio, b: QRatio) -> QRatio:
    """a b with the whole product reduced again."""
    return ratio(a.num * b.num, a.den * b.den)


def ratio_add_oracle(a: QRatio, b: QRatio) -> QRatio:
    """a + b over the product of the denominators (over one of them when
    they are equal), reduced again."""
    if a.den == b.den:
        return ratio(a.num + b.num, a.den)
    return ratio(a.num * b.den + b.num * a.den, a.den * b.den)
