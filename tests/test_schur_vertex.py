import random
from fractions import Fraction
from functools import lru_cache

import pytest

from gvexact.partitions import enumerate_partitions, kappa, z_factor, union
from gvexact.qalgebra import QLaurent, QRatio, qnum, qnum_product, t_k_qratio
from gvexact.schur_vertex import (
    W_vertex,
    apply_E,
    matrix_element_char,
    skew_numerator,
    skew_schur_qrho,
    vacuum,
    vev_fock,
)
from gvexact.characters import mn_character
from gvexact.graph_engine import graph_word
from oracles import (
    inverse,
    ratio,
    schur_qrho_hook,
    skew_numerator_double_sum,
    skew_schur_oracle,
    w_vertex_oracle,
)

ONE = QRatio.one()
T = t_k_qratio(1)


def h_spec(k):
    """Complete homogeneous h_k at the principal specialization."""
    if k < 0:
        return QRatio.zero()
    if k == 0:
        return ONE
    return schur_qrho_hook((k,))


def jacobi_trudi(mu, eta):
    """Independent skew-Schur oracle: det(h_{mu_i - eta_j - i + j})."""
    n = max(len(mu), len(eta))
    if n == 0:
        return ONE
    mu = tuple(mu) + (0,) * (n - len(mu))
    eta = tuple(eta) + (0,) * (n - len(eta))
    rows = [[h_spec(mu[i] - eta[j] - (i + 1) + (j + 1)) for j in range(n)] for i in range(n)]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        out = QRatio.zero()
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * det(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out

    return det(rows)


def test_skew_schur_examples():
    assert skew_schur_qrho((), ()) == ONE
    assert skew_schur_qrho((1,), ()) == ratio(-QLaurent.one(), qnum(1))
    assert skew_schur_qrho((2,), ()) == ratio(
        QLaurent.monomial(-1), qnum(1) * qnum(2)
    )
    assert skew_schur_qrho((1,), (2,)).is_zero()


def test_skew_schur_against_hook_oracle():
    for d in range(7):
        for mu in enumerate_partitions(d):
            assert skew_schur_qrho(mu, ()) == schur_qrho_hook(mu)


def test_skew_schur_against_jacobi_trudi():
    for dm in range(1, 5):
        for de in range(0, dm + 1):
            for mu in enumerate_partitions(dm):
                for eta in enumerate_partitions(de):
                    assert skew_schur_qrho(mu, eta) == jacobi_trudi(mu, eta), (mu, eta)


def test_w_vertex_examples():
    assert W_vertex((), ()) == ONE
    assert W_vertex((1,), ()) == ratio(QLaurent.one(), qnum(1))
    assert W_vertex((1,), (1,)) == ONE + inverse(T)


def test_w_vertex_symmetry():
    for dm in range(0, 5):
        for dn in range(0, 5 - dm):
            for mu in enumerate_partitions(dm):
                for nu in enumerate_partitions(dn):
                    assert W_vertex(mu, nu) == W_vertex(nu, mu)


def test_w_vertex_matches_ratio_oracle():
    # the integer-numerator W and skew Schur values against the QRatio
    # character sums they replaced, on every pair with |mu| + |nu| <= 8
    skew = lru_cache(maxsize=None)(skew_schur_oracle)
    for dm in range(9):
        for dn in range(9 - dm):
            for mu in enumerate_partitions(dm):
                for nu in enumerate_partitions(dn):
                    assert skew_schur_qrho(mu, nu) == skew(mu, nu), (mu, nu)
                    assert W_vertex(mu, nu) == w_vertex_oracle(mu, nu, skew), (mu, nu)


def test_w_vertex_from_matrix_elements():
    # the vertex weight re-assembled from bosonic matrix elements
    for dm in range(0, 4):
        for dn in range(0, 4 - dm):
            for mu in enumerate_partitions(dm):
                for nu in enumerate_partitions(dn):
                    total = QRatio.zero()
                    for de in range(min(dm, dn) + 1):
                        for etap in enumerate_partitions(de):
                            for mup in enumerate_partitions(dm - de):
                                for nup in enumerate_partitions(dn - de):
                                    br_mu = mn_character(mu, union(mup, etap))
                                    br_nu = mn_character(nu, union(nup, etap))
                                    if not (br_mu and br_nu):
                                        continue
                                    num = (
                                        br_mu
                                        * br_nu
                                        * (-1) ** (len(mup) + len(nup))
                                    )
                                    den = (
                                        z_factor(mup)
                                        * z_factor(nup)
                                        * z_factor(etap)
                                    )
                                    term = ratio(
                                        QLaurent.monomial(
                                            kappa(mu) + kappa(nu), num
                                        ),
                                        qnum_product(mup) * qnum_product(nup),
                                    )
                                    total = total + term * Fraction(1, den)
                    sign = -1 if (dm + dn) % 2 else 1
                    assert W_vertex(mu, nu) == total * sign, (mu, nu)


def test_matrix_element_examples():
    assert matrix_element_char((1, 1), 1, (1, 1)) == QLaurent(
        {2: Fraction(1), -2: Fraction(1)}
    )
    assert matrix_element_char((1, 1, 1), 1, (3,)) == QLaurent(
        {6: Fraction(1), 0: Fraction(-2), -6: Fraction(1)}
    )
    for d in range(1, 5):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                me = matrix_element_char(mu, 0, nu)
                expect = QLaurent.const(z_factor(mu)) if mu == nu else QLaurent.zero()
                assert me == expect
    with pytest.raises(ValueError):
        matrix_element_char((2,), 1, (1,))


def test_apply_E_examples():
    assert apply_E(0, 4, vacuum()) == {(): ratio(QLaurent.one(), qnum(4))}
    for c in (1, 2, 3):
        for n in (-3, 0, 3):
            assert apply_E(c, n, vacuum()) == {}
    assert apply_E(-1, 0, vacuum()) == {(1,): ONE}
    with pytest.raises(ValueError):
        apply_E(0, 0, vacuum())


def rand_vec(rng, max_weight=4):
    vec = {}
    for d in range(max_weight + 1):
        for lam in enumerate_partitions(d):
            if rng.random() < 0.3:
                vec[lam] = QRatio.const(rng.randint(-3, 3))
    return {k: v for k, v in vec.items() if not v.is_zero()}


def vec_eq(a, b):
    keys = set(a) | set(b)
    return all(a.get(k, QRatio.zero()) == b.get(k, QRatio.zero()) for k in keys)


def test_commutation_relation():
    rng = random.Random(17)
    for _ in range(25):
        a, m = rng.randint(-2, 2), rng.randint(-2, 2)
        b, n = rng.randint(-2, 2), rng.randint(-2, 2)
        if (a, m) == (0, 0) or (b, n) == (0, 0):
            continue
        v = rand_vec(rng)
        if not v:
            continue
        lhs = apply_E(a, m, apply_E(b, n, v))
        rhs = apply_E(b, n, apply_E(a, m, v))
        comm = {k: lhs.get(k, QRatio.zero()) - rhs.get(k, QRatio.zero()) for k in set(lhs) | set(rhs)}
        comm = {k: x for k, x in comm.items() if not x.is_zero()}
        det = a * n - m * b
        if (a + b, m + n) != (0, 0):
            expect = apply_E(a + b, m + n, v)
            expect = {k: x * QRatio(qnum(det)) for k, x in expect.items()}
            expect = {k: x for k, x in expect.items() if not x.is_zero()}
        else:
            expect = {k: x * a for k, x in v.items() if a}
        assert vec_eq(comm, expect), (a, m, b, n)


def test_vev_examples():
    assert vev_fock((1, -1), (0, 3)) == ONE
    for c in (1, 2, 3):
        for d in (1, 2, 3):
            assert vev_fock((c, c, -c, -c), (0, 0, 0, d)) == ratio(
                qnum(c * d), qnum(d)
            ) * (2 * c)
    assert vev_fock((1, 1, -1, -1), (0, 0, 1, 1)) == T + 2
    assert vev_fock((1, -1), (1, 1)).is_zero() is False
    assert vev_fock((1, 1, -1), (0, 0, 1)).is_zero()  # charge not conserved


def test_vev_matches_matrix_elements():
    for d in range(1, 5):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for a in range(-2, 3):
                    cs, ns = graph_word(mu, nu, a)
                    assert vev_fock(cs, ns) == QRatio(
                        matrix_element_char(mu, a, nu)
                    ), (mu, a, nu)


def test_skew_numerator_is_the_double_character_sum():
    # one sum over skew characters chi^(mu/eta)(rho) against the double sum over
    # chi^eta(sigma) chi^mu(rho u sigma), on every (mu, eta) with |mu| <= 9
    pairs = [(mu, eta) for m in range(10) for mu in enumerate_partitions(m)
             for e in range(m + 1) for eta in enumerate_partitions(e)]
    assert len(pairs) == 5614
    for mu, eta in pairs:
        assert skew_numerator(mu, eta) == skew_numerator_double_sum(mu, eta), (mu, eta)
