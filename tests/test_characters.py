from fractions import Fraction

import pytest

from gvexact.characters import (
    character_table,
    check_column_orthogonality,
    check_row_orthogonality,
    mn_character,
)
from gvexact.partitions import enumerate_partitions, union, weight, z_factor
from oracles import conjugate, straight_character


def hook_dimension(lam):
    """Hook-length formula, the independent dimension oracle."""
    if not lam:
        return 1
    import math

    cols = [sum(1 for a in lam if a > j) for j in range(lam[0])]
    n = math.factorial(weight(lam))
    for i, a in enumerate(lam):
        for j in range(a):
            n //= (a - j) + (cols[j] - i) - 1
    return n


def test_examples():
    for d in range(1, 6):
        for mu in enumerate_partitions(d):
            assert mn_character((d,), mu) == 1  # trivial representation
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((), ()) == 1


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        mn_character((2,), (1,))


def test_dimension_matches_hook_oracle():
    for d in range(1, 8):
        identity = (1,) * d
        for lam in enumerate_partitions(d):
            assert mn_character(lam, identity) == hook_dimension(lam)


def test_row_and_column_orthogonality():
    for d in range(1, 9):
        assert check_column_orthogonality(d)
    for d in range(1, 8):
        assert check_row_orthogonality(d)


def test_basis_change_round_trip():
    # fermionic -> bosonic -> fermionic via chi/z then chi is the identity
    for d in range(1, 7):
        ps = enumerate_partitions(d)
        for la in ps:
            for lb in ps:
                s = sum(
                    Fraction(mn_character(la, mu), z_factor(mu))
                    * mn_character(lb, mu)
                    for mu in ps
                )
                assert s == (1 if la == lb else 0)


def test_conjugate_twists_by_sign():
    for d in range(1, 7):
        ps = enumerate_partitions(d)
        for lam in ps:
            for mu in ps:
                eps = (-1) ** (weight(mu) - len(mu))
                assert mn_character(conjugate(lam), mu) == eps * mn_character(lam, mu)


def test_character_table_shape():
    tab = character_table(4)
    assert len(tab) == 25
    assert tab[((2, 2), (2, 2))] == 2


def test_empty_inner_shape_is_the_straight_character():
    for d in range(9):
        ps = enumerate_partitions(d)
        for lam in ps:
            for mu in ps:
                assert mn_character(lam, mu, ()) == straight_character(lam, mu), (lam, mu)


def test_skew_character_is_the_straight_character_sum():
    # chi^(lambda/eta)(rho) = sum_sigma chi^eta(sigma) chi^lambda(rho u sigma) / z_sigma
    for d in range(8):
        for lam in enumerate_partitions(d):
            for e in range(d + 1):
                for eta in enumerate_partitions(e):
                    for rho in enumerate_partitions(d - e):
                        want = sum(
                            Fraction(mn_character(eta, sigma) * mn_character(lam, union(rho, sigma)),
                                     z_factor(sigma))
                            for sigma in enumerate_partitions(e)
                        )
                        assert mn_character(lam, rho, eta) == want, (lam, rho, eta)


def test_skew_character_outside_the_shape_is_zero():
    for d in range(8):
        for lam in enumerate_partitions(d):
            for e in range(d + 1):
                for eta in enumerate_partitions(e):
                    if len(eta) > len(lam) or any(b > a for a, b in zip(lam, eta)):
                        for rho in enumerate_partitions(d - e):
                            assert mn_character(lam, rho, eta) == 0, (lam, rho, eta)
