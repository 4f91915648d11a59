import math

import pytest

from gvexact.partitions import (
    RSet,
    aut_size,
    enumerate_partitions,
    enumerate_rsets,
    kappa,
    parts_gcd,
    pentagonal_p,
    union,
    scale,
    weight,
    z_factor,
)
from oracles import conjugate


def test_enumeration_basics():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(1) == ((1,),)
    assert enumerate_partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_enumeration_counts_match_pentagonal_oracle():
    for d in range(31):
        assert len(enumerate_partitions(d)) == pentagonal_p(d)


def test_enumeration_no_duplicates_and_sorted_parts():
    for d in range(10):
        seen = set(enumerate_partitions(d))
        assert len(seen) == len(enumerate_partitions(d))
        for p in seen:
            assert all(p[i] >= p[i + 1] > 0 for i in range(len(p) - 1)) or len(p) <= 1
            assert weight(p) == d


def content_sum(p):
    return sum(j - i for i, a in enumerate(p) for j in range(a))


def test_kappa_examples_and_content_oracle():
    assert kappa(()) == 0
    assert kappa((2, 1)) == 0
    assert kappa((3,)) == 6
    for d in range(9):
        for p in enumerate_partitions(d):
            assert kappa(p) == 2 * content_sum(p)


def test_kappa_conjugation_and_parity():
    for d in range(11):
        for p in enumerate_partitions(d):
            assert kappa(conjugate(p)) == -kappa(p)
            assert kappa(p) % 2 == 0


def test_partition_stats():
    assert z_factor((1, 1)) == 2
    assert z_factor((2, 2, 1)) == 8
    assert conjugate((3, 1)) == (2, 1, 1)
    assert parts_gcd(()) == 0
    assert parts_gcd((6, 4, 2)) == 2


def test_class_sizes_sum_to_group_order():
    # class sizes d!/z_lambda over all cycle types add up to d!
    for d in range(1, 9):
        total = sum(math.factorial(d) // z_factor(p) for p in enumerate_partitions(d))
        assert total == math.factorial(d)


def test_combine():
    assert union((2,), (3, 1)) == (3, 2, 1)
    assert scale(3, (2, 1)) == (6, 3)
    assert union((), ()) == ()
    with pytest.raises(ValueError):
        scale(0, (2, 1))


def test_conjugate_involution():
    for d in range(9):
        for p in enumerate_partitions(d):
            assert conjugate(conjugate(p)) == p
            assert aut_size(p) >= 1


def test_rset_unique_at_degree_10():
    rsets = enumerate_rsets(2, (1, 0))
    assert rsets == [RSet(((1,), ()), ((1,), ()), ((), ()))]


def test_rsets_balance_and_degree():
    for r, d in [(2, (2, 1)), (3, (1, 0, 0)), (3, (1, 1, 1)), (4, (2, 0, 1, 0))]:
        for rs in enumerate_rsets(r, d):
            rs.check()
            assert rs.degree() == d


def test_rsets_brute_force_r2():
    for d in [(1, 0), (1, 1), (2, 1), (3, 0), (2, 0)]:
        got = {(rs.mu, rs.nu, rs.lam) for rs in enumerate_rsets(2, d)}
        w = sum(d)
        pool = [p for k in range(w + 1) for p in enumerate_partitions(k)]
        brute = set()
        for mu1 in pool:
            for mu2 in pool:
                for nu1 in pool:
                    for nu2 in pool:
                        for l1 in pool:
                            for l2 in pool:
                                mu, nu, lam = (mu1, mu2), (nu1, nu2), (l1, l2)
                                deg = tuple(
                                    weight(mu[i]) + weight(lam[i]) for i in range(2)
                                )
                                if deg != d:
                                    continue
                                if all(
                                    weight(mu[i]) + weight(lam[i])
                                    == weight(nu[i]) + weight(lam[(i + 1) % 2])
                                    for i in range(2)
                                ):
                                    brute.add((mu, nu, lam))
        assert got == brute


def test_rsets_reject_zero_degree():
    with pytest.raises(ValueError):
        enumerate_rsets(2, (0, 0))


def test_rset_scaled_gcd():
    rs = RSet(((1,), ()), ((1,), ()), ((), ()))
    assert rs.parts_gcd() == 1
    assert rs.scaled(3).parts_gcd() == 3
