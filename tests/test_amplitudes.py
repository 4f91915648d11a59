"""The graph amplitudes built as q-number exponent vectors against the
QRatio product chains they replaced, and their zero and pole branches."""

import itertools
import math

import pytest

from gvexact.graph_engine import (
    amplitude_A,
    amplitude_B,
    amplitude_H,
    enumerate_combined_forests,
    forests_for,
    leaf,
    merge,
    scale_forest,
)
from gvexact.partitions import enumerate_partitions, enumerate_rsets
from gvexact.qalgebra import QLaurent, QRatio, cyclotomic
from oracles import (
    amplitude_A_oracle,
    amplitude_B_oracle,
    amplitude_H_oracle,
    amplitude_tree_oracle,
)

GAMMAS = ((1, 1), (-1, -1), (0, -2), (2, 2), (1, 1, 1), (-2, -1, -1))


def same(a: QRatio, b: QRatio) -> bool:
    return a.num == b.num and a.den == b.den


def vev_forests():
    for n in range(1, 4):
        for mu in enumerate_partitions(n):
            for nu in enumerate_partitions(n):
                for a in range(-2, 3):
                    yield from forests_for(mu, nu, a)


def combined_forests():
    for gamma in GAMMAS:
        r = len(gamma)
        for d in itertools.product(range(4), repeat=r):
            if 1 <= sum(d) <= 3:
                for rs in enumerate_rsets(r, d):
                    yield from enumerate_combined_forests(rs, gamma)


def test_vev_amplitudes_match_ratio_products():
    count = 0
    for f in vev_forests():
        assert same(amplitude_A(f), amplitude_A_oracle(f)), f
        for t in f:
            assert same(amplitude_A((t,)), amplitude_tree_oracle(t)), t
            assert same(amplitude_B(t), amplitude_B_oracle(t)), t
        count += 1
    assert count > 100


def test_combined_amplitudes_match_ratio_products_without_a_gcd():
    # the amplitudes come with q-number counts; the oracle's ratio products
    # reduce by the polynomial gcd
    forests = list(combined_forests())
    assert any(not w.is_connected() for w in forests)
    for w in forests:
        for k in (1, 2, 3):
            wk = scale_forest(w, k)
            assert same(amplitude_H(wk), amplitude_H_oracle(wk)), wk


def test_zero_zeta_gives_zero():
    t = merge(leaf(1, 1, 1), leaf(2, 1, 1), False)  # zeta = 1*1 - 1*1
    assert amplitude_A((t,)).is_zero()
    assert amplitude_B(t).is_zero()
    assert amplitude_A((t, leaf(3, 0, 2))).is_zero()
    white = merge(leaf(1, 2, 1), leaf(2, -2, -1), True)
    assert not amplitude_A((white,)).is_zero()
    assert amplitude_A((merge(t, leaf(3, -2, -2), True),)).is_zero()


def test_zero_in_a_denominator_raises():
    zero_leaf = merge(leaf(1, 0, 1), leaf(2, 1, 0), False)
    assert not amplitude_A((zero_leaf,)).is_zero()
    with pytest.raises(ZeroDivisionError):
        amplitude_B(zero_leaf)
    with pytest.raises(ZeroDivisionError):
        amplitude_A((merge(leaf(1, 1, 1), leaf(2, 1, -1), False),))
    with pytest.raises(ZeroDivisionError):
        amplitude_A((leaf(1, 2, 0),))
    # a zero numerator does not hide a zero denominator
    with pytest.raises(ZeroDivisionError):
        amplitude_B(merge(leaf(1, 0, 1), leaf(2, 0, 1), False))


def test_cyclotomic_products_and_degrees():
    for n in range(1, 31):
        prod = QLaurent.one()
        for j in range(1, n + 1):
            if n % j == 0:
                prod = prod * cyclotomic(j)
        assert prod == QLaurent({n: 1, 0: -1})
        phi = sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)
        assert cyclotomic(n).max_exp() == phi
        assert cyclotomic(n).min_exp() == 0
