from fractions import Fraction

import pytest

from gvexact.gv import (
    GvReport,
    PRESETS,
    divisors,
    g_of_d,
    integrality_report,
    mobius,
)
from gvexact.qalgebra import QRatio, RPoly, t_k_qratio
from gvexact.series import build_z_series, degree_vectors

T = t_k_qratio(1)


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    known = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 12: 0, 30: -1}
    for n, v in known.items():
        assert mobius(n) == v
    with pytest.raises(ValueError):
        mobius(0)


def test_divisor_sums():
    for k in range(1, 25):
        assert sum(mobius(k // kp) for kp in divisors(k)) == (1 if k == 1 else 0)


def _p2_free_energy(max_total=4):
    return build_z_series(PRESETS["P2"], max_total).log()


def test_g_of_d_primitive_degree_is_f():
    fs = _p2_free_energy(3)
    for d in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        assert g_of_d(PRESETS["P2"], d, fs.get) == fs.get(d)


def test_g_of_d_divisor_expansion():
    fs = _p2_free_energy(4)
    d = (2, 0, 0)
    got = g_of_d(PRESETS["P2"], d, fs.get)
    expect = fs.get(d) - fs.get((1, 0, 0)).substitute_power(2) * Fraction(1, 2)
    assert got == expect


def test_degree_one_anchor():
    fs = _p2_free_energy(2)
    assert g_of_d(PRESETS["P2"], (1, 0, 0), fs.get) == -(QRatio.one() / T)
    rep = integrality_report(PRESETS["P2"], (1, 0, 0), fs.get)
    assert rep.integral
    assert rep.g_poly == RPoly([-1])
    assert rep.gv_numbers == [(0, 1)]


def test_p2_small_is_integral():
    fs = _p2_free_energy(4)
    for d in degree_vectors(3, 4):
        rep = integrality_report(PRESETS["P2"], d, fs.get)
        assert rep.integral, (d, rep.notes)
        assert rep.g_poly is not None and rep.g_poly.is_integral()


def test_known_local_p2_class_sums():
    # class-summed integer invariants n^g_D of the canonical bundle over P^2
    # through D = 5 (Aganagic-Klemm-Marino-Vafa, hep-th/0305132); every
    # genus not listed vanishes
    akmv = {
        (1, 0): 3, (2, 0): -6, (3, 0): 27, (4, 0): -192, (5, 0): 1695,
        (3, 1): -10, (4, 1): 231, (5, 1): -4452,
        (4, 2): -102, (5, 2): 5430, (4, 3): 15, (5, 3): -3672,
        (5, 4): 1386, (5, 5): -270, (5, 6): 21,
    }
    fs = _p2_free_energy(5)
    sums: dict[tuple[int, int], int] = {}
    for d in degree_vectors(3, 5):
        rep = integrality_report(PRESETS["P2"], d, fs.get)
        for g, n in rep.gv_numbers:
            key = (sum(d), g)
            sums[key] = sums.get(key, 0) + n
    assert sums == akmv


def test_scaling_consistency():
    fs = _p2_free_energy(4)
    d = (2, 0, 0)
    g = g_of_d(PRESETS["P2"], d, fs.get)
    for m in (2, 3):
        lhs = g.substitute_power(m)
        rhs = QRatio.zero()
        k = 2
        for kp in divisors(k):
            mu = mobius(k // kp)
            if mu:
                base = fs.get((kp, 0, 0))
                rhs = rhs + base.substitute_power(m * k // kp) * Fraction(mu * kp, k)
        assert lhs == rhs


def test_report_serialization():
    fs = _p2_free_energy(2)
    rep = integrality_report(PRESETS["P2"], (1, 1, 0), fs.get)
    obj = rep.to_json_obj()
    assert obj["gamma"] == [1, 1, 1]
    assert obj["degree"] == [1, 1, 0]
    assert isinstance(obj["t_times_G"], list)
    assert all(isinstance(s, str) for s in obj["t_times_G"])
    assert obj["integral"] is True


def test_presets_verbatim():
    assert PRESETS["P2"] == (1, 1, 1)
    assert PRESETS["F0"] == (0, 0, 0, 0)
    assert PRESETS["F1"] == (1, 0, -1, 0)
    assert PRESETS["B2"] == (0, 0, -1, -1, -1)
    assert PRESETS["B3"] == (-1, -1, -1, -1, -1, -1)
