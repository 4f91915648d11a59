import io
import json
import math
from fractions import Fraction

import pytest

from gvexact import qalgebra
from gvexact.cli import emit_json
from gvexact.gv import PRESETS, _mobius_cofactor, divisors, integrality_report, mobius, pole_violation
from gvexact.qalgebra import QLaurent, QRatio, RPoly, _phi_factors, qnum, t_k_qratio
from gvexact.series import DegreeSeries, build_z_series, degree_vectors
from oracles import degree_denominator_chain, g_of_d, integrality_report_oracle, mobius_sum

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


def test_divisors_live_beside_mobius():
    # gv re-exports the one divisor list that qalgebra's loops use
    assert divisors is qalgebra.divisors
    assert divisors(12) == [1, 2, 3, 4, 6, 12] and divisors(1) == [1]


def test_mobius_cofactor_is_the_quotient_of_degree_denominators():
    # D_d / D_(d/m)(q^m) for every m | gcd(d), against the product chains
    checked = 0
    for r in (1, 2, 3):
        for d in degree_vectors(r, 8):
            for m in divisors(math.gcd(*d)):
                below = degree_denominator_chain(tuple(x // m for x in d)).substitute_power(m)
                assert _mobius_cofactor(d, m) == degree_denominator_chain(d).divide_exact(below), (d, m)
                checked += 1
    assert checked > 200


def test_no_divisors_below_one():
    def term(kp):
        raise AssertionError("term called")

    for k in (0, -2):
        with pytest.raises(ValueError):
            divisors(k)
        with pytest.raises(ValueError):
            mobius_sum(k, term)


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
    rep = integrality_report(PRESETS["P2"], (1, 0, 0), fs)
    assert rep.integral
    assert rep.g_poly == RPoly([-1])
    assert rep.gv_numbers == [(0, 1)]


def test_p2_small_is_integral():
    fs = _p2_free_energy(4)
    for d in degree_vectors(3, 4):
        rep = integrality_report(PRESETS["P2"], d, fs)
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
        rep = integrality_report(PRESETS["P2"], d, fs)
        for g, n in rep.gv_numbers:
            key = (sum(d), g)
            sums[key] = sums.get(key, 0) + n
    assert sums == akmv


def test_local_p2_kkv_and_genus_zero_through_degree_7():
    # Katz-Klemm-Vafa (hep-th/9910181): a degree-D curve in P^2 moves in
    # |C| = P^n, n = D(D+3)/2, with arithmetic genus g = (D-1)(D-2)/2, and the
    # top two genera of the class sum are fixed by n, g and e(P^2) = 3
    genus0 = [3, -6, 27, -192, 1695, -17064, 188454]
    fs = _p2_free_energy(7)
    sums: dict[tuple[int, int], int] = {}
    for d in degree_vectors(3, 7):
        rep = integrality_report(PRESETS["P2"], d, fs)
        assert rep.integral, d
        for g, n in rep.gv_numbers:
            sums[sum(d), g] = sums.get((sum(d), g), 0) + n
    for D in range(1, 8):
        n, g = D * (D + 3) // 2, (D - 1) * (D - 2) // 2
        assert max(gi for Di, gi in sums if Di == D) == g
        assert sums[D, g] == (-1) ** n * (n + 1)
        if g >= 1:
            assert sums[D, g - 1] == (-1) ** (n + 1) * ((2 * g - 2) * (n + 1) + 3 * n)
        assert sums[D, 0] == genus0[D - 1]


@pytest.mark.parametrize(
    "gamma, cap, degrees",
    [
        (PRESETS["P2"], 6, None),
        (PRESETS["F0"], 5, None),
        (PRESETS["B3"], 4, None),
        ((0, -2), 5, None),
        ((-1, -1), 6, None),
        (PRESETS["P2"], 6, [(1, 1, 0), (2, 2, 2)]),
    ],
    ids=["P2", "F0", "B3", "0,-2", "-1,-1", "P2-support"],
)
def test_report_matches_ratio_oracle(gamma, cap, degrees):
    fs = build_z_series(gamma, cap, degrees=degrees).log()
    targets = degrees or list(degree_vectors(len(gamma), cap))
    assert any(math.gcd(*d) > 1 for d in targets)
    keys = ("t_times_G", "integral", "gv")
    for d in targets:
        got = integrality_report(gamma, d, fs).to_json_obj()
        want = integrality_report_oracle(gamma, d, fs.get).to_json_obj()
        assert [got[k] for k in keys] == [want[k] for k in keys], d


def _z_with(degree, numerator):
    z = DegreeSeries(2, sum(degree))
    z.constant = QRatio.one()
    z.set_numerator(degree, numerator)  # Z_d = numerator / D_d
    return z


def test_non_integral_verdicts():
    # Z_(2,0) = 1/[2]^2: t*G_(2,0) = [1]^2/[2]^2 is no Laurent polynomial,
    # so the exact division by D_(2,0) fails; Z_(2,0) D_(2,0) = [1]^2
    not_laurent = _z_with((2, 0), T.num).log()
    # Z_(1,0) = x: t*G_(1,0) = x [1]^2 is not invariant under q -> 1/q
    not_symmetric = _z_with((1, 0), T.num.shifted(1)).log()
    for fs, d in [(not_laurent, (2, 0)), (not_symmetric, (1, 0))]:
        for rep in (integrality_report((0, 0), d, fs),
                    integrality_report_oracle((0, 0), d, fs.get)):
            assert rep.integral is False and rep.g_poly is None, d
            assert rep.notes.startswith("t*G not in Q[t]")
            assert rep.to_json_obj()["t_times_G"] == []
        # F_(2,0) = 1/[2]^2 (poles Phi_j^2 with j | 4) and F_(1,0) = x keep
        # the pole structure, so the verdict blames integrality
        assert integrality_report((0, 0), d, fs).notes.endswith(
            "; F_d has the pole structure, so integrality failed")
    # a hand-built free energy F_(1,1) = 1/2 gives t*G = t/2
    # (FN_(1,1) = |d| F_(1,1) D_(1,1) = [1]^4)
    half = DegreeSeries(2, 2, weighted=True)
    half.set_numerator((1, 1), T.num * T.num)
    for rep in (integrality_report((0, 0), (1, 1), half),
                integrality_report_oracle((0, 0), (1, 1), half.get)):
        assert rep.integral is False and rep.g_poly == RPoly([0, Fraction(1, 2)])
        assert rep.gv_numbers == [] and rep.to_json_obj()["t_times_G"] == ["0", "1/2"]
    assert integrality_report((0, 0), (1, 1), half).notes == (
        "t*G has a non-integer coefficient; F_d has the pole structure, so integrality failed")


def test_json_says_why_a_report_was_rejected():
    # the rejected (0, 0) reports of the verdicts above carry their notes into
    # the JSON lines; an integral report writes no "notes" key
    half = DegreeSeries(2, 2, weighted=True)
    half.set_numerator((1, 1), T.num * T.num)
    rejected = [integrality_report((0, 0), (2, 0), _z_with((2, 0), T.num).log()),
                integrality_report((0, 0), (1, 0), _z_with((1, 0), T.num.shifted(1)).log()),
                integrality_report((0, 0), (1, 1), half)]
    integral = integrality_report(PRESETS["P2"], (1, 1, 0), _p2_free_energy(2))
    out = io.StringIO()
    emit_json(rejected + [integral], False, out)
    *objs, summary = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [o.get("notes") for o in objs] == [rep.notes for rep in rejected] + [None]
    assert all(rep.notes for rep in rejected) and "notes" not in objs[-1]
    assert summary["all_integral"] is False


def test_non_integral_verdict_names_the_broken_pole():
    # a hand-built F_(3,1) = 1/[3]^2 has the poles Phi_3^2 and Phi_6^2 at
    # gcd(d) = 1, where only Phi_1 and Phi_2 may appear; the first is named
    # (FN_(3,1) = |d| F_(3,1) D_(3,1) = 4 [1]^4 [2]^2)
    fs = DegreeSeries(2, 4, weighted=True)
    fs.set_numerator((3, 1), qnum(1) * qnum(1) * qnum(1) * qnum(1) * qnum(2) * qnum(2)
                     * QLaurent.const(4))
    assert fs.get((3, 1)) == QRatio.one() / t_k_qratio(3)
    broken = "F_(3, 1) has the pole Phi_3^2; need j | 2, e <= 2"
    assert pole_violation((3, 1), fs.get((3, 1))) == broken
    rep = integrality_report((0, 0), (3, 1), fs)
    assert rep.integral is False and rep.g_poly is None
    assert rep.notes == "t*G not in Q[t]: nontrivial denominator after reduction; " + broken
    assert pole_violation((3, 1), QRatio.const(Fraction(1, 2))) == ""


@pytest.mark.parametrize("d, pole", [((3, 3), "Phi_4^3"), ((2, 2), "Phi_3^2"), ((6, 6), "Phi_4^3"),
                                     ((4, 8), "Phi_3^2")], ids=str)
def test_pole_violation_reads_the_reduced_denominator(d, pole):
    # (1 + 2x) [1]^3 / (7 x^5 [3]^2 [2]^3) reduces to Phi_1^2 Phi_2^2 Phi_3^2
    # Phi_4^3 Phi_6^2 below: the first Phi_j^e with j not dividing 2 gcd(d),
    # or e > 2, is named, as when the expanded den was factored again
    num = QLaurent({0: 1, 1: 2}) * qnum(1) * qnum(1) * qnum(1)
    den = (qnum(3) * qnum(3) * qnum(2) * qnum(2) * qnum(2)).shifted(5) * QLaurent.const(7)
    f = QRatio(num, den)
    assert f.phis == _phi_factors(f.den) == ((1, 2), (2, 2), (3, 2), (4, 3), (6, 2))
    k = 2 * math.gcd(*d)
    assert pole_violation(d, f) == f"F_{d} has the pole {pole}; need j | {k}, e <= 2"


def test_report_refuses_degrees_outside_the_series():
    fs = _p2_free_energy(2)
    with pytest.raises(KeyError):
        integrality_report(PRESETS["P2"], (3, 0, 0), fs)
    with pytest.raises(ValueError):
        integrality_report(PRESETS["P2"], (0, 0, 0), fs)
    with pytest.raises(ValueError):
        integrality_report(PRESETS["P2"], (1, 0, 0), build_z_series(PRESETS["P2"], 2))


def test_local_f0_kkv_and_genus_zero_through_degree_6():
    # class (a, b) = (d1 + d3, d2 + d4) of local P^1 x P^1: |C| = P^n with
    # n = (a+1)(b+1) - 1, arithmetic genus g = (a-1)(b-1) and e(F0) = 4, so
    # Katz-Klemm-Vafa (hep-th/9910181) fix the top two genera; the genus-0
    # values are those of Chiang-Klemm-Yau-Zaslow (hep-th/9903053)
    genus0 = {(1, 0): -2, (1, 1): -4, (1, 2): -6, (2, 2): -32, (2, 3): -110,
              (2, 4): -288, (3, 3): -756}
    fs = build_z_series(PRESETS["F0"], 6).log()
    sums: dict[tuple[int, int, int], int] = {}
    for d in degree_vectors(4, 6):
        rep = integrality_report(PRESETS["F0"], d, fs)
        assert rep.integral, d
        key = (d[0] + d[2], d[1] + d[3])
        for g, n in rep.gv_numbers:
            sums[key + (g,)] = sums.get(key + (g,), 0) + n
    sums = {k: n for k, n in sums.items() if n}
    for a in range(7):
        for b in range(7 - a):
            if not a + b:
                continue
            n, g = (a + 1) * (b + 1) - 1, (a - 1) * (b - 1)
            genera = [gi for ai, bi, gi in sums if (ai, bi) == (a, b)]
            if g < 0:
                assert not genera, (a, b)
                continue
            assert max(genera) == g, (a, b)
            assert sums[a, b, g] == (-1) ** n * (n + 1), (a, b)
            if g >= 1:
                assert sums[a, b, g - 1] == (-1) ** (n + 1) * ((2 * g - 2) * (n + 1) + 4 * n)
    for (a, b), n0 in genus0.items():
        assert sums[a, b, 0] == sums[b, a, 0] == n0, (a, b)


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
    rep = integrality_report(PRESETS["P2"], (1, 1, 0), fs)
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
