"""The input guards of the engine's entry points: each refuses its malformed
input with its own message, or returns the documented empty value."""

import pytest

from gvexact.characters import mn_character
from gvexact.graph_engine import edge_map, enumerate_combined_forests, generate_vev_forests
from gvexact.partitions import RSet, enumerate_partitions, enumerate_rsets
from gvexact.qalgebra import QLaurent, QRatio, pole_extract, qnum_ratio
from gvexact.schur_vertex import skew_numerator, vev_fock
from gvexact.series import z_coefficient_matrix, z_numerator

EMPTY2 = ((), ())
F = qnum_ratio(1, {2: -2})  # 1 / [2]^2, which has a pole at t_2

GUARDS = {
    "vev forests, unequal lengths": (lambda: generate_vev_forests((1, -1), (0,)), "equal length"),
    "vev forests, E_0(0)": (lambda: generate_vev_forests((1, 0), (0, 0)), "E_0"),
    "vev forests, nonzero charge": (lambda: generate_vev_forests((1, -2), (0, 1)), ()),
    "vev fock, unequal lengths": (lambda: vev_fock((1, -1), (0,)), "equal length"),
    "vev fock, E_0(0)": (lambda: vev_fock((1, 0), (0, 0)), "E_0"),
    "combined forests, gamma length": (
        lambda: enumerate_combined_forests(RSet(((1,), ()), ((1,), ()), EMPTY2), (1,)),
        "gamma length"),
    "rset check, tuple lengths": (lambda: RSet(EMPTY2, ((),), EMPTY2).check(), "share a length"),
    "rset check, balance": (lambda: RSet(((1,), ()), EMPTY2, EMPTY2).check(), "balance violated"),
    "rset gcd, all empty": (lambda: RSet(EMPTY2, EMPTY2, EMPTY2).parts_gcd(), "all-empty"),
    "rsets, r = 1": (lambda: enumerate_rsets(1, (1,)), "r >= 2"),
    "rsets, degree length": (lambda: enumerate_rsets(2, (1, 1, 1)), "r >= 2"),
    "rsets, negative entry": (lambda: enumerate_rsets(2, (2, -1)), ">= 0"),
    "partitions of -1": (lambda: enumerate_partitions(-1), ">= 0"),
    "edge map, no vertex": (lambda: edge_map(0, []), "at least one vertex"),
    "substitute q -> q^0": (lambda: QRatio.one().substitute_power(0), ">= 1"),
    "pole extract, k = 0": (lambda: pole_extract(F, 0), "k must be >= 1"),
    "pole extract, unknown mode": (lambda: pole_extract(F, 2, "full"), "unknown pole_extract mode"),
    "pole extract, half mode at odd k": (lambda: pole_extract(F, 3, "half"), "even k"),
    "z numerator, degree length": (lambda: z_numerator((1, 1), (1, 0, 0)), "share a length"),
    "z numerator, r = 1": (lambda: z_numerator((1,), (1,)), "share a length"),
    "z numerator, degree zero": (lambda: z_numerator((1, 1), (0, 0)), "constant term"),
    "z matrix, degree length": (lambda: z_coefficient_matrix((1, 1), (1,)), "share a length"),
    "z matrix, degree zero": (lambda: z_coefficient_matrix((1, 1), (0, 0)), "constant term"),
    "skew numerator, eta larger than mu": (lambda: skew_numerator((1,), (2,)), QLaurent.zero()),
    "skew character, weights": (lambda: mn_character((2, 1), (1,), (1,)), "|lambda| = |mu| \\+ |eta|"),
}


@pytest.mark.parametrize("call,want", GUARDS.values(), ids=GUARDS.keys())
def test_input_guard(call, want):
    # a string is a pattern that the ValueError's message must contain; anything
    # else is the value the guard returns
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            call()
    else:
        assert call() == want
