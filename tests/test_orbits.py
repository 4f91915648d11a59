"""Z, log Z and the integer reports once per orbit of gamma's dihedral
symmetry (`series.stabilizer`), against the computation at every degree
vector (`oracles.every_degree_series`), and the invariance under the
stabilizer of the cross-check paths that `gv compute` runs once per orbit."""

import itertools

import pytest

from gvexact import series
from gvexact.cli import RunConfig, compute_reports
from gvexact.gv import PRESETS, integrality_report
from gvexact.series import (
    build_z_series,
    cyclic_runs,
    degree_vectors,
    downward_closure,
    f_connected,
    stabilizer,
    z_coefficient_matrix,
)
from oracles import every_degree_series


def image(d, s):
    return tuple(d[j] for j in s)


@pytest.mark.parametrize("gamma, order", [
    (PRESETS["P2"], 6),
    (PRESETS["F0"], 8),
    (PRESETS["B3"], 12),
    (PRESETS["F1"], 2),
    (PRESETS["B2"], 2),
    ((1, 1), 2),
    ((2, 1, -1, 1), 2),
    ((1, 0, 2), 1),
], ids=str)
def test_stabilizer_orders(gamma, order):
    group = stabilizer(gamma)
    r = len(gamma)
    assert len(group) == len(set(group)) == order
    assert group[0] == tuple(range(r))
    for s in group:
        assert image(gamma, s) == gamma
        for t in group:  # a group: closed under composition
            assert tuple(s[t[i]] for i in range(r)) in group


GOLDEN_CAPS = {"P2": 8, "F0": 5, "F1": 3, "B2": 3, "B3": 4}
SUPPORTS = [[(0, 1, 2)], [(2, 1, 0)]]  # (0, 1, 2) is the orbit minimum, outside (2, 1, 0)'s closure
R6 = (-2, 0, 2, 1, 0, -2)


@pytest.mark.parametrize(
    "gamma, cap, degrees",
    [(PRESETS[name], cap, None) for name, cap in GOLDEN_CAPS.items()]
    + [((1, 1), 6, None), ((0, -2), 6, None),
       (R6, 4, None), ((1, 0, 2), 6, None), ((1, -2, 0, 1, 2), 5, None)]
    + [(PRESETS["P2"], 3, degrees) for degrees in SUPPORTS]
    + [(R6, 4, [(2, 0, 1, 0, 1, 0)])],  # a closure of split degrees, three runs at the top
    ids=str,
)
def test_orbit_series_match_every_degree(gamma, cap, degrees):
    zs = build_z_series(gamma, cap, degrees=degrees)
    fs = zs.log()
    z_all, f_all = every_degree_series(gamma, cap, degrees)
    support = None if degrees is None else downward_closure(degrees)
    kept = 0
    for d in degree_vectors(len(gamma), cap):
        if support is not None and d not in support:
            for s in (zs, fs):
                with pytest.raises(KeyError):
                    s.numerator(d)
                with pytest.raises(KeyError):
                    s.get(d)
            continue
        assert support is None or zs.key(d) in support
        assert zs.numerator(d) == z_all.numerator(d), d
        assert fs.numerator(d) == f_all.numerator(d), d
        assert zs.get(d) == z_all.get(d) and fs.get(d) == f_all.get(d), d
        kept += 1
    assert kept > 1 and len(zs.representatives()) <= kept
    assert zs.coefficients == z_all.coefficients and fs.coefficients == f_all.coefficients
    # every report, orbit copies included, equals the report computed at its own degree
    reports, ok = compute_reports(RunConfig(gamma, cap, degrees=degrees))
    targets = degrees or list(degree_vectors(len(gamma), cap))
    assert ok and len(reports) == len(targets)
    for rep, d in zip(reports, targets):
        assert rep.to_json_obj() == integrality_report(gamma, d, f_all).to_json_obj()


@pytest.mark.parametrize("gamma, cap, orbits", [
    (PRESETS["P2"], 5, 15),
    (PRESETS["F0"], 4, 16),
    (R6, 4, 209),  # no symmetry: every degree
    ((1, 0, 2), 6, 83),  # no symmetry: every degree
], ids=str)
def test_z_and_log_are_computed_once_per_orbit(monkeypatch, gamma, cap, orbits):
    # a representative whose support has two or more cyclic runs is the
    # product of its runs' numerators: `z_numerator` sees the single runs only
    calls = []
    real = series.z_numerator

    def counting(g, d):
        calls.append(d)
        return real(g, d)

    monkeypatch.setattr(series, "z_numerator", counting)
    zs = build_z_series(gamma, cap)
    fs = zs.log()
    degrees = list(degree_vectors(len(gamma), cap))
    reps = zs.representatives()
    assert reps == fs.representatives()
    assert len(reps) == len({zs.key(d) for d in degrees}) == orbits
    assert calls == [d for d in reps if len(cyclic_runs(d)) == 1]
    assert set(zs.numerators) <= set(reps) and set(fs.numerators) <= set(calls)
    if len(stabilizer(gamma)) == 1:
        assert reps == degrees


@pytest.mark.parametrize("gamma, cap", [(PRESETS["P2"], 7), (PRESETS["F1"], 5)], ids=str)
def test_log_sums_each_class_of_the_box_once(monkeypatch, gamma, cap):
    # where d has a nontrivial stabilizer of its own (P2's (1,1,1), F1's
    # (1,1,0,1)), e and its images under it give one product, times the class
    # size; a d of two or more cyclic runs, such as F1's (1,0,1,0), has
    # F_d = 0 and sums no box at all
    zs = build_z_series(gamma, cap)
    products = []
    real = series._mul_add

    def counting(acc, a, b, shift=0):
        products.append(1)
        real(acc, a, b, shift)

    monkeypatch.setattr(series, "_mul_add", counting)
    fs = zs.log()
    box = classes = 0
    for d in zs.representatives():
        if len(cyclic_runs(d)) > 1:
            continue
        fix = [s for s in stabilizer(gamma) if image(d, s) == d]
        for e in itertools.product(*(range(x + 1) for x in d)):
            de = tuple(a - b for a, b in zip(d, e))
            if 0 < sum(e) < sum(d) and fs.numerator(e) and zs.numerator(de):
                box += 1
                classes += e == min(image(e, s) for s in fix)
    assert len(products) == classes < box
    _, f_all = every_degree_series(gamma, cap)
    for d in degree_vectors(len(gamma), cap):
        assert fs.numerator(d) == f_all.numerator(d), d


@pytest.mark.parametrize("gamma, matrix_cap, graph_cap", [
    (PRESETS["P2"], 4, 3),
    (PRESETS["F0"], 4, 3),
    (PRESETS["B3"], 4, 3),  # order 12, with reflections
    (PRESETS["F1"], 5, 3),
    (PRESETS["B2"], 5, 3),
    ((1, 1), 5, 3),
], ids=str)
def test_cross_check_paths_are_invariant_under_the_stabilizer(gamma, matrix_cap, graph_cap):
    # `gv compute` runs the matrix and graphs checks on one degree per orbit
    r = len(gamma)
    for path, cap in ((z_coefficient_matrix, matrix_cap), (f_connected, graph_cap)):
        values = {d: path(gamma, d) for d in degree_vectors(r, cap)}
        for d, v in values.items():
            for s in stabilizer(gamma):
                assert values[image(d, s)] == v, (path.__name__, d, s)
