import itertools
from collections import defaultdict
from fractions import Fraction

import pytest

from gvexact.graph_engine import (
    CombinedForest,
    amplitude_A,
    amplitude_B,
    amplitude_H,
    amplitude_counts,
    connected_trees_for,
    count_components,
    edge_map,
    enumerate_combined_forests,
    forests_for,
    g_k_of_w,
    generate_vev_forests,
    graph_word,
    scale_forest,
    scale_tree_down,
    tree_pole_data,
    vev_graphs,
)
from gvexact.partitions import RSet, enumerate_partitions, enumerate_rsets
from gvexact.qalgebra import QRatio, qnum, t_k_qratio, to_t_poly, try_to_t_poly
from gvexact.schur_vertex import matrix_element_char, vev_fock
from gvexact.series import degree_vectors
from gvexact.verify import suite_pole_structure
from oracles import amplitude_counts_oracle, bridges_scan, forest_canonical, g_k_of_w_oracle

ONE = QRatio.one()
T = t_k_qratio(1)


def test_worked_example_forests():
    for c in (1, 2, 3):
        for d in (1, 2, 3):
            fs = generate_vev_forests((c, c, -c, -c), (0, 0, 0, d))
            assert len(fs) == 2
            expect = QRatio(qnum(c * d), qnum(d)) * c
            for f in fs:
                assert amplitude_A(f) == expect
            assert vev_graphs((c, c, -c, -c), (0, 0, 0, d)) == expect * 2


def test_single_forest_column():
    # mu = (m1,m2,m3), nu = (d): one surviving forest, a chain of merges
    for mu in ((3, 2, 1), (2, 1, 1), (1, 1, 1)):
        d = sum(mu)
        for a in (1, 2, -1):
            fs = forests_for(mu, (d,), a)
            assert len(fs) == 1
            expect = ONE
            for m in mu:
                expect = expect * QRatio(qnum(a * d * m))
            expect = expect / QRatio(qnum(a * d))
            assert amplitude_A(fs[0]) == expect


def test_cc_amplitudes_match_derived_values():
    # the printed first amplitude in the source example has denominator
    # [2ac]; the recursion and both oracles agree on that form
    for a in (1, 2):
        for c in (1, 2):
            fs = forests_for((c, c), (c, c), a)
            assert len(fs) == 3
            single = (
                QRatio(qnum(a * c * c) * qnum(a * c * c))
                * QRatio(qnum(2 * a * c * c))
                / QRatio(qnum(2 * a * c))
            )
            pair = QRatio(qnum(a * c * c)) / QRatio(qnum(a * c))
            pair = pair * pair
            got = sorted(map(str, (amplitude_A(f) for f in fs)))
            assert got == sorted(map(str, (single, pair, pair)))
            total = vev_fock(*graph_word((c, c), (c, c), a))
            assert single + pair + pair == total


def test_cc_a_zero():
    for c in (1, 2, 3):
        fs = forests_for((c, c), (c, c), 0)
        assert len(fs) == 2
        for f in fs:
            assert amplitude_A(f) == QRatio.const(c * c)


def test_three_path_equality():
    for d in range(1, 4):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for a in range(-2, 3):
                    cs, ns = graph_word(mu, nu, a)
                    g = vev_graphs(cs, ns)
                    assert g == vev_fock(cs, ns)
                    assert g == QRatio(matrix_element_char(mu, a, nu))


def test_leaf_index_classes_have_constant_amplitude():
    for mu, nu, a in [((1, 1), (1, 1), 1), ((2, 1), (2, 1), 1), ((1, 1, 1), (2, 1), -1)]:
        classes = defaultdict(set)
        for f in forests_for(mu, nu, a):
            classes[forest_canonical(f)].add(str(amplitude_A(f)))
        for amps in classes.values():
            assert len(amps) == 1


def _figure1_rset():
    return RSet(((1,), (), ()), ((), (1,), ()), ((1,), (1, 1), (1,)))


def _figure2_rset():
    return RSet(((1,), (1,), ()), ((1,), (1,), ()), ((1,), (1,), (1,)))


def test_figure1_count():
    ws = enumerate_combined_forests(_figure1_rset(), (1, 1, 1))
    assert len(ws) == 9


def test_figure2_connected_rank_zero():
    ws = enumerate_combined_forests(_figure2_rset(), (-1, -1, -1))
    assert len(ws) == 9
    conn0 = [w for w in ws if w.is_connected() and w.cycle_rank() == 0]
    assert conn0
    for w in conn0:
        # the displayed amplitude is 1/t; the sign prefactor
        # (-1)^(L1+L2) = -1 here, so the full amplitude is -1/t
        assert amplitude_H(w) == -(ONE / T)


def test_combined_forests_are_enumerated_once_per_key():
    # memoized: a repeated call (a list gamma included) returns the same tuple,
    # so each forest and its cached walk are built once
    rs = _figure2_rset()
    ws = enumerate_combined_forests(rs, (-1, -1, -1))
    assert isinstance(ws, tuple)
    assert enumerate_combined_forests(rs, [-1, -1, -1], False) is ws
    connected = enumerate_combined_forests(rs, (-1, -1, -1), connected_only=True)
    assert connected is enumerate_combined_forests(rs, (-1, -1, -1), True)
    assert connected == tuple(w for w in ws if w.is_connected())


def test_bridge_count_matches_lambda_length():
    rs = _figure2_rset()
    for w in enumerate_combined_forests(rs, (-1, -1, -1)):
        assert len(w.bridges) == sum(len(p) for p in rs.lam)


def test_no_bridges_without_lambda():
    rs = RSet(((1,), ()), ((1,), ()), ((), ()))
    ws = enumerate_combined_forests(rs, (1, 1))
    assert all(not w.bridges for w in ws)
    assert len(ws) == len(forests_for((1,), (1,), 3))


@pytest.mark.parametrize("r,cap", [(2, 5), (3, 4), (4, 4)])
def test_bridges_match_the_leaf_position_scan(r, cap):
    # every r-set to the cap: the bridge ends counted off graph_word's layout
    # equal the ones the scan of each slot's sorted parts finds
    # (every forest of an r-set shares its one tuple of bridges)
    for d in degree_vectors(r, cap):
        for rs in enumerate_rsets(r, d):
            ws = enumerate_combined_forests(rs, (0,) * r)
            assert ws and ws[0].bridges == bridges_scan(rs), rs


def test_bridges_sort_a_hand_built_lambda():
    # an RSet built by hand need not hold sorted partitions
    rs = RSet(((), ()), ((), ()), ((1, 2, 1), (2, 1, 1)))
    ws = enumerate_combined_forests(rs, (0, 0))
    assert ws and ws[0].bridges == bridges_scan(rs)
    assert [b.label for b in ws[0].bridges] == [2, 1, 1, 2, 1, 1]


def figure2_beta0() -> CombinedForest:
    ws = enumerate_combined_forests(_figure2_rset(), (-1, -1, -1))
    return next(w for w in ws if w.is_connected() and w.cycle_rank() == 0)


def test_scaled_amplitudes_against_displayed_polynomials():
    w = figure2_beta0()
    t3 = t_k_qratio(3)
    disp3, power = 3**6 / t3, ONE
    for c in [3**7, 3**5 * 11, 3**3 * 5 * 13, 3**3 * 5**2, 3**2 * 17, 19, 1]:
        disp3, power = disp3 + power * c, power * t3
    # the displayed k=3 polynomial (with final term t_3^6) carries the
    # opposite overall sign: (-1)^(L1+L2) is negative for this forest
    assert amplitude_H(scale_forest(w, 3)) == -disp3

    t2 = t_k_qratio(2)
    half = ONE + T * Fraction(1, 2)
    corr2, power = 64 * half * half * half / t2, ONE
    for c in [48, 104, 92, 42, 10, 1]:
        corr2, power = corr2 + power * c, power * T
    assert amplitude_H(scale_forest(w, 2)) == corr2


def test_g_k_pole_structure():
    w = figure2_beta0()
    for k in (1, 2):
        gk = g_k_of_w(w, k)
        assert try_to_t_poly(gk * T) is not None  # at most a simple pole at t=0
    for k in (3, 4):
        gk = g_k_of_w(w, k)
        assert try_to_t_poly(gk) is not None  # pole free
    assert g_k_of_w(w, 1) == amplitude_H(w)


# the pole-structure suite's gammas, (0, -2), and the poles-graphs benchmark
# pairs (perfbench/inputs.py POLES_PAIRS); entries -2 give white roots
SCALING_GAMMAS = [
    (1, 1), (-1, -1), (0, -2), (1, 1, 1),
    (-2, -1), (-1, -1, 1), (-2, 0), (-2, -2, 2), (0, 0, 0), (-2, 2), (-2, -1, -1),
    (0, 0), (-2, -2, 1), (0, 1),
]


def connected_forests(gamma):
    r = len(gamma)
    for d in degree_vectors(r, 3):
        for rs in enumerate_rsets(r, d):
            yield from enumerate_combined_forests(rs, gamma, connected_only=True)


@pytest.mark.parametrize("gamma", SCALING_GAMMAS)
def test_g_k_matches_the_ratio_sum_over_divisors(gamma):
    # one reduction over the label-scaled exponent vectors == a QRatio sum of
    # H(W_(k'))(q^(k/k')), each a product chain over the scaled forest
    for w in connected_forests(gamma):
        for k in range(1, 7):
            assert g_k_of_w(w, k) == g_k_of_w_oracle(w, k), (w.rset, k)


def nonzero(counts):
    return {j: e for j, e in counts.items() if e}


@pytest.mark.parametrize("gamma", SCALING_GAMMAS, ids=str)
def test_label_scaled_counts_match_the_walk_of_the_scaled_forest(gamma):
    # W_(k) read off W's own walk: linear labels, white-root constants and
    # gamma.d times k, each zeta_v times k^2, and q -> q^m times m
    for w in connected_forests(gamma):
        for k in range(1, 7):
            const, counts = amplitude_counts_oracle(w.scaled(k))
            for m in (1, 2):
                got = amplitude_counts(w, k, m)
                assert got[0] == const, (w.rset, k)
                expect = {j * m: e for j, e in nonzero(counts).items()}
                assert nonzero(got[1]) == expect, (w.rset, k)


def test_memoized_ratios_are_not_changed_by_the_pole_checks():
    # amplitudes, g_k(W) and t_k are memoized, so their ratios are shared
    # between calls; a pole check that wrote into one would change later results
    forests = list(connected_forests((1, 1, 1))) + list(connected_forests((0, -2)))
    ratios = [t_k_qratio(k) for k in range(1, 4)]
    ratios += [amplitude_H(w) for w in forests]
    ratios += [g_k_of_w(w, k) for w in forests for k in (2, 3)]
    saved = [(dict(f.num.coeffs), dict(f.den.coeffs)) for f in ratios]
    assert suite_pole_structure() == ("pole data on 73 trees, 933 combined forests "
                                      "(1552 scaled checks)")
    again = [t_k_qratio(k) for k in range(1, 4)]
    again += [amplitude_H(w) for w in forests]
    again += [g_k_of_w(w, k) for w in forests for k in (2, 3)]
    for f, g, (num, den) in zip(ratios, again, saved):
        assert g is f
        assert f.num.coeffs == num and f.den.coeffs == den


def test_g_k_needs_positive_k():
    w = figure2_beta0()
    for k in (0, -2):
        with pytest.raises(ValueError):
            g_k_of_w(w, k)


def test_tree_pole_data_examples():
    # single 2-leaf tree over mu = nu = (d) with word parameter a
    def the_tree(d, a):
        trees = connected_trees_for((d,), (d,), a)
        assert len(trees) == 1
        return trees[0]

    t_ = the_tree(3, 1)
    pd = tree_pole_data(t_)
    assert (pd.m, pd.g, pd.type) == (3, 3, "I")
    b = amplitude_B(t_)
    assert b == (t_k_qratio(3) + 3) / t_k_qratio(3)

    t_ = the_tree(2, 3)
    pd = tree_pole_data(t_)
    assert (pd.m, pd.g, pd.type) == (2, 2, "III")
    b = amplitude_B(t_)
    assert b == (T + 2) / t_k_qratio(2) + T + 2

    t_ = the_tree(1, 1)
    pd = tree_pole_data(t_)
    assert (pd.m, pd.g) == (1, 1)
    assert amplitude_B(t_) == ONE / T


def test_pole_remainders_are_integral():
    for d in range(1, 4):
        for mu in enumerate_partitions(d):
            for nu in enumerate_partitions(d):
                for a in range(-2, 3):
                    for tr in connected_trees_for(mu, nu, a):
                        pd = tree_pole_data(tr)
                        b = amplitude_B(tr)
                        if pd.type == "III":
                            pole = (
                                (ONE + t_k_qratio(pd.m // 2) * Fraction(1, 2))
                                * pd.g
                                / t_k_qratio(pd.m)
                            )
                        else:
                            pole = QRatio.const(pd.g) / t_k_qratio(pd.m)
                        assert to_t_poly(b - pole).is_integral(), (mu, nu, a)


def test_scale_forest_labels():
    w = figure2_beta0()
    w3 = scale_forest(w, 3)
    assert w3.rset.degree() == tuple(3 * x for x in w.rset.degree())
    for b in w3.bridges:
        assert b.label % 3 == 0
    with pytest.raises(ValueError):
        scale_forest(w, 0)
    for f3, f in zip(w3.forests, w.forests):
        assert tuple(scale_tree_down(t, 3) for t in f3) == f
        with pytest.raises(ValueError):  # a ValueError, so it holds under -O
            scale_tree_down(f3[0], 2)


# ---------------------------------------------------------------------------
# edge maps
# ---------------------------------------------------------------------------


def test_edge_map_star():
    # K_{1,3} with the center distinguished: each edge maps to its leaf
    phi = edge_map(4, [(0, 1), (0, 2), (0, 3)], v=0)
    assert phi == [1, 2, 3]


def test_edge_map_path():
    phi = edge_map(3, [(0, 1), (1, 2)], v=0)
    assert phi == [1, 2]
    phi = edge_map(3, [(0, 1), (1, 2)], v=2)
    assert phi == [0, 1]


def test_edge_map_triangle():
    phi = edge_map(3, [(0, 1), (1, 2), (2, 0)])
    assert sorted(phi) == [0, 1, 2]


def test_edge_map_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_map(2, [(0, 0)])
    with pytest.raises(ValueError):
        edge_map(3, [(0, 1)])  # disconnected
    with pytest.raises(ValueError):
        edge_map(3, [(0, 1), (1, 2)])  # tree without a distinguished vertex
    with pytest.raises(ValueError):
        edge_map(3, [(0, 1), (1, 3)], v=0)  # endpoint out of range
    with pytest.raises(ValueError):
        edge_map(3, [(0, 1), (1, -1)], v=0)  # negative endpoint
    with pytest.raises(ValueError):
        edge_map(3, [(0, 1), (1, 2)], v=3)  # distinguished vertex out of range


def _connected_graphs(n):
    verts = list(range(n))
    all_edges = list(itertools.combinations(verts, 2))
    for mask in range(1 << len(all_edges)):
        edges = [all_edges[i] for i in range(len(all_edges)) if mask >> i & 1]
        if count_components(verts, edges) == 1:
            yield edges


def _assert_edge_map(n, edges, v=None):
    phi = edge_map(n, edges, v=v)
    assert all(phi[e] in edges[e] for e in range(len(edges)))
    counts = [phi.count(u) for u in range(n)]
    if v is None:
        assert all(c >= 1 for c in counts)
    else:
        assert counts[v] == 0
        assert all(counts[u] == 1 for u in range(n) if u != v)


def test_edge_map_all_small_graphs():
    for n in range(1, 6):
        for edges in _connected_graphs(n):
            if len(edges) == n - 1:
                for v in range(n):
                    _assert_edge_map(n, edges, v=v)
            else:
                _assert_edge_map(n, edges)


def test_edge_map_multigraphs():
    # every connected multigraph on <= 4 vertices with each pair joined 0-2
    # times, in three edge orders: as listed, every edge reversed, and the
    # list reversed with each second parallel copy reversed
    ncases = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mult in itertools.product(range(3), repeat=len(pairs)):
            edges = [p for p, m in zip(pairs, mult) for _ in range(m)]
            if count_components(range(n), edges) != 1:
                continue
            mixed = [
                (b, a) if k % 2 else (a, b)
                for (a, b), m in zip(pairs, mult)
                for k in range(m)
            ][::-1]
            for order in (edges, [(b, a) for a, b in edges], mixed):
                ncases += 1
                if len(order) == n - 1:
                    for v in range(n):
                        _assert_edge_map(n, order, v=v)
                else:
                    _assert_edge_map(n, order)
    assert ncases == 3 * 647


def test_edge_map_multigraphs_from_contractions():
    # the contracted tree-graphs of combined forests are multigraphs
    rs = _figure1_rset()
    for w in enumerate_combined_forests(rs, (1, 1, 1)):
        if not w.is_connected():
            continue
        verts, edges = w.contracted_graph()
        index = {v: i for i, v in enumerate(verts)}
        e = [(index[a], index[b]) for a, b in edges]
        if w.cycle_rank() == 0:
            _assert_edge_map(len(verts), e, v=0)
        else:
            _assert_edge_map(len(verts), e)


def test_debug_serialization_golden(request):
    from pathlib import Path

    from oracles import combined_forest_debug_lines, forest_debug_lines

    golden = Path(request.config.rootdir) / "tests" / "golden"
    w = figure2_beta0()
    got = "\n".join(combined_forest_debug_lines(w)) + "\n"
    assert got == (golden / "combined_forest_beta0.txt").read_text()

    chunks = []
    for f in generate_vev_forests((1, 1, -1, -1), (0, 0, 0, 2)):
        chunks.append("\n".join(forest_debug_lines(f)) + "\n--\n")
    assert "".join(chunks) == (golden / "vev_forests_1122.txt").read_text()
