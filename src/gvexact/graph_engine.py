"""VEV forests from the commutator-rewriting recursion, their amplitudes,
combined forests with bridges, label scaling with the Mobius-weighted
combination, per-tree pole data, and the edge maps of the pole-cancellation
argument, built from one breadth-first spanning tree.

The rewriting is implemented verbatim on operator words: repeatedly take the
rightmost adjacent pair (a >= 0, b < 0), branch into the swap term and the
merge term, apply the vanishing/stripping rules, and record the surviving
forests.  The graph set is *defined* by this algorithm, so fidelity beats
cleverness.

Every amplitude is a constant times a product of q-numbers [k]^(+-1) over
merge vertices, leaves, roots and bridges.  It is built as the exponent of
each [k], collected in one walk, and reduced over the cyclotomic factors of
the [k] (`qalgebra.qnum_ratio`, memoized), so no amplitude factors a
denominator.  Scaling every label by k multiplies the white-root constants,
gamma . d and the linear labels by k and each zeta_v by k^2, so H(W_(k)) is
read off W's walk.  The sums over forests (of `amplitude_counts`) and over
divisors (`g_k_of_w`) add exponent vectors over one cyclotomic denominator
and reduce once (`qalgebra.qnum_sum`); nothing here takes a polynomial gcd.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from gvexact.partitions import Partition, RSet, union
from gvexact.qalgebra import QRatio, divisors, mobius, pole_extract, qnum_ratio, qnum_sum

# A node is a nested tuple:
#   ("L", index, c, n)                      original operator (a leaf)
#   ("M", c, n, white, left, right)         merge vertex
Node = tuple


def leaf(idx: int, c: int, n: int) -> Node:
    return ("L", idx, c, n)


def merge(left: Node, right: Node, white: bool) -> Node:
    return ("M", node_c(left) + node_c(right), node_n(left) + node_n(right), white, left, right)


def node_c(v: Node) -> int:
    return v[2] if v[0] == "L" else v[1]


def node_n(v: Node) -> int:
    return v[3] if v[0] == "L" else v[2]


def is_leaf(v: Node) -> bool:
    return v[0] == "L"


def node_children(v: Node) -> tuple[Node, Node]:
    return v[4], v[5]


def tree_leaves(root: Node) -> list[Node]:
    """Leaves in left-to-right order."""
    out = []
    stack = [root]
    while stack:
        v = stack.pop()
        if v[0] == "L":
            out.append(v)
        else:
            stack.append(v[5])  # the right child waits below the left one
            stack.append(v[4])
    return out


def zeta(v: Node) -> int:
    """det(c_L, n_L; c_R, n_R) born at a merge vertex."""
    l, r = node_children(v)
    return node_c(l) * node_n(r) - node_n(l) * node_c(r)


def scale_node(v: Node, k: int) -> Node:
    if is_leaf(v):
        return ("L", v[1], k * v[2], k * v[3])
    return ("M", k * v[1], k * v[2], v[3], scale_node(v[4], k), scale_node(v[5], k))


def scale_tree_down(v: Node, m: int) -> Node:
    """Inverse of scale_node: divide every label by m."""
    if is_leaf(v):
        if v[2] % m or v[3] % m:
            raise ValueError(f"leaf labels of {v} are not divisible by {m}")
        return ("L", v[1], v[2] // m, v[3] // m)
    return ("M", v[1] // m, v[2] // m, v[3], scale_tree_down(v[4], m), scale_tree_down(v[5], m))


# A VEV forest is a tuple of completed trees (each a root Node).  A tree is
# complete either because its root merged to (0,0) (white) or because a
# trailing (0, n) operator was stripped against the vacuum.
VevForest = tuple[Node, ...]


@lru_cache(maxsize=None)
def generate_vev_forests(cs: tuple[int, ...], ns: tuple[int, ...]) -> tuple[VevForest, ...]:
    """All surviving forests of the rewriting recursion for the word (cs, ns)."""
    if len(cs) != len(ns):
        raise ValueError("c and n sequences must have equal length")
    if any(c == 0 and n == 0 for c, n in zip(cs, ns)):
        raise ValueError("E_0(0) is not well-defined")
    if sum(cs) != 0:
        return ()
    word = tuple(leaf(i + 1, c, n) for i, (c, n) in enumerate(zip(cs, ns)))
    return _rec(word)


def _rec(word: tuple[Node, ...]) -> tuple[VevForest, ...]:
    """Forests completed while reducing `word` against the vacuum.  Not
    memoized: hashing the nested word costs about what the repeat calls do."""
    done: list[Node] = []
    w = list(word)
    while True:
        if not w:
            return (tuple(done),)
        if node_c(w[0]) < 0:
            return ()
        last_c = node_c(w[-1])
        if last_c > 0:
            return ()
        if last_c == 0:
            # <... E_0(m)> -> <...> / [m]; the vertex becomes its tree's root
            done.append(w.pop())
            continue
        break
    # rightmost adjacent pair with c_j >= 0, c_{j+1} < 0
    j = None
    for i in range(len(w) - 2, -1, -1):
        if node_c(w[i]) >= 0 and node_c(w[i + 1]) < 0:
            j = i
            break
    assert j is not None
    results: list[VevForest] = []
    prefix = tuple(done)
    swap = tuple(w[:j] + [w[j + 1], w[j]] + w[j + 2 :])
    for f in _rec(swap):
        results.append(prefix + f)
    a, b = w[j], w[j + 1]
    if node_c(a) + node_c(b) == 0 and node_n(a) + node_n(b) == 0:
        white_tree = merge(a, b, True)
        rest = tuple(w[:j] + w[j + 2 :])
        for f in _rec(rest):
            results.append(prefix + (white_tree,) + f)
    else:
        merged = tuple(w[:j] + [merge(a, b, False)] + w[j + 2 :])
        for f in _rec(merged):
            results.append(prefix + f)
    return tuple(results)


# ---------------------------------------------------------------------------
# Amplitudes
# ---------------------------------------------------------------------------


def _down(counts: dict[int, int], k: int) -> None:
    if k == 0:
        raise ZeroDivisionError("q-number [0] in a denominator")
    counts[k] = counts.get(k, 0) - 1


def _tree_factors(trees, leaves: bool) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """The factors of prod_T A(T), and of prod_T B(T) when `leaves`, from one
    walk: the white-root constants c_{L(root)}, the linear exponents (a black
    root's [n_root] and B's leaf [|c|] down) and, kept apart for
    `_scaled_counts`, the merge exponents (every [zeta_v] up but a white
    root's own).  A [0] that would go down raises ZeroDivisionError."""
    whites, linear, merges, stack = [], {}, {}, []
    for root in trees:
        if not is_leaf(root) and root[3]:  # white root
            whites.append(node_c(root[4]))
            stack += root[4:]
        else:
            _down(linear, node_n(root))
            stack.append(root)
    while stack:
        v = stack.pop()
        if is_leaf(v):
            if leaves:
                _down(linear, abs(v[2]))
        else:
            z = zeta(v)
            merges[z] = merges.get(z, 0) + 1
            stack.append(v[4])
            stack.append(v[5])
    return whites, linear, merges


def _scaled_counts(factors, k: int = 1, m: int = 1) -> tuple[int, dict[int, int]]:
    """(const, counts) of the walked product with every label times k and q -> q^m:
    a white-root constant times k, a linear label times k m, a zeta_v times k^2 m."""
    whites, linear, merges = factors
    counts = {j * k * m: e for j, e in linear.items()}
    for z, e in merges.items():
        counts[z * k * k * m] = counts.get(z * k * k * m, 0) + e
    return math.prod(c * k for c in whites), counts


def amplitude_A(forest: VevForest) -> QRatio:
    """A(F) = prod_T A(T), with A(T) = prod [zeta_v] / [n_root] for a black
    root and c_{L(root)} prod over non-root merges [zeta_v] for a white one."""
    return qnum_ratio(*_scaled_counts(_tree_factors(forest, False)))


def amplitude_B(root: Node) -> QRatio:
    """B(T) = A(T) / ([mu][nu]) where mu, nu are the leaf partitions of T."""
    return qnum_ratio(*_scaled_counts(_tree_factors((root,), True)))


def vev_graphs(cs: tuple[int, ...], ns: tuple[int, ...]) -> QRatio:
    """Sum of A(F) over the generated forests; equals the operator VEV."""
    return qnum_sum(_scaled_counts(_tree_factors(f, False)) for f in generate_vev_forests(cs, ns))


def graph_word(mu: Partition, nu: Partition, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The word whose forests form Graph_a(mu, nu)."""
    cs = tuple(reversed(mu)) + tuple(-v for v in nu)
    ns = (0,) * len(mu) + tuple(a * v for v in nu)
    return cs, ns


def forests_for(mu: Partition, nu: Partition, a: int) -> tuple[VevForest, ...]:
    cs, ns = graph_word(mu, nu, a)
    return generate_vev_forests(cs, ns)


def connected_trees_for(mu: Partition, nu: Partition, a: int) -> list[Node]:
    """Single-tree forests (the connected graph set) for (mu, nu, a)."""
    return [f[0] for f in forests_for(mu, nu, a) if len(f) == 1]


# ---------------------------------------------------------------------------
# Combined forests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bridge:
    slot_left: int  # slot whose F holds the left-side lambda leaf
    leaf_left: int
    slot_right: int  # slot i-1, holding the right-side lambda leaf
    leaf_right: int
    label: int


@dataclass(frozen=True)
class CombinedForest:
    """An r-tuple of VEV forests joined by bridges at paired lambda leaves."""

    rset: RSet
    gamma: tuple[int, ...]
    forests: tuple[VevForest, ...]
    bridges: tuple[Bridge, ...]

    def trees(self) -> list[tuple[int, int, Node]]:
        out = []
        for i, f in enumerate(self.forests):
            for j, t in enumerate(f):
                out.append((i, j, t))
        return out

    @cached_property
    def _contracted(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], int]:
        """(vertices, edges, component count) of the contracted graph, built
        once per forest."""
        trees = self.trees()
        verts = [(i, j) for i, j, _ in trees]
        leaf_tree = {(i, lf[1]): (i, j) for i, j, t in trees for lf in tree_leaves(t)}
        edges = [(leaf_tree[(b.slot_left, b.leaf_left)], leaf_tree[(b.slot_right, b.leaf_right)])
                 for b in self.bridges]
        return verts, edges, count_components(verts, edges)

    @cached_property
    def _factors(self) -> tuple[int, int, tuple]:
        """H(W)'s walk, once per forest: the parities of l(mu)+l(nu) and gamma .
        degree, and `_tree_factors` of the trees with each bridge's [h]^2 up."""
        whites, linear, merges = _tree_factors((t for f in self.forests for t in f), True)
        for b in self.bridges:
            linear[b.label] = linear.get(b.label, 0) + 2
        l2 = sum(g * d for g, d in zip(self.gamma, self.rset.degree()))
        return sum(self.l_counts()[:2]) % 2, l2 % 2, (whites, linear, merges)

    def contracted_graph(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(vertices, edges) of the graph with every VEV tree contracted to a
        vertex; edges are bridge-induced and may repeat (multigraph)."""
        return self._contracted[:2]

    def cycle_rank(self) -> int:
        verts, edges, components = self._contracted
        return len(edges) - len(verts) + components

    def is_connected(self) -> bool:
        return self._contracted[2] == 1

    def l_counts(self) -> tuple[int, int, int]:
        lm = sum(len(p) for p in self.rset.mu)
        ln = sum(len(p) for p in self.rset.nu)
        ll = sum(len(p) for p in self.rset.lam)
        return lm, ln, ll

    def scaled(self, k: int) -> "CombinedForest":
        return CombinedForest(
            self.rset.scaled(k),
            self.gamma,
            tuple(tuple(scale_node(t, k) for t in f) for f in self.forests),
            tuple(
                Bridge(b.slot_left, b.leaf_left, b.slot_right, b.leaf_right, k * b.label)
                for b in self.bridges
            ),
        )


def scale_forest(w: CombinedForest, k: int) -> CombinedForest:
    if k < 1:
        raise ValueError("scale factor must be a positive integer")
    return w.scaled(k)


def amplitude_H(w: CombinedForest) -> QRatio:
    """(-1)^(L1+L2) prod_T B(T) prod_b [h(b)]^2 with L1 = l(mu)+l(nu) and
    L2 = gamma . degree, reduced over cyclotomic factors by `qnum_ratio`."""
    return qnum_ratio(*amplitude_counts(w))


def amplitude_counts(w: CombinedForest, k: int = 1, m: int = 1) -> tuple[int, dict[int, int]]:
    """H(W_(k)) with q -> q^m as (const, counts), by label arithmetic on W's
    own walk (`CombinedForest._factors`): W_(k) multiplies gamma . d by k."""
    l1, l2, factors = w._factors
    const, counts = _scaled_counts(factors, k, m)
    return (-const if (l1 + k * l2) % 2 else const), counts


def _lambda_leaf_positions(
    mu_or_nu: Partition, lam: Partition, side: str, offset: int = 0
) -> list[int]:
    """Leaf indices (1-based word positions) of the lambda parts on one side.

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


def enumerate_combined_forests(
    rset: RSet, gamma: tuple[int, ...], connected_only: bool = False
) -> tuple[CombinedForest, ...]:
    """All combined forests over the r-set: choose a VEV forest per slot and
    join the paired lambda leaves by bridges.  Memoized on (rset, gamma,
    connected_only), so each forest and its cached walk are built once per
    process: the tuple is shared, and callers read it and never change it."""
    return _combined_forests(rset, tuple(gamma), connected_only)


@lru_cache(maxsize=None)
def _combined_forests(
    rset: RSet, gamma: tuple[int, ...], connected_only: bool
) -> tuple[CombinedForest, ...]:
    rset.check()
    r = rset.r
    if len(gamma) != r:
        raise ValueError("gamma length must equal r")
    slot_forests = []
    left_lam: list[list[int]] = []
    right_lam: list[list[int]] = []
    for i in range(r):
        a = gamma[i] + 2
        mparts = union(rset.mu[i], rset.lam[i])
        nparts = union(rset.nu[i], rset.lam[(i + 1) % r])
        cs, ns = graph_word(mparts, nparts, a)
        slot_forests.append(generate_vev_forests(cs, ns))
        left_lam.append(_lambda_leaf_positions(rset.mu[i], rset.lam[i], "left"))
        right_lam.append(
            _lambda_leaf_positions(
                rset.nu[i], rset.lam[(i + 1) % r], "right", offset=len(mparts)
            )
        )
    bridges = []
    for i in range(r):
        lam_i = tuple(sorted(rset.lam[i], reverse=True))
        lefts = left_lam[i]
        rights = right_lam[(i - 1) % r]
        for j, h in enumerate(lam_i):
            bridges.append(Bridge(i, lefts[j], (i - 1) % r, rights[j], h))
    bridges = tuple(bridges)
    out = []
    for combo in itertools.product(*slot_forests):
        w = CombinedForest(rset, gamma, tuple(combo), bridges)
        if connected_only and not w.is_connected():
            continue
        out.append(w)
    return tuple(out)


# ---------------------------------------------------------------------------
# Scaling combination over divisors
# ---------------------------------------------------------------------------


def g_k_of_w(w: CombinedForest, k: int) -> QRatio:
    """sum over k'|k of mobius(k/k') k'^(-l(mu)-l(nu)-l(lam)+1)
    H(W_(k')) with q -> q^(k/k'); k >= 1, else ValueError.

    Each divisor's exponent vector is read off W's own walk with no scaled
    forest built (`amplitude_counts(w, k', k/k')`): W_(k') multiplies the
    linear labels, the white-root constants and gamma . d by k' and each
    zeta_v by k'^2, and q -> q^m sends [j] to [jm]; one `qnum_sum` adds them."""
    lm, ln, ll = w.l_counts()
    expo = lm + ln + ll - 1
    terms = []
    for kp in divisors(k):
        if mu := mobius(k // kp):
            const, counts = amplitude_counts(w, kp, k // kp)
            terms.append((Fraction(mu * const, kp**expo), counts))
    return qnum_sum(terms)


# ---------------------------------------------------------------------------
# Tree pole data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreePoleData:
    m: int
    g: Fraction
    type: str  # "I", "II", "III"


def tree_type(root: Node) -> tuple[int, int, str]:
    """(m, n_root, type) with m = gcd over leaf labels and the parity split:
    I: m odd, n_root/m odd; II: n_root/m even; III: m even, n_root/m odd."""
    leaves = tree_leaves(root)
    m = math.gcd(*(abs(node_c(lf)) for lf in leaves))
    n_root = node_n(root)
    ratio = n_root // m
    if ratio % 2 == 0:
        ty = "II"
    elif m % 2 == 1:
        ty = "I"
    else:
        ty = "III"
    return m, n_root, ty


def tree_pole_data(root: Node) -> TreePoleData:
    """Pole data of B(T) at t_{m(T)}: plain extraction for types I/II, half
    for III.  A decomposition failure here is a genuine bug, not a
    recoverable state."""
    m, _, ty = tree_type(root)
    mode = "half" if ty == "III" else "plain"
    g, _ = pole_extract(amplitude_B(root), m, mode)
    return TreePoleData(m, g, ty)


# ---------------------------------------------------------------------------
# Edge maps (pole cancellation combinatorics)
# ---------------------------------------------------------------------------


def count_components(verts, edges) -> int:
    """Connected components of a multigraph, by union-find."""
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in verts})


def edge_map(
    n_vertices: int, edges: list[tuple[int, int]], v: int | None = None
) -> list[int]:
    """Assign each edge to one endpoint.

    Cycle rank 0 (tree): requires v; every vertex except v receives exactly
    one edge.  Cycle rank >= 1: every vertex receives at least one edge.
    A breadth-first spanning tree from vertex 0 gives each tree edge to the
    vertex it first reaches, so only 0 is uncovered.  Flipping the tree path
    from a target up to 0 moves the uncovered vertex to the target: v for a
    tree, else the first endpoint of the first non-tree edge.  Every
    non-tree edge goes to its first endpoint, which covers the target.
    Self-loops are rejected; multi-edges are allowed.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    if v is not None and not 0 <= v < n_vertices:
        raise ValueError(f"vertex {v} is not in range({n_vertices})")
    incident: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, (a, b) in enumerate(edges):
        if a == b:
            raise ValueError("self-loops are not allowed")
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise ValueError(f"edge {(a, b)} has an endpoint outside range({n_vertices})")
        incident[a].append(e)
        incident[b].append(e)

    phi = [-1] * len(edges)
    up = {0: (0, -1)}  # vertex -> (parent, tree edge to it)
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for e in incident[x]:
                a, b = edges[e]
                y = b if a == x else a
                if y not in up:
                    up[y] = (x, e)
                    phi[e] = y
                    nxt.append(y)
        frontier = nxt
    if len(up) != n_vertices:
        raise ValueError("graph must be connected")

    non_tree = [e for e, y in enumerate(phi) if y < 0]
    if non_tree:
        target = edges[non_tree[0]][0]
    elif v is None:
        raise ValueError("cycle rank 0 requires a distinguished vertex")
    else:
        target = v
    # flip the tree path from the target up to 0; the target is now uncovered
    while target != 0:
        target, e = up[target]
        phi[e] = target
    for e in non_tree:
        phi[e] = edges[e][0]
    return phi
