"""Truncated multivariate formal series over exact ratios: the partition
function by the definitional and matrix-element paths, the free energy
F = log Z by the Euler-operator recursion, and the connected-graph free energy.

Degree vectors are tuples d in Z^r_{>=0}; a DegreeSeries keeps every
coefficient with total degree up to its cap, sparse across vectors.

Z, log Z and the matrix path run on integer Laurent numerators over the fixed
denominator D_d = prod_i [d_i]!^2 of each degree, with no polynomial gcd.  A
series keeps only the numerators and reduces a coefficient to a QRatio the
first time it is read.  D_d is a product of cyclotomic polynomials Phi_j, so
a coefficient is reduced over the cyclotomic factors of its denominator
(`qalgebra.qnum_ratio`), again with no polynomial gcd.  The graphs path adds
the q-number exponent vectors of every combined forest's amplitude over one
common cyclotomic denominator and reduces the sum once (`qalgebra.qnum_sum`),
with no QRatio arithmetic.  The def and matrix paths share one framed cyclic
trace over the intermediate Schur states (`_trace`): of W numerators framed
by gamma, or of Gram matrices G(d_i, d_(i+1)) built from characters and power
sums, framed by gamma + 2 and memoized on the pair (d_i, d_(i+1)) alone, so
shared across degrees and gammas.  The log's prod_i qbinom(d_i, e_i)^2 and
D_d (`qalgebra.degree_denominator`) are q-number products from the one
cached builder (`qalgebra.qnum_product`), keyed on the sorted q-numbers, so
the degrees and (d, e) pairs of one shape share an entry.  The t-images
read from these coefficients are integer numerators over one denominator
(`qalgebra.RPoly`).

Every coefficient is computed once per orbit of gamma's dihedral symmetry.
Since W(mu, nu) = W(nu, mu), rotating or reflecting (gamma, d) together
fixes Z_d, so the index permutations i -> +-i + k (mod r) that fix gamma
(`stabilizer`) fix ZN_d, FN_d and t*G_d too.  A series keys its numerators
on one representative per orbit (`DegreeSeries.key`):
the least image of d, in tuple order, that lies inside the series'
support.  Z and the log are computed on the representatives only, and a
read at any other degree of the orbit is a lookup.  A gamma with no
symmetry simply has one-element orbits.

Where d is zero at a vertex, that slot holds only the empty partition and
the trace splits there: Z_d, D_d and the sign (-1)^(gamma.d) are products
over the maximal cyclic runs of d's nonzero entries (`cyclic_runs`; a run
may wrap around the cycle, and for r <= 3 every support is one run), and so
is ZN_d, which `build_z_series` forms as that product.  On a support of two
or more runs Z is a product of series in disjoint variables, so its log is
their sum and F_d = 0, which `DegreeSeries.log` does not compute: F sums
the connected combined forests only, and none spans two runs.  The matrix
and graphs paths deliberately trace and sum every degree in full, so both
check the split.  A numerator is reduced through one cache (`_reduce`), so
a matrix-path trace equal to ZN_d is reduced once for both sides.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from gvexact.characters import mn_character
# amplitude_H is unused here but stays importable: perfbench/worker.py's traced runs wrap it
from gvexact.graph_engine import amplitude_H  # noqa: F401
from gvexact.graph_engine import amplitude_counts, enumerate_combined_forests
from gvexact.partitions import (
    enumerate_partitions,
    enumerate_rsets,
    kappa,
    union,
    z_factor,
)
from gvexact.qalgebra import (
    QLaurent,
    QRatio,
    _mul_add,
    degree_counts,
    qnum_product,
    qnum_ratio,
    qnum_sum,
)
from gvexact.schur_vertex import w_numerator


def degree_vectors(r: int, max_total: int):
    """Nonzero degree vectors in graded lexicographic order."""
    for total in range(1, max_total + 1):
        for head in _compositions(total, r):
            yield head


def _compositions(total: int, r: int):
    if r == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, r - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def stabilizer(gamma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct index permutations s: i -> +-i + k (mod r) of the cyclic
    quiver with gamma[s[i]] == gamma[i] for every i, sorted, the identity
    first.  The image of a degree d under s is (d[s[0]], ..., d[s[r-1]]),
    and Z, log Z and t*G take the same value at d and at its image."""
    r = len(gamma)
    perms = {tuple((sign * i + k) % r for i in range(r)) for sign in (1, -1) for k in range(r)}
    return tuple(sorted(s for s in perms if all(gamma[j] == g for j, g in zip(s, gamma))))


# ---------------------------------------------------------------------------
# Partition-function coefficients
# ---------------------------------------------------------------------------


def _check_degree(gamma: tuple[int, ...], d: tuple[int, ...]) -> None:
    if len(d) != len(gamma) or len(gamma) < 2:
        raise ValueError("gamma and degree must share a length r >= 2")
    if not any(d):
        raise ValueError("degree zero is the constant term")


def z_numerator(gamma: tuple[int, ...], d: tuple[int, ...]) -> QLaurent:
    """Z_d D_d, where Z_d = (-1)^(gamma.d) sum over r-tuples lambda^i in
    P_{d_i} of prod_i q^(gamma_i kappa(lambda^i)/2) W(lambda^i, lambda^{i+1}):
    the `_trace` of M_i[lambda][lambda'] = w_numerator(lambda, lambda') over
    lambda |- d_i, lambda' |- d_{i+1}, framed by gamma.

    Each lambda^i sits in two vertex factors, so D_d splits into one
    integral W [|mu|]! [|nu|]! (`w_numerator`) per factor and the sum needs
    no division."""
    _check_degree(gamma, d)
    r = len(gamma)
    mats = [{lam: {lamp: w_numerator(lam, lamp) for lamp in enumerate_partitions(d[(i + 1) % r])}
             for lam in enumerate_partitions(d[i])} for i in range(r)]
    return _trace(gamma, d, mats, gamma)


def cyclic_runs(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """One degree per maximal cyclic run of d's nonzero entries, equal to d
    on the run and zero elsewhere, starting after d's first zero; a run may
    wrap around the cycle, and a d with no zero is its own single run."""
    r = len(d)
    if all(d):
        return [d]
    runs: list[list[int]] = []
    start = d.index(0)
    for i in (j % r for j in range(start + 1, start + r)):
        if d[i]:
            if not d[i - 1]:  # d[-1] is d[r - 1]: the cycle closes
                runs.append([0] * r)
            runs[-1][i] = d[i]
    return [tuple(run) for run in runs]


def z_coefficient_matrix(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """The same coefficient as the Fock-space trace of the vertex-operator
    product in the Schur basis, where q^(a F2), a = gamma_i + 2, is diagonal:
    slot i of the power-sum-basis trace is T_i = L X_i R with X_i = diag
    x^(a kappa(rho)), rho |- d_i, so by cyclicity the trace is the framed
    `_trace` of the Gram matrices G(d_i, d_(i+1)) = R L / (d_i! d_(i+1)!)
    (`gram_matrix`).  The d_i!^2 of each slot cancel against that division,
    so the trace is ZN_d itself, reduced over the cyclotomic factors of D_d
    through the cache that `DegreeSeries.get` reads (`_reduce`): where the
    paths agree, the second of the two reductions is a lookup."""
    _check_degree(gamma, d)
    r = len(gamma)
    mats = [gram_matrix(d[i], d[(i + 1) % r]) for i in range(r)]
    return _reduce(1, _shape(d), _trace(gamma, d, mats, tuple(g + 2 for g in gamma)))


def _shape(d: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted nonzero entries of d, which fix D_d."""
    return tuple(sorted(x for x in d if x))


@lru_cache(maxsize=None)
def _reduce(weight: int, shape: tuple[int, ...], num: QLaurent) -> QRatio:
    """num / (weight D_d) as a canonical QRatio (`qnum_ratio`), for d of the
    given shape.  Memoized on the numerator's value, so a numerator equal to
    one reduced before, at any degree of that shape, is a lookup, and a
    different numerator is reduced on its own.  The ratio is shared and
    read-only."""
    return qnum_ratio(Fraction(1, weight), degree_counts(shape), num)


def _trace(gamma: tuple[int, ...], d: tuple[int, ...], mats: list[dict],
           framing: tuple[int, ...]) -> QLaurent:
    """(-1)^(gamma.d) tr(S_1 M_1 ... S_r M_r) for sparse QLaurent matrices
    M_i[lambda][lambda'], with S_i = diag x^(framing_i kappa(lambda)) taken as
    an exponent offset.  Each row of M_1 runs through M_2 ... M_(r-1); only
    the diagonal of the last product is formed, and no M_i is changed."""
    *mid_mats, last = mats[1:]
    acc: dict[int, int] = {}
    for lam, row in mats[0].items():
        for mat, f in zip(mid_mats, framing[1:]):
            nxt: dict = {}
            for mid, x in row.items():
                shift = f * kappa(mid)
                for lamp, y in mat.get(mid, {}).items():
                    _mul_add(nxt.setdefault(lamp, {}), x, y, shift)
            row = {lamp: v for lamp, c in nxt.items() if (v := QLaurent(c))}
        for mid, x in row.items():
            y = last.get(mid, {}).get(lam)
            if y is not None:
                _mul_add(acc, x, y, framing[0] * kappa(lam) + framing[-1] * kappa(mid))
    sign = -1 if sum(g * di for g, di in zip(gamma, d)) % 2 else 1
    return QLaurent({e: sign * v for e, v in acc.items()})


@lru_cache(maxsize=None)
def _slot_sums(n: int, k: int) -> dict:
    """{lam: {rho: R_n[rho][lam]}} for lam |- k <= n and rho |- n, zero
    entries left out: R_n[rho][lam] = sum over nu |- n - k of (-1)^l(nu)
    n!/z(nu) [n]!/[nu] chi^rho(nu u lam), where n!/z(nu) is an integer.
    Each coefficient of the sum is one dot product over nu."""
    nus = enumerate_partitions(n - k)
    weights = [(-1) ** len(nu) * (math.factorial(n) // z_factor(nu)) for nu in nus]
    polys = [qnum_product(range(1, n + 1), nu).coeffs for nu in nus]
    exps = sorted(set().union(*polys))
    cols = [[p.get(e, 0) for p in polys] for e in exps]
    out = {}
    for lam in enumerate_partitions(k):
        states = [union(nu, lam) for nu in nus]
        row = out[lam] = {}
        for rho in enumerate_partitions(n):
            w = [c * mn_character(rho, s) for c, s in zip(weights, states)]
            if entry := QLaurent(dict(zip(exps, (sum(map(operator.mul, w, col)) for col in cols)))):
                row[rho] = entry
    return out


@lru_cache(maxsize=None)
def gram_matrix(m: int, n: int) -> dict:
    """G(m, n)[rho][sigma] = sum over lam of R_m[rho][lam] L_n[lam][sigma]
    / (m! n!) for rho |- m, sigma |- n, zero entries left out, with R from
    `_slot_sums` and L_n[lam][sigma] = R_n[sigma][lam] / z(lam), a sum of
    n!/(z(lam) z(mu)) [n]!/[mu], over the states lam both slots reach.  Each
    division is exact (`_exact_quotient`).  G holds no framing, so one matrix,
    memoized on (m, n), serves every gamma and degree: callers read it only."""
    accs: dict = {}
    for k in range(min(m, n) + 1):
        left = _slot_sums(n, k)
        for lam, col in _slot_sums(m, k).items():
            z = z_factor(lam)
            row = {sigma: QLaurent({e: _exact_quotient(v, z) for e, v in q.coeffs.items()})
                   for sigma, q in left[lam].items()}
            for rho, p in col.items():
                for sigma, q in row.items():
                    _mul_add(accs.setdefault(rho, {}).setdefault(sigma, {}), p, q)
    scale = math.factorial(m) * math.factorial(n)
    return {rho: {sigma: g for sigma, acc in row.items()
                  if (g := QLaurent({e: _exact_quotient(v, scale) for e, v in acc.items()}))}
            for rho, row in accs.items()}


def _exact_quotient(n: int, m: int) -> int:
    q, rem = divmod(n, m)
    if rem:
        raise ArithmeticError(f"{m} does not divide {n}")
    return q


def z_coefficient_graphs(
    gamma: tuple[int, ...], d: tuple[int, ...], connected_only: bool = False
) -> QRatio:
    """Combined-forest path: sum over r-sets of (1/z) sum_W H(W).

    With connected_only this is the free-energy coefficient, otherwise the
    partition-function coefficient.  Verification-grade (exponential cost).
    """
    terms = []
    for rs in enumerate_rsets(len(gamma), d):
        zden = math.prod(z_factor(p) for tup in (rs.mu, rs.nu, rs.lam) for p in tup)
        for w in enumerate_combined_forests(rs, gamma, connected_only=connected_only):
            const, counts = amplitude_counts(w)
            terms.append((Fraction(const, zden), counts))
    return qnum_sum(terms, memo=False)  # one sum per degree: a memo key would cost, never hit


def f_connected(gamma: tuple[int, ...], d: tuple[int, ...]) -> QRatio:
    """Free-energy coefficient as the connected combined-forest sum."""
    return z_coefficient_graphs(gamma, d, connected_only=True)


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------


class DegreeSeries:
    """Formal series sum_d c_d Q^d truncated at a total degree.

    The series holds integer Laurent numerators: c_d = numerator(d) / D_d,
    or c_d = numerator(d) / (|d| D_d) for a `weighted` series.  The
    partition function keeps ZN_d = Z_d D_d; its log, the free energy, is
    weighted and keeps FN_d = |d| F_d D_d.  `get` (and `coefficients`)
    reduces a coefficient to a canonical QRatio the first time it is read,
    through the `_reduce` cache, so a later read of it or of an orbit-mate
    is a lookup; a run that reads only numerators reduces none.

    An optional support set restricts the kept degree vectors further; it
    must be downward closed under the componentwise order, because the log
    recursion reads Z at every degree below a kept one.

    `symmetry` holds index permutations under which every coefficient is
    invariant (`stabilizer`; the identity alone by default).  `numerators`
    are keyed on one representative per orbit (`key`), and `numerator`,
    `get` and `coefficients` read any kept degree through it.
    """

    def __init__(self, r: int, max_total: int, support: frozenset | None = None,
                 weighted: bool = False, symmetry: tuple[tuple[int, ...], ...] | None = None):
        self.r = r
        self.max_total = max_total
        self.support = support
        self.weighted = weighted
        self.symmetry = symmetry or (tuple(range(r)),)
        self.numerators: dict[tuple[int, ...], QLaurent] = {}  # on representatives
        self.constant = QRatio.zero()
        # every kept degree, in graded order, to its orbit's representative:
        # the least image, in tuple order, that is kept too
        self.keys: dict[tuple[int, ...], tuple[int, ...]] = dict.fromkeys(
            d for d in degree_vectors(r, max_total) if support is None or d in support)
        for d in self.keys:
            images = (tuple(d[j] for j in s) for s in self.symmetry)
            self.keys[d] = min(im for im in images if im in self.keys)

    def key(self, d: tuple[int, ...]) -> tuple[int, ...]:
        """The representative of d's orbit, which d's orbit-mates share; a
        degree outside the computed range, of the wrong length or with a
        negative entry, is a KeyError rather than a silent zero."""
        if (k := self.keys.get(d)) is None:
            raise KeyError(f"coefficient at {d} was not computed")
        return k

    def representatives(self) -> list[tuple[int, ...]]:
        """One kept degree per orbit, in graded order."""
        return [d for d, k in self.keys.items() if k == d]

    def _weight(self, d: tuple[int, ...]) -> int:
        """c_d = numerator(d) / (weight * D_d)."""
        return sum(d) if self.weighted else 1

    def set_numerator(self, d: tuple[int, ...], num: QLaurent) -> None:
        """Store the numerator of c_d, and so of its whole orbit, for a
        nonzero kept degree d."""
        k = self.key(d)
        if num.is_zero():
            self.numerators.pop(k, None)
        else:
            self.numerators[k] = num

    def numerator(self, d: tuple[int, ...]) -> QLaurent:
        """The numerator at a nonzero degree d; a degree outside the
        computed range is a KeyError rather than a silent zero."""
        return self.numerators.get(self.key(d), QLaurent.zero())

    def get(self, d: tuple[int, ...]) -> QRatio:
        """c_d as a canonical QRatio, reduced on the first read of its orbit
        over the cyclotomic factors of its denominator D_d (times |d| when
        weighted) through `_reduce`, with no polynomial gcd; like
        `numerator`, a degree outside the computed range is a KeyError."""
        if d == (0,) * self.r:
            return self.constant
        k = self.key(d)
        num = self.numerators.get(k)
        if num is None:
            return QRatio.zero()
        # D_d and |d| are symmetric in the entries of d, so c_d = c_k
        return _reduce(self._weight(k), _shape(k), num)

    @property
    def coefficients(self) -> dict[tuple[int, ...], QRatio]:
        """Every nonzero c_d as a reduced ratio; reading it reduces them all,
        once per orbit."""
        return {d: self.get(d) for d, k in self.keys.items() if k in self.numerators}

    def log(self) -> "DegreeSeries":
        """F = log Z by the Euler-operator recursion
        |d| F_d = |d| Z_d - sum_{0<e<d} |e| F_e Z_(d-e); needs constant term 1.

        Multiplied through by D_d it runs on integer numerators with no gcd:
        FN_d = |d| F_d D_d = |d| ZN_d - sum_{0<e<d} FN_e ZN_(d-e) cof(d, e),
        where ZN_d = Z_d D_d and cof(d, e) = D_d / (D_e D_(d-e)) =
        prod_i qbinom(d_i, e_i)^2.  Only the orbit representatives are
        computed, in graded order, so the representative of every e in the
        box below d, which `key` finds inside the downward-closed support, is
        done before d.  The index permutations of the symmetry that fix d
        itself permute the box below d and fix each term, so each class of e
        under them is summed once, times the class size.  The result is the
        weighted series of the FN_d, with this series' symmetry; nothing is
        reduced here.

        A d whose support has two or more cyclic runs (`cyclic_runs`) is
        skipped, and FN_d stays absent, as a zero numerator is stored: Z
        restricted to that support is the product of its restrictions to
        the runs, series in disjoint variables, so its log is their sum and
        has no monomial that mixes two runs.
        """
        if self.weighted or self.constant != QRatio.one():
            raise ValueError("log needs an unweighted series with constant term 1")
        out = DegreeSeries(self.r, self.max_total, self.support, weighted=True,
                           symmetry=self.symmetry)
        keys, zn, fn = self.keys, self.numerators, out.numerators  # fn: FN_e
        for d in self.representatives():
            if len(cyclic_runs(d)) > 1:
                continue
            n = -sum(d)
            acc = {e: v * n for e, v in zn.get(d, QLaurent.zero()).coeffs.items()}
            # d's own stabilizer maps the box below d onto itself and fixes
            # each term, so each class of e is summed once, times its size
            fix = [s for s in self.symmetry if all(d[j] == x for j, x in zip(s, d))]
            # -FN_d; the box below d, kept as the support is downward
            # closed, where neither 0 nor d itself is in fn
            for e in itertools.product(*(range(x + 1) for x in d)):
                fe = fn.get(keys.get(e, e))
                if fe is None:
                    continue
                size = 1
                if len(fix) > 1:
                    cls = {tuple(e[j] for j in s) for s in fix}
                    if min(cls) != e:
                        continue
                    size = len(cls)
                de = tuple(a - b for a, b in zip(d, e))
                rest = zn.get(keys.get(de, de))
                if rest is not None:
                    term = fe * rest if size == 1 else fe * rest * QLaurent.const(size)
                    _mul_add(acc, term, _cofactor(d, e))
            fd = QLaurent({e: -v for e, v in acc.items()})
            if fd:
                fn[d] = fd
        return out


def _cofactor(d: tuple[int, ...], e: tuple[int, ...]) -> QLaurent:
    """D_d / (D_e D_(d-e)) = prod_i qbinom(d_i, e_i)^2, with qbinom(n, e) =
    [n][n-1]...[n-k+1] / [k]! for k = min(e, n - e): one `qnum_product`,
    cached on its sorted q-numbers, which the (d, e) of the log share."""
    up, down = [], []
    for di, ei in zip(d, e):
        if 0 < ei < di:
            k = min(ei, di - ei)
            up += range(di - k + 1, di + 1)
            down += range(1, k + 1)
    return qnum_product(up * 2, down * 2)


def downward_closure(degrees) -> frozenset:
    """Closure of a degree set under the componentwise order (0 excluded)."""
    out = set()
    for d in degrees:
        for sub in itertools.product(*(range(x + 1) for x in d)):
            if any(sub):
                out.add(sub)
    return frozenset(out)


def build_z_series(
    gamma: tuple[int, ...],
    max_total: int,
    degrees=None,
) -> DegreeSeries:
    """Assemble the partition-function series (definitional path) up to the
    total-degree cap, optionally restricted to the downward closure of an
    explicit degree set.  Z_d is computed once per orbit of gamma's
    `stabilizer`, at the orbit's representative: by `z_numerator` where d's
    support is one cyclic run, and otherwise as the product of its runs'
    numerators.  Each run lies below d in the downward-closed support, with
    a smaller total degree, so its representative is already done."""
    support = None if degrees is None else downward_closure(degrees)
    z = DegreeSeries(len(gamma), max_total, support, symmetry=stabilizer(gamma))
    z.constant = QRatio.one()
    for d in z.representatives():
        runs = cyclic_runs(d)
        if len(runs) == 1:
            z.set_numerator(d, z_numerator(gamma, d))
        else:
            z.set_numerator(d, math.prod((z.numerator(run) for run in runs),
                                         start=QLaurent.one()))
    return z
