"""Seeded inputs of the benchmark workloads.

A sample is the work one fresh worker process does: a list of jobs, each one
`gv compute` call plus the benchmark's own cross-path checks on its gamma.
The jobs of sample `index` in a run with seed `seed` depend on
(workload, seed, index) only, so the same seed always gives the same inputs.

Gamma entries come from [-2, 2].  The engine's cost depends strongly on
gamma, so each workload keeps only draws whose work, predicted from gamma
alone, is fixed.  Seeds then change the gammas but not the amount of work,
and runs with different seeds stay comparable.  This module imports nothing
from the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("deep-p2", "sweep-wide", "poles-graphs")
P2 = (1, 1, 1)

# sweep-wide: the Z and log stages cost about the same for every gamma of
# one r.  The matrix cross-check is cheaper the more entries equal -2 (most
# matrix-element products then vanish) and dearer the larger the entries, so
# both the number of -2 entries and sum_i (gamma_i + 2) are fixed per sample
# (fitted on 15 random gammas, 5 of each r).
SWEEP_RANKS = (4, 5, 6)
SWEEP_MINUS_TWOS = 3
SWEEP_WEIGHT = 30  # sum of gamma_i + 2 over the sample's gammas

# poles-graphs: the cost of a job depends on the multiset of gamma entries
# (every reordering of three entries is a symmetry of the 3-cycle) and not
# smoothly on any one statistic of it.  A sample pairs an r = 2 and an r = 3
# multiset, in a seeded order, from the pairs below: the median of six cold
# runs of each of 22 candidate pairs on a 2-core Xeon with CPython 3.11, at
# the commit that added the benchmark, was 5.2 s, and these pairs came
# within 5% of it.
POLES_PAIRS = [
    ((-2, -1), (-1, -1, 1)),
    ((-2, 0), (-2, -2, 2)),
    ((-2, 0), (0, 0, 0)),
    ((-2, 2), (-2, -1, -1)),
    ((-1, -1), (0, 0, 0)),
    ((0, 0), (-2, -2, 1)),
    ((0, 1), (-2, -1, -1)),
]


@dataclass(frozen=True)
class Job:
    """One `gv compute` call and the cross-path checks made on its gamma."""

    gamma: tuple[int, ...]
    max_degree: int
    paths: str
    matrix_cap: int  # def == matrix compared at every |d| <= matrix_cap
    graph_cap: int  # f_connected == log Z and pole checks at |d| <= graph_cap
    scales: tuple[int, ...]  # k of the scaled-forest checks
    surface: str = ""  # preset name passed instead of --gamma

    def argv(self) -> list[str]:
        if self.surface:
            where = ["--surface", self.surface]
        else:
            where = ["--gamma=" + ",".join(str(x) for x in self.gamma)]
        return ["compute", *where, "--max-degree", str(self.max_degree),
                "--paths", self.paths]


def sample_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of one sample; raises ValueError for an unknown workload."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "deep-p2":
        # the fixed anchor: the seed is deliberately unused
        return [Job(P2, 5, "def", matrix_cap=2, graph_cap=2, scales=(2,),
                    surface="P2")]
    if workload == "sweep-wide":
        gammas = _draw(rng, SWEEP_RANKS, lambda gs: (
            sum(g.count(-2) for g in gs) == SWEEP_MINUS_TWOS
            and sum(x + 2 for g in gs for x in g) == SWEEP_WEIGHT))
        return [Job(g, 4, "def,matrix", matrix_cap=4, graph_cap=1, scales=(2,))
                for g in gammas]
    if workload == "poles-graphs":
        gammas = [tuple(rng.sample(m, len(m))) for m in rng.choice(POLES_PAIRS)]
        return [Job(g, 3, "def", matrix_cap=1, graph_cap=3, scales=(2, 3))
                for g in gammas]
    raise ValueError(f"unknown workload {workload!r}")


def _draw(rng: random.Random, ranks, accept) -> list[tuple[int, ...]]:
    """Uniform entries in [-2, 2], redrawn until `accept` holds."""
    while True:
        gammas = [tuple(rng.randint(-2, 2) for _ in range(r)) for r in ranks]
        if accept(gammas):
            return gammas
