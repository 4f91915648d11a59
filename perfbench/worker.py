"""One benchmark sample in a fresh, single-threaded process.

The worker imports the engine from the checkout's src/, generates the
sample's inputs, runs each job (a `gv compute` call through
`gvexact.cli.main` plus the benchmark's own cross-path checks), checks every
output, and prints one JSON line with its timings, checks and, when traced,
per-layer self times and exact counts.  run.py starts it; it is not meant to
be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import gvexact
from gvexact import characters, cli, graph_engine, gv, partitions, schur_vertex, series
from gvexact.qalgebra import QRatio, t_k_qratio, try_to_t_poly

import inputs
from spans import NullTracer, Tracer, self_times
from speed import Meter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
ONE = QRatio.one()
T = t_k_qratio(1)

# per-layer self times reported by a traced run, by span name (the traced run
# also reports cli.report_stage_s, the stage's whole duration)
TIME_LAYERS = (
    "schur_vertex.w_table",
    "series.z",
    "series.log",
    "characters.table",
    "partitions.rset",
    "series.matrix",
    "gv.report",
    "cli.emit",
    "graph_engine.forests",
    "graph_engine.amp",
    "graph_engine.scaled_amp",
    "graph_engine.gk",
    "series.f_connected",
    "qalgebra.t_image",
)
# exact counts reported by a traced run
COUNTS = (
    "series.z_tuples",
    "series.coeffs",
    "series.max_coeff_terms",
    "series.max_coeff_bits",
    "partitions.rsets",
    "series.matrix_checks",
    "graph_engine.forests",
    "qalgebra.t_image_calls",
    "qalgebra.t_image_max_terms",
)


class Checks:
    """Every check attempted by the sample, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, where: str, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{where}: {what}")


class Capture:
    """Values the checks need from inside a `gv compute` call."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.z = None
        self.f = None
        self.matrix: dict[tuple[int, ...], QRatio] = {}


def load_refs(path: Path) -> tuple[dict, int, dict]:
    """(AKMV class sums keyed by (g, D), the last D whose row they list in
    full, stored outputs keyed by argv)."""
    akmv = json.loads((path / "akmv_local_p2.json").read_text(encoding="utf-8"))
    sums = {
        (int(g), int(D)): n
        for g, row in akmv["class_sums"].items()
        for D, n in row.items()
    }
    outputs = json.loads((path / "gv_outputs.json").read_text(encoding="utf-8"))
    return sums, akmv["complete_through"], outputs["outputs"]


def _wrap(tracer, name, fn, before, after):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        with tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    return wrapper


@contextlib.contextmanager
def instrument(tracer, capture: Capture, traced: bool):
    """Wrap the engine's cross-module calls: always to capture what the
    checks need, and when traced to record spans and counts around them."""

    def note_t_image(args):
        tracer.count("qalgebra.t_image_calls")
        tracer.peak("qalgebra.t_image_max_terms", len(args[0].num.coeffs))

    hooks = [
        (cli, "build_z_series", "series.z", None,
         lambda a, out: setattr(capture, "z", out)),
        (series.DegreeSeries, "log", "series.log", None,
         lambda a, out: setattr(capture, "f", out)),
        (cli, "z_coefficient_matrix", "series.matrix", None,
         lambda a, out: capture.matrix.__setitem__(tuple(a[1]), out)),
    ]
    if traced:
        hooks += [
            (cli, "main", "cli.main", None, None),
            (cli, "compute_reports", "cli.compute", None, None),
            (cli, "integrality_report", "gv.report", None, None),
            (gv, "to_t_poly", "qalgebra.t_image", note_t_image, None),
            (cli, "f_connected", "series.f_connected", None, None),
            (cli, "emit_json", "cli.emit", None, None),
            (series, "enumerate_rsets", "partitions.rset", None,
             lambda a, out: tracer.count("partitions.rsets", len(out))),
            (series, "enumerate_combined_forests", "graph_engine.forests", None,
             lambda a, out: tracer.count("graph_engine.forests", len(out))),
            (series, "amplitude_H", "graph_engine.amp", None, None),
        ]
    saved = []
    try:
        for owner, attr, name, before, after in hooks:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, before, after))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def t_image(tracer, f: QRatio):
    tracer.count("qalgebra.t_image_calls")
    tracer.peak("qalgebra.t_image_max_terms", len(f.num.coeffs))
    with tracer.span("qalgebra.t_image"):
        return try_to_t_poly(f)


def run_job(job: inputs.Job, tracer, chk: Checks, capture: Capture, refs, tally) -> None:
    gamma, r, cap = job.gamma, len(job.gamma), job.max_degree
    where = " ".join(job.argv())
    with tracer.span("schur_vertex.w_table"):
        for a in range(cap + 1):
            for b in range(cap + 1 - a):
                for mu in partitions.enumerate_partitions(a):
                    for nu in partitions.enumerate_partitions(b):
                        schur_vertex.W_vertex(mu, nu)
    with tracer.span("characters.table"):
        for d in range(1, job.matrix_cap + 1):
            characters.character_table(d)

    capture.reset()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(job.argv())
    text = buf.getvalue()
    chk.expect(rc == 0, where, f"gv compute exited with {rc}")
    lines = text.splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])
    degrees = list(series.degree_vectors(r, cap))
    chk.expect(
        [tuple(rep["degree"]) for rep in reports] == degrees
        and summary.get("reports") == len(degrees),
        where, "reports do not cover every degree vector once, in order",
    )
    for rep in reports:
        ok = rep["integral"] is True
        tally["reports"] += 1
        tally["integral"] += ok
        chk.expect(ok, where, f"non-integral verdict at {rep['degree']}")

    akmv, complete, outputs = refs
    ref = outputs.get(where)
    if ref is not None:
        chk.expect(text == ref, where, "output differs from the stored reference")
    if job.surface == "P2":
        sums: dict[tuple[int, int], int] = {}
        for rep in reports:
            D = sum(rep["degree"])
            for entry in rep["gv"]:
                key = (entry["g"], D)
                sums[key] = sums.get(key, 0) + int(entry["n"])
        for (g, D), n in sorted(akmv.items()):
            if D <= cap:
                got = sums.get((g, D), 0)
                chk.expect(got == n, where, f"class sum n^{g} at D={D} is {got}, AKMV {n}")
        for (g, D), n in sorted(sums.items()):
            if D <= complete and (g, D) not in akmv:
                chk.expect(n == 0, where, f"class sum n^{g} at D={D} is {n}, AKMV has none")

    zs, fs = capture.z, capture.f
    for d in degrees:
        if sum(d) > job.matrix_cap:
            break
        m = capture.matrix.get(d)
        if m is None:
            with tracer.span("series.matrix"):
                m = series.z_coefficient_matrix(gamma, d)
        tracer.count("series.matrix_checks")
        chk.expect(m == zs.get(d), where, f"def != matrix at {d}")

    for d in degrees:
        if sum(d) > job.graph_cap:
            break
        with tracer.span("series.f_connected"):
            fc = series.f_connected(gamma, d)
        chk.expect(fc == fs.get(d), where, f"f_connected != log Z at {d}")
        with tracer.span("partitions.rset"):
            rsets = partitions.enumerate_rsets(r, d)
        tracer.count("partitions.rsets", len(rsets))
        for rs in rsets:
            with tracer.span("graph_engine.forests"):
                forests = graph_engine.enumerate_combined_forests(rs, gamma, connected_only=True)
            tracer.count("graph_engine.forests", len(forests))
            for w in forests:
                pole_checks(job, rs, w, tracer, chk, where)

    if isinstance(tracer, Tracer):
        tracer.count("series.z_tuples", sum(
            math.prod(len(partitions.enumerate_partitions(x)) for x in d) for d in degrees
        ))
        for s in (zs, fs):
            tracer.count("series.coeffs", len(s.coefficients))
            for v in s.coefficients.values():
                tracer.peak("series.max_coeff_terms", len(v.num.coeffs) + len(v.den.coeffs))
                tracer.peak("series.max_coeff_bits", max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in (*v.num.coeffs.values(), *v.den.coeffs.values())
                ))


def pole_checks(job, rs, w, tracer, chk: Checks, where: str) -> None:
    """The combined-amplitude checks of acceptance criterion 7 on one
    connected forest: pole structure of H(W), the scaling law of H(W_(k))
    and t-integrality of g_k(W)."""
    gamma = job.gamma
    with tracer.span("graph_engine.amp"):
        h = graph_engine.amplitude_H(w)
    k0 = rs.parts_gcd()
    p = t_image(tracer, h if w.cycle_rank() >= 1 else h * t_k_qratio(k0))
    chk.expect(p is not None and p.is_integral(), where, f"pole part of H(W) over {rs}")
    if w.cycle_rank() or k0 != 1:
        return
    lm, ln, ll = w.l_counts()
    expo = lm + ln + ll - 1
    odd = sum(g * x for g, x in zip(gamma, rs.degree())) % 2
    type_one = [
        graph_engine.tree_type(t)[0]
        for _, _, t in w.trees()
        if graph_engine.tree_type(t)[2] == "I"
    ]
    for k in job.scales:
        with tracer.span("graph_engine.scaled_amp"):
            hk = graph_engine.amplitude_H(graph_engine.scale_forest(w, k))
        ref = h.substitute_power(k) * (k**expo)
        if k % 2 == 0:
            for m in type_one:
                ref = ref * (ONE + t_k_qratio(m * k // 2) * Fraction(1, 2))
            if odd:
                ref = -ref
        diff = t_image(tracer, hk - ref)
        chk.expect(diff is not None and diff.is_integral(), where,
                   f"scaling law k={k} over {rs}")
        with tracer.span("graph_engine.gk"):
            gkw = graph_engine.g_k_of_w(w, k)
        chk.expect(t_image(tracer, gkw * T) is not None, where, f"t*g_{k}(W) over {rs}")
        if k > 2:
            chk.expect(t_image(tracer, gkw) is not None, where, f"g_{k}(W) over {rs}")


def with_report_stage(spans: list[list]) -> list[list]:
    """Add a `cli.report_stage` span to each `cli.compute` span: from the end
    of its `series.log` child to its own end, the per-degree stage that
    `compute_reports` hands to its thread pool.  Later children move under it."""
    spans = [list(s) for s in spans]
    for i in range(len(spans)):
        name, _, end, _ = spans[i]
        if name != "cli.compute":
            continue
        kids = [s for s in spans if s[3] == i]
        logs = [s for s in kids if s[0] == "series.log"]
        if not logs:
            continue
        begin = logs[0][2]
        stage = len(spans)
        spans.append(["cli.report_stage", begin, end, i])
        for s in kids:
            if s[1] >= begin:
                s[3] = stage
    return spans


def layer_metrics(tracer: Tracer, tally: dict, slowdown: float) -> tuple[dict, list[list]]:
    """Per-layer times (scaled to the reference speed, as solve_s is) and
    counts, and the spans with the report stage added."""
    spans = with_report_stage(tracer.spans)
    own = self_times(spans)
    out: dict[str, float] = {f"{name}_s": own.get(name, 0.0) / slowdown
                             for name in TIME_LAYERS}
    # the whole stage, children included: the most that --jobs could save
    out["cli.report_stage_s"] = sum(e - s for name, s, e, _ in spans
                                    if name == "cli.report_stage") / slowdown
    w = schur_vertex.W_vertex.cache_info()
    out["schur_vertex.w_pairs"] = w.currsize
    out["schur_vertex.skew_entries"] = schur_vertex.skew_schur_qrho.cache_info().currsize
    out["schur_vertex.w_hit_ratio"] = w.hits / (w.hits + w.misses)
    out["graph_engine.vev_entries"] = graph_engine.generate_vev_forests.cache_info().currsize
    out["gv.integral_ratio"] = tally["integral"] / tally["reports"] if tally["reports"] else 0.0
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0)
    return out, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() when the parent started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = inputs.sample_jobs(args.workload, args.seed, args.index)
    setup_wall_s = time.time() - args.spawned
    at_setup = Meter()
    at_setup.burst()
    setup = {"setup_s": setup_wall_s / at_setup.slowdown, "setup_wall_s": setup_wall_s}
    if not Path(gvexact.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"gvexact was imported from {gvexact.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    refs = load_refs(Path(args.refs))
    traced = bool(args.trace)
    tracer = Tracer() if traced else NullTracer()
    chk, capture = Checks(), Capture()
    tally = {"reports": 0, "integral": 0}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with Meter() as meter, instrument(tracer, capture, traced):
        for job in jobs:
            try:
                run_job(job, tracer, chk, capture, refs, tally)
            except Exception as exc:  # a crash is a failed check, not a traceback
                chk.expect(False, " ".join(job.argv()), f"{type(exc).__name__}: {exc}")
    wall_s = time.perf_counter() - t0 - meter.spent
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - meter.spent
    result = {
        "gammas": [list(job.gamma) for job in jobs],
        **setup,
        "solve_s": wall_s / meter.slowdown,
        "solve_wall_s": wall_s,
        "cpu_s": cpu_s / meter.slowdown,
        "slowdown": meter.slowdown,
        "peak_rss_mb": ru1.ru_maxrss / 1024,
        "attempted": chk.attempted,
        "failures": chk.failures,
    }
    if traced:
        result["layers"], spans = layer_metrics(tracer, tally, meter.slowdown)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{args.index}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "index": args.index,
            "spans": [dict(zip(("name", "start", "end", "parent"), s)) for s in spans],
        }), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
