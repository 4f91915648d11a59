"""Benchmark of the exact GV pipeline (W tables -> Z -> log Z -> t-image).

    python3 perfbench/run.py --workload deep-p2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Run from anywhere inside a checkout; the engine is imported from the
checkout's src/.  Each sample runs in a fresh, single-threaded worker process
(cold caches, as every `gv` invocation pays) and checks every output.  The
run keeps starting samples, with set-up-only workers between them, while the
next one is expected to end within --seconds, then prints one line per
metric and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the workers record spans
and the metrics are the per-layer self times and exact counts.  Every time
is scaled to a reference machine speed measured while it runs (speed.py).

`--workload all` runs every workload untraced and traced and prints the
metrics of both and the tracing overhead.  The exit status is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only workers started before each sample and after the last one,
# at least MIN_SETUPS in all.  Set-up takes about 0.1 s, and on a shared
# machine single set-ups fall into a fast and a slow mode about 1.5x apart,
# for seconds at a time, so the median of a run flips between the modes from
# run to run; setup_s is the first quartile of set-ups spread over the whole
# run instead.
SETUPS_PER_GAP = 4
MIN_SETUPS = 20
SAMPLE_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def spawn(workload: str, seed: int, index: int, trace: int, refs: Path,
          setup_only: bool = False) -> dict:
    """Run one worker; its parsed result, or {"error": ...} if it died."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--index", str(index), "--trace", str(trace),
            "--refs", str(refs)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned", repr(time.time())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"sample {index} timed out after {SAMPLE_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"sample {index} exited with {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, refs: Path) -> dict:
    """Samples until the next would overrun `seconds`, with set-up-only
    workers before each sample and after the last."""

    def set_ups(n: int) -> list[dict]:
        return [spawn(workload, seed, 0, 0, refs, setup_only=True) for _ in range(n)]

    start = time.perf_counter()
    setups, samples, durations = [], [], []
    while True:
        setups += set_ups(SETUPS_PER_GAP)
        t = time.perf_counter()
        samples.append(spawn(workload, seed, len(samples), trace, refs))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    setups += set_ups(max(SETUPS_PER_GAP, MIN_SETUPS - len(setups)))
    return summarize(setups, samples)


def summarize(setups: list[dict], samples: list[dict]) -> dict:
    errors = [s["error"] for s in setups + samples if "error" in s]
    done = [s for s in samples if "error" not in s]
    failures = errors + [f for s in done for f in s["failures"]]
    attempted = sum(s["attempted"] for s in done) + len(errors)
    out = {
        "samples": len(done),
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "solve_values": sorted(s["solve_s"] for s in done),
        "setup_values": [s["setup_s"] for s in setups + done if "error" not in s],
    }
    if done and len(out["setup_values"]) == len(setups) + len(done):
        out["e2e"] = {
            "setup_s": statistics.quantiles(out["setup_values"], n=4)[0],
            "solve_s": statistics.median(s["solve_s"] for s in done),
            "cpu_s": statistics.median(s["cpu_s"] for s in done),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
        }
        out["unscaled"] = {
            "setup_s": statistics.quantiles(
                [s["setup_wall_s"] for s in setups + done], n=4)[0],
            "solve_s": statistics.median(s["solve_wall_s"] for s in done),
            "slowdown": statistics.median(s["slowdown"] for s in done),
        }
        if "layers" in done[0]:
            # times: median over the samples; counts: those of sample 0,
            # whose inputs depend on the seed alone
            layers = dict(done[0]["layers"])
            for name in layers:
                if name.endswith("_s"):
                    layers[name] = statistics.median(s["layers"][name] for s in done)
            out["layers"] = layers
    return out


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    k = n - 11
    return f"p{math.floor(100 * (k + 1) / n)} {values[k]:.4f} s"


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def report(workload: str, seed: int, trace: int, res: dict) -> dict:
    """Print the human-readable lines; return the result object."""
    print(f"workload {workload}  seed {seed}  trace {trace}  samples {res['samples']}")
    for f in res["failures"][:10]:
        print(f"  FAILED {f}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<32} {ratio:.6g} ({res['failed']}/{res['attempted']} checks)")
    if "e2e" not in res:
        return {"correct": False, "attempted": res["attempted"], "failed": res["failed"],
                "metrics": {}}
    e2e, unscaled = res["e2e"], res["unscaled"]
    for name, unit in END_TO_END.items():
        extra = ""
        if name == "solve_s":
            extra = (f"  median of {res['samples']}; tail {tail(res['solve_values'])};"
                     f" samples {' '.join(f'{v:.3f}' for v in res['solve_values'])};"
                     f" unscaled {unscaled['solve_s']:.4f} s")
        elif name == "setup_s":
            extra = (f"  first quartile of {len(res['setup_values'])} set-ups;"
                     f" unscaled {unscaled['setup_s']:.4f} s")
        print(f"  {name:<32} {e2e[name]:.6g} {unit}{extra}")
    print(f"  {'slowdown':<32} {unscaled['slowdown']:.4f}  median machine slowdown"
          " against the reference speed; times above are scaled by it")
    if trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in res["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the exact GV pipeline.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", type=Path, default=HERE / "refs",
                    help="directory of the correctness references")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gvexact" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        res = measure(args.workload, args.seed, args.seconds, args.trace, args.refs)
        result = report(args.workload, args.seed, args.trace, res)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        plain = measure(workload, args.seed, args.seconds, 0, args.refs)
        ok &= report(workload, args.seed, 0, plain)["correct"]
        traced = measure(workload, args.seed, args.seconds, 1, args.refs)
        ok &= report(workload, args.seed, 1, traced)["correct"]
        if "e2e" in plain and "e2e" in traced:
            over = traced["e2e"]["solve_s"] - plain["e2e"]["solve_s"]
            print(f"  {'tracing overhead':<32} {over:.6g} s (traced - untraced solve_s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
