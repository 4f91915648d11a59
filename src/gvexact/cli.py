"""Batch front-end: compute integer tables, run verification suites, list
surface presets.

Exact values are serialized as strings ("p/q"), never floats.  Reports are
emitted in graded-lex degree order, one JSON object (or CSV row group) per
degree vector, followed by a summary.  Bad input is a usage error: exit
status 2 and one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass

from gvexact.gv import PRESETS, GvReport, integrality_report
from gvexact.series import (
    build_z_series,
    degree_vectors,
    f_connected,
    z_coefficient_matrix,
)
from gvexact.verify import SUITES, run_suites

# the highest total degree each path is computed to; the verification-grade
# paths grow exponentially with it
PATH_CAPS = {"def": None, "matrix": 12, "graphs": 5}


@dataclass
class RunConfig:
    """A validated run: the constructor raises ValueError on bad input."""

    gamma: tuple[int, ...]
    max_total_degree: int = 3
    degrees: list[tuple[int, ...]] | None = None
    paths: tuple[str, ...] = ("def",)
    output_format: str = "json"

    def __post_init__(self):
        if len(self.gamma) < 2 or not all(type(x) is int for x in self.gamma):
            raise ValueError(
                f"gamma needs at least two integer entries, got {list(self.gamma)}"
            )
        if type(self.max_total_degree) is not int or self.max_total_degree < 1:
            raise ValueError(
                f"the maximum degree must be an integer >= 1, not {self.max_total_degree!r}"
            )
        if self.degrees is not None:
            if not self.degrees:
                raise ValueError("no degree vectors given")
            r = len(self.gamma)
            for vec in self.degrees:
                if (len(vec) != r or not all(type(x) is int and x >= 0 for x in vec)
                        or not any(vec)):
                    raise ValueError(
                        f"bad degree vector {list(vec)}: need {r} integers >= 0, not all 0"
                    )
        top = self.top_degree()
        for name in self.paths:
            if name not in PATH_CAPS:
                raise ValueError(f"unknown path {name!r}; know {', '.join(PATH_CAPS)}")
            cap = PATH_CAPS[name]
            if cap is not None and top > cap:
                raise ValueError(f"path {name!r} runs only to |d| <= {cap}, not {top}")

    def top_degree(self) -> int:
        """The highest total degree of the run."""
        if self.degrees:
            return max(sum(d) for d in self.degrees)
        return self.max_total_degree


def parse_gamma(text: str) -> tuple[int, ...]:
    if text in PRESETS:
        return PRESETS[text]
    entries = text.replace(" ", "").split(",")
    if "" in entries:
        raise ValueError(f"empty entry in gamma {text!r}")
    return tuple(int(x) for x in entries)


def parse_degrees(text: str) -> list[tuple[int, ...]]:
    return [
        tuple(int(x) for x in chunk.replace(" ", "").split(","))
        for chunk in text.split(";")
        if chunk.strip()
    ]


def compute_reports(config: RunConfig) -> tuple[list[GvReport], bool]:
    """All requested reports in graded-lex order plus the overall verdict.
    Each orbit of gamma's symmetry (`series.stabilizer`) is reported and
    cross-checked once, at its first target; the orbit's other targets get
    copies of that report with their own degree."""
    if config.degrees:
        targets = sorted(set(config.degrees), key=lambda d: (sum(d), d))
        zs = build_z_series(config.gamma, config.top_degree(), degrees=targets)
    else:
        targets = list(degree_vectors(len(config.gamma), config.max_total_degree))
        zs = build_z_series(config.gamma, config.max_total_degree)
    fs = zs.log()
    first: dict[tuple[int, ...], GvReport] = {}  # orbit representative -> its first report
    reports = []
    for d in targets:
        k = fs.key(d)
        if k in first:  # t*G_d and every path's value are the same across the orbit
            reports.append(dataclasses.replace(first[k], degree=d))
            continue
        rep = first[k] = integrality_report(config.gamma, d, fs)
        if "matrix" in config.paths:
            rep.paths_agree &= z_coefficient_matrix(config.gamma, d) == zs.get(d)
        if "graphs" in config.paths:
            rep.paths_agree &= f_connected(config.gamma, d) == fs.get(d)
        reports.append(rep)
    ok = all(rep.integral and rep.paths_agree for rep in reports)
    return reports, ok


def emit_json(reports: list[GvReport], ok: bool, out) -> None:
    for rep in reports:
        out.write(json.dumps(rep.to_json_obj(), separators=(",", ":"), sort_keys=True))
        out.write("\n")
    summary = {
        "summary": True,
        "reports": len(reports),
        "all_integral": all(r.integral for r in reports),
        "all_paths_agree": all(r.paths_agree for r in reports),
        "ok": ok,
    }
    out.write(json.dumps(summary, separators=(",", ":"), sort_keys=True))
    out.write("\n")


def emit_csv(reports: list[GvReport], out) -> None:
    out.write("degree,g,n\n")
    for rep in reports:
        dtxt = " ".join(str(x) for x in rep.degree)
        for g, n in rep.gv_numbers:
            out.write(f"{dtxt},{g},{n}\n")


CONFIG_KEYS = ("gamma", "max_total_degree", "degrees", "paths")


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; know {list(CONFIG_KEYS)}")
    return cfg


def config_from_args(args) -> RunConfig:
    """The run the compute flags and the optional config file ask for."""
    if args.gamma is not None and args.surface is not None:
        raise ValueError("give --surface or --gamma, not both")
    file_cfg = load_config_file(args.config) if args.config else {}
    gamma = args.gamma or args.surface or file_cfg.get("gamma")
    if gamma is None:
        raise ValueError("need --surface, --gamma or a config file gamma")
    gamma = tuple(gamma) if isinstance(gamma, list) else parse_gamma(str(gamma))

    def pick(flag, key, default):
        return flag if flag is not None else file_cfg.get(key, default)

    if args.degrees is not None:
        degrees = parse_degrees(args.degrees)
    elif "degrees" in file_cfg:
        degrees = file_cfg["degrees"]
        if not (isinstance(degrees, list) and all(isinstance(d, list) for d in degrees)):
            raise ValueError(f"config degrees must be a list of integer lists, not {degrees!r}")
        degrees = [tuple(d) for d in degrees]
    else:
        degrees = None
    if degrees is not None and (args.max_degree is not None or "max_total_degree" in file_cfg):
        raise ValueError("give degree vectors or a maximum degree, not both")
    paths = pick(args.paths, "paths", "def")
    if not isinstance(paths, str):
        raise ValueError("paths must be a comma-separated string such as 'def,matrix'")
    return RunConfig(
        gamma=gamma,
        max_total_degree=pick(args.max_degree, "max_total_degree", 3),
        degrees=degrees,
        paths=tuple(paths.split(",")),
        output_format=args.format,
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gv",
        description="Exact integer tables from topological-vertex data (r, gamma).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute t*G tables and integer reports")
    c.add_argument("--surface", choices=sorted(PRESETS), help="preset gamma")
    c.add_argument("--gamma", help="comma-separated integers, e.g. ' -1,-1'")
    c.add_argument("--max-degree", type=int, default=None, dest="max_degree",
                   help="maximum total degree |d| (default 3)")
    c.add_argument("--degrees", help="explicit list: 'd1,..,dr;d1,..,dr;...'")
    c.add_argument("--paths", default=None,
                   help="comma subset of def,matrix,graphs (extra paths verified "
                        f"up to |d|<={PATH_CAPS['matrix']} / {PATH_CAPS['graphs']})")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--config", help="JSON config file; flags win on conflict")

    v = sub.add_parser("verify", help="run property suites")
    v.add_argument("--suite", action="append", default=None, choices=sorted(SUITES),
                   help="suite name (repeatable); default all")

    sub.add_parser("surfaces", help="list gamma presets")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "surfaces":
        for name, gamma in PRESETS.items():
            print(f"{name}: gamma = {list(gamma)}")
        return 0

    if args.command == "verify":
        names = args.suite or sorted(SUITES)
        results = run_suites(names)
        ok = True
        for name, passed, detail in results:
            print(f"{name}: {'PASS' if passed else 'FAIL'} - {detail}")
            ok &= passed
        return 0 if ok else 1

    try:
        cfg = config_from_args(args)
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports, ok = compute_reports(cfg)
    if cfg.output_format == "csv":
        emit_csv(reports, sys.stdout)
    else:
        emit_json(reports, ok, sys.stdout)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
