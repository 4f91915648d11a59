"""Byte-identical `gv compute` output against tests/golden/gv_compute.jsonl.

Each line of the golden file holds one run: its argv and its full stdout.
Every run stays within the verification caps of the extra paths it asks for.
After a deliberate change of the output format, regenerate the file with
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gvexact.cli import main

GOLDEN = Path(__file__).parent / "golden" / "gv_compute.jsonl"

RUNS = [
    ["compute", "--surface", "P2", "--max-degree", "3", "--paths", "def,matrix,graphs"],
    ["compute", "--surface", "F0", "--max-degree", "3", "--paths", "def,matrix,graphs"],
    ["compute", "--surface", "F1", "--max-degree", "3", "--paths", "def,matrix,graphs"],
    ["compute", "--surface", "B2", "--max-degree", "3", "--paths", "def,matrix,graphs"],
    ["compute", "--surface", "B3", "--max-degree", "2", "--paths", "def,matrix,graphs"],
    ["compute", "--gamma=-1,-1", "--max-degree", "4", "--paths", "def,matrix"],
    ["compute", "--surface", "P2", "--degrees", "1,0,0;2,2,0;1,1,1"],
    ["compute", "--surface", "F0", "--max-degree", "3", "--format", "csv"],
    ["compute", "--surface", "P2", "--max-degree", "6"],
    ["compute", "--surface", "F0", "--max-degree", "5"],
    ["compute", "--surface", "B3", "--max-degree", "4", "--paths", "def,matrix"],
    ["compute", "--surface", "P2", "--max-degree", "8"],
    ["compute", "--surface", "P2", "--max-degree", "5", "--paths", "def,matrix,graphs"],
    ["compute", "--surface", "B2", "--max-degree", "5", "--paths", "def,matrix,graphs"],
]


def run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def load_golden() -> dict[tuple[str, ...], str]:
    out = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        out[tuple(rec["argv"])] = rec["stdout"]
    return out


@pytest.mark.parametrize("argv", RUNS, ids=lambda a: " ".join(a[1:]))
def test_compute_output_matches_golden(argv):
    assert run(argv) == load_golden()[tuple(argv)]


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for argv in RUNS:
            fh.write(json.dumps({"argv": argv, "stdout": run(argv)}) + "\n")
