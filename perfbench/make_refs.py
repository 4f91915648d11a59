"""Write refs/gv_outputs.json: the `gv compute` output of the deep-p2 job and
of the sweep-wide jobs of sample 0 at the default seed (0), which later runs
must reproduce byte for byte.

    PYTHONPATH=src python3 perfbench/make_refs.py

Run it only on the commit whose output is the reference; it refuses to
overwrite an existing file.  The AKMV table in refs/akmv_local_p2.json is
typed from the literature and never generated.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from gvexact import cli

import inputs

TARGET = Path(__file__).resolve().parent / "refs" / "gv_outputs.json"


def main() -> int:
    if TARGET.exists():
        print(f"error: {TARGET} exists; delete it first to regenerate", file=sys.stderr)
        return 1
    jobs = inputs.sample_jobs("deep-p2", 0, 0) + inputs.sample_jobs("sweep-wide", 0, 0)
    outputs = {}
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(job.argv())
        if rc != 0:
            print(f"error: {' '.join(job.argv())} exited with {rc}", file=sys.stderr)
            return 1
        outputs[" ".join(job.argv())] = buf.getvalue()
    TARGET.write_text(json.dumps({
        "about": "gv compute stdout per argv, from the commit that added the benchmark",
        "outputs": outputs,
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
