"""Two-tree harness shared by the gates in this directory.

A gate compares two source trees, a reference and one under test.  Its
script runs itself once per tree as a worker subprocess,
``SCRIPT --worker SRC``, at 1 BLAS thread, with the gate's own options;
the worker puts SRC first on ``sys.path``, so it imports that tree's
``planarcrit``, and prints one JSON line per record.  The gate then
compares the two record lists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path


def src_dir(tree: str) -> str:
    """The directory holding ``planarcrit`` in a checkout or a ``src`` tree."""
    path = Path(tree).resolve()
    if (path / "src" / "planarcrit").is_dir():
        path = path / "src"
    if not (path / "planarcrit").is_dir():
        raise SystemExit(f"no planarcrit package under {tree}")
    return str(path)


def collect(script: str, tree: str, flags=()) -> list[dict]:
    """The records of script's worker run on tree, given the gate's option flags."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    argv = [sys.executable, script, "--worker", src_dir(tree), *flags]
    # The worker's stderr goes to the terminal, so a failing tree shows its traceback.
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True, env=env)
    return [json.loads(line) for line in out.stdout.splitlines()]


def main(argv, script: str, doc: str, run_tree, compare, options=None) -> int:
    """Parse --ref / --new / --worker and the gate's options, and run a gate.

    options maps the name of each required option the gate adds, given
    as ``--name VALUE``, to its ``add_argument`` keywords.  Their values
    reach both workers' command lines, and run_tree and compare as
    keywords.  A worker calls run_tree(**values), which prints its
    records, and returns 0.  Otherwise the exit code is
    compare(ref records, new records, **values).
    """
    options = options or {}
    p = argparse.ArgumentParser(description=doc.split("\n", 1)[0])
    p.add_argument("--ref", help="source tree of the reference")
    p.add_argument("--new", help="source tree under test")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    for name, kwargs in options.items():
        p.add_argument(f"--{name}", required=True, **kwargs)
    args = p.parse_args(argv)
    values = {name: getattr(args, name) for name in options}
    if args.worker:
        sys.path.insert(0, args.worker)
        run_tree(**values)
        return 0
    if not (args.ref and args.new):
        p.error("--ref and --new are required")
    flags = [item for name, value in values.items() for item in (f"--{name}", value)]
    return compare(collect(script, args.ref, flags), collect(script, args.new, flags),
                   **values)
