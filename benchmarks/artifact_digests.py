#!/usr/bin/env python3
"""Print the SHA-256 of every artifact the CLI writes, for a byte-identity check.

Runs every bundled config (src/swarmcov/configs, with --gnuplot) and three
pde configs that march rather than take the 1D closed form (2D diffusion on
the two-bump field, 1D diffusion with drift, 1D stop/go reaction) against
the source tree given by --src, one run at a time, each writing to its own
directory under --out.  Prints one "sha256  run/file" line per artifact,
sorted by file.  Run it on two source trees and diff the lists: a change that
keeps every artifact byte for byte prints the same list.

The bundled est_* runs take minutes each, so this is kept out of the test
suite.

Usage: python3 benchmarks/artifact_digests.py --src PATH --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

# bundled config -> subcommand
BUNDLED = {
    "case1": "coverage",
    "case2": "coverage",
    "est_quad": "estimate",
    "est_sin": "estimate",
    "graph": "graph",
    "pde_decay": "pde",
    "pde_longrun": "pde",
}

MARCHING = {
    "march_2d_two_bump": """
[field]
kind = two_bump
dim = 2

[law]
family = diffusion
c1 = 0.5

[solver]
cells = 24
t_end = 0.05
""",
    "march_1d_drift": """
[field]
kind = sine

[law]
family = diffusion
c1 = 0.1
c2 = 0.2

[solver]
cells = 100
t_end = 1.0
""",
    "march_1d_reaction": """
[field]
kind = sine

[law]
family = reaction
c1 = 0.1
c2 = 1.0
k = 1.0

[solver]
cells = 100
t_end = 1.0
""",
}


def _run(src: str, subcommand: str, config: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "swarmcov.cli", subcommand, "--config", config,
           "--out", out, "--gnuplot"]
    run = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {run.returncode}:\n{run.stderr}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="source tree holding the swarmcov package")
    parser.add_argument("--out", required=True, help="directory for the runs' artifacts")
    args = parser.parse_args()
    src = os.path.abspath(args.src)
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)

    configs = os.path.join(src, "swarmcov", "configs")
    runs = [(name, sub, os.path.join(configs, name + ".cfg")) for name, sub in BUNDLED.items()]
    for name, text in MARCHING.items():
        path = os.path.join(out, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        runs.append((name, "pde", path))

    digests = {}
    for name, sub, config in runs:
        run_dir = os.path.join(out, name)
        _run(src, sub, config, run_dir)
        for fname in os.listdir(run_dir):
            with open(os.path.join(run_dir, fname), "rb") as fh:
                digests[f"{name}/{fname}"] = hashlib.sha256(fh.read()).hexdigest()
    for path in sorted(digests):
        print(f"{digests[path]}  {path}")


if __name__ == "__main__":
    main()
