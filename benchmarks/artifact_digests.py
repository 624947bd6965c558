#!/usr/bin/env python3
"""Print the SHA-256 of every artifact the CLI writes, for a byte-identity check.

Runs every bundled config (src/swarmcov/configs, with --gnuplot), three
pde configs that march rather than take the 1D closed form (2D diffusion on
the two-bump field, 1D diffusion with drift, 1D stop/go reaction) and five
coverage configs for the agent-step branches the bundled ones leave out
(drift on the 1D sine, 2D two-bump and 2D CSV fields, which interpolates
the gradient; stop/go switching in 1D and 2D) and three graph configs for the
sampler's stops the bundled one leaves out (a 50-vertex random graph whose
finite t_end cuts the chain in its third batch, the same graph with a jump
cap that ends it first, and a one-vertex graph with a finite t_end), two
edge-list graphs for the sampler's per-vertex step table (a star whose hub
has degree 30, and a 40-vertex threshold graph of degrees 1..39 whose t_end
cuts the chain in its third batch), a 300-vertex random graph of degrees
1..9 whose table walk enters vertex ids past a byte, one star of 600 leaves
whose table would pass its bound, so that its chain walks per jump, and an
[observations] estimate whose table has a spaced header, a blank line and a
comment line, against the source tree given by --src, one run at a time,
each writing to its own directory under --out.  Prints one "sha256
run/file" line per artifact, sorted by file.  Run it on two source trees and diff the lists: a change that
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

# a 50-vertex, 99-edge random graph with exponent -1, as the solvers
# benchmark's graph_random, sampled to a finite t_end
_RANDOM_GRAPH = """
[graph]
kind = random
n = 50
extra_edges = 50
seed = 18

[rates]
c = 1.0
exponent = -1
values = 1.099, 1.576, 0.921, 0.624, 1.955, 1.346, 1.466, 1.365, 1.213, 0.684,
    0.97, 1.604, 1.861, 1.833, 1.922, 0.538, 1.607, 1.509, 1.438, 1.456,
    0.689, 1.439, 1.681, 0.511, 1.882, 0.696, 1.064, 1.326, 1.412, 1.324,
    1.082, 1.82, 1.095, 1.81, 0.995, 1.439, 1.775, 0.68, 0.756, 1.592,
    0.689, 0.526, 0.786, 1.092, 1.554, 1.55, 0.821, 0.837, 0.578, 0.534

[propagate]
p0 = vertex:0
times = 0.1, 0.5, 1.0, 2.0

[sample]
start = 0
seed = 29
t_end = 50000
"""

SAMPLING = {
    # t_end stops the chain at its 162,923rd jump, in the third batch of 65,536
    "graph_random_t_end": _RANDOM_GRAPH,
    # the jump cap ends the path at t = 46023, short of t_end
    "graph_random_both_caps": _RANDOM_GRAPH + "max_jumps = 150000\n",
    "graph_one_vertex": """
[graph]
kind = path
n = 1

[rates]
c = 1.0
values = 2.0

[sample]
seed = 3
t_end = 2.5
""",
}

# input files the configs below read, written beside them: stars whose hub
# has degree 30 and 600, a 40-vertex threshold graph (i ~ j when i + j > 40, degrees
# 1..39), and an observation table with a spaced header, a blank line and a
# comment line among its rows
_OBS_ROWS = [f"{t:.1f},{0.7 + 0.1 * k:.17g},{0.7 + 0.1 * (k + 1):.17g},"
             f"{0.02 + 0.01 * k + 0.004 * t:.17g}" for t in (1.2, 1.4, 1.6, 1.8, 2.0)
             for k in range(3)]
INPUTS = {
    "star30.edges": "".join(f"0 {i}\n" for i in range(1, 31)),
    "star600.edges": "".join(f"0 {i}\n" for i in range(1, 601)),
    "threshold40.edges": "".join(f"{i - 1} {j - 1}\n" for i in range(1, 41)
                                 for j in range(i + 1, 41) if i + j > 40),
    "observations_spaced.csv": "\n".join([" t , cell_lo , cell_hi , fraction "] + _OBS_ROWS[:6]
                                         + ["", "# the last three times"] + _OBS_ROWS[6:]) + "\n",
}

# the walk's graphs: the star of 30 leaves, the threshold graph, with a t_end
# that cuts its chain in a later batch, and the 300-vertex random graph, whose
# ids pass a byte, take the per-vertex step table; the star of 600 leaves,
# whose table would hold 601 x 600 slots, past graphs._STEP_SLOTS, walks per
# jump
WALKED = {
    "graph_star30": """
[graph]
kind = edgelist
path = star30.edges

[rates]
c = 1.0
values = """ + ", ".join(f"{0.5 + 0.05 * i:g}" for i in range(31)) + """

[propagate]
p0 = vertex:0
times = 0.5, 2.0

[sample]
start = 3
seed = 31
max_jumps = 100000
""",
    "graph_threshold40_t_end": """
[graph]
kind = edgelist
path = threshold40.edges

[rates]
c = 1.0
exponent = -1
values = """ + ", ".join(f"{0.6 + 0.03 * i:g}" for i in range(40)) + """

[propagate]
p0 = vertex:5
times = 0.5, 2.0

[sample]
start = 5
seed = 40
t_end = 9000
""",
    "graph_random300": """
[graph]
kind = random
n = 300
extra_edges = 150
seed = 300

[rates]
c = 1.0
exponent = -1
values = """ + ", ".join(f"{0.5 + 0.005 * i:g}" for i in range(300)) + """

[propagate]
p0 = vertex:0
times = 0.5

[sample]
start = 0
seed = 301
max_jumps = 100000
""",
    "graph_star600": """
[graph]
kind = edgelist
path = star600.edges

[rates]
c = 1.0
values = """ + ", ".join(f"{0.5 + 0.002 * i:g}" for i in range(601)) + """

[propagate]
p0 = vertex:0
times = 0.5

[sample]
start = 7
seed = 600
max_jumps = 100000
""",
}

OBSERVED = {
    "estimate_observations_spaced": """
[observations]
path = observations_spaced.csv
d = 0.05
t1 = 1.0
t2 = 2.0

[inverse]
cells = 50
basis = 6
""",
}

# "{configs}" stands for the source tree's bundled config directory
COVERING = {
    "cover_1d_sine_drift": """
[field]
kind = sine

[law]
family = diffusion
c1 = 0.1
c2 = 0.2

[simulation]
agents = 20000
dt = 1e-3
t_end = 1.0
seed = 3
snapshots = 0.1, 1.0
init = uniform

[output]
bins = 50
""",
    "cover_2d_two_bump_drift": """
[field]
kind = two_bump
dim = 2

[law]
family = diffusion
c1 = 0.02
c2 = 0.05

[simulation]
agents = 20000
dt = 1e-3
t_end = 0.3
seed = 4
snapshots = 0.1, 0.3
init = uniform

[output]
bins = 20
""",
    "cover_2d_csv_drift": """
[field]
kind = csv
path = {configs}/case2_field.csv
dim = 2

[law]
family = diffusion
c1 = 0.02
c2 = 0.05

[simulation]
agents = 20000
dt = 1e-3
t_end = 0.3
seed = 5
snapshots = 0.1, 0.3
init = gaussian:0.5,0.5,0.2

[output]
bins = 20
""",
    "cover_1d_reaction": """
[field]
kind = sine

[law]
family = reaction
c1 = 0.1
c2 = 1.0
k = 1.0

[simulation]
agents = 20000
dt = 1e-3
t_end = 1.0
seed = 6
snapshots = 0.1, 1.0
init = uniform

[output]
bins = 50
""",
    "cover_2d_reaction": """
[field]
kind = two_bump
dim = 2

[law]
family = reaction
c1 = 0.05
c2 = 1.0
k = 1.0

[simulation]
agents = 20000
dt = 1e-3
t_end = 0.3
seed = 7
snapshots = 0.1, 0.3
init = uniform

[output]
bins = 20
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
    for name, text in INPUTS.items():
        with open(os.path.join(out, name), "w") as fh:
            fh.write(text)
    for sub, written in (("pde", MARCHING), ("coverage", COVERING), ("graph", SAMPLING),
                         ("graph", WALKED), ("estimate", OBSERVED)):
        for name, text in written.items():
            path = os.path.join(out, name + ".cfg")
            with open(path, "w") as fh:
                fh.write(text.replace("{configs}", configs))
            runs.append((name, sub, path))

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
