"""Config parsing, validation, and the command-line entry point."""

import filecmp
import importlib.resources as resources
import os
import subprocess
import sys

import numpy as np
import pytest

from swarmcov import ConfigError, Grid, GridFunction, NumericError, sine_field
from swarmcov import estimation as est
from swarmcov import graphs as gr
from swarmcov.cli import main
from swarmcov.config import build_init, load_config
from swarmcov.estimation import load_estimate_csv, load_observations_csv
from swarmcov.fields import load_field_csv
from swarmcov.graphs import load_trajectory_csv
from swarmcov.sde import GaussianInit, PointInit, UniformInit, load_histogram_series_csv

CONFIG_DIR = resources.files("swarmcov") / "configs"

MINIMAL_COVERAGE = """
[field]
kind = sine

[law]
family = diffusion
c1 = 0.1

[simulation]
agents = 50
dt = 0.01
t_end = 0.05
seed = 3

[output]
dir = {out}
bins = 10
"""

MINIMAL_PDE = """
[law]
family = constant
d0 = 1.0

[solver]
cells = 50
t_end = 0.05
snapshots = 0.01, 0.02, 0.03, 0.04, 0.05

[initial]
kind = cosine
amplitude = 0.5

[output]
dir = {out}
"""

MINIMAL_GRAPH = """
[graph]
kind = path
n = 3

[rates]
c = 1.0
values = 1.0, 2.0, 1.5

[propagate]
times = 0.5, 1.0

[sample]
seed = 7
max_jumps = 500

[output]
dir = {out}
"""


def _write(tmp_path, text, name="run.cfg", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt) if fmt else text)
    return str(path)


# ---------------------------------------------------------------------------
# load_config validation


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL_PDE + "\n[mystery]\nx = 1\n", out=".")
    with pytest.raises(ConfigError, match=r"unknown section \[mystery\]"):
        load_config(path, "pde")


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL_PDE.replace("cells = 50", "cells = 50\nspeed = 9"), out=".")
    with pytest.raises(ConfigError, match=r"unknown key 'speed' in \[solver\]"):
        load_config(path, "pde")


def test_missing_required_section_rejected(tmp_path):
    path = _write(tmp_path, "[solver]\ncells = 50\nt_end = 1.0\n")
    with pytest.raises(ConfigError, match=r"missing required section \[law\]"):
        load_config(path, "pde")


def test_missing_required_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL_PDE.replace("t_end = 0.05\n", ""), out=".")
    with pytest.raises(ConfigError, match=r"missing required key 't_end' in \[solver\]"):
        load_config(path, "pde")


def test_bad_value_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL_PDE.replace("cells = 50", "cells = plenty"), out=".")
    with pytest.raises(ConfigError, match=r"bad value for 'cells' in \[solver\]"):
        load_config(path, "pde")


def test_malformed_file_rejected(tmp_path):
    path = _write(tmp_path, "this is not an ini file\n")
    with pytest.raises(ConfigError, match="malformed config file"):
        load_config(path, "pde")


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.cfg"), "pde")


def test_defaults_are_filled_in(tmp_path):
    path = _write(tmp_path, MINIMAL_COVERAGE, out=str(tmp_path))
    cfg = load_config(path, "coverage")
    assert cfg["field"]["background"] == pytest.approx(0.01)
    assert cfg["field"]["dim"] == 1
    assert cfg["law"]["c2"] == 0.0
    assert cfg["law"]["k"] == 1.0
    assert cfg["simulation"]["workers"] == 1
    assert cfg["simulation"]["init"] == "uniform"
    assert cfg["simulation"]["snapshots"] == ()
    assert cfg["output"]["bins"] == 10


def test_file_paths_resolve_relative_to_config(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "values.csv").write_text("vertex,value\n0,1.0\n1,2.0\n")
    text = MINIMAL_GRAPH.replace("n = 3", "n = 2").replace(
        "values = 1.0, 2.0, 1.5", "path = values.csv"
    )
    path = _write(sub, text, out=str(tmp_path))
    cfg = load_config(path, "graph")
    assert os.path.isabs(cfg["rates"]["path"]) or os.path.dirname(cfg["rates"]["path"])
    assert os.path.exists(cfg["rates"]["path"])


def test_bundled_configs_load():
    for name, sub in [
        ("case1.cfg", "coverage"),
        ("case2.cfg", "coverage"),
        ("pde_decay.cfg", "pde"),
        ("pde_longrun.cfg", "pde"),
        ("graph.cfg", "graph"),
        ("est_sin.cfg", "estimate"),
        ("est_quad.cfg", "estimate"),
    ]:
        load_config(str(CONFIG_DIR / name), sub)


# ---------------------------------------------------------------------------
# initial-condition specs


def test_build_init_specs():
    assert isinstance(build_init("uniform", 1), UniformInit)
    p = build_init("point:0.3", 1)
    assert isinstance(p, PointInit) and np.array_equal(p.position, (0.3,))
    p2 = build_init("point:0.2,0.8", 2)
    assert np.array_equal(p2.position, (0.2, 0.8))
    g = build_init("gaussian:0.4,0.1", 1)
    assert isinstance(g, GaussianInit) and np.array_equal(g.center, (0.4,))
    assert g.sigma == 0.1
    g2 = build_init("gaussian:0.5,0.5,0.2", 2)
    assert np.array_equal(g2.center, (0.5, 0.5)) and g2.sigma == 0.2
    with pytest.raises(ConfigError):
        build_init("point:0.5", 2)  # needs two coordinates
    with pytest.raises(ConfigError):
        build_init("blob", 1)


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_exit_zero_and_artifacts(tmp_path):
    out = tmp_path / "out"
    path = _write(tmp_path, MINIMAL_PDE, out=str(out))
    assert main(["pde", "--config", path]) == 0
    for artifact in ("snapshots.csv", "decay_norms.csv", "report.csv"):
        assert (out / artifact).exists()


def test_cli_exit_two_on_config_error(tmp_path, capsys):
    path = _write(tmp_path, MINIMAL_PDE + "\n[mystery]\nx = 1\n", out=str(tmp_path))
    assert main(["pde", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_two_on_missing_config(tmp_path, capsys):
    assert main(["graph", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_usage_error_without_config():
    with pytest.raises(SystemExit):
        main(["coverage"])


def test_cli_exit_three_on_degenerate_estimate(tmp_path, capsys):
    # all-zero observations drive the fit to zero mass: a numeric failure
    obs = tmp_path / "obs.csv"
    lines = ["t,cell_lo,cell_hi,fraction"]
    for t in (1.2, 1.4, 1.6, 1.8, 2.0):
        for k in range(3):
            lines.append(f"{t},{0.7 + 0.1 * k},{0.7 + 0.1 * (k + 1)},0.0")
    obs.write_text("\n".join(lines) + "\n")
    cfg = _write(
        tmp_path,
        f"""
[observations]
path = obs.csv
d = 0.05
t1 = 1.0
t2 = 2.0

[inverse]
cells = 50
basis = 6

[output]
dir = {tmp_path / "out"}
""",
        name="est.cfg",
    )
    assert main(["estimate", "--config", cfg]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_protocol_zero_mass_is_a_numeric_error(tmp_path, capsys, monkeypatch):
    # a protocol solve that collapses to zero mass fails like the
    # [observations] path: NumericError, exit 3
    def vanishing(problem, **kwargs):
        grid = Grid(problem.domain, (problem.grid_cells,))
        return est.Estimate(np.zeros(problem.basis_size), GridFunction.full(grid, 0.0), [0.0])

    monkeypatch.setattr(est, "solve_inverse", vanishing)
    part = est.window_partition((0.7, 1.0), 10)
    with pytest.raises(NumericError, match="zero mass"):
        est.run_protocol(sine_field(), coverage_gain=0.5, d=0.05, T1=0.01, T2=0.11, n_agents=50,
                         partition=part, seed=1, dt_coverage=1e-3, n_obs=2,
                         basis_size=4, grid_cells=20)
    cfg = _write(
        tmp_path,
        f"""
[field]
kind = sine

[protocol]
c1 = 0.5
d = 0.05
t1 = 0.01
t2 = 0.11
agents = 50
dt_coverage = 1e-3
n_obs = 2
seed = 1

[window]
lo = 0.7
hi = 1.0
divisor = 10

[inverse]
cells = 20
basis = 4

[output]
dir = {tmp_path / "out"}
""",
        name="est.cfg",
    )
    assert main(["estimate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "zero mass" in err


def test_cli_exit_two_on_bad_init_spec(tmp_path, capsys):
    with pytest.raises(ConfigError, match="bad init spec"):
        build_init("gaussian:0.5,abc,0.1", 2)
    text = MINIMAL_COVERAGE.replace("seed = 3", "seed = 3\ninit = gaussian:0.5,abc")
    path = _write(tmp_path, text, out=str(tmp_path / "out"))
    assert main(["coverage", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bad init spec" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, old, new",
    [
        pytest.param("coverage", "dt = 0.01", "dt = nan", id="coverage-dt-nan"),
        pytest.param("coverage", "c1 = 0.1", "c1 = inf", id="coverage-c1-inf"),
        pytest.param("coverage", "seed = 3", "seed = 3\nsnapshots = 0.01, nan",
                     id="coverage-snapshots-nan"),
        pytest.param("pde", "amplitude = 0.5", "amplitude = -inf", id="pde-amplitude-minus-inf"),
        pytest.param("graph", "1.0, 2.0, 1.5", "1.0, nan, 1.5", id="graph-values-nan"),
        pytest.param("graph", "seed = 7", "seed = 7\nt_end = nan", id="graph-t_end-nan"),
    ],
)
def test_cli_exit_two_on_non_finite_value(tmp_path, capsys, subcommand, old, new):
    text = {"coverage": MINIMAL_COVERAGE, "pde": MINIMAL_PDE, "graph": MINIMAL_GRAPH}[subcommand]
    assert old in text
    path = _write(tmp_path, text.replace(old, new), out=str(tmp_path / "out"))
    assert main([subcommand, "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "not a finite number" in err
    assert not (tmp_path / "out").exists()


ONE_VERTEX = [("n = 3", "n = 1"), ("1.0, 2.0, 1.5", "1.0")]


@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param([("max_jumps = 500", "max_jumps = 0")], "max_jumps", id="max_jumps-zero"),
        pytest.param([("max_jumps = 500", "max_jumps = -5")], "max_jumps", id="max_jumps-negative"),
        pytest.param([("seed = 7", "seed = 7\nt_end = 0")], "t_end", id="t_end-zero"),
        pytest.param([("seed = 7", "seed = 7\nt_end = -1")], "t_end", id="t_end-negative"),
        pytest.param(ONE_VERTEX, "one-vertex", id="one-vertex-no-t_end"),
    ],
)
def test_cli_exit_two_on_empty_sampling(tmp_path, capsys, edits, message):
    # each of these samples no jump or no time: occupation has no horizon
    text = MINIMAL_GRAPH
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    path = _write(tmp_path, text, out=str(out))
    assert main(["graph", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert "Traceback" not in err
    assert not any(out.iterdir())


def test_one_vertex_graph_samples_to_a_finite_t_end(tmp_path):
    text = MINIMAL_GRAPH
    for old, new in ONE_VERTEX + [("seed = 7", "seed = 7\nt_end = 2.5")]:
        text = text.replace(old, new)
    path = _write(tmp_path, text, out=str(tmp_path / "out"))
    assert main(["graph", "--config", path]) == 0
    assert (tmp_path / "out" / "occupation.csv").read_text() == "vertex,occupation\n0,1\n"


def test_graph_sample_t_end_accepts_inf(tmp_path):
    # the one key that opts in: sampling may run until its jump cap
    text = MINIMAL_GRAPH.replace("seed = 7", "seed = 7\nt_end = inf")
    path = _write(tmp_path, text, out=str(tmp_path / "out"))
    assert load_config(path, "graph")["sample"]["t_end"] == float("inf")
    assert main(["graph", "--config", path]) == 0
    assert len(load_trajectory_csv(str(tmp_path / "out" / "trajectory.csv")).times) == 501


@pytest.mark.parametrize(
    "table",
    [
        pytest.param("node,value\n0,1.0\n1,2.0\n2,1.5\n", id="wrong-header"),
        pytest.param("vertex,value\n0,1.0\n1,2.0,7\n2,1.5\n", id="ragged-row"),
    ],
)
def test_cli_exit_two_on_bad_node_value_table(tmp_path, capsys, table):
    (tmp_path / "values.csv").write_text(table)
    text = MINIMAL_GRAPH.replace("values = 1.0, 2.0, 1.5", "path = values.csv")
    out = tmp_path / "out"
    assert main(["graph", "--config", _write(tmp_path, text, out=str(out))]) == 2
    err = capsys.readouterr().err
    assert "config error: node-value CSV" in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "edits",
    [
        pytest.param([("c = 1.0", "c = 1e-300\nexponent = -1")], id="rates-underflow-to-zero"),
        pytest.param([("c = 1.0", "c = 1e300\nexponent = 1")], id="rates-overflow-to-inf"),
    ],
)
def test_cli_exit_two_on_non_finite_or_zero_rates(tmp_path, capsys, monkeypatch, edits):
    # c * f**exponent * degree with f = 1e300 is 0 or inf: sampling writes
    # nan occupations, and propagation decomposes a generator holding inf
    def unreachable(*args, **kwargs):
        raise AssertionError("the rates must be rejected before the chain runs")

    monkeypatch.setattr(gr, "propagate", unreachable)
    monkeypatch.setattr(gr, "sample_ctmc", unreachable)
    text = MINIMAL_GRAPH.replace("1.0, 2.0, 1.5", "1e300, 1e300, 1e300")
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "out"
    path = _write(tmp_path, text, out=str(out))
    assert main(["graph", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "jump rates" in err
    assert not any(out.iterdir())


OBS_ROWS = [(t, 0.7 + 0.1 * k, 0.7 + 0.1 * (k + 1), 0.02 + 0.01 * k)
            for t in (1.2, 1.4, 1.6, 1.8, 2.0) for k in range(3)]

OBS_CONFIG = """
[observations]
path = obs.csv
d = 0.05
t1 = 1.0
t2 = 2.0

[inverse]
cells = 50
basis = 6

[output]
dir = {out}
"""

PROTOCOL_CONFIG = """
[field]
kind = sine

[protocol]
c1 = 0.5
d = 0.05
t1 = 0.01
t2 = 0.11
agents = 50
dt_coverage = 1e-3
n_obs = 2
seed = 1

[window]
lo = 0.7
hi = 1.0
divisor = 10

[inverse]
cells = 20
basis = 4

[output]
dir = {out}
"""


def _observations(tmp_path, rows=OBS_ROWS, header="t,cell_lo,cell_hi,fraction"):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n")


def _run_estimate(tmp_path, text, edits=()):
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = _write(tmp_path, text, name="est.cfg", out=str(tmp_path / "out"))
    return main(["estimate", "--config", path])


@pytest.mark.parametrize(
    "config, rows, header, edits",
    [
        pytest.param(OBS_CONFIG, OBS_ROWS, "time,lo,hi,frac", (), id="wrong-header"),
        pytest.param(OBS_CONFIG, [("abc",) + r[1:] for r in OBS_ROWS], None, (), id="t-not-a-number"),
        pytest.param(OBS_CONFIG, OBS_ROWS[:-1], None, (), id="incomplete-table"),
        pytest.param(OBS_CONFIG, [], None, (), id="no-rows"),
        pytest.param(OBS_CONFIG, OBS_ROWS[:-1] + [OBS_ROWS[-1][:2] + (0.95,) + OBS_ROWS[-1][3:]],
                     None, (), id="cell-missing-at-first-time"),
        pytest.param(OBS_CONFIG, [r[:2] + (0.75,) + r[3:] if r[1] == 0.7 else r for r in OBS_ROWS],
                     None, (), id="gapped-cells"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("t1 = 1.0", "t1 = 1.5")], id="times-before-t1"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("t2 = 2.0", "t2 = 1.9")], id="times-after-t2"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("d = 0.05", "d = 0")], id="d-zero"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("cells = 50", "cells = 3")], id="cells-3"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("basis = 6", "basis = 1")], id="basis-1"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("basis = 6", "basis = 6\nlam = -0.1")],
                     id="lam-negative"),
        pytest.param(OBS_CONFIG, OBS_ROWS, None, [("basis = 6", "basis = 6\nmax_iters = 0")],
                     id="max_iters-zero"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("d = 0.05", "d = -0.05")], id="protocol-d-negative"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("n_obs = 2", "n_obs = 0")], id="protocol-n_obs-zero"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("hi = 1.0", "hi = 0.7")], id="protocol-empty-window"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("divisor = 10", "divisor = 0")],
                     id="protocol-divisor-zero"),
        # more window cells than observe can count in reasonable time
        pytest.param(PROTOCOL_CONFIG, None, None, [("divisor = 10", "divisor = 1000000000")],
                     id="protocol-divisor-huge"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("divisor = 10", "divisor = 1" + "0" * 400)],
                     id="protocol-divisor-past-float"),
        # a window outside the field's domain is rejected before the swarm runs
        pytest.param(PROTOCOL_CONFIG, None, None, [("lo = 0.7", "lo = -0.5")],
                     id="protocol-window-below-domain"),
        pytest.param(PROTOCOL_CONFIG, None, None, [("hi = 1.0", "hi = 2.0")],
                     id="protocol-window-above-domain"),
        pytest.param(OBS_CONFIG, [(t, lo + 0.5, hi + 0.5, m) for t, lo, hi, m in OBS_ROWS],
                     None, (), id="cells-outside-domain"),
    ],
)
def test_cli_exit_two_on_bad_estimate_input(tmp_path, capsys, monkeypatch, config, rows, header,
                                            edits):
    def unreachable(*args, **kwargs):
        raise AssertionError("the input must be rejected before the swarm runs")

    monkeypatch.setattr(est, "simulate", unreachable)
    if rows is not None:
        _observations(tmp_path, rows, header or "t,cell_lo,cell_hi,fraction")
    assert _run_estimate(tmp_path, config, edits) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param(OBS_ROWS[:4] + [OBS_ROWS[4][:3] + (float("inf"),)] + OBS_ROWS[5:],
                     id="inf-fraction"),
        pytest.param([r[:3] + (1e300,) for r in OBS_ROWS], id="fractions-1e300"),
    ],
)
def test_cli_exit_three_on_non_finite_solve(tmp_path, capsys, rows):
    _observations(tmp_path, rows)
    assert _run_estimate(tmp_path, OBS_CONFIG) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "Traceback" not in err


def _overflowing_coverage(tmp_path, out):
    """A coverage config whose first step overflows.

    sqrt(2 dt) D = sqrt(2) c1 / sqrt(F) reaches 1.4e308 on the field's
    background, so the first step overflows to inf, reflection folds inf to
    NaN, and the field's domain check turns the NaN positions of the next
    step into a numeric error.
    """
    text = MINIMAL_COVERAGE
    for old, new in [("kind = sine", "kind = two_bump"), ("c1 = 0.1", "c1 = 1e307"),
                     ("agents = 50", "agents = 100"), ("dt = 0.01", "dt = 1"),
                     ("t_end = 0.05", "t_end = 3")]:
        assert old in text
        text = text.replace(old, new)
    return _write(tmp_path, text, out=str(out))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_three_on_nan_positions(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["coverage", "--config", _overflowing_coverage(tmp_path, out)]) == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "outside the field domain" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_cli_numeric_exit_prints_only_the_numeric_error(tmp_path):
    # a fresh interpreter with the default warning filters, which would print
    # numpy's overflow and invalid-value RuntimeWarnings with their source lines
    path = _overflowing_coverage(tmp_path, tmp_path / "out")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(est.__file__)))
    run = subprocess.run([sys.executable, "-m", "swarmcov.cli", "coverage", "--config", path],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 3
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("swarmcov: numeric error: ")


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it, so starting the
    # command line does not pay for it
    src = os.path.dirname(os.path.dirname(est.__file__))
    code = ("import sys, swarmcov.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# artifact determinism and round-trips


def _run_twice(tmp_path, subcommand, text, **fmt):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = _write(tmp_path, text, name=f"{tag}.cfg", out=str(out), **fmt)
        assert main([subcommand, "--config", path, "--gnuplot"]) == 0
        outs.append(out)
    return outs


def _assert_identical_trees(a, b):
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors


def test_coverage_artifacts_reproducible(tmp_path):
    a, b = _run_twice(tmp_path, "coverage", MINIMAL_COVERAGE)
    _assert_identical_trees(a, b)
    assert (a / "coverage.gp").exists()
    series = load_histogram_series_csv(str(a / "histograms.csv"))
    assert len(series) == 1  # snapshots default to t_end


def test_pde_artifacts_reproducible(tmp_path):
    a, b = _run_twice(tmp_path, "pde", MINIMAL_PDE)
    _assert_identical_trees(a, b)
    assert (a / "pde.gp").exists()
    series = load_histogram_series_csv(str(a / "snapshots.csv"))
    assert len(series) == 5


def test_graph_artifacts_reproducible(tmp_path):
    a, b = _run_twice(tmp_path, "graph", MINIMAL_GRAPH)
    _assert_identical_trees(a, b)
    assert (a / "graph.gp").exists()
    traj = load_trajectory_csv(str(a / "trajectory.csv"))
    assert traj.n_jumps <= 500
    inv = np.genfromtxt(a / "invariant.csv", delimiter=",", names=True)
    assert np.abs(inv["residual"]).max() <= 1e-12


def test_estimate_artifacts_reproducible_and_loadable(tmp_path):
    text = """
[field]
kind = sine

[protocol]
c1 = 0.5
d = 0.05
t1 = 0.1
t2 = 1.1
agents = 400
dt_coverage = 1e-3
n_obs = 5
seed = 9

[window]
lo = 0.7
hi = 1.0
divisor = 10

[inverse]
cells = 60
basis = 6
max_iters = 200

[output]
dir = {out}
"""
    a, b = _run_twice(tmp_path, "estimate", text)
    _assert_identical_trees(a, b)
    assert (a / "estimate.gp").exists()
    obs = load_observations_csv(str(a / "observations.csv"))
    assert obs.fractions.shape == (5, 3)
    u_hat, scaled = load_estimate_csv(str(a / "estimate.csv"))
    assert scaled is not None  # field known, so the rescaled column is present
    assert u_hat.grid.shape == (60,)
    truth = load_field_csv(str(a / "truth.csv"))
    assert truth.eval([0.5]) > 0
    summary = np.genfromtxt(
        a / "summary.csv", delimiter=",", names=True, dtype=None, encoding="utf-8"
    )
    keys = list(summary["key"])
    assert "rel_l2_error" in keys and "scale" in keys


def test_cli_seed_override_changes_output(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    path = _write(tmp_path, MINIMAL_COVERAGE, out=str(out1))
    assert main(["coverage", "--config", path]) == 0
    assert main(["coverage", "--config", path, "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "histograms.csv").read_bytes() != (out2 / "histograms.csv").read_bytes()
