"""Self-tests of the benchmark: each correctness check passes on the artifacts
a workload really writes and rejects a deliberately corrupted copy; the
tracer survives a hook whose target is gone.

Run from the repository root: ``python3 -m pytest -q perfbench`` (about 15 s;
it runs every workload's CLI calls once).
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np
import pytest

from run import SRC

sys.path.insert(0, SRC)

import swarmcov  # noqa: E402
import swarmcov.cli  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Every workload's calls, run once; label -> Call."""
    out = {}
    for name, make in workloads.WORKLOADS.items():
        work = str(tmp_path_factory.mktemp(name))
        for call in make(7, work).calls:
            assert swarmcov.cli.main(call.argv) == 0
            call.check(call.out)  # the genuine artifacts pass
            out[os.path.basename(call.out)] = call
    return out


def corrupted(call, tmp_path, filename, edit):
    """Check a copy of the call's output whose ``filename`` went through
    ``edit`` (a function of the file's lines)."""
    copy = str(tmp_path / "copy")
    shutil.copytree(call.out, copy)
    path = os.path.join(copy, filename)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")
    call.check(copy)


def scale_column(col, factor, rows=slice(1, None)):
    def edit(lines):
        out = list(lines)
        for i in range(len(lines))[rows]:
            cells = out[i].split(",")
            cells[col] = repr(float(cells[col]) * factor)
            out[i] = ",".join(cells)
        return out

    return edit


def set_key(key, transform):
    def edit(lines):
        out = []
        for line in lines:
            k, _, v = line.partition(",")
            out.append(f"{k},{transform(float(v))!r}" if k == key else line)
        return out

    return edit


def test_histogram_with_mass_off_one_is_rejected(artifacts, tmp_path):
    with pytest.raises(CheckError, match="histogram mass"):
        corrupted(artifacts["case1"], tmp_path, "histograms.csv", scale_column(3, 1.001, slice(1, 401)))


def test_histogram_with_partial_agents_is_rejected(artifacts, tmp_path):
    def shift(lines):
        # move a fraction of an agent between two cells: mass stays 1
        out = list(lines)
        a, b = out[1].split(","), out[2].split(",")
        delta = 0.5 / (100_000 / 400)
        a[3] = repr(float(a[3]) + delta)
        b[3] = repr(float(b[3]) - delta)
        out[1], out[2] = ",".join(a), ",".join(b)
        return out

    with pytest.raises(CheckError, match="whole agents"):
        corrupted(artifacts["case2"], tmp_path, "histograms.csv", shift)


def test_coverage_that_does_not_approach_the_field_is_rejected(artifacts, tmp_path):
    def first_as_last(lines):
        # the last snapshot replaced by the first: TV no longer falls
        body = lines[1:]
        return [lines[0]] + body[:800] + [
            ",".join([body[800 + i].split(",")[0]] + row.split(",")[1:])
            for i, row in enumerate(body[:400])
        ]

    with pytest.raises(CheckError, match="did not fall"):
        corrupted(artifacts["case1"], tmp_path, "histograms.csv", first_as_last)


@pytest.mark.parametrize("label", ["est_sin", "sine_100", "quadratic_10"])
def test_scaled_estimate_is_rejected(artifacts, tmp_path, label):
    with pytest.raises(CheckError, match="estimate mass"):
        corrupted(artifacts[label], tmp_path, "estimate.csv", scale_column(1, 1.01))


@pytest.mark.parametrize("label", ["est_sin", "sine_10", "quadratic_100"])
def test_objective_above_the_nnls_minimum_is_rejected(artifacts, tmp_path, label):
    with pytest.raises(CheckError, match="NNLS minimum"):
        corrupted(artifacts[label], tmp_path, "summary.csv", set_key("objective_final", lambda v: v * 1.0001))


def test_estimate_far_from_the_field_is_rejected(artifacts, tmp_path):
    def flat(lines):
        return [lines[0]] + [",".join([r.split(",")[0], repr(1.0)] + r.split(",")[2:]) for r in lines[1:]]

    with pytest.raises(CheckError, match="relative L2 error"):
        corrupted(artifacts["est_sin"], tmp_path, "estimate.csv", flat)


def test_perturbed_propagation_is_rejected(artifacts, tmp_path):
    def bump(lines):
        out = list(lines)
        t, v, p = out[3].split(",")
        out[3] = f"{t},{v},{float(p) + 1e-6!r}"
        return out

    with pytest.raises(CheckError, match="expm"):
        corrupted(artifacts["graph_random"], tmp_path, "propagate.csv", bump)


def test_wrong_invariant_law_is_rejected(artifacts, tmp_path):
    with pytest.raises(CheckError, match="invariant law"):
        corrupted(artifacts["graph_path"], tmp_path, "invariant.csv", scale_column(1, 1.0 + 1e-9))


def test_occupation_far_from_the_invariant_law_is_rejected(artifacts, tmp_path):
    def swap(lines):
        return [lines[0], lines[2].replace("1,", "0,", 1), lines[1].replace("0,", "1,", 1)]

    with pytest.raises(CheckError, match="occupation"):
        corrupted(artifacts["graph_path"], tmp_path, "occupation.csv", swap)


def test_truncated_trajectory_is_rejected(artifacts, tmp_path):
    with pytest.raises(CheckError, match="trajectory.csv"):
        corrupted(artifacts["graph_random"], tmp_path, "trajectory.csv", lambda lines: lines[:-1])


def test_wrong_decay_rate_is_rejected(artifacts, tmp_path):
    with pytest.raises(CheckError, match="decay rate"):
        corrupted(artifacts["pde_decay"], tmp_path, "report.csv", set_key("decay_rate", lambda v: v * 1.01))


def test_mass_drift_is_rejected(artifacts, tmp_path):
    with pytest.raises(CheckError, match="mass drift"):
        corrupted(artifacts["pde_longrun"], tmp_path, "report.csv", set_key("mass_drift", lambda v: 1e-9))


def test_unconverged_longrun_is_rejected(artifacts, tmp_path):
    # the 0.2 snapshot in place of the final one
    def early(lines):
        body = lines[1:]
        cells = 50
        first = body[cells:2 * cells]
        last_t = body[-1].split(",")[0]
        return [lines[0]] + body[:-cells] + [",".join([last_t] + r.split(",")[1:]) for r in first]

    with pytest.raises(CheckError, match="final snapshot"):
        corrupted(artifacts["pde_longrun"], tmp_path, "snapshots.csv", early)


def test_heat_model_matches_predict():
    """The benchmark's own forward map equals the program's predict."""
    from swarmcov import estimation as est
    from swarmcov.grids import Domain

    times = est.uniform_times(2.0, 52.0, 25)
    part = est.window_partition((0.7, 1.0), 10)
    assert np.allclose(checks.window_cells(0.7, 1.0, 10), part.cells, rtol=0, atol=0)
    obs = est.ObservationSeries(times, np.zeros((25, part.n_cells)), 0, part)
    prob = est.EstimationProblem(Domain.unit_interval(), 100, 10, 0.005, 0.1, 2.0, 52.0, obs)
    c = np.random.default_rng(0).random(10)
    model = checks.HeatModel(times, 2.0, 52.0, 0.005, part.cells)
    assert np.allclose(model.A @ c, est.predict(c, prob).ravel(), rtol=1e-10, atol=1e-15)


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.delattr(swarmcov.sde, "_run_chunks")
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert "sde.pool" in tracer.absent
        assert spans.absent_metrics(tracer.absent) == ["sde.pool_wait_s"]
    finally:
        tracer.uninstall()


def test_install_and_uninstall_restore_the_package():
    before = swarmcov.sde.simulate, swarmcov.cli.simulate, swarmcov.fields.ScalarField.eval
    tracer = spans.Tracer("test")
    tracer.install()
    assert swarmcov.cli.simulate is not before[1]
    tracer.uninstall()
    assert (swarmcov.sde.simulate, swarmcov.cli.simulate, swarmcov.fields.ScalarField.eval) == before
    assert not tracer.absent


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10] with children [1, 4] and [3, 6] (overlapping, two threads)
    s = [
        (1, "sde.simulate", 0.0, 10.0, None, 0, 0),
        (2, "sde.pool", 1.0, 6.0, 1, 0, 0),
        (3, "sde_kernels.step", 1.0, 4.0, 2, 0, 0),
        (4, "sde_kernels.step", 3.0, 5.0, 2, 1, 0),
    ]
    m = spans.layer_metrics(s, {})
    assert m["sde.self_s"] == pytest.approx(5.0)
    assert m["sde.pool_wait_s"] == pytest.approx(1.0)
    assert m["sde_kernels.step_s"] == pytest.approx(5.0)
