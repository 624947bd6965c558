"""The shared CSV table format: writer bytes against a per-row writer, and
loader round-trips bit for bit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcov import _csv
from swarmcov.estimation import (
    ObservationSeries,
    load_estimate_csv,
    load_observations_csv,
    save_estimate_csv,
    save_observations_csv,
    window_partition,
)
from swarmcov.fields import GridField, load_field_csv, save_field_csv
from swarmcov.graphs import Trajectory, load_trajectory_csv, trajectory_to_csv
from swarmcov.grids import Domain, Grid, GridFunction
from swarmcov.sde import (
    SwarmState,
    histogram_series_to_csv,
    load_histogram_series_csv,
    load_snapshots_csv,
    snapshots_to_csv,
)

HARD = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
        1e-310, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e22]
# every float the format must print, nan payloads included
any_float = st.one_of(st.sampled_from(HARD), st.floats())
# every float that reads back to the same bits: nan only as numpy's own nan
exact_float = st.one_of(st.sampled_from(HARD), st.floats(allow_nan=False))
finite_float = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-310]),
                         st.floats(allow_nan=False, allow_infinity=False))
# row counts around the chunk edges, and tables of 0 and 1 rows
n_rows = st.sampled_from([0, 1, 2, _csv._CHUNK_ROWS - 1, _csv._CHUNK_ROWS, _csv._CHUNK_ROWS + 1])


def _column(draw, elements, n, dtype):
    """n values cycled from a short drawn list, so long tables stay cheap."""
    return np.resize(np.array(draw(st.lists(elements, min_size=1, max_size=12)), dtype=dtype), n)


def _per_row_reference(path, header, kinds, rows):
    cell = {"g": lambda v: f"{v:.17g}", "d": lambda v: f"{int(v)}", "s": lambda v: f"{v}"}
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell[k](v) for k, v in zip(kinds, row)) + "\n")


def _assert_rows(path, kinds, rows):
    """The table at path holds these rows, in this order, as the per-row writer prints them."""
    want = path.with_name("want.csv")
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    _per_row_reference(want, header, kinds, rows)
    assert path.read_bytes() == want.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.data(), n_rows)
def test_write_csv_bytes_match_per_row_writer(tmp_path_factory, data, n):
    draw = data.draw
    kinds = draw(st.lists(st.sampled_from("gds"), min_size=1, max_size=4))
    columns = []
    for k in kinds:
        if k == "g":
            columns.append(_column(draw, any_float, n, float))
        elif k == "d":
            dtype = draw(st.sampled_from([np.int64, np.uint8]))
            info = np.iinfo(dtype)
            columns.append(_column(draw, st.integers(int(info.min), int(info.max)), n, dtype))
        else:
            keys = st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1)
            columns.append([str(v) for v in _column(draw, keys, n, object)])
    header = ",".join(f"c{j}" for j in range(len(kinds)))
    row_format = ",".join({"g": "%.17g", "d": "%d", "s": "%s"}[k] for k in kinds)
    got = tmp_path_factory.mktemp("csv") / "got.csv"
    want = got.with_name("want.csv")
    _csv.write_csv(got, header, row_format, *columns)
    _per_row_reference(want, header, kinds, zip(*columns))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\n") == n + 1


def _write_and_compare(path, kinds, *columns):
    """write_csv's bytes for these columns equal the per-row writer's."""
    header = ",".join(f"c{j}" for j in range(len(kinds)))
    _csv.write_csv(path, header, ",".join({"g": "%.17g", "d": "%d"}[k] for k in kinds), *columns)
    _assert_rows(path, kinds, zip(*columns))


def test_write_csv_matches_percent_on_raw_bit_patterns(tmp_path):
    # 2e5 uniform 64-bit patterns (mostly outside the numpy range, so mostly
    # left to %), then 2e5 doubles spread over the magnitudes 1e-12..3e17
    rng = np.random.default_rng(20161)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    spread = 10.0 ** rng.uniform(-12.0, 17.5, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    for values in (bits, spread):
        path = tmp_path / "cells.csv"
        _csv.write_csv(path, "x", "%.17g", values)
        want = "x\n" + "".join(["%.17g\n" % x for x in values.tolist()])
        assert path.read_bytes() == want.encode()


def test_write_csv_edge_cases_match_per_row_writer(tmp_path):
    path = tmp_path / "edges.csv"
    _csv.write_csv(path, "x", "%.17g", [1e-07])
    # the exponent comes from the digits before rounding, not after
    assert path.read_text() == "x\n9.9999999999999995e-08\n"

    powers = np.array([10.0**k for k in range(-12, 19)] + [float(f"1e{k}") for k in range(-12, 19)])
    # exact ties at 17 digits (left to %), and values exact in binary
    ties = [123456789012345.125, 123456789012345.375, 0.5, 2.5, 123456789.125]
    ties += [2.0**-k for k in range(61)]
    edges = np.array([1e-10, 1e16])
    floats = np.concatenate([
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 2.2250738585072014e-308],
    ])
    floats = np.concatenate([floats, -floats])
    info = np.iinfo(np.int64)
    ints = np.resize(np.array([info.min, info.max, 0, -1, 1, info.min + 1, 10**16, -(10**17)]),
                     len(floats))
    small = np.resize(np.arange(256, dtype=np.uint8), len(floats))
    _write_and_compare(path, "gdgd", floats, ints, floats[::-1], small)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(1, 2))
def test_snapshot_and_histogram_loaders_round_trip_bit_for_bit(tmp_path_factory, data, n, dim):
    draw = data.draw
    times = sorted(set(draw(st.lists(finite_float, min_size=1, max_size=3))))
    snaps = [
        SwarmState(float(t), _column(draw, exact_float, n * dim, float).reshape(n, dim),
                   _column(draw, st.integers(0, 1), n, np.uint8))
        for t in times
    ]
    path = tmp_path_factory.mktemp("csv") / "snaps.csv"
    snapshots_to_csv(snaps, path)
    _assert_rows(path, "gd" + "g" * dim + "d",
                 [(s.time, i, *s.positions[i], s.modes[i]) for s in snaps for i in range(n)])
    back = load_snapshots_csv(path)
    assert len(back) == len(snaps)
    for a, b in zip(snaps, back):
        _same_bits(a.time, b.time)
        _same_bits(a.positions, b.positions)
        _same_bits(a.modes, b.modes)

    grid = Grid(Domain(((0.0, 1.0),) * dim), (3,) * dim)
    series = [(t, GridFunction(grid, _column(draw, exact_float, grid.n_cells, float)
                               .reshape(grid.shape))) for t in times]
    histogram_series_to_csv(series, path)
    _assert_rows(path, "g" * (dim + 2), [(t, *c, v) for t, h in series
                                         for c, v in zip(grid.center_points(), h.values.ravel())])
    back = load_histogram_series_csv(path)
    assert len(back) == len(series)
    for (ta, ha), (tb, hb) in zip(series, back):
        _same_bits(ta, tb)
        _same_bits(ha.values, hb.values)


@settings(max_examples=30, deadline=None)
@given(st.data(), n_rows)
def test_trajectory_loader_round_trips_bit_for_bit(tmp_path_factory, data, n):
    draw = data.draw
    traj = Trajectory(_column(draw, exact_float, n, float),
                      _column(draw, st.integers(0, 2**40), n, np.int64))
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    trajectory_to_csv(traj, path)
    back = load_trajectory_csv(path)
    _same_bits(back.times, traj.times)
    _same_bits(back.vertices, traj.vertices)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(2, 40))
def test_observation_estimate_and_field_loaders_round_trip_bit_for_bit(tmp_path_factory, data, n):
    draw = data.draw
    folder = tmp_path_factory.mktemp("csv")
    part = window_partition((0.7, 1.0), draw(st.sampled_from([10, 100])))
    times = np.cumsum(1.0 + np.array(draw(st.lists(st.floats(0, 10), min_size=1, max_size=4))))
    fractions = _column(draw, st.one_of(st.sampled_from(HARD[:4] + HARD[5:]),
                                        st.floats(allow_nan=False)),
                        len(times) * part.n_cells, float).reshape(len(times), part.n_cells)
    obs = ObservationSeries(times, fractions, 0, part)
    save_observations_csv(folder / "obs.csv", obs)
    _assert_rows(folder / "obs.csv", "gggg", [(t, lo, hi, fractions[k, w])
                                               for k, t in enumerate(times)
                                               for w, (lo, hi) in enumerate(part.cells)])
    back = load_observations_csv(folder / "obs.csv")
    _same_bits(back.times, obs.times)
    _same_bits(back.fractions, obs.fractions)
    assert back.partition.cells == obs.partition.cells

    grid = Grid(Domain.unit_interval(), (n,))
    u_hat = GridFunction(grid, _column(draw, exact_float, n, float))
    scaled = GridFunction(grid, _column(draw, exact_float, n, float))
    for want in (None, scaled):
        save_estimate_csv(folder / "est.csv", u_hat, want)
        columns = [grid.centers(0), u_hat.values] + ([] if want is None else [want.values])
        _assert_rows(folder / "est.csv", "g" * len(columns), zip(*columns))
        got, got_scaled = load_estimate_csv(folder / "est.csv")
        _same_bits(got.values, u_hat.values)
        assert (got_scaled is None) == (want is None)
        if want is not None:
            _same_bits(got_scaled.values, want.values)

    # below 1e300, so that the field's gradient stencil does not overflow
    positive = st.one_of(st.sampled_from([5e-324, 1e-310, 1e300]), st.floats(5e-324, 1e300))
    for shape in ((n + 1,), (n + 1, 3)):
        axes = tuple(np.linspace(0.0, 1.0, m) for m in shape)
        field = GridField(axes, _column(draw, positive, int(np.prod(shape)), float).reshape(shape))
        save_field_csv(field, folder / "field.csv")
        nodes = [(*(a[i] for a, i in zip(axes, index)), field.values[index])
                 for index in np.ndindex(shape)]
        _assert_rows(folder / "field.csv", "g" * (len(shape) + 1), nodes)
        back = load_field_csv(folder / "field.csv")
        _same_bits(back.values, field.values)
        for a, b in zip(back.axes, field.axes):
            _same_bits(a, b)
