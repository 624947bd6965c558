"""Scalar fields, control laws, and field CSV interchange."""

import numpy as np
import pytest

from swarmcov import (
    AnalyticField,
    Domain,
    DomainError,
    GridField,
    constant_diffusion_law,
    diffusion_coverage_law,
    field_mass,
    load_field_csv,
    normalize,
    quadratic_field,
    reaction_coverage_law,
    save_field_csv,
    sine_field,
    two_bump_field,
)


def test_sine_field_value_at_half():
    f = sine_field()  # ships with its analytic unit-mass constant baked in
    assert f.eval([0.5])[0] == pytest.approx(1.5619689393380463, rel=1e-12)


def test_quadratic_field_value_at_zero():
    f = quadratic_field()
    assert f.eval([0.0])[0] == pytest.approx(0.02912621359223301, rel=1e-12)


def test_two_bump_values():
    f = two_bump_field()
    assert f.eval([0.5, 0.5]) == pytest.approx(np.exp(-1) + 0.01, rel=1e-12)
    # second bump sits at (1/3, 1/3) where the first one has died off and the
    # difference clamps to the background
    assert f.eval([1 / 3, 1 / 3]) == pytest.approx(0.01, abs=1e-15)


def test_eval_outside_domain_raises():
    f = sine_field()
    with pytest.raises(DomainError):
        f.eval([1.5])


def test_floor_positivity_random_points():
    rng = np.random.default_rng(0)
    for f, dim in ((sine_field(), 1), (quadratic_field(), 1), (two_bump_field(), 2)):
        pts = rng.random((200_000, dim))
        vals = f.eval(pts)
        assert vals.min() >= f.floor > 0


def test_normalize_unit_mass_and_idempotence():
    f = normalize(quadratic_field())
    assert field_mass(f) == pytest.approx(1.0, abs=1e-10)
    again = normalize(f)
    xs = np.linspace(0, 1, 11)[:, None]
    assert np.allclose(again.eval(xs), f.eval(xs), rtol=1e-10)


def test_normalize_constant_field():
    dom = Domain.unit_interval()
    f = AnalyticField(dom, lambda p: np.full(p.shape[0], 5.0), lambda p: np.zeros_like(p), floor=5.0)
    g = normalize(f)
    assert g.eval(np.array([[0.3]]))[0] == pytest.approx(1.0, rel=1e-12)


def test_diffusion_law_values():
    dom = Domain.unit_interval()
    flat = AnalyticField(dom, lambda p: np.full(p.shape[0], 0.01), lambda p: np.zeros_like(p), floor=0.01)
    law = diffusion_coverage_law(flat, 1e-5)
    assert law.motion(np.array([[0.4]]))[0][0] == pytest.approx(1e-4, rel=1e-12)
    unit = AnalyticField(dom, lambda p: np.ones(p.shape[0]), lambda p: np.zeros_like(p), floor=1.0)
    law2 = diffusion_coverage_law(unit, 1e-5)
    D, a = law2.motion(np.array([[0.4]]))
    assert D[0] == pytest.approx(1e-5, rel=1e-12)
    assert a is None  # c2 = 0 means no drift term


def test_diffusion_law_invariance_identity():
    # D(x)^2 * F(x) = c1^2 exactly when c2 = 0
    f = sine_field()
    law = diffusion_coverage_law(f, 0.37)
    pts = np.linspace(0.01, 0.99, 57)[:, None]
    assert np.allclose(law.motion(pts)[0] ** 2 * f.eval(pts), 0.37**2, rtol=1e-12)


def test_reaction_law_values():
    f = sine_field()
    law = reaction_coverage_law(f, 0.1, 1.0)
    D, a = law.motion(np.array([[0.2]]))
    assert D[0] == pytest.approx(0.1)
    assert a is None
    assert law.H(np.array([[0.5]]))[0] == pytest.approx(1.5619689393380463, rel=1e-10)
    assert law.k == 1.0


def test_constant_law_rejects_nonpositive():
    with pytest.raises(ValueError):
        constant_diffusion_law(0.0)


def test_grid_field_interpolates_nodes_and_gradient_order():
    # grid-sampled gradient converges at second order to the analytic one
    truth = sine_field()

    def sampled(n):
        xs = np.linspace(0, 1, n)
        return GridField((xs,), truth.eval(xs[:, None]))

    probe = np.linspace(0.1, 0.9, 23)[:, None]
    errs = []
    for n in (201, 401):
        g = sampled(n)
        xs = np.linspace(0, 1, n)
        assert np.allclose(g.eval(xs[:, None]), truth.eval(xs[:, None]), rtol=1e-12)
        errs.append(np.abs(g.gradient(probe) - truth.gradient(probe)).max())
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_grid_field_rejects_nonpositive_samples():
    xs = np.linspace(0, 1, 5)
    vals = np.array([1.0, 0.5, 0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        GridField((xs,), vals)


def test_field_csv_roundtrip_1d(tmp_path):
    xs = np.linspace(0, 1, 17)
    f = GridField((xs,), np.cos(xs) + 1.5)
    path = tmp_path / "f.csv"
    save_field_csv(f, path)
    g = load_field_csv(path)
    assert np.array_equal(g.axes[0], f.axes[0])
    assert np.array_equal(g.values, f.values)


def test_field_csv_roundtrip_2d(tmp_path):
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(0, 1, 5)
    vals = 0.1 + np.add.outer(xs**2, ys)
    f = GridField((xs, ys), vals)
    path = tmp_path / "f2.csv"
    save_field_csv(f, path)
    g = load_field_csv(path)
    assert all(np.array_equal(a, b) for a, b in zip(g.axes, f.axes))
    assert np.array_equal(g.values, f.values)


def test_field_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,value\n0.0,1.0\n0.1,1.0\n0.35,1.0\n1.0,1.0\n")
    with pytest.raises(ValueError):
        load_field_csv(path)


def test_eval_gradient_matches_formula():
    f = quadratic_field()
    x = np.array([0.4])
    c2 = 1.0 / (1.0 / 3.0 + 0.01)
    assert f.gradient(x)[0] == pytest.approx(2 * 0.4 * c2, rel=1e-12)
