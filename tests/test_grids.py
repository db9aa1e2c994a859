"""Grids, quadrature calibration, and the discrete collision identities."""

import numpy as np
import pytest

from heavykin import ModelParams, ValidationError
from heavykin import model as m
from heavykin.grids import (
    DensityField,
    DiscreteModel,
    SpatialGrid,
    VelocityGrid,
    periodized_gaussian,
)


def test_spatial_grid_basics():
    g = SpatialGrid(nx=8, length=4.0)
    assert g.dx == 0.5
    assert np.allclose(g.centers, 0.25 + 0.5 * np.arange(8))
    with pytest.raises(ValidationError, match="nx"):
        SpatialGrid(nx=1, length=4.0)


def test_velocity_grid_has_zero_node_and_symmetry():
    g = VelocityGrid(nv=33, vscale=0.7)
    assert 0.0 in g.v
    assert np.allclose(g.v, -g.v[::-1])
    assert np.allclose(g.weights, g.weights[::-1])
    assert g.vmax == pytest.approx(0.7 * 32)
    assert np.max(np.abs(g.v)) == pytest.approx(g.vmax)


def test_velocity_grid_rejects_even_or_tiny():
    with pytest.raises(ValidationError, match="odd"):
        VelocityGrid(nv=32)
    with pytest.raises(ValidationError, match="odd"):
        VelocityGrid(nv=5)


def test_velocity_quadrature_converges_for_smooth_decay():
    # Midpoint in u is second order; errors shrink ~16x per 4x refinement.
    errs = []
    for nv in (65, 257):
        g = VelocityGrid(nv=nv, vscale=1.0)
        got = float(np.sum(g.weights * np.exp(-0.5 * g.v**2)))
        errs.append(abs(got - np.sqrt(2 * np.pi)))
    assert errs[0] < 1e-3
    assert errs[1] < 1e-4
    assert errs[1] < errs[0] / 10


def test_discrete_model_calibration(asym_params):
    dvm = DiscreteModel(asym_params, VelocityGrid(nv=257, vscale=0.4))
    w = dvm.vgrid.weights
    assert float(np.sum(w * dvm.f_eq)) == pytest.approx(1.0, abs=1e-14)
    assert float(np.sum(w * dvm.p_gain)) == pytest.approx(1.0, abs=1e-14)
    # Discrete beta-moment approaches the continuum constant as the grid refines.
    assert dvm.c_beta_disc == pytest.approx(asym_params.c_beta, rel=5e-3)
    fine = DiscreteModel(asym_params, VelocityGrid(nv=1025, vscale=0.12))
    coarse_err = abs(dvm.c_beta_disc - asym_params.c_beta)
    fine_err = abs(fine.c_beta_disc - asym_params.c_beta)
    assert fine_err < coarse_err


def test_discrete_equilibrium_annihilates_q(asym_params):
    dvm = DiscreteModel(asym_params, VelocityGrid(nv=129, vscale=0.5))
    f = np.tile(dvm.f_eq, (4, 1))
    x = np.array([0.0, 3.0, 10.0, 17.0])
    q = dvm.collision_operator(x, f)
    assert np.max(np.abs(q)) < 1e-15


def test_discrete_q_conserves_mass(asym_params, rng):
    dvm = DiscreteModel(asym_params, VelocityGrid(nv=65, vscale=0.5))
    f = rng.random((3, 65))
    q = dvm.collision_operator(np.array([1.0, 5.0, 9.0]), f)
    assert np.max(np.abs(dvm.density(q))) < 1e-13 * np.max(np.abs(q))


def test_tail_mass_loss_formula(asym_params):
    dvm = DiscreteModel(asym_params, VelocityGrid(nv=65, vscale=1.0))
    p = asym_params
    expected = 2 * p.kappa / p.alpha * dvm.vgrid.vmax ** (-p.alpha)
    assert dvm.tail_mass_loss == pytest.approx(expected, rel=1e-15)


def test_periodized_gaussian_profile():
    g = SpatialGrid(nx=256, length=20.0)
    rho = periodized_gaussian(g)
    assert float(np.sum(rho) * g.dx) == pytest.approx(1.0, abs=1e-14)
    assert np.all(rho > 0)
    # symmetric about L/2 (cell centers mirror pairwise)
    assert np.allclose(rho, rho[::-1], rtol=1e-12)


def test_density_field_norms():
    g = SpatialGrid(nx=4, length=2.0)
    f = DensityField(g, np.array([1.0, 3.0, 0.0, 0.0]), time=0.5)
    assert f.mass() == pytest.approx(2.0)
    assert f.l2_norm() == pytest.approx(np.sqrt(5.0))
    with pytest.raises(ValidationError, match="shape"):
        DensityField(g, np.ones(5))


@pytest.mark.parametrize("nv", [33, 129, 513])
def test_moments_of_a_row_do_not_depend_on_its_batch(asym_params, nv):
    # a stack of states has, row by row, the bits of each state's own
    # moments; a matrix-vector product would round some of them differently
    dvm = DiscreteModel(asym_params, VelocityGrid(nv=nv, vscale=1.0))
    rng = np.random.default_rng(5)
    rows = rng.random((3, 40, nv)) * np.exp(8.0 * rng.standard_normal((3, 40, nv)))
    for moment in (dvm.density, dvm.moment_beta):
        alone = np.array([[moment(f) for f in block] for block in rows])
        assert np.array_equal(moment(rows), alone)
        assert np.array_equal(moment(rows[0]), alone[0])
        assert isinstance(moment(rows[0, 0]), np.float64)
