"""Deterministic kinetic solver: collision step, transport step, full runs."""

import numpy as np
import pytest
from scipy.linalg import expm

from heavykin import ModelParams, NumericError
from heavykin import kinetic_fv as kfv
from heavykin import model as m
from heavykin.grids import DiscreteModel, SpatialGrid, VelocityGrid, periodized_gaussian
from heavykin.kinetic_fv import (
    PhaseField,
    auto_vscale,
    collision_apply,
    run_kinetic_det,
    transport_apply,
)


def make_field(params, nx=32, nv=33, vscale=1.0, rho=None):
    xg = SpatialGrid(nx=nx, length=params.domain_length)
    dvm = DiscreteModel(params, VelocityGrid(nv=nv, vscale=vscale))
    if rho is None:
        rho = periodized_gaussian(xg)
    return PhaseField.from_density(xg, dvm, rho)


# ---------------------------------------------------------------------------
# collision step
# ---------------------------------------------------------------------------


def test_collision_fixes_equilibrium(asym_params):
    fld = make_field(asym_params, rho=np.ones(32) / asym_params.domain_length)
    before = fld.values.copy()
    collision_apply(fld, dt_coll=0.37, eps=0.5)
    assert np.max(np.abs(fld.values - before)) < 1e-14


def test_collision_preserves_column_mass(asym_params, rng):
    fld = make_field(asym_params)
    fld.values = rng.random(fld.values.shape)
    w = fld.dvm.vgrid.weights
    before = fld.values @ w
    collision_apply(fld, dt_coll=2.3, eps=0.3)
    after = fld.values @ w
    assert np.max(np.abs(after - before)) < 1e-12 * np.max(before)


def test_collision_keeps_positivity_under_stiff_rates(asym_params, rng):
    fld = make_field(asym_params)
    fld.values = rng.random(fld.values.shape)
    collision_apply(fld, dt_coll=1.0, eps=0.02)  # rate ~ nu/eps^gamma huge
    assert np.min(fld.values) >= 0.0


def test_collision_matches_matrix_exponential(asym_params):
    # Toy column: 9-node velocity grid, fixed x, many small implicit steps vs expm.
    params = asym_params
    vg = VelocityGrid(nv=9, vscale=1.0)
    dvm = DiscreteModel(params, vg)
    xg = SpatialGrid(nx=2, length=params.domain_length)
    x0 = float(xg.centers[0])
    nu_x = m.nu0(params, x0)
    w, b, p = vg.weights, dvm.bracket_beta, dvm.p_gain
    gen = nu_x * (np.outer(p, w * b) - np.diag(b))
    rng = np.random.default_rng(7)
    f0 = rng.random(9) + 0.1
    t, nsteps = 0.2, 400
    exact = expm(t * gen) @ f0

    fld = PhaseField(xg, dvm, np.tile(f0, (2, 1)).astype(float))
    for _ in range(nsteps):
        collision_apply(fld, t / nsteps, eps=1.0)
    # first-order accurate in dt; 400 steps puts the defect well under 1e-3
    assert np.max(np.abs(fld.values[0] - exact)) < 1e-3 * np.max(np.abs(exact))


def test_collision_relaxes_gnorm_monotonically(asym_params, rng):
    fld = make_field(asym_params)
    fld.values = rng.random(fld.values.shape) + 0.05
    norms = [fld.gnorm2()]
    for _ in range(25):
        collision_apply(fld, dt_coll=0.05, eps=0.6)
        norms.append(fld.gnorm2())
    norms = np.array(norms)
    assert np.all(np.diff(norms) <= 1e-12)
    assert norms[-1] < 1e-3 * norms[0]


# ---------------------------------------------------------------------------
# transport step
# ---------------------------------------------------------------------------


def test_transport_zero_speed_column_unchanged():
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2)  # symmetric: drift = 0
    fld = make_field(params)
    rng = np.random.default_rng(3)
    fld.values = rng.random(fld.values.shape)
    j0 = np.argmin(np.abs(fld.dvm.vgrid.v))
    assert fld.dvm.vgrid.v[j0] == 0.0
    before = fld.values[:, j0].copy()
    for order in (1, 2):
        transport_apply(fld, dt=1e-3, eps=0.5, scheme_order=order)
        assert np.array_equal(fld.values[:, j0], before)


@pytest.mark.parametrize("order", [1, 2])
def test_transport_conserves_column_mass(asym_params, rng, order):
    fld = make_field(asym_params)
    fld.values = rng.random(fld.values.shape)
    before = fld.values.sum(axis=0)
    speeds = np.abs(fld.dvm.vgrid.v - m.drift(asym_params, 0.5)) * 0.5 ** (
        1 - asym_params.gamma
    )
    dt = 0.9 * fld.xgrid.dx / speeds.max()
    transport_apply(fld, dt, eps=0.5, scheme_order=order)
    assert np.allclose(fld.values.sum(axis=0), before, rtol=1e-13, atol=1e-13)


def test_transport_cfl_violation_names_admissible_dt(asym_params):
    fld = make_field(asym_params)
    with pytest.raises(NumericError, match="admissible"):
        transport_apply(fld, dt=10.0, eps=0.5)


def test_muscl_full_period_translation():
    # One velocity column advected around the torus returns near its start.
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2)
    xg = SpatialGrid(nx=256, length=params.domain_length)
    dvm = DiscreteModel(params, VelocityGrid(nv=33, vscale=1.0))
    fld = PhaseField(xg, dvm, np.zeros((256, 33)))
    jcol = 32  # the fastest positive column, so its period sets the global CFL
    profile = periodized_gaussian(xg, width=1.5)
    fld.values[:, jcol] = profile

    eps = 0.7
    speed = eps ** (1 - params.gamma) * dvm.vgrid.v[jcol]
    period = params.domain_length / abs(speed)
    nsteps = 300
    dt = period / nsteps
    assert dt * abs(speed) / xg.dx <= 1.0
    for _ in range(nsteps):
        transport_apply(fld, dt, eps, scheme_order=2)
    l1_err = np.sum(np.abs(fld.values[:, jcol] - profile)) * xg.dx
    l1_mass = np.sum(np.abs(profile)) * xg.dx
    assert l1_err < 0.05 * l1_mass


def test_upwind_positivity(asym_params, rng):
    fld = make_field(asym_params)
    fld.values = rng.random(fld.values.shape)
    speeds = np.abs(fld.dvm.vgrid.v - m.drift(asym_params, 0.4)) * 0.4 ** (
        1 - asym_params.gamma
    )
    dt = 0.95 * fld.xgrid.dx / speeds.max()
    for order in (1, 2):
        for _ in range(5):
            transport_apply(fld, dt, eps=0.4, scheme_order=order)
        assert np.min(fld.values) >= -1e-15


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def small_run(params, eps, **kw):
    nv = kw.pop("nv", 65)
    xg = SpatialGrid(nx=kw.pop("nx", 64), length=params.domain_length)
    vg = VelocityGrid(nv=nv, vscale=auto_vscale(params, nv, eps))
    defaults = dict(t_final=0.2, scheme_order=2)
    defaults.update(kw)
    return run_kinetic_det(params, eps, xgrid=xg, vgrid=vg, **defaults)


def test_run_initial_g_norm_vanishes(asym_params):
    run = small_run(asym_params, eps=0.4, t_final=0.05)
    assert run.gnorm2[0] < 1e-28  # round-off of the exact zero
    assert run.times[0] == 0.0


def test_run_mass_conservation(asym_params):
    run = small_run(asym_params, eps=0.3, t_final=0.5)
    drift_rate = np.abs(run.mass - run.mass[0]) / np.maximum(run.times, 1e-30)
    assert np.all(drift_rate[1:] < 1e-10)


def test_run_snapshot_times_exact(asym_params):
    req = [0.0, 0.07, 0.1, 0.2]
    run = small_run(asym_params, eps=0.4, t_final=0.2, snapshot_times=req)
    assert np.array_equal(run.times, np.array(req))


def test_run_positivity_and_shapes(asym_params):
    run = small_run(asym_params, eps=0.4, store_phase=True)
    assert run.rho.shape == (run.times.size, 64)
    assert all(ph.shape == (64, 65) for ph in run.phase)
    assert min(ph.min() for ph in run.phase) >= 0.0
    g0 = run.g_snapshot(0)
    assert np.max(np.abs(g0)) < 1e-15


def test_run_fails_loudly_on_nan(asym_params, monkeypatch):
    # poison the phase field once the t=0.1 snapshot is recorded: the next
    # snapshot, at t=0.2, must raise instead of recording NaN
    clean = kfv.collision_apply

    def poisoned(fld, dt_coll, eps=1.0):
        fld = clean(fld, dt_coll, eps)
        if fld.time > 0.1:
            fld.values[0, 0] = np.nan
        return fld

    monkeypatch.setattr(kfv, "collision_apply", poisoned)
    with pytest.raises(NumericError, match=r"non-finite.*t=0\.2 after \d+ steps"):
        small_run(asym_params, eps=0.5, t_final=0.3,
                  snapshot_times=[0.0, 0.1, 0.2, 0.3])


def test_run_apriori_bound_small_grid(asym_params):
    # Desk-scale version of the g-norm a-priori inequality.
    run = small_run(asym_params, eps=0.4, t_final=0.3)
    bound = (
        m.coercivity_constant(asym_params)
        * run.f0_norm2
        * 0.4**asym_params.gamma
        * 1.05
    )
    assert np.all(run.gnorm2 <= bound)


def test_run_warns_on_small_velocity_grid(asym_params):
    xg = SpatialGrid(nx=32, length=asym_params.domain_length)
    vg = VelocityGrid(nv=17, vscale=0.05)  # vmax = 0.8, absurdly small
    with pytest.warns(UserWarning, match="tail-mass"):
        run_kinetic_det(asym_params, 0.5, xgrid=xg, vgrid=vg, t_final=0.01)


def test_grid_self_convergence():
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5)
    runs = {}
    for nx, nv in ((64, 65), (128, 129), (256, 257)):
        xg = SpatialGrid(nx=nx, length=params.domain_length)
        vg = VelocityGrid(nv=nv, vscale=auto_vscale(params, nv, 0.3))
        runs[nx] = run_kinetic_det(
            params, 0.3, xgrid=xg, vgrid=vg, t_final=0.15, scheme_order=2
        )

    def rho_end(nx):
        return runs[nx].rho[-1]

    coarse = np.linalg.norm(rho_end(64) - rho_end(128)[::2])
    fine = np.linalg.norm(rho_end(128) - rho_end(256)[::2]) * np.sqrt(2)
    assert fine < coarse
