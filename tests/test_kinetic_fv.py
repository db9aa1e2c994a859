"""Deterministic kinetic solver: collision step, transport step, full runs."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from heavykin import ModelParams, NumericError, ValidationError
from heavykin import kinetic_fv as kfv
from heavykin import model as m
from heavykin.grids import (DensityField, DiscreteModel, SpatialGrid,
                            VelocityGrid, periodized_gaussian)
from heavykin.kinetic_fv import (
    PhaseField,
    auto_vscale,
    collision_apply,
    run_kinetic_det,
    transport_apply,
)
from heavykin.nonlocal_op import assemble, solve_macro
from oracles import strang_unfused


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
# step set-up built once per step length: the kernels equal the one-shot
# formulas bit for bit
# ---------------------------------------------------------------------------


def _upwind_once(f, c):
    fp, fm = np.roll(f, -1, axis=0), np.roll(f, 1, axis=0)
    return np.where(c[None, :] >= 0.0, f - c[None, :] * (f - fm),
                    f - c[None, :] * (fp - f))


def _minmod_once(delta_up, delta):
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(delta != 0.0, delta_up / np.where(delta != 0.0, delta, 1.0), 0.0)
    return np.clip(r, 0.0, 1.0)


def _muscl_once(f, speeds, dt, dx):
    c = speeds * dt / dx
    fp = np.roll(f, -1, axis=0)
    d = fp - f
    dm, dp = np.roll(d, 1, axis=0), np.roll(d, -1, axis=0)
    cb, s = np.abs(c)[None, :], speeds[None, :]
    flux_pos = s * (f + 0.5 * (1.0 - cb) * _minmod_once(dm, d) * d)
    flux_neg = s * (fp - 0.5 * (1.0 - cb) * _minmod_once(dp, d) * d)
    flux = np.where(s >= 0.0, flux_pos, flux_neg)
    return f - (dt / dx) * (flux - np.roll(flux, 1, axis=0))


def _collision_once(f, fld, dt, eps):
    dvm, p = fld.dvm, fld.dvm.params
    lam = dt * m.nu0(p, fld.xgrid.centers) / eps**p.gamma
    b, w = dvm.bracket_beta, dvm.vgrid.weights
    denom = 1.0 + lam[:, None] * b[None, :]
    s1 = (f / denom) @ (w * b)
    s2 = ((w * b * dvm.p_gain)[None, :] / denom).sum(axis=1)
    mstar = s1 / (1.0 - lam * s2)
    return (f + (lam * mstar)[:, None] * dvm.p_gain[None, :]) / denom


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("courant", [3.4, -2.7])
@pytest.mark.parametrize("order", [1, 2])
def test_transport_beyond_cfl_shifts_whole_cells(asym_params, rng, courant,
                                                 order):
    # a step past the CFL limit is the exact periodic shift by each column's
    # whole cells, then the one-cell stencil at the fraction left over
    eps = 0.5
    fld = make_field(asym_params)
    f = rng.random(fld.values.shape)
    fld.values = f.copy()
    dx = fld.xgrid.dx
    speeds = eps ** (1.0 - asym_params.gamma) * (
        fld.dvm.vgrid.v - m.drift(asym_params, eps))
    # the fastest column of the sign of `courant` moves `courant` cells
    fastest = np.max(speeds) if courant > 0 else np.min(speeds)
    dt = courant * dx / fastest
    c = speeds * dt / dx
    whole = np.trunc(c)
    assert np.max(np.abs(c)) > 2.0 and np.any(whole > 0) and np.any(whole < 0)
    shifted = np.stack([np.roll(f[:, j], int(n)) for j, n in enumerate(whole)],
                       axis=1)
    frac = c - whole
    expected = (_upwind_once(shifted, frac) if order == 1
                else _muscl_once(shifted, frac * dx / dt, dt, dx))

    transport_apply(fld, dt, eps, scheme_order=order)
    assert np.max(np.abs(fld.values - expected)) <= 1e-14 * np.max(expected)
    assert np.allclose(fld.values.sum(axis=0), f.sum(axis=0),
                       rtol=1e-13, atol=0.0)
    assert np.min(fld.values) >= -1e-15


@pytest.mark.parametrize("core_asym", [0.5, 0.0])  # drift 0.12 and drift 0
@pytest.mark.parametrize("order", [1, 2])
def test_kernels_equal_one_shot_formulas_bitwise(core_asym, order):
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=core_asym,
                         nu0_delta=0.3)
    eps = 0.4
    fld = make_field(params, nx=32, nv=33, vscale=0.5)
    rng = np.random.default_rng(11)
    f = rng.random(fld.values.shape)
    f[4:9] = f[4]           # flat stretch: zero differences in every column
    f[20:23] = 0.0
    fld.values = f.copy()
    speeds = eps ** (1.0 - params.gamma) * (fld.dvm.vgrid.v - m.drift(params, eps))
    assert np.any(speeds < 0) and np.any(speeds > 0)
    assert np.any(speeds == 0) == (core_asym == 0.0)
    dt = 0.9 * fld.xgrid.dx / np.max(np.abs(speeds))
    # repeats reuse each plan; a new step length replaces it
    for h in (dt, dt, dt, 0.5 * dt, dt, dt):
        transport_apply(fld, h, eps, scheme_order=order)
        f = (_upwind_once(f, speeds * h / fld.xgrid.dx) if order == 1
             else _muscl_once(f, speeds, h, fld.xgrid.dx))
        assert _same_bits(fld.values, f)
        collision_apply(fld, 2.0 * h, eps)
        f = _collision_once(f, fld, 2.0 * h, eps)
        assert _same_bits(fld.values, f)


def test_step_setup_independent_of_step_count(asym_params, monkeypatch):
    # drift (transport speeds) and nu0 (collision rates) are step set-up: a
    # run four times as long, with the same snapshots, calls them no more
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("drift", "nu0", "collision_apply"):
        monkeypatch.setattr(kfv, name, counted(name, getattr(kfv, name)))

    def calls(t_final):
        counts.clear()
        small_run(asym_params, eps=0.3, t_final=t_final,
                  snapshot_times=[0.0, 0.5 * t_final, t_final])
        return counts.pop("collision_apply"), dict(counts)

    short_steps, short = calls(0.05)
    long_steps, long = calls(0.2)
    assert long_steps > 3 * short_steps
    assert long == short


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


@pytest.mark.parametrize("req", [[0.0, 0.1, 0.07, 0.2], [0.0, 0.1, 0.1, 0.2],
                                 [0.0, 0.2 * (1 + 1e-13)]])
def test_run_and_macro_reject_the_same_schedules(asym_params, req):
    # one schedule rule: an unsorted, repeated or overlong list is not
    # silently reordered by the kinetic run and refused by the macro solve
    with pytest.raises(ValidationError) as kinetic:
        small_run(asym_params, eps=0.4, t_final=0.2, snapshot_times=req)
    xg = SpatialGrid(nx=16, length=asym_params.domain_length)
    rho0 = DensityField(xg, periodized_gaussian(xg))
    with pytest.raises(ValidationError) as macro:
        solve_macro(assemble(asym_params, xg), rho0, 0.2, snapshot_times=req)
    assert str(kinetic.value) == str(macro.value)
    assert "snapshot times" in str(kinetic.value)


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_fails_loudly_on_nonfinite_gnorm(asym_params, monkeypatch):
    # a huge but finite phase value keeps rho finite and positive while the
    # 1/f_eq-weighted square of g overflows.  (An f_eq small enough to make
    # the weights themselves overflow is refused before stepping.)
    clean = kfv.collision_apply

    def poisoned(fld, dt_coll, eps=1.0):
        fld = clean(fld, dt_coll, eps)
        if fld.time > 0.1:
            fld.values[0, 0] = 1e200
        return fld

    monkeypatch.setattr(kfv, "collision_apply", poisoned)
    with pytest.raises(NumericError, match=r"non-finite deviation norm at "
                                           r"t=0\.2 after \d+ steps"):
        small_run(asym_params, eps=0.5, t_final=0.3,
                  snapshot_times=[0.0, 0.1, 0.2, 0.3])


def test_run_counts_its_steps(asym_params, monkeypatch):
    # one Strang step is one collision; snapshots land by shortened steps
    calls = []
    real = kfv.collision_apply

    def counted(fld, dt, eps):
        calls.append(dt)
        return real(fld, dt, eps)

    monkeypatch.setattr(kfv, "collision_apply", counted)
    run = small_run(asym_params, eps=0.4, t_final=0.2,
                    snapshot_times=[0.0, 0.07, 0.2])
    expected = sum(math.ceil(span / run.dt_max - 1e-12)
                   for span in np.diff(run.times))
    assert run.steps == len(calls) == expected > 0


def test_run_fuses_adjacent_half_transports(asym_params, monkeypatch):
    # each interval of n steps is T(h/2) [C(h) T(h)]^(n-1) C(h) T(h/2):
    # n + 1 transports, alternating with its n collisions
    calls = []
    for name in ("transport_apply", "collision_apply"):
        real = getattr(kfv, name)
        monkeypatch.setattr(kfv, name, lambda fld, dt, *args, _real=real,
                            _kind=name[0]: calls.append((_kind, dt))
                            or _real(fld, dt, *args))
    run = small_run(asym_params, eps=0.4, t_final=0.2,
                    snapshot_times=[0.0, 0.07, 0.2])
    for span in np.diff(run.times):
        n = math.ceil(span / run.dt_max - 1e-12)
        h = span / n
        interval, calls[:2 * n + 1] = calls[:2 * n + 1], []
        assert n >= 2
        assert interval == ([("t", 0.5 * h)] + [("c", h), ("t", h)] * (n - 1)
                            + [("c", h), ("t", 0.5 * h)])
    assert calls == []


def test_uniform_schedule_builds_two_transport_plans(asym_params, monkeypatch):
    # the h/2 and h plans are held side by side, and the spans of a
    # linspace schedule, equal up to round-off, share one h: the run builds
    # each plan once however many intervals it has
    builds = []
    real = kfv._transport_plan
    monkeypatch.setattr(kfv, "_transport_plan",
                        lambda *args: builds.append(args[1]) or real(*args))
    run = small_run(asym_params, eps=0.4, t_final=0.5,
                    snapshot_times=np.linspace(0.0, 0.5, 6))
    assert run.steps > 2 * (run.times.size - 1)
    assert len(builds) == 2 and builds[0] == pytest.approx(0.5 * builds[1])


@pytest.mark.parametrize("order", [1, 2])
def test_half_and_full_step_plans_share_their_arrays(asym_params, order):
    # the h plan moves the fast columns by whole cells, the h/2 plan does
    # not; they share the work arrays and the upwind gather indices
    fld = make_field(asym_params)
    smax = np.max(np.abs(0.5 ** (1.0 - asym_params.gamma)
                         * (fld.dvm.vgrid.v - m.drift(asym_params, 0.5))))
    h = 1.8 * fld.xgrid.dx / smax
    for dt in (0.5 * h, h, h, 0.5 * h):
        transport_apply(fld, dt, eps=0.5, scheme_order=order)
    (_, half), (_, full) = fld._plans["transport"]
    assert half.shift is None and full.shift is not None
    assert half.scratch is full.scratch
    assert half.upwind is full.upwind and half.upwind_f is full.upwind_f


@pytest.mark.parametrize("order", [1, 2])
def test_fused_long_steps_keep_mass_and_positivity(monkeypatch, order):
    # collision-bound steps 40x the usual bound: each full transport moves
    # the tail columns by hundreds of cells
    monkeypatch.setattr(kfv, "_COLLISION_NUMBER", 1.0)
    params = ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=0.5,
                         nu0_delta=0.3)
    run = small_run(params, eps=0.2, nx=48, nv=49, t_final=0.5,
                    scheme_order=order, store_phase=True)
    cfl_dt = 2.0 * 0.9 * run.xgrid.dx / np.max(np.abs(
        0.2 ** (1.0 - params.gamma) * (run.dvm.vgrid.v - m.drift(params, 0.2))))
    assert run.step_bound == "collision" and run.dt_max > 100.0 * cfl_dt
    assert np.max(np.abs(run.mass - run.mass[0])) <= 1e-14 * run.mass[0]
    assert np.min(run.rho) >= 0.0
    assert min(ph.min() for ph in run.phase) >= 0.0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("params", [
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5),   # CFL-bound
    ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=0.5,
                nu0_delta=0.3),                                   # collision-bound
])
def test_fused_run_agrees_with_unfused_strang(params, order):
    # T(h/2) T(h/2) and T(h) differ only in the stencil's numerical
    # diffusion at the fractional Courant numbers; at 48x49 the densities
    # agree to 0.5 % in relative L2 at every snapshot (measured: <= 0.085 %)
    run = small_run(params, eps=0.2, nx=48, nv=49, t_final=0.5,
                    scheme_order=order,
                    snapshot_times=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    fld = PhaseField.from_density(run.xgrid, run.dvm,
                                  periodized_gaussian(run.xgrid))
    unfused = strang_unfused(fld, 0.2, run.times, run.dt_max, order)
    assert unfused.shape == run.rho.shape
    diff = np.linalg.norm(run.rho - unfused, axis=1)
    assert np.all(diff <= 5e-3 * np.linalg.norm(unfused, axis=1))


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


def test_run_refuses_endless_cfl_run():
    # the tail-mass vmax for alpha -> 0 is ~1e58: ~1e55 CFL steps; the run
    # must fail at once instead of stepping
    params = ModelParams(alpha=0.05, beta=0.0, kappa=0.02)
    with pytest.raises(NumericError, match="1e\\+07 steps"):
        small_run(params, eps=0.4, nx=8, nv=9)


def _degenerate_run():
    params = ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=0.5,
                         nu0_delta=0.3)
    return small_run(params, eps=0.2, nx=48, nv=49, t_final=0.5)


def test_collision_bound_step_self_convergence(monkeypatch):
    # the tail columns make the CFL step 11x shorter than the collision
    # bound here; halving the bound must converge to the CFL-bound run
    monkeypatch.setattr(kfv, "_COLLISION_NUMBER", 0.0)
    reference = _degenerate_run()
    assert reference.step_bound == "cfl"
    dx = reference.xgrid.dx
    errors = []
    for number in (1 / 40, 1 / 80, 1 / 160):
        monkeypatch.setattr(kfv, "_COLLISION_NUMBER", number)
        run = _degenerate_run()
        assert run.step_bound == "collision"
        assert run.dt_max == pytest.approx(
            0.9 * number * 0.2 ** run.params.gamma / run.params.nu2, rel=1e-15)
        assert run.steps < reference.steps
        errors.append(math.sqrt(dx * np.sum((run.rho[-1]
                                             - reference.rho[-1]) ** 2)))
    assert errors[0] < 1e-3
    assert errors[0] >= 1.8 * errors[1] and errors[1] >= 1.8 * errors[2]


def test_cfl_bound_run_ignores_collision_bound(monkeypatch):
    # where the CFL step is the longer one it is the step, bit for bit
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5)
    eps, cfl = 0.3, 0.7
    run = small_run(params, eps=eps, nx=32, nv=33, t_final=0.1, cfl=cfl)
    smax = np.max(np.abs(eps ** (1.0 - params.gamma)
                         * (run.dvm.vgrid.v - m.drift(params, eps))))
    assert run.step_bound == "cfl"
    assert run.dt_max == 2.0 * cfl * run.xgrid.dx / smax
    assert run.dt_max > (cfl * kfv._COLLISION_NUMBER * eps ** params.gamma
                         / params.nu2)
    monkeypatch.setattr(kfv, "_COLLISION_NUMBER", 0.0)
    bare = small_run(params, eps=eps, nx=32, nv=33, t_final=0.1, cfl=cfl)
    assert bare.dt_max == run.dt_max and bare.steps == run.steps
    assert _same_bits(bare.rho, run.rho)


def test_auto_vscale_overflow_is_typed():
    with pytest.raises(NumericError, match="overflows"):
        auto_vscale(ModelParams(alpha=1e-3, beta=0.0, kappa=4e-4), 9, 0.4)
    with pytest.raises(NumericError, match="overflows"):
        auto_vscale(ModelParams(alpha=1.0, beta=0.9999, kappa=0.4), 9, 0.05)


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
