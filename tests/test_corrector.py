"""Corrector: probe catalogue, flight averages, gaps, remainder terms."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from heavykin import ModelParams, NumericError, ValidationError
from heavykin import corrector as co
from heavykin.config import parse_config
from heavykin.grids import DiscreteModel, SpatialGrid, VelocityGrid, periodized_gaussian
from heavykin.harness import build_grids, run_sweep
from heavykin.kinetic_fv import KineticRun, auto_vscale, run_kinetic_det
from heavykin.model import drift, equilibrium_pdf, nu0, vel_bracket

from oracles import (averages_one_shot, chi_dt, gaussian_flight_average,
                     hazard_root_by_bisection, plane_wave)


FLAT = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5)
SUBCRIT = ModelParams(alpha=0.5, beta=0.0, kappa=0.2)


# ---------------------------------------------------------------------------
# probe functions
# ---------------------------------------------------------------------------


def test_probe_catalogue_selfchecks():
    for phi in (co.constant_probe(2.0),
                co.gaussian_packet(center=10.0, width=1.3, t_span=(0.0, 0.5)),
                co.static_gaussian(center=4.0, width=0.8),
                plane_wave(0.9),
                co.modulated_packet(center=10.0, width=1.5, wavenumber=2.0)):
        assert isinstance(phi, co.ProbeFunction)


def test_probe_selfcheck_rejects_wrong_derivative():
    good = co.gaussian_packet(center=10.0)
    t, s = good.time, good.space
    for name, time, space in (
            ("dt", t._replace(deriv=lambda y: 1.1 * t.deriv(y)), s),
            ("dx", t, s._replace(d1=lambda x: 1.1 * s.d1(x))),
            ("dxx", t, s._replace(d2=lambda x: 1.1 * s.d2(x)))):
        with pytest.raises(ValidationError, match=f"self-check failed: {name} "):
            co.ProbeFunction(time, space, t_support=good.t_support,
                             x_center=good.x_center,
                             x_halfwidth=good.x_halfwidth)


def test_probe_validation():
    with pytest.raises(ValidationError, match="t_support"):
        co.constant_probe(1.0, t_span=(1.0, 1.0))
    with pytest.raises(ValidationError, match="width"):
        co.gaussian_packet(width=0.0)
    with pytest.raises(ValidationError, match="width"):
        co.static_gaussian(width=0.0)
    with pytest.raises(ValidationError, match="width"):
        co.modulated_packet(width=-1.0)
    with pytest.raises(ValidationError, match="xi"):
        plane_wave(0.0)


def test_gaussian_space_in_place_equals_one_shot_formulas_bitwise(rng):
    # value and d1 evaluate arrays in place; the results must be the
    # one-shot expressions bit for bit, down to the underflowing far tail
    # and the sign of d1's zero at the centre
    center, width, amplitude = 10.0, 1.3, 0.7
    space = co._gaussian_space(center, width, amplitude)
    grid = rng.uniform(-5.0, 25.0, (6, 5, 34))
    grid[0, 0, :4] = center + width * np.array([37.5, -38.6, 40.0, 0.0])
    for x in (grid, 11.7, np.float64(-3.2), center):
        before = np.copy(x)
        u = (np.asarray(x, dtype=float) - center) / width
        value = amplitude * np.exp(-0.5 * u * u)
        d1 = value * (-(np.asarray(x, dtype=float) - center) / width**2)
        for got, want in ((space.value(x), value), (space.d1(x), d1)):
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.array_equal(x, before)      # the input is not written


# ---------------------------------------------------------------------------
# chi evaluation
# ---------------------------------------------------------------------------


def test_constant_probe_identity(asym_params, rng):
    phi = co.constant_probe(3.7)
    x = rng.uniform(0, asym_params.domain_length, 200)
    v = rng.standard_cauchy(200)
    for eps in (1.0, 0.3, 0.04):
        chi = co.chi_eval(asym_params, 0.4, x, v, eps, phi)
        assert np.max(np.abs(chi - 3.7)) < 1e-12


def test_hazard_weight_unit(asym_params):
    x, v = np.meshgrid(np.linspace(0, 20, 7), np.array([-40.0, -1.0, 0.0, 0.5, 13.0]))
    for eps in (1.0, 0.2, 0.01):
        w = co.hazard_weight(asym_params, x, v, eps)
        assert np.max(np.abs(w - 1.0)) < 1e-12


def test_hazard_inversion_bracket_and_residual(asym_params, rng):
    u = rng.uniform(0.01, 25.0, 300)
    x = rng.uniform(0, 20, 300)
    vt = rng.normal(0.0, 5.0, 300)
    vt[::7] = 0.0
    z = co._invert_hazard(asym_params, x, vt, u)
    assert np.all(z >= u / asym_params.nu2 - 1e-15)
    assert np.all(z <= u / asym_params.nu1 + 1e-15)
    resid = co.nu0_integral(asym_params, x, vt, z) - u
    assert np.max(np.abs(resid) / (1.0 + u)) < 1e-12


@given(delta=st.floats(0.0, 1.0, exclude_max=True),
       x=st.floats(0.0, 20.0, exclude_max=True),
       vt=st.one_of(st.sampled_from([0.0, 1e-9, -1e-9]),
                    st.floats(-60.0, 60.0)),
       nodes=st.sampled_from([64, 128]))
@settings(max_examples=300, deadline=None)
def test_hazard_inversion_converges_over_admissible_delta(delta, x, vt, nodes):
    # every delta <= 0.99 must invert on the Laguerre nodes; closer to 1 the
    # inversion may refuse, but it never returns an unconverged z
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, nu0_delta=delta)
    u, _ = co._laggauss(nodes)
    try:
        z = co._invert_hazard(params, x, vt, u)
    except NumericError:
        assert delta > 0.99
        return
    assert np.all((u / params.nu2 <= z) & (z <= u / params.nu1))
    resid = co.nu0_integral(params, x, vt, z) - u
    assert np.all(np.abs(resid) <= 1e-13 * (1.0 + u))


def test_hazard_inversion_error_says_where(asym_params, monkeypatch):
    # a hazard that never settles beyond x = 15 exhausts the rounds there
    hazard = co.nu0_integral

    def unsettled(params, x, vt, z):
        return np.where(x > 15.0, np.nan, hazard(params, x, vt, z))

    monkeypatch.setattr(co, "nu0_integral", unsettled)
    x = np.linspace(0.0, 20.0, 40, endpoint=False)
    nodes = co._laggauss(64)[0].size
    with pytest.raises(NumericError, match=(
            rf"delta=0\.3: {9 * 3 * nodes} of {40 * 3 * nodes} elements "
            r"unconverged after 100 rounds; worst at x=15\.5, vt=.*, u=.*, "
            r"residual nan \(eps=0\.2\)")):
        co.chi_eval(asym_params, 0.0, x[:, None], np.array([-2.0, 0.0, 3.0]),
                    0.2, co.gaussian_packet())


_HAZARD_VT = np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1.0, -1.0, 1e6, -1e6])


@pytest.mark.parametrize("nodes", [64, 128])
@pytest.mark.parametrize("delta", [0.3, 0.9, 0.99])
def test_hazard_inversion_matches_bisection_oracle(delta, nodes):
    # x over five periods exercises the table's period reduction; the
    # residual test accepts |U(z) - u| <= 1e-13 (1 + u) and U' >= nu1, so z
    # is compared relative to the bracket scale (1 + u)/nu1
    params = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, nu0_delta=delta)
    L = params.domain_length
    x, vt, u = np.broadcast_arrays(np.linspace(-2.0 * L, 3.0 * L, 201)[:, None, None],
                                   _HAZARD_VT[None, :, None],
                                   co._laggauss(nodes)[0])
    z = co._invert_hazard(params, x, vt, u)
    ref = hazard_root_by_bisection(params, x, vt, u)
    assert np.max(np.abs(z - ref) * params.nu1 / (1.0 + u)) <= 1e-12
    # where the table is well conditioned (vt = 0 or |vt| >= 1) its start
    # already lies in [u/nu2, u/nu1]; at tiny |vt| the bracket moves it there
    calm = (vt == 0.0) | (np.abs(vt) >= 1.0)
    x, vt, u = x[calm], vt[calm], u[calm]
    start = co._table_start(params, x, vt, u, co._primitive(params.nu0_mean, delta, L, x))
    assert np.all((u / params.nu2 <= start) & (start <= u / params.nu1))


@pytest.mark.parametrize("x, vt", [(1e6, 0.7), (-1e6, -2.0), (3.0, 1e12),
                                   (11.0, -1e12), (1e6, 1e12), (3.0, 5e-324),
                                   (11.0, -5e-324)])
def test_hazard_inversion_far_outside_the_table_period(asym_params, x, vt):
    # huge |Phi(x) + vt u| reduces into the table with few digits left, and
    # a subnormal vt overflows (y - x)/vt: the start is poor, but the loop
    # still converges without a warning
    u, _ = co._laggauss(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = co._invert_hazard(asym_params, x, vt, u)
    resid = co.nu0_integral(asym_params, x, vt, z) - u
    assert np.all(np.abs(resid) <= 1e-13 * (1.0 + u))


def test_newton_block_repairs_non_finite_start(asym_params):
    # a poisoned Phi(x) makes the table read an in-range interval and give a
    # NaN or huge start; the bracket takes it, and the residual still decides
    u, _ = co._laggauss(64)
    for bad in (np.nan, np.inf, -np.inf, 1e300, -1e300):
        x = np.full(u.size, 7.3)
        vt = np.full(u.size, 0.8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, left = co._newton_block(asym_params, x, vt, u, np.full(u.size, bad))
        assert left is None
        resid = co.nu0_integral(asym_params, x, vt, z) - u
        assert np.all(np.abs(resid) <= 1e-13 * (1.0 + u))


def test_newton_block_compaction_keeps_converged_and_returns_stuck(asym_params,
                                                                  monkeypatch):
    # elements leave the block as they converge; those that never settle
    # (x > 15) come back after 100 rounds with their own x, vt and u, and
    # the rest carry the z of an undisturbed inversion, bit for bit
    u, _ = co._laggauss(64)
    x = np.repeat([3.0, 16.0, 7.0], u.size)
    vt = np.tile(np.linspace(-2.0, 2.0, u.size), 3)
    uu = np.tile(u, 3)
    phi_x = co._primitive(asym_params.nu0_mean, asym_params.nu0_delta,
                          asym_params.domain_length, x)
    calm, left = co._newton_block(asym_params, x, vt, uu, phi_x)
    assert left is None
    hazard = co.nu0_integral
    monkeypatch.setattr(co, "nu0_integral", lambda params, x, vt, z: np.where(
        x > 15.0, np.nan, hazard(params, x, vt, z)))
    z, left = co._newton_block(asym_params, x, vt, uu, phi_x)
    settled = x <= 15.0
    assert np.array_equal(z[settled], calm[settled])
    sx, svt, su, resid = left
    assert np.array_equal(sx, x[~settled]) and np.array_equal(svt, vt[~settled])
    assert np.array_equal(su, uu[~settled]) and np.all(np.isnan(resid))


def test_newton_step_onto_the_bracket_end_is_taken(asym_params, monkeypatch):
    # at x = -30 the rate is at its minimum nu1, so at tiny vt the root
    # u/nu1 is the bracket's upper end: the Newton step lands on it and must
    # be taken, not bisected towards for ~36 rounds
    x, vt, u = np.array([-30.0]), np.array([1e-12]), np.array([0.118])
    assert nu0(asym_params, x)[0] == asym_params.nu1
    evaluated = []
    hazard = co.nu0_integral
    monkeypatch.setattr(co, "nu0_integral", lambda params, x, vt, z: (
        evaluated.append(1) or hazard(params, x, vt, z)))
    z = co._invert_hazard(asym_params, x, vt, u)
    assert len(evaluated) <= 3
    resid = hazard(asym_params, x, vt, z) - u
    assert np.all(np.abs(resid) <= 1e-13 * (1.0 + u))


def test_hazard_inversion_costs_about_one_residual_per_element(monkeypatch):
    # the benchmark's degenerate sweep at its smallest rung: the tabulated
    # start leaves ~1.1 hazard evaluations per element (5 from an
    # average-rate start)
    cfg = parse_config("model.alpha = 0.8\nmodel.beta = 0.25\n"
                       "model.core_asym = 0.5\nmodel.nu0_delta = 0.3\n"
                       "discretization.nx = 48\ndiscretization.nv = 49\n"
                       "experiment.eps_list = 0.4, 0.2, 0.1, 0.05\n")
    xgrid, vgrid = build_grids(cfg)
    evaluated = []
    hazard = co.nu0_integral
    monkeypatch.setattr(co, "nu0_integral", lambda params, x, vt, z: (
        evaluated.append(np.broadcast(x, vt, z).size) or hazard(params, x, vt, z)))
    fl = co._flight(cfg.model, xgrid.centers[:, None], vgrid.v[None, :], 0.05)
    assert sum(evaluated) / fl.z.size <= 1.5


def test_laguerre_rule_drops_weightless_nodes():
    for n, kept in ((48, 29), (64, 34), (128, 48)):
        u, w = co._laggauss(n)
        full_u, full_w = np.polynomial.laguerre.laggauss(n)
        assert u.size == w.size == kept
        assert np.array_equal(u, full_u[:kept]) and np.array_equal(w, full_w[:kept])
        assert np.sum(full_w[kept:] * (1.0 + full_u[kept:])) <= 2.0**-60
        assert np.sum(full_w[kept - 1:] * (1.0 + full_u[kept - 1:])) > 2.0**-60


def test_laguerre_rule_is_read_only():
    # one cached rule serves every flight and every sweep thread
    u, w = co._laggauss(64)
    for a in (u, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert co._laggauss(64)[1][0] == np.polynomial.laguerre.laggauss(64)[1][0]


def test_chi_matches_gaussian_flight_closed_form():
    # flat rate: the flight average of a Gaussian is an exponentially
    # modified Gaussian; mean flights up to half the width keep the
    # truncated 64-node rule at round-off
    phi = co.static_gaussian(center=10.0, width=1.0)
    x = np.linspace(5.0, 15.0, 41)[:, None]
    for params in (FLAT, ModelParams(alpha=1.5, beta=0.25, kappa=0.2)):
        v = np.array([-10.0, -1.0, -0.3, 0.0, 1e-9, 0.6, 1.0, 4.0, 10.0])
        vt = co._flight_shift(params, v, 0.05)
        assert np.max(np.abs(vt)) <= 0.5 * params.nu0_mean
        got = co.chi_eval(params, 0.0, x, v, 0.05, phi)
        want = gaussian_flight_average(params.nu0_mean, x, vt, 10.0, 1.0)
        assert np.max(np.abs(got - want)) < 1e-13


def test_drift_sweep_identical_with_full_laguerre_rule(monkeypatch):
    # the dropped nodes change no sum: the drift sweep's report is
    # byte-identical to one computed with the full 64-node rule
    cfg = parse_config("model.alpha = 1.5\nmodel.core_asym = 0.5\n"
                       "discretization.nx = 24\ndiscretization.nv = 25\n"
                       "discretization.scheme_order = 2\n"
                       "experiment.eps_list = 0.4, 0.2, 0.1, 0.05\n"
                       "experiment.t_final = 0.5\n")
    truncated = run_sweep(cfg).to_json(drop_wall_times=True)
    monkeypatch.setattr(co, "_laggauss", np.polynomial.laguerre.laggauss)
    assert co._flight(FLAT, 0.0, 1.0, 0.5).w.size == 64
    assert run_sweep(cfg).to_json(drop_wall_times=True) == truncated


def _cosine_oracle(params, xi, x, v, eps):
    nub = params.nu0_mean
    b = eps * xi * v * vel_bracket(v) ** (-params.beta)
    return nub * (nub * np.cos(xi * x) - b * np.sin(xi * x)) / (nub**2 + b**2)


def test_chi_cosine_closed_form_flat_beta():
    # the Laguerre rule is spectrally accurate while the flight-phase
    # eps*xi*v stays below ~3; all combinations here keep it under 2.5
    phi = plane_wave(0.9)
    x = np.array([0.0, 2.3, 11.1])
    for eps, vs in ((0.5, (-5.0, -0.6, 0.3, 1.7, 5.0)),
                    (0.1, (-25.0, -0.6, 1.7, 25.0)),
                    (0.02, (-120.0, 8.0, 120.0))):
        for v in vs:
            got = co.chi_eval(FLAT, 0.0, x, v, eps, phi)
            want = _cosine_oracle(FLAT, 0.9, x, v, eps)
            assert np.max(np.abs(got - want)) < 1e-10


def test_chi_cosine_closed_form_degenerate_rate():
    # beta != 0: the flight shift carries the bracket weight, so the phase of
    # the closed form is eps*xi*v*bracket(v)^-beta
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2)
    phi = plane_wave(0.9)
    x = np.array([1.0, 7.7])
    for eps in (0.15, 0.05):
        for v in (-40.0, -2.0, 0.4, 5.0, 40.0):
            got = co.chi_eval(params, 0.0, x, v, eps, phi)
            want = _cosine_oracle(params, 0.9, x, v, eps)
            assert np.max(np.abs(got - want)) < 1e-10


def test_chi_affine_exact():
    # flat rate, beta = 0: the flight average of an affine probe is a pure
    # first moment of the unit exponential -- exact at any quadrature order
    p, q = 0.7, -0.3

    space = co.SpaceFactor(lambda x: p * np.asarray(x, dtype=float) + q,
                           lambda x: p * np.ones(np.shape(x)),
                           lambda x: np.zeros(np.shape(x)))
    phi = co.ProbeFunction(co._UNIT_TIME, space, t_support=(0.0, 1.0),
                           x_center=0.0, x_halfwidth=5.0)
    for eps in (0.8, 0.1):
        for v in (-3.0, 0.0, 0.25, 9.0):
            got = co.chi_eval(FLAT, 0.0, 1.3, v, eps, phi)
            want = p * (1.3 + eps * v / FLAT.nu0_mean) + q
            assert got == pytest.approx(want, rel=1e-12)


def test_chi_pointwise_bound(asym_params):
    phi = co.gaussian_packet(center=10.0, width=1.2, t_span=(0.0, 1.0))
    grad_sup = 1.0 * np.exp(-0.5) / 1.2  # max |dphi/dx| over (t, x)
    ratio = asym_params.nu2 / asym_params.nu1
    t = 0.5
    for eps in (0.3, 0.05):
        for v in (-25.0, -1.0, 0.2, 3.0, 25.0):
            x = np.linspace(6.0, 14.0, 9)
            chi = co.chi_eval(asym_params, t, x, v, eps, phi)
            gap = np.max(np.abs(chi - phi.value(t, x)))
            limit = ratio * eps * abs(v) * vel_bracket(v) ** (-asym_params.beta) * grad_sup
            assert gap <= limit + 1e-12


def test_chi_dx_matches_finite_difference(asym_params):
    phi = co.gaussian_packet(center=9.0, width=1.4, t_span=(0.0, 1.0))
    h = 1e-5
    for eps, v, x in ((0.4, 2.2, 8.3), (0.07, -17.0, 10.5), (0.2, 0.0, 9.1)):
        fd = (co.chi_eval(asym_params, 0.55, x + h, v, eps, phi)
              - co.chi_eval(asym_params, 0.55, x - h, v, eps, phi)) / (2 * h)
        an = co.chi_dx(asym_params, 0.55, x, v, eps, phi)
        assert an == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_chi_dx_flat_rate_matches_finite_difference():
    # nu0_delta == 0 takes the flat-rate branch: the flight average of dphi/dx
    phi = co.gaussian_packet(center=9.0, width=1.4, t_span=(0.0, 1.0))
    h = 1e-5
    for eps, v, x in ((0.4, 2.2, 8.3), (0.07, -17.0, 10.5), (0.2, 0.0, 9.1)):
        fd = (co.chi_eval(FLAT, 0.55, x + h, v, eps, phi)
              - co.chi_eval(FLAT, 0.55, x - h, v, eps, phi)) / (2 * h)
        an = co.chi_dx(FLAT, 0.55, x, v, eps, phi)
        assert an == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_chi_dt_matches_finite_difference(asym_params):
    phi = co.gaussian_packet(center=9.0, width=1.4, t_span=(0.0, 1.0))
    h = 1e-5
    for eps, v, x in ((0.4, 2.2, 8.3), (0.07, -17.0, 10.5)):
        fd = (co.chi_eval(asym_params, 0.55 + h, x, v, eps, phi)
              - co.chi_eval(asym_params, 0.55 - h, x, v, eps, phi)) / (2 * h)
        an = chi_dt(asym_params, 0.55, x, v, eps, phi)
        assert an == pytest.approx(fd, rel=2e-6, abs=1e-9)


def test_eps_validation(asym_params):
    phi = co.constant_probe()
    for bad in (0.0, -0.5, 1.2):
        with pytest.raises(ValidationError, match="eps"):
            co.chi_eval(asym_params, 0.0, 1.0, 1.0, bad, phi)


# ---------------------------------------------------------------------------
# L2 gaps and boundedness
# ---------------------------------------------------------------------------


def test_gap_decreasing_in_eps(asym_params):
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    opts = dict(nt=8, nxq=40, nv=129)
    diags = [co.chi_l2_diagnostics(asym_params, phi, e, **opts)
             for e in (0.2, 0.1, 0.05)]
    gaps = [d["gap"] for d in diags]
    dgaps = [d["gap_dt"] for d in diags]
    assert gaps[0] > gaps[1] > gaps[2] > 0
    assert dgaps[0] > dgaps[1] > dgaps[2] > 0


def test_gap_zero_for_space_constant(asym_params):
    t0, t1 = 0.0, 1.0
    phi = co.ProbeFunction(co._bump_time((t0, t1)), co._constant_space(2.0),
                           t_support=(t0, t1), x_center=10.0, x_halfwidth=5.0)
    # chi == phi pointwise for x-constant probes, so only the analytic tail
    # bookkeeping (phi^2 * tail mass) survives; it is not a gap. Check the
    # bulk part alone by subtracting it.
    gap = co.chi_l2_diagnostics(asym_params, phi, 0.1, nt=8, nxq=16, nv=65)["gap"]
    tq, wt = co._legendre_rule(t0, t1, 8)
    xq, wx = co._legendre_rule(5.0, 15.0, 16)
    vmax = co._gap_vgrid(asym_params, 0.1, 65).vmax
    tail = asym_params.tail_mass_beyond(vmax)
    a2 = wt @ phi.time.value(tq) ** 2
    tail_part = a2 * (tail * (wx @ phi.space.value(xq) ** 2))
    assert gap == pytest.approx(tail_part, abs=1e-20)


def test_bound_ratio_below_paper_constant(asym_params):
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    cap = asym_params.nu2 / asym_params.nu1
    diag = co.chi_l2_diagnostics(asym_params, phi, 0.15, nt=8, nxq=40, nv=129)
    for r in (diag["bound_ratio"], diag["bound_ratio_dt"]):
        assert 0.05 < r <= cap


def test_gap_box_raises_when_critical_speed_overflows():
    # beta -> 1 sends eps^(-1/(1-beta)) past the float range: a typed error,
    # not an OverflowError
    params = ModelParams(alpha=1.0, beta=0.9999, kappa=0.4)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    with pytest.raises(NumericError, match="overflows"):
        co.chi_l2_diagnostics(params, phi, 0.05, nt=4, nxq=8, nv=33)


def test_gap_and_ratio_equal_per_node_loop(asym_params):
    # the hazard is inverted and the space factor averaged once per call;
    # each of the four numbers must match a loop that evaluates chi (or
    # dchi/dt) afresh at every time node, up to summation order
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    eps, nt, nxq, nv = 0.15, 6, 16, 65
    tq, wt = co._legendre_rule(0.0, 0.5, nt)
    xq, wx = co._legendre_rule(phi.x_center - phi.x_halfwidth,
                               phi.x_center + phi.x_halfwidth, nxq)
    vgrid = co._gap_vgrid(asym_params, eps, nv)
    fw = vgrid.weights * equilibrium_pdf(asym_params, vgrid.v)
    tail = (2.0 * asym_params.kappa / asym_params.alpha
            * vgrid.vmax ** (-asym_params.alpha))
    got = co.chi_l2_diagnostics(asym_params, phi, eps, nt=nt, nxq=nxq, nv=nv)
    assert sorted(got) == ["bound_ratio", "bound_ratio_dt", "gap", "gap_dt"]
    for suffix, base, evaluate in (("", phi.value, co.chi_eval),
                                   ("_dt", phi.dt, chi_dt)):
        total = num = den = 0.0
        for ti, wti in zip(tq, wt):
            ref = base(ti, xq)
            chi = evaluate(asym_params, ti, xq[:, None], vgrid.v[None, :], eps, phi)
            total += wti * (wx @ (((chi - ref[:, None]) ** 2) @ fw)
                            + tail * (wx @ ref**2))
            num += wti * (wx @ ((chi**2) @ fw))
            den += wti * (wx @ ref**2)
        assert got["gap" + suffix] == pytest.approx(float(total), rel=1e-12)
        assert got["bound_ratio" + suffix] == pytest.approx(float(num / den),
                                                            rel=1e-12)


@pytest.mark.parametrize("make", [co.gaussian_packet, co.modulated_packet])
def test_gap_and_ratio_factor_in_time(asym_params, make):
    # chi - phi = a(t) (<s> - s) and its t-derivative is a'(t) (<s> - s):
    # both ratios agree, and the gaps differ by the time integrals alone
    phi = make(center=10.0, width=1.0, t_span=(0.0, 0.5))
    nt = 12
    got = co.chi_l2_diagnostics(asym_params, phi, 0.15, nt=nt, nxq=16, nv=65)
    tq, wt = co._legendre_rule(0.0, 0.5, nt)
    a2, da2 = wt @ phi.time.value(tq) ** 2, wt @ phi.time.deriv(tq) ** 2
    assert got["bound_ratio_dt"] == pytest.approx(got["bound_ratio"], rel=1e-14)
    assert got["gap_dt"] / got["gap"] == pytest.approx(da2 / a2, rel=1e-14)


def test_gap_rejects_time_independent_probe(asym_params):
    # a' = 0 makes the d/dt ratio 0/0: a typed error, not a NaN
    for phi in (co.static_gaussian(center=10.0), co.constant_probe()):
        with pytest.raises(ValidationError, match="time-independent"):
            co.chi_l2_diagnostics(asym_params, phi, 0.2, nt=4, nxq=8, nv=33)


# ---------------------------------------------------------------------------
# weak-formulation remainder terms
# ---------------------------------------------------------------------------


def _equilibrium_run(params, eps, nx=32, nv=33, t_end=0.5, n_times=3):
    """Synthetic run whose phase history sits exactly on local equilibrium."""
    xgrid = SpatialGrid(nx, params.domain_length)
    vgrid = VelocityGrid(nv, vscale=auto_vscale(params, nv, eps))
    dvm = DiscreteModel(params, vgrid)
    rho = periodized_gaussian(xgrid)
    f = np.outer(rho, dvm.f_eq)
    times = np.linspace(0.0, t_end, n_times)
    return KineticRun(params=params, eps=eps, xgrid=xgrid, dvm=dvm,
                      scheme_order=1, dt_max=1.0, times=times,
                      rho=np.tile(rho, (n_times, 1)),
                      gnorm2=np.zeros(n_times), mass=np.ones(n_times),
                      f0_norm2=1.0, rho_l2=np.ones(n_times),
                      phase=[f.copy() for _ in range(n_times)])


def _small_run(params, eps, nx=48, nv=65, t_end=0.5, n_times=9):
    xgrid = SpatialGrid(nx, params.domain_length)
    vgrid = VelocityGrid(nv, vscale=auto_vscale(params, nv, eps))
    return run_kinetic_det(params, eps, xgrid=xgrid, vgrid=vgrid,
                           t_final=t_end,
                           snapshot_times=np.linspace(0, t_end, n_times),
                           scheme_order=2, store_phase=True)


def test_qplus_zero_when_g_zero():
    # g is recomputed from the stored f, so "zero" means machine zero
    run = _equilibrium_run(FLAT, eps=0.3)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    assert abs(co.corrector_term_qplus(co.RowFlight(phi, run))) < 1e-15


def test_qplus_zero_for_constant_probe():
    run = _small_run(FLAT, eps=0.4)
    phi = co.constant_probe(1.0, t_span=(0.0, 0.5))
    assert abs(co.corrector_term_qplus(co.RowFlight(phi, run))) < 1e-12


def test_qplus_decreases_with_eps():
    # beta > 0: m_beta(g) carries the gain remainder, about 1.3e-3, 1.1e-3
    # and 6.7e-4 here
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    terms = [abs(co.corrector_term_qplus(
        co.RowFlight(phi, _small_run(params, e)))) for e in (0.4, 0.2, 0.1)]
    assert terms[0] > terms[1] > terms[2] > 1e-4


def test_qplus_vanishes_at_beta_zero():
    # beta = 0: m_beta(g) = int g dv = 0, so the remainder is round-off
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    for e in (0.4, 0.2, 0.1):
        row = co.RowFlight(phi, _small_run(FLAT, e))
        assert abs(co.corrector_term_qplus(row)) <= 1e-15


def test_qplus_requires_phase():
    run = _equilibrium_run(FLAT, eps=0.3)
    run.phase = []
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    with pytest.raises(ValidationError, match="phase"):
        co.corrector_term_qplus(co.RowFlight(phi, run))


def test_remainders_refuse_missing_snapshots_before_the_flight(asym_params,
                                                              monkeypatch):
    # a run made without store_phase is refused before any hazard inversion
    run = _equilibrium_run(asym_params, eps=0.3)
    run.phase = []
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    calls = []
    invert = co._invert_hazard
    monkeypatch.setattr(co, "_invert_hazard",
                        lambda *args: calls.append(args) or invert(*args))
    for term in (co.corrector_term_qplus, co.corrector_term_drift_g):
        with pytest.raises(ValidationError, match="phase-space"):
            term(co.RowFlight(phi, run))
    assert calls == []


def test_qplus_requires_probe_inside_run():
    run = _equilibrium_run(FLAT, eps=0.3, t_end=0.4)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 1.0))
    with pytest.raises(ValidationError, match="snapshot"):
        co.corrector_term_qplus(co.RowFlight(phi, run))


@pytest.mark.parametrize("params", [FLAT, SUBCRIT])
def test_remainders_refuse_probe_starting_before_the_snapshots(params):
    # snapshots from t = 0.2 on would drop the probe's support on [0, 0.2),
    # with a drift or without one
    run = _equilibrium_run(params, eps=0.3)
    run.times = run.times + 0.2
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    for term in (co.corrector_term_qplus, co.corrector_term_drift_g,
                 co.corrector_term_drift_rho):
        with pytest.raises(ValidationError, match=r"within the snapshot times"):
            term(co.RowFlight(phi, run))


def test_drift_terms_zero_for_subcritical_alpha():
    run = _equilibrium_run(SUBCRIT, eps=0.3)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    assert co.corrector_term_drift_g(co.RowFlight(phi, run)) == 0.0
    assert co.corrector_term_drift_rho(co.RowFlight(phi, run)) == 0.0


def test_drift_terms_finite_supercritical():
    run = _small_run(FLAT, eps=0.4)
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    s2 = co.corrector_term_drift_g(co.RowFlight(phi, run))
    s3 = co.corrector_term_drift_rho(co.RowFlight(phi, run))
    assert np.isfinite(s2) and np.isfinite(s3)
    assert s3 != 0.0


def test_drift_rho_needs_no_phase_snapshots():
    # the term reads only the densities, which every run records
    xgrid = SpatialGrid(48, FLAT.domain_length)
    vgrid = VelocityGrid(65, vscale=auto_vscale(FLAT, 65, 0.4))
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    terms = {}
    for store_phase in (True, False):
        run = run_kinetic_det(FLAT, 0.4, xgrid=xgrid, vgrid=vgrid, t_final=0.5,
                              scheme_order=2, store_phase=store_phase)
        terms[store_phase] = co.corrector_term_drift_rho(
            co.RowFlight(phi, run))
    assert terms[False] == terms[True] != 0.0
    # the terms that read the deviation g still need the snapshots
    with pytest.raises(ValidationError, match="store_phase"):
        co.corrector_term_drift_g(co.RowFlight(phi, run))


def _remainders_per_node(params, eps, phi, run):
    """The three remainder terms with chi / dchi/dx evaluated at every node."""
    times = np.asarray(run.times, dtype=float)
    centers, v = run.xgrid.centers, run.dvm.vgrid.v
    wv = run.dvm.vgrid.weights
    gain = run.dvm.p_gain * wv
    fw = wv * run.dvm.f_eq
    q = np.empty(times.size)
    dg = np.empty(times.size)
    dr = np.empty(times.size)
    for i, t in enumerate(times):
        t = float(t)
        g = run.g_snapshot(i)
        chi = co.chi_eval(params, t, centers[:, None], v[None, :], eps, phi)
        delta = chi - phi.value(t, centers)[:, None]
        q[i] = run.xgrid.dx * float(np.sum(nu0(params, centers)
                                           * run.dvm.moment_beta(g) * (delta @ gain)))
        dchi = co.chi_dx(params, t, centers[:, None], v[None, :], eps, phi)
        dg[i] = run.xgrid.dx * float(np.sum((g * dchi) @ wv))
        dref = phi.dx(t, centers)[:, None]
        dr[i] = run.xgrid.dx * float(run.rho[i] @ ((dchi - dref) @ fw))
    scale = eps ** (1.0 - params.gamma) * drift(params, eps)
    return (float(eps ** (-params.gamma) * simpson(q, x=times)),
            float(scale * simpson(dg, x=times)),
            float(scale * simpson(dr, x=times)))


def test_simpson_equals_scipy_on_sweep_schedules():
    # the sweep's default schedule: six equally spaced snapshots
    rng = np.random.default_rng(20)
    for _ in range(5000):
        x = np.linspace(0.0, rng.uniform(1e-3, 10.0), 6)
        y = rng.normal(size=6) * 10.0 ** rng.uniform(-8, 8)
        assert co._simpson(y, x) == simpson(y, x=x)


def test_simpson_matches_scipy_on_random_schedules():
    rng = np.random.default_rng(21)
    for n in range(2, 14):
        for _ in range(200):
            x = np.cumsum(rng.uniform(1e-3, 1.0, n)) - 0.5
            y = rng.normal(size=n)
            want = simpson(y, x=x)
            assert abs(co._simpson(y, x) - want) <= 1e-15 * abs(want)


def test_simpson_cartwright_last_interval_by_hand():
    # nodes 0, 1, 2, 4: Simpson on [0, 2], then Cartwright's correction
    # 7/9 y3 + 5/3 y2 - 4/9 y1 on [2, 4] (spacings 1 and 2)
    x = np.array([0.0, 1.0, 2.0, 4.0])
    assert co._simpson(x ** 2, x) == pytest.approx(64.0 / 3.0, rel=1e-15)
    # a cubic is integrated as 4 + 188/3, not exactly (64)
    assert co._simpson(x ** 3, x) == pytest.approx(200.0 / 3.0, rel=1e-15)


def test_remainders_equal_per_node_loop(asym_params):
    # delta = 0.3 with a drift exercises the general dchi/dx branch, FLAT the
    # flat-rate one; forming the t-independent kernels once changes only the
    # summation order
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    for params in (asym_params, FLAT):
        assert drift(params, 0.3) != 0.0
        run = _small_run(params, 0.3, nx=32, nv=33, n_times=6)
        got = tuple(term(co.RowFlight(phi, run)) for term in
                    (co.corrector_term_qplus, co.corrector_term_drift_g,
                     co.corrector_term_drift_rho))
        assert got == pytest.approx(_remainders_per_node(params, 0.3, phi, run),
                                    rel=1e-12)


def _kept_nodes():
    return co._laggauss(64)[0].size


def test_hazard_inverted_once_per_call(asym_params, monkeypatch):
    # each (x, v, node) element of the call's grid is inverted once, however
    # the grid is cut into blocks
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    run = _small_run(asym_params, 0.3, nx=32, nv=33, n_times=6)
    elements = []
    invert = co._invert_hazard

    def counting(params, x, vt, u):
        elements.append(np.broadcast(x, vt, u).size)
        return invert(params, x, vt, u)

    monkeypatch.setattr(co, "_invert_hazard", counting)
    for term in (co.corrector_term_qplus, co.corrector_term_drift_g,
                 co.corrector_term_drift_rho):
        elements.clear()
        term(co.RowFlight(phi, run))
        assert sum(elements) == 32 * 33 * _kept_nodes()
    # all four L2 numbers (gap and bound ratio, values and d/dt) from one
    # inversion of each element
    elements.clear()
    co.chi_l2_diagnostics(asym_params, phi, 0.3, nt=8, nxq=16, nv=65)
    assert sum(elements) == 16 * 65 * _kept_nodes()


def test_space_factor_averaged_once_per_call(asym_params):
    # the space factor is sampled on the (x, v, node) arrival points a fixed
    # number of times per element and call, however many snapshots or time
    # nodes there are: s once (for <s> and d_x chi both), s' once, s'' never
    counts = {}

    def counting(name, fn):
        def wrapped(x):
            if np.ndim(x) == 3:
                counts[name] = counts.get(name, 0) + np.size(x)
            return fn(x)
        return wrapped

    base = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    phi = dataclasses.replace(base, space=co.SpaceFactor(
        *(counting(name, f) for name, f in zip(("s", "s'", "s''"), base.space))))
    n = 32 * 33 * _kept_nodes()
    for n_times in (6, 12):
        run = _small_run(asym_params, 0.3, nx=32, nv=33, n_times=n_times)
        for term in (co.corrector_term_qplus, co.corrector_term_drift_g,
                     co.corrector_term_drift_rho):
            counts.clear()
            term(co.RowFlight(phi, run))
            assert counts == {"s": n, "s'": n}, (term.__name__, n_times)
    counts.clear()
    co.chi_l2_diagnostics(asym_params, phi, 0.3, nt=8, nxq=16, nv=65)
    assert counts == {"s": 16 * 65 * _kept_nodes()}


def test_newton_calls_keep_each_array_under_64_kib(asym_params, monkeypatch):
    # a 513-node velocity row has 17,442 elements: it is inverted in calls
    # whose float arrays each stay under 64 KiB
    sizes = []
    newton = co._newton_block
    monkeypatch.setattr(co, "_newton_block", lambda params, x, vt, u, phi_x: (
        sizes.append(u.size) or newton(params, x, vt, u, phi_x)))
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    co.chi_l2_diagnostics(asym_params, phi, 0.3, nt=4, nxq=3, nv=513)
    assert sum(sizes) == 3 * 513 * _kept_nodes()
    assert max(sizes) * 8 < 64 * 1024


@pytest.mark.parametrize("params", [
    FLAT,                                             # flat rate, drift
    ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=0.5,
                nu0_delta=0.3),                       # modulated, no drift
    ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5,
                nu0_delta=0.3),                       # modulated, drift
], ids=["flat-drift", "degenerate", "modulated-drift"])
@pytest.mark.parametrize("rows", [1, 3, 40, pytest.param(None, id="default")])
def test_grid_averages_equal_one_shot_flight_bitwise(params, rows, monkeypatch):
    # on every shape the engine takes -- a scalar, 1-D pairs (one row of
    # 528, longer than a default block), an (nx, 1) x (1, nv) grid and a
    # 3-D shape -- blocks of 1 or 3 rows of 33 (16 rows: the last block of 3
    # is ragged), one block of all of them, and the default blocks give the
    # one-shot averages bit for bit, and a 0-d shape gives floats
    x = np.linspace(0.0, params.domain_length, 16, endpoint=False) + 0.3
    v = VelocityGrid(33, vscale=auto_vscale(params, 33, 0.2)).v
    phi = co.modulated_packet(center=10.0, width=1.5, t_span=(0.0, 0.5))
    pairs = [a.ravel() for a in np.broadcast_arrays(x[:, None], v[None, :])]
    assert pairs[0].size * _kept_nodes() > co._BLOCK
    if rows is not None:
        monkeypatch.setattr(co, "_BLOCK", rows * v.size * _kept_nodes())
    for xv in ((x[5], v[7]), pairs, (x[:, None], v[None, :]),
               (x.reshape(2, 8, 1), v)):
        shape = np.broadcast_shapes(*map(np.shape, xv))
        want = averages_one_shot(params, phi.space, *xv, 0.2)
        got = co._averages(params, phi.space, *xv, 0.2, dchi=True)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == shape
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        chi, none = co._averages(params, phi.space, *xv, 0.2, dchi=False)
        assert none is None
        assert np.asarray(chi).tobytes() == np.asarray(want[0]).tobytes()
        if not shape:
            assert type(want[0]) is float
            assert type(co.hazard_weight(params, *xv, 0.2)) is float


def test_row_averages_read_only_what_the_terms_need(asym_params):
    # d_x chi is built only when there is a drift; <s> always
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    for params, has_drift in ((asym_params, True), (SUBCRIT, False)):
        run = _small_run(params, 0.3, nx=16, nv=17, n_times=3)
        row = co.RowFlight(phi, run)
        want = averages_one_shot(params, phi.space, run.xgrid.centers[:, None],
                                 run.dvm.vgrid.v[None, :], run.eps)
        assert row.chi.tobytes() == want[0].tobytes()
        if has_drift:
            assert row.dchi.tobytes() == want[1].tobytes()
        else:
            assert row.dchi is None


def test_row_remainders_trace_less_than_one_node_array(asym_params,
                                                       monkeypatch):
    # with blocks of two x-rows, a row's three remainders hold O(nx nv)
    # memory: their traced peak stays below one (nx, nv, nodes) float64 array
    nx, nv = 96, 33
    phi = co.gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 0.5))
    run = _small_run(asym_params, 0.3, nx=nx, nv=nv, n_times=6)
    monkeypatch.setattr(co, "_BLOCK", 2 * nv * _kept_nodes())
    co._inverse_primitive(asym_params.nu0_mean, asym_params.nu0_delta,
                          asym_params.domain_length)   # the cached table
    tracemalloc.start()
    try:
        row = co.RowFlight(phi, run)
        terms = [term(row) for term in
                 (co.corrector_term_qplus, co.corrector_term_drift_g,
                  co.corrector_term_drift_rho)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(t != 0.0 for t in terms)
    assert peak < nx * nv * _kept_nodes() * 8


# ---------------------------------------------------------------------------
# pointwise generator integral
# ---------------------------------------------------------------------------


def test_operator_limit_constant_probe_zero(asym_params):
    phi = co.constant_probe(2.0)
    val = co.operator_limit_lhs(asym_params, 0.0, 3.0, 0.2, phi)
    assert abs(val) < 1e-9


def _frac_laplacian_gaussian(x, center, width, gamma):
    """|nabla|^gamma of exp(-(x-c)^2/(2 w^2)) via its Fourier transform."""
    u = x - center

    def integrand(xi):
        return xi**gamma * width * np.sqrt(2 * np.pi) * np.exp(-0.5 * (width * xi) ** 2) * np.cos(xi * u)

    val, _ = quad(integrand, 0.0, 40.0 / width, limit=200)
    return val / np.pi


def test_operator_limit_approaches_fractional_diffusion():
    # flat-rate symmetric-core family: the limit operator is an explicit
    # multiple of the fractional Laplacian, computable by Fourier quadrature
    params = SUBCRIT
    gamma = params.gamma
    phi = co.static_gaussian(center=10.0, width=1.0)
    c_quad, _ = quad(lambda w: 2.0 * (1.0 - np.cos(w)) / w ** (1.0 + gamma),
                     0.0, 200.0, limit=400)
    c_tail = 2.0 / gamma * 200.0 ** (-gamma)  # int_200^oo 2 w^-1-gamma
    cg = c_quad + c_tail
    import scipy.special as sp

    eta = sp.gamma(gamma + 1.0) * params.nu0_mean ** (1.0 - gamma)
    x = 10.7
    expected = -params.kappa * eta * cg * _frac_laplacian_gaussian(x, 10.0, 1.0, gamma)
    got = co.operator_limit_lhs(params, 0.0, x, 0.05, phi)
    assert got == pytest.approx(expected, rel=0.15)
    closer = co.operator_limit_lhs(params, 0.0, x, 0.025, phi)
    assert abs(closer - expected) < abs(got - expected)


def test_small_velocity_core_scaling():
    # symmetric core (a = 0): the |v| <= 1 portion scales like eps^(2-gamma);
    # fit the constant at the largest eps and verify it caps the smaller ones
    params = ModelParams(alpha=0.5, beta=0.0, kappa=0.2, nu0_delta=0.3)
    phi = co.static_gaussian(center=10.0, width=1.0)
    expo = 2.0 - params.gamma
    cores = {e: abs(co.operator_limit_lhs(params, 0.0, 10.4, e, phi, region="core"))
             for e in (0.2, 0.1, 0.05)}
    c0 = cores[0.2] / 0.2**expo
    for e in (0.1, 0.05):
        assert cores[e] <= 1.15 * c0 * e**expo


def test_operator_limit_region_validation(asym_params):
    phi = co.constant_probe()
    with pytest.raises(ValidationError, match="region"):
        co.operator_limit_lhs(asym_params, 0.0, 1.0, 0.2, phi, region="shoulder")
