"""Model family: exponents, densities, samplers, collision kernel, coercivity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavykin import ModelParams, ValidationError
from heavykin import model as m
from oracles import (
    integral_interval,
    integral_real_line,
    ks_statistic,
    model_params_st,
    ppf_by_branch,
)


# ---------------------------------------------------------------------------
# gamma exponent
# ---------------------------------------------------------------------------


def test_gamma_reduces_to_alpha_for_beta_zero():
    assert m.gamma_exponent(1.0, 0.0) == 1.0
    assert m.gamma_exponent(0.5, 0.0) == 0.5


def test_gamma_negative_beta():
    assert m.gamma_exponent(1.5, -1.0) == pytest.approx(1.25, abs=1e-15)


def test_gamma_rejects_out_of_domain_parameters():
    with pytest.raises(ValidationError, match="alpha > 0"):
        m.gamma_exponent(-1.0, 0.0)
    with pytest.raises(ValidationError, match="beta < min"):
        m.gamma_exponent(1.0, 1.5)
    with pytest.raises(ValidationError, match="beta < min"):
        m.gamma_exponent(1.7, 0.5)


@given(model_params_st())
def test_gamma_lands_in_zero_two(params):
    assert 0.0 < params.gamma < 2.0
    assert params.gamma == m.gamma_exponent(params.alpha, params.beta)


# ---------------------------------------------------------------------------
# parameter validation and derived constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(alpha=-0.5), "alpha > 0"),
        (dict(alpha=1.0, kappa=0.0), "kappa > 0"),
        (dict(alpha=1.0, kappa=0.6), "kappa < alpha/2"),
        (dict(alpha=1.5, beta=0.5), "beta < min"),
        (dict(alpha=0.5, beta=-0.6), "beta > -alpha"),
        (dict(alpha=1.0, core_asym=1.0), "core_asym"),
        (dict(alpha=1.0, nu0_mean=0.0), "nu0_mean"),
        (dict(alpha=1.0, nu0_delta=1.0), "nu0_delta"),
        (dict(alpha=1.0, domain_length=-2.0), "domain_length"),
    ],
)
def test_params_validation_names_the_inequality(kwargs, fragment):
    kwargs.setdefault("kappa", min(0.2, 0.45 * kwargs.get("alpha", 1.0)))
    with pytest.raises(ValidationError, match=fragment):
        ModelParams(**kwargs)


def test_moments_match_quadrature(asym_params):
    p = asym_params
    feq = m.equilibrium(p)
    for power in (p.beta, -p.beta, 0.0, 0.6):
        oracle = integral_real_line(
            lambda v: m.vel_bracket(v) ** power * feq.pdf(v)  # noqa: B023
        )
        assert p.bracket_moment(power) == pytest.approx(oracle, rel=1e-12)


def test_bracket_moment_rejects_divergent_power(asym_params):
    with pytest.raises(ValidationError, match="power < alpha"):
        asym_params.bracket_moment(asym_params.alpha)


@given(model_params_st())
@settings(max_examples=30)
def test_nu0_respects_bounds(params):
    x = np.linspace(0.0, params.domain_length, 257)
    vals = m.nu0(params, x)
    assert np.all(vals >= params.nu1 - 1e-12)
    assert np.all(vals <= params.nu2 + 1e-12)


@pytest.mark.parametrize("vt", [0.0, 1e-12, -1e-7, 0.3, -2.5, 40.0])
@pytest.mark.parametrize("x, z", [(0.0, 0.7), (3.1, 2.0), (17.9, 11.5)])
def test_nu0_line_integrals_match_quadrature(asym_params, x, vt, z):
    # the closed forms against adaptive quadrature of nu0 and nu0' along the
    # flight, down to vt*z -> 0, where the sinc form must stay exact
    from scipy.integrate import quad

    for closed, rate in ((m.nu0_integral, m.nu0), (m.dnu0_integral, m.dnu0)):
        ref, _ = quad(lambda s: rate(asym_params, x + vt * s), 0.0, z,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
        assert float(closed(asym_params, x, vt, z)) == pytest.approx(
            ref, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# equilibrium density
# ---------------------------------------------------------------------------


def test_tail_value_matches_power_law():
    params = ModelParams(alpha=0.5, kappa=0.2)
    assert m.equilibrium_pdf(params, 2.0) == pytest.approx(0.2 * 2.0**-1.5, rel=1e-15)


def test_symmetric_core_is_even():
    params = ModelParams(alpha=0.8, kappa=0.3)
    v = np.linspace(0.0, 30.0, 501)
    assert np.array_equal(
        m.equilibrium_pdf(params, v), m.equilibrium_pdf(params, -v)
    )


def test_equilibrium_mass_one(asym_params):
    feq = m.equilibrium(asym_params)
    assert integral_real_line(feq.pdf) == pytest.approx(1.0, abs=1e-12)
    closed = 2.0 * asym_params.core_height + 2.0 * asym_params.kappa / asym_params.alpha
    assert closed == pytest.approx(1.0, abs=1e-15)


def test_jump_at_break_is_allowed(asym_params):
    p = asym_params
    inside = m.equilibrium_pdf(p, 1.0 - 1e-12)
    at = m.equilibrium_pdf(p, 1.0)
    assert at == pytest.approx(p.kappa, rel=1e-15)
    assert inside == pytest.approx(p.core_height * (1.0 + p.core_asym), rel=1e-9)


@given(model_params_st(), st.floats(-100.0, 100.0))
@settings(max_examples=200)
def test_pdf_positive_everywhere(params, v):
    assert m.equilibrium_pdf(params, v) > 0.0


# ---------------------------------------------------------------------------
# cdf / ppf
# ---------------------------------------------------------------------------


@given(model_params_st(), st.floats(-80.0, 80.0))
@settings(max_examples=200)
def test_ppf_inverts_cdf(params, v):
    feq = m.equilibrium(params)
    assert feq.ppf(feq.cdf(v)) == pytest.approx(v, rel=1e-9, abs=1e-9)


@given(model_params_st(), st.floats(1e-6, 1.0 - 1e-6))
@settings(max_examples=200)
def test_cdf_inverts_ppf(params, u):
    feq = m.equilibrium(params)
    assert feq.cdf(feq.ppf(u)) == pytest.approx(u, rel=1e-10, abs=1e-12)


def test_ppf_hits_break_points(asym_params):
    feq = m.equilibrium(asym_params)
    tm = feq.side_tail_mass
    assert feq.ppf(tm) == pytest.approx(-1.0, abs=1e-14)
    assert feq.ppf(1.0 - tm) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("params", [
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5),
    ModelParams(alpha=0.8, beta=0.25, kappa=0.3, core_asym=-0.7),
], ids=["default", "degenerate"])
@pytest.mark.parametrize("density", [m.equilibrium, m.post_collision_density],
                         ids=["F", "p"])
def test_ppf_matches_branch_oracle_bitwise(params, density):
    dens = density(params)
    tm = dens.side_tail_mass
    u = np.concatenate([
        np.random.default_rng(7).random(100_000),
        [tm, 1.0 - tm, np.finfo(float).tiny, 1.0 - 2.0**-53],
    ])
    with np.errstate(over="ignore"):    # the degenerate tails at tiny u
        ref = ppf_by_branch(dens, u)
        assert np.array_equal(dens.ppf(u), ref)
        assert np.array_equal(dens.ppf(u.reshape(4, -1).T),
                              ref.reshape(4, -1).T)
    for scalar in (tm, 0.5, 1.0 - tm, 1.0 - 2.0**-53):
        v = dens.ppf(scalar)
        assert type(v) is float and v == ppf_by_branch(dens, scalar)


def test_tail_mass_beyond_matches_cdf(asym_params):
    feq = m.equilibrium(asym_params)
    assert asym_params.tail_mass_beyond(1.0) == asym_params.tail_mass
    for speed in (1.5, 40.0, 2.5e3):
        both_tails = feq.cdf(-speed) + (1.0 - feq.cdf(speed))
        assert asym_params.tail_mass_beyond(speed) == \
            pytest.approx(float(both_tails), rel=1e-12)


def test_cdf_is_monotone(asym_params):
    v = np.linspace(-50.0, 50.0, 4001)
    c = m.equilibrium(asym_params).cdf(v)
    assert np.all(np.diff(c) > 0)
    assert 0.0 < c[0] and c[-1] < 1.0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampler_matches_cdf_ks():
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5)
    feq = m.equilibrium(params)
    rng = np.random.default_rng(411)
    v = m.sample_equilibrium(params, rng, size=1_000_000)
    assert ks_statistic(v, feq.cdf) < 2e-3


def test_sampler_mean_asymmetric():
    params = ModelParams(alpha=1.5, kappa=0.2, core_asym=0.5)
    rng = np.random.default_rng(91)
    v = m.sample_equilibrium(params, rng, size=10_000_000)
    se = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean() - params.equilibrium_mean) < 3 * se


def test_sampler_mean_symmetric():
    params = ModelParams(alpha=1.5, kappa=0.2)
    rng = np.random.default_rng(92)
    v = m.sample_equilibrium(params, rng, size=2_000_000)
    se = v.std(ddof=1) / math.sqrt(v.size)
    assert abs(v.mean()) < 3 * se


def test_sampler_tail_mass():
    params = ModelParams(alpha=1.5, kappa=0.2, core_asym=0.5)
    rng = np.random.default_rng(93)
    v = m.sample_equilibrium(params, rng, size=4_000_000)
    p = params.tail_mass
    se = math.sqrt(p * (1.0 - p) / v.size)
    assert abs(np.mean(np.abs(v) > 1.0) - p) < 3 * se


# ---------------------------------------------------------------------------
# post-collision density
# ---------------------------------------------------------------------------


def test_post_collision_equals_equilibrium_for_beta_zero():
    params = ModelParams(alpha=1.2, beta=0.0, kappa=0.2, core_asym=0.3)
    assert m.post_collision_density(params) == m.equilibrium(params)


def test_post_collision_mass_one(asym_params):
    pcd = m.post_collision_density(asym_params)
    assert integral_real_line(pcd.pdf) == pytest.approx(1.0, abs=1e-12)


def test_post_collision_bracket_mean():
    # beta = 0.5 forces alpha < 1.5 here (gamma must stay below 2).
    params = ModelParams(alpha=1.4, beta=0.5, kappa=0.2, core_asym=0.5)
    pcd = m.post_collision_density(params)
    oracle = integral_real_line(lambda v: m.vel_bracket(v) ** params.beta * pcd.pdf(v))
    closed = params.bracket_moment(2 * params.beta) / params.c_beta
    assert closed == pytest.approx(oracle, rel=1e-12)

    rng = np.random.default_rng(77)
    v = m.sample_post_collision(params, rng, size=10_000_000)
    w = m.vel_bracket(v) ** params.beta
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - oracle) < 3 * se


@given(model_params_st())
@settings(max_examples=50)
def test_post_collision_is_normalized_member(params):
    pcd = m.post_collision_density(params)
    assert pcd.tail_exp == pytest.approx(params.alpha - params.beta)
    total = 2.0 * pcd.core_height + 2.0 * pcd.side_tail_mass
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# collision frequency
# ---------------------------------------------------------------------------


def test_collision_frequency_flat_inside_unit_ball(asym_params):
    x = np.linspace(0.0, asym_params.domain_length, 11)
    for v in (-1.0, -0.4, 0.0, 0.7, 1.0):
        got = m.collision_frequency(asym_params, x, v)
        assert np.allclose(got, m.nu0(asym_params, x), rtol=1e-15)


def test_collision_frequency_tail_power():
    params = ModelParams(alpha=1.2, beta=0.5, kappa=0.2)
    assert m.collision_frequency(params, 3.7, 4.0) == pytest.approx(2.0, rel=1e-15)


def test_collision_frequency_bounds(asym_params):
    p = asym_params
    x = np.linspace(0.0, p.domain_length, 100)
    v = np.linspace(-40.0, 40.0, 100)
    vals = m.collision_frequency(p, x[:, None], v[None, :])
    brk = m.vel_bracket(v) ** p.beta
    assert np.all(vals >= p.nu1 * brk[None, :] - 1e-12)
    assert np.all(vals <= p.nu2 * brk[None, :] + 1e-12)


def test_cross_section_symmetric_in_velocities(asym_params):
    v = np.linspace(-5.0, 5.0, 23)
    b = m.cross_section_b(asym_params, 1.3, v[:, None], v[None, :])
    assert np.allclose(b, b.T, rtol=1e-15)


def test_collision_frequency_is_marginal_of_cross_section(asym_params):
    # nu(x, v) = int b(x, v', v) F(v') dv' must hold exactly for the separable kernel.
    p = asym_params
    feq = m.equilibrium(p)
    for x, v in [(0.0, 0.3), (7.3, 2.5), (13.1, -8.0)]:
        oracle = integral_real_line(
            lambda vp: m.cross_section_b(p, x, vp, v) * feq.pdf(vp)  # noqa: B023
        )
        assert m.collision_frequency(p, x, v) == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


def test_drift_vanishes_below_one():
    params = ModelParams(alpha=0.5, kappa=0.2, core_asym=0.8)
    assert m.drift(params, 0.3) == 0.0


def test_drift_vanishes_for_symmetric_core():
    params = ModelParams(alpha=1.5, kappa=0.2)
    assert m.drift(params, 0.5) == 0.0


def test_drift_critical_case_truncation_cancels():
    params = ModelParams(alpha=1.0, beta=0.25, kappa=0.3, core_asym=0.5)
    expected = params.equilibrium_mean
    feq = m.equilibrium(params)
    for radius in (1.0, 2.5, 10.0):
        oracle = integral_interval(lambda v: v * feq.pdf(v), -radius, radius)
        assert oracle == pytest.approx(expected, abs=1e-13)
    for eps in (1.0, 0.5, 0.1, 0.025):
        assert m.drift(params, eps) == pytest.approx(expected, rel=1e-15)


def test_drift_supercritical_matches_full_moment():
    params = ModelParams(alpha=1.5, kappa=0.2, core_asym=0.5)
    oracle = integral_real_line(lambda v: v * m.equilibrium_pdf(params, v))
    assert m.drift(params, 0.2) == pytest.approx(oracle, abs=1e-11)


@given(model_params_st(), st.floats(0.01, 1.0))
@settings(max_examples=50)
def test_drift_independent_of_eps(params, eps):
    assert m.drift(params, eps) == m.drift(params, 1.0)


def test_drift_rejects_out_of_range_eps(asym_params):
    with pytest.raises(ValidationError, match="eps"):
        m.drift(asym_params, 0.0)
    with pytest.raises(ValidationError, match="eps"):
        m.drift(asym_params, 1.5)


# ---------------------------------------------------------------------------
# coercivity constant
# ---------------------------------------------------------------------------


def test_coercivity_trivial_case_is_two():
    params = ModelParams(alpha=1.0, beta=0.0, kappa=0.2, nu0_mean=1.0, nu0_delta=0.0)
    assert m.coercivity_constant(params) == pytest.approx(2.0, rel=1e-15)


def test_coercivity_gridsup_matches_closed_form():
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, nu0_delta=0.3)
    closed = m.coercivity_constant(params)
    xs = np.linspace(0.0, params.domain_length, 9)  # includes the nu0 minimizer L/2
    vs = (0.0, 0.5, 1.0, 2.0, 17.0)
    grid_sup = max(m.coercivity_functional(params, x, v) for x in xs for v in vs)
    assert grid_sup == pytest.approx(closed, rel=1e-8)


def test_coercivity_sup_stable_under_refinement():
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, nu0_delta=0.3)
    sups = []
    for nx, nv in ((9, 5), (17, 9)):
        xs = np.linspace(0.0, params.domain_length, nx)
        vs = np.linspace(0.0, 30.0, nv)
        sups.append(max(m.coercivity_functional(params, x, v) for x in xs for v in vs))
    assert sups[0] == pytest.approx(sups[1], rel=1e-10)


# ---------------------------------------------------------------------------
# collision-operator identities (continuous quadrature)
# ---------------------------------------------------------------------------


def _q_apply(params, x, f, mbeta_f):
    """Q(f)(x, v) for the rank-one gain family, as a callable of v."""
    pcd = m.post_collision_density(params)

    def q(v):
        gain = pcd.pdf(v) * mbeta_f
        loss = m.vel_bracket(v) ** params.beta * f(v)
        return m.nu0(params, x) * (gain - loss)

    return q


def test_equilibrium_annihilates_collision_operator(asym_params):
    p = asym_params
    feq = m.equilibrium(p)
    for x in (0.0, 5.1, 14.9):
        for v in (-3.0, -0.5, 0.0, 0.8, 1.0, 6.0):
            gain = integral_real_line(
                lambda vp: m.cross_section_b(p, x, v, vp)  # noqa: B023
                * feq.pdf(v)  # noqa: B023
                * feq.pdf(vp)
            )
            loss = m.collision_frequency(p, x, v) * feq.pdf(v)
            assert gain == pytest.approx(loss, rel=1e-10)


def test_collision_operator_conserves_mass(asym_params):
    p = asym_params
    feq = m.equilibrium(p)

    def f(v):
        return feq.pdf(v) * (1.0 + 0.3 * np.tanh(v))

    mbeta = integral_real_line(lambda v: m.vel_bracket(v) ** p.beta * f(v))
    q = _q_apply(p, 4.2, f, mbeta)
    assert integral_real_line(q) == pytest.approx(0.0, abs=1e-12)


def test_coercivity_inequality_smooth_perturbations(asym_params):
    p = asym_params
    feq = m.equilibrium(p)
    big_m = m.coercivity_constant(p)
    x = 11.0
    perturbations = [
        lambda v: 0.2 * np.tanh(v) * feq.pdf(v),
        lambda v: 0.1 * np.exp(-0.5 * (v - 1.0) ** 2) * feq.pdf(v) ** 0.5,
        lambda v: 0.3 * feq.pdf(v) / (1.0 + v * v),
    ]
    for pert in perturbations:
        def f(v, pert=pert):
            return feq.pdf(v) + pert(v)

        rho = integral_real_line(f)
        mbeta = integral_real_line(lambda v: m.vel_bracket(v) ** p.beta * f(v))
        q = _q_apply(p, x, f, mbeta)
        lhs = integral_real_line(lambda v: q(v) * f(v) / feq.pdf(v))
        dissip = integral_real_line(
            lambda v: (f(v) - rho * feq.pdf(v)) ** 2
            * m.collision_frequency(p, x, v)
            / feq.pdf(v)
        )
        assert lhs <= -dissip / (2.0 * big_m) + 1e-13
