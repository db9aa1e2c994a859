"""End-to-end acceptance battery.

Ten numbered criteria, each asserted at its stated tolerance on the exact
instantiation written into the test.  Every test appends one summary line to
``RESULTS`` (printed in the terminal summary by conftest) *before* asserting,
so a red run still reports every criterion's outcome.

The heavy fixtures (the default production sweep, the degenerate-rate sweep,
and the million-particle cross-check) are module-scoped and shared.
"""

import dataclasses
import time

import numpy as np
import pytest
from scipy.integrate import quad

from heavykin import (
    ModelParams,
    SpatialGrid,
    VelocityGrid,
    auto_vscale,
    assemble,
    advance,
    chi_eval,
    chi_l2_diagnostics,
    coercivity_constant,
    constant_probe,
    default_config,
    equilibrium_pdf,
    estimate_density,
    eta,
    fourier_reference,
    gaussian_packet,
    hazard_weight,
    init_ensemble,
    mc_cross_check,
    nonlocal_operator_at,
    operator_limit_lhs,
    parse_config,
    run_kinetic_det,
    run_sweep,
    solve_macro,
    static_gaussian,
)
from heavykin.grids import DensityField, periodized_gaussian

RESULTS: list[str] = []


def record(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    RESULTS.append(line)
    return line


def params_with(**overrides) -> ModelParams:
    base = dict(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5,
                nu0_mean=1.0, nu0_delta=0.0, domain_length=20.0)
    base.update(overrides)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# shared heavy fixtures
# ---------------------------------------------------------------------------

DEFAULT_SWEEP_CFG = """
# production defaults: heavy tail with drift, flat collision rate
model.alpha = 1.5
model.core_asym = 0.5
discretization.nx = 256
discretization.nv = 257
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.t_final = 0.5
experiment.seed = 12345
"""

DEGENERATE_SWEEP_CFG = """
# sub-unit tail index with a modulated, velocity-degenerate rate
model.alpha = 0.8
model.beta = 0.25
model.core_asym = 0.5
model.nu0_delta = 0.3
discretization.nx = 128
discretization.nv = 129
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.t_final = 0.5
experiment.seed = 12345
"""


@pytest.fixture(scope="module")
def default_sweep():
    return run_sweep(parse_config(DEFAULT_SWEEP_CFG), threads=4)


@pytest.fixture(scope="module")
def degenerate_sweep():
    return run_sweep(parse_config(DEGENERATE_SWEEP_CFG), threads=4)


@pytest.fixture(scope="module")
def particle_cross_check():
    """Deterministic reference at eps = 0.2 plus a 10^6-particle ensemble.

    The reference needs the tighter velocity budget (tail target 1e-4) so its
    own discretization bias stays well inside the Monte Carlo band.
    """
    started = time.perf_counter()
    params = params_with()
    xgrid = SpatialGrid(512, params.domain_length)
    nv = 513
    vgrid = VelocityGrid(nv, auto_vscale(params, nv, 0.2, tail_target=1e-4))
    det = run_kinetic_det(params, 0.2, xgrid=xgrid, vgrid=vgrid, t_final=0.5,
                          scheme_order=2)
    cfg = dataclasses.replace(default_config(), particles=10**6, seed=999,
                              t_final=0.5)
    verdict = mc_cross_check(cfg, det, bins=64)
    return det, verdict, time.perf_counter() - started


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

LIMIT_POINTS = [(0.15, 7.9), (0.3, 9.3), (0.45, 10.0), (0.6, 10.7),
                (0.75, 12.6)]
LIMIT_EPS = [0.2, 0.1, 0.05, 0.025]


def test_criterion_01_pointwise_operator_limit():
    """Rescaled generator applied to a smooth probe converges to the
    nonlocal operator, pointwise, across three parameter regimes."""
    sets = {
        "plain": params_with(alpha=0.5, core_asym=0.0),
        "degenerate": params_with(alpha=0.8, beta=0.25, core_asym=0.0),
        "modulated": params_with(alpha=0.8, beta=0.25, core_asym=0.0,
                                 nu0_delta=0.3),
    }
    phi = static_gaussian(center=10.0, width=1.0)
    started = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for name, params in sets.items():
        for t, x in LIMIT_POINTS:
            target = -params.kappa * nonlocal_operator_at(params, phi, t, x)
            errs = [abs(operator_limit_lhs(params, t, x, e, phi) - target)
                    for e in LIMIT_EPS]
            decreasing = all(b < a for a, b in zip(errs, errs[1:]))
            rel = errs[-1] / abs(target)
            worst_rel = max(worst_rel, rel)
            ok &= decreasing and rel < 0.05
    wall = time.perf_counter() - started
    line = record(1, ok, f"generator -> nonlocal limit on 5 points x 3 regimes;"
                         f" errors strictly decreasing over eps={LIMIT_EPS},"
                         f" worst terminal rel {worst_rel:.2%} (< 5%);"
                         f" {wall:.1f} s")
    assert ok, line


def test_criterion_02_kernel_constant_and_symmetry(rng):
    """Unmodulated kernel equals its closed-form constant (quadrature
    oracle); the modulated kernel is exactly symmetric."""
    flat = params_with(beta=0.25, core_asym=0.0, nu0_mean=1.3)
    g, nb = flat.gamma, flat.nu0_mean
    oracle, quad_err = quad(lambda z: nb * nb * z**g * np.exp(-nb * z),
                            0.0, np.inf, epsabs=1e-13, epsrel=1e-13,
                            limit=300)
    assert quad_err < 1e-10
    xs = rng.uniform(0.0, flat.domain_length, 100)
    ys = rng.uniform(0.0, flat.domain_length, 100)
    dev_const = float(np.max(np.abs(eta(flat, xs, ys) - oracle)))

    modulated = params_with(beta=0.25, nu0_delta=0.3)
    xs = rng.uniform(0.0, modulated.domain_length, 1000)
    ys = rng.uniform(0.0, modulated.domain_length, 1000)
    dev_sym = float(np.max(np.abs(eta(modulated, xs, ys)
                                  - eta(modulated, ys, xs))))

    ok = dev_const <= 1e-8 and dev_sym <= 1e-12
    line = record(2, ok, f"flat-rate kernel vs quadrature oracle: max dev "
                         f"{dev_const:.2e} (<= 1e-8); symmetry defect "
                         f"{dev_sym:.2e} (<= 1e-12) on 1000 modulated pairs")
    assert ok, line


def test_criterion_03_macro_solver_vs_fourier():
    """Grid solver for the limit equation agrees with the spectral
    solution available in the unmodulated case."""
    params = params_with()
    grid = SpatialGrid(512, params.domain_length)
    rho0 = DensityField(grid, periodized_gaussian(grid), provenance="initial")
    started = time.perf_counter()
    op = assemble(params, grid, images=8)
    num = solve_macro(op, rho0, 0.5).final()
    ref = fourier_reference(params, rho0, 0.5)
    wall = time.perf_counter() - started
    rel = float(np.linalg.norm(num.values - ref.values)
                / np.linalg.norm(ref.values))
    ok = rel < 1e-3
    line = record(3, ok, f"macro solver vs spectral reference at T=0.5, "
                         f"nx=512, 8 images: rel L2 {rel:.2e} (< 1e-3); "
                         f"{wall:.1f} s")
    assert ok, line


def test_criterion_04_constant_probe_identities(rng):
    """A constant probe is its own flight average, and the flight-time
    hazard weight integrates to exactly one."""
    params = params_with(beta=0.25, nu0_delta=0.3)
    phi = constant_probe(level=1.0)
    n = 1000
    ts = rng.uniform(0.0, 1.0, n)
    xs = rng.uniform(0.0, params.domain_length, n)
    vs = rng.standard_cauchy(n)
    es = rng.uniform(0.02, 1.0, n)
    dev_chi = max(abs(float(chi_eval(params, t, x, v, e, phi)) - 1.0)
                  for t, x, v, e in zip(ts, xs, vs, es))
    dev_weight = max(abs(float(hazard_weight(params, x, v, e)) - 1.0)
                     for x, v, e in zip(xs, vs, es))
    ok = dev_chi <= 1e-12 and dev_weight <= 1e-12
    line = record(4, ok, f"constant probe reproduced: max |chi - 1| = "
                         f"{dev_chi:.2e}; hazard weight max |w - 1| = "
                         f"{dev_weight:.2e} (both <= 1e-12, 1000 samples)")
    assert ok, line


def test_criterion_05_corrector_gap_ladder():
    """Corrector converges to the probe in the weighted norm (values and
    time derivatives), with the measured bound inside nu2/nu1."""
    params = params_with(beta=0.25, nu0_delta=0.3)
    phi = gaussian_packet(center=10.0, width=1.0)
    ladder = [0.2, 0.1, 0.05]
    # the velocity-degenerate rate makes each flight average iterative, so
    # full-resolution quadrature costs minutes per rung; the decay is by
    # factors of ~3 per rung and the bound has 2x headroom, so a coarser
    # tensor rule decides both checks comfortably
    knobs = dict(nt=16, nxq=32, nv=257, nodes=48)
    diags = [chi_l2_diagnostics(params, phi, e, **knobs) for e in ladder]
    gaps = [d["gap"] for d in diags]
    gaps_dt = [d["gap_dt"] for d in diags]
    bound = params.nu2 / params.nu1
    ratios = [d["bound_ratio"] for d in diags]
    ratios_dt = [d["bound_ratio_dt"] for d in diags]
    dec = all(b < a for a, b in zip(gaps, gaps[1:]))
    dec_dt = all(b < a for a, b in zip(gaps_dt, gaps_dt[1:]))
    bounded = all(r <= bound for r in ratios + ratios_dt)
    ok = dec and dec_dt and bounded
    line = record(5, ok, f"corrector gaps over eps={ladder}: values "
                         f"{[f'{g:.2e}' for g in gaps]} and d/dt "
                         f"{[f'{g:.2e}' for g in gaps_dt]} strictly "
                         f"decreasing; worst bound ratio "
                         f"{max(ratios + ratios_dt):.4f} <= nu2/nu1 = "
                         f"{bound:.4f}")
    assert ok, line


def test_criterion_06_dissipation_and_coercivity_constant():
    """Random discrete states obey the entropy dissipation inequality with
    the package's constant, and that constant matches the closed form
    rebuilt from independently quadratured moments."""
    from heavykin import check_coercivity

    params = params_with(beta=0.25, nu0_delta=0.3)
    vgrid = VelocityGrid(129, auto_vscale(params, 129, 1.0))
    verdict = check_coercivity(params, vgrid, 1000, seed=20260815, tol=1e-10)

    def weighted_moment(exponent: float) -> float:
        fn = lambda v: (max(abs(v), 1.0) ** exponent
                        * float(equilibrium_pdf(params, v)))
        total = err = 0.0
        # split at the core edges where the integrand has kinks
        for lo, hi in ((-np.inf, -1.0), (-1.0, 1.0), (1.0, np.inf)):
            val, e = quad(fn, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
            total += val
            err += e
        assert err < 1e-10
        return total

    c_b = weighted_moment(params.beta)
    c_nb = weighted_moment(-params.beta)
    closed = c_b * c_nb + 1.0 / np.sqrt(params.nu1 * c_b)
    dev = abs(coercivity_constant(params) - closed)

    ok = verdict.passed and dev <= 1e-8
    line = record(6, ok, f"dissipation inequality holds for 1000 random "
                         f"states (worst violation "
                         f"{verdict.metrics['max_gap_violation']:.1e} at "
                         f"1e-10); constant matches quadrature closed form "
                         f"to {dev:.1e} (<= 1e-8)")
    assert ok, line


def test_criterion_07_apriori_bounds_default_run(default_sweep):
    """Fluctuation norm and density norm of the default drift run stay
    inside the proven a-priori envelopes, within budget."""
    rows = {row["eps"]: row for row in default_sweep.rows}
    margins = [(rows[e]["g_margin"], rows[e]["rho_margin"])
               for e in (0.4, 0.2, 0.1)]
    walls = [rows[e]["wall_time"] for e in (0.4, 0.2, 0.1)]
    worst_g = max(m[0] for m in margins)
    worst_rho = max(m[1] for m in margins)
    ok = worst_g <= 1.05 and worst_rho <= 1.05 and all(w <= 120.0
                                                       for w in walls)
    line = record(7, ok, f"a-priori bounds on eps (0.4, 0.2, 0.1): "
                         f"fluctuation margin {worst_g:.3f}, density margin "
                         f"{worst_rho:.3f} (<= 1.05); slowest run "
                         f"{max(walls):.0f} s (<= 120 s at 256 x 257)")
    assert ok, line


def test_criterion_08_macro_convergence_and_particles(default_sweep,
                                                      particle_cross_check):
    """Terminal error against the limit equation shrinks along the eps
    ladder, and an independent particle run brackets the grid solver."""
    errors = [row["error_l2"] for row in default_sweep.rows]
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    ratio = errors[-1] / errors[0]
    det, verdict, wall = particle_cross_check
    ok = decreasing and ratio < 0.5 and verdict.passed and wall <= 900.0
    line = record(8, ok, f"terminal L2 errors {[f'{e:.3e}' for e in errors]} "
                         f"strictly decreasing, E(0.05)/E(0.4) = {ratio:.3f} "
                         f"(< 0.5); 10^6-particle check max|z| = "
                         f"{verdict.metrics['max_z']:.2f} (<= 3 SE/bin); "
                         f"{wall:.0f} s (<= 900 s)")
    assert ok, line


def test_criterion_09_remainder_decay_degenerate(degenerate_sweep):
    """Weak-formulation remainders vanish at the proven rates for the
    sub-unit tail index, where the drift terms are exactly zero."""
    verdict = next(v for v in degenerate_sweep.verdicts
                   if v.criterion == "corrector-decay")
    m = verdict.metrics
    gamma = parse_config(DEGENERATE_SWEEP_CFG).model.gamma
    slope = m["qplus_slope"]
    drift_terms = [row["drift_g_term"] for row in degenerate_sweep.rows] + \
                  [row["drift_rho_term"] for row in degenerate_sweep.rows]
    drift_zero = all(term == 0.0 for term in drift_terms)
    ok = verdict.passed and slope >= gamma / 2 - 0.15 and drift_zero
    line = record(9, ok, f"gain remainder slope {slope:.3f} >= gamma/2 - 0.15"
                         f" = {gamma / 2 - 0.15:.3f} over 4 eps; both drift "
                         f"remainders identically 0 below tail index 1")
    assert ok, line


def test_criterion_10_conservation_and_reproducibility(default_sweep):
    """Mass is exact (particles) and drift-free (grid); equal seeds give
    byte-identical reports."""
    params = params_with()
    ens = advance(init_ensemble(params, 200_000, seed=5), 0.3, 0.2)
    mc_mass_dev = abs(estimate_density(ens, 64).mass() - 1.0)

    t_final = parse_config(DEFAULT_SWEEP_CFG).t_final
    det_drift = max(row["mass_err"] for row in default_sweep.rows) / t_final

    small = parse_config("""
discretization.nx = 64
discretization.nv = 65
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2
experiment.t_final = 0.1
experiment.seed = 12345
""")
    twin_a = run_sweep(small).to_json(drop_wall_times=True)
    twin_b = run_sweep(small).to_json(drop_wall_times=True)

    ok = mc_mass_dev <= 1e-13 and det_drift < 1e-10 and twin_a == twin_b
    line = record(10, ok, f"particle mass dev {mc_mass_dev:.1e} (exact by "
                          f"count); grid mass drift {det_drift:.1e}/unit time"
                          f" (< 1e-10); repeated seed-12345 sweeps "
                          f"byte-identical: {twin_a == twin_b}")
    assert ok, line
