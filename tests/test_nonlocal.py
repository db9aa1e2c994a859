"""Limit-operator module: kernel identities, assembly invariants, solvers."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

import heavykin.nonlocal_op as nl
from heavykin import corrector as co
from heavykin.errors import NumericError, ValidationError
from heavykin.grids import DensityField, SpatialGrid, periodized_gaussian
from heavykin.model import ModelParams, nu0

from oracles import gaussian_fractional_laplacian, plane_wave

FLAT = ModelParams(alpha=0.5, beta=0.0, kappa=0.2)                    # gamma = 1/2
MOD = ModelParams(alpha=0.5, beta=0.0, kappa=0.2, nu0_delta=0.3)
DEGEN = ModelParams(alpha=0.8, beta=0.25, kappa=0.2, nu0_delta=0.3)   # gamma = 11/15


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_segment_average_closed_form_matches_quadrature():
    xs = np.array([0.3, 5.0, 12.7, -4.0])
    ys = np.array([0.3, 9.9, 31.4, 18.2])
    closed = nl.segment_average_nu0(MOD, xs, ys)
    audited = nl.segment_average_nu0(MOD, xs, ys, method="quadrature")
    np.testing.assert_allclose(closed, audited, rtol=0, atol=1e-11)


def test_segment_average_coincidence_limit():
    x = np.array([0.0, 3.7, 19.2])
    np.testing.assert_allclose(nl.segment_average_nu0(MOD, x, x), nu0(MOD, x),
                               rtol=1e-14)


def test_segment_average_rejects_unknown_method():
    with pytest.raises(ValidationError):
        nl.segment_average_nu0(MOD, 0.0, 1.0, method="midpoint")


def test_kernel_flat_rate_closed_form():
    # flat rate: the kernel is the constant Gamma(gamma+1) nubar^(1-gamma);
    # the oracle is the z-integral behind it, computed by quadrature
    for params in (FLAT, ModelParams(alpha=1.2, beta=0.25, kappa=0.3,
                                     nu0_mean=1.3)):
        g = params.gamma
        nb = params.nu0_mean
        oracle, _ = quad(lambda z: nb * nb * z**g * np.exp(-nb * z), 0.0, np.inf)
        got = nl.eta(params, 4.1, 11.9)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(gamma_fn(g + 1.0) * nb ** (1.0 - g), rel=1e-13)


def test_kernel_degenerate_rate_quadrature_oracle():
    g = DEGEN.gamma
    for x, y in [(0.4, 2.9), (7.0, 7.0), (13.1, -6.5)]:
        m = float(nl.segment_average_nu0(DEGEN, x, y, method="quadrature"))
        zint, _ = quad(lambda z: z**g * np.exp(-m * z), 0.0, np.inf)
        oracle = nu0(DEGEN, x) * nu0(DEGEN, y) * zint
        assert nl.eta(DEGEN, x, y) == pytest.approx(oracle, rel=1e-10)


def test_kernel_symmetry_random_pairs(rng):
    x = rng.uniform(-20.0, 40.0, size=1000)
    y = rng.uniform(-20.0, 40.0, size=1000)
    assert np.abs(nl.eta(DEGEN, x, y) - nl.eta(DEGEN, y, x)).max() <= 1e-12


def test_kernel_unit_normalization():
    unit = ModelParams(alpha=1.0, beta=0.0, kappa=0.2)
    assert nl.eta(unit, 3.0, 8.5) == pytest.approx(1.0, abs=1e-13)


def test_kernel_bounds(rng):
    g = DEGEN.gamma
    lo = gamma_fn(g + 1.0) * DEGEN.nu1**2 / DEGEN.nu2 ** (g + 1.0)
    hi = gamma_fn(g + 1.0) * DEGEN.nu2**2 / DEGEN.nu1 ** (g + 1.0)
    vals = nl.eta(DEGEN, rng.uniform(0, 20, 400), rng.uniform(-20, 40, 400))
    assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12


def test_kernel_table_diagonal():
    grid = SpatialGrid(64, 20.0)
    table = nl.kernel_table(DEGEN, grid)
    g = DEGEN.gamma
    np.testing.assert_allclose(np.diag(table),
                               gamma_fn(g + 1.0) * nu0(DEGEN, grid.centers) ** (1.0 - g),
                               rtol=1e-13)
    assert table.shape == (64, 64)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_row_sums_symmetry_offdiag(asym_params):
    op = nl.assemble(asym_params, SpatialGrid(128, 20.0))
    A = op.matrix
    assert np.abs(A.sum(axis=1)).max() <= 1e-10
    assert np.abs(A - A.T).max() <= 1e-10
    off = A - np.diag(np.diag(A))
    assert off.max() <= 1e-15


def test_assemble_positive_semidefinite(asym_params):
    A = nl.assemble(asym_params, SpatialGrid(128, 20.0)).matrix
    assert np.linalg.eigvalsh(A).min() >= -1e-8


def test_assemble_self_adjoint(rng):
    op = nl.assemble(MOD, SpatialGrid(96, 20.0))
    for _ in range(10):
        r, s = rng.standard_normal(96), rng.standard_normal(96)
        lhs = float(op.apply(r) @ s)
        rhs = float(r @ op.apply(s))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_assemble_annihilates_constants():
    op = nl.assemble(DEGEN, SpatialGrid(64, 20.0))
    scale = np.abs(op.matrix).max()
    assert np.abs(op.apply(np.full(64, 2.5))).max() <= 1e-12 * scale


def test_assemble_validations():
    with pytest.raises(ValidationError):
        nl.assemble(MOD, SpatialGrid(8, 20.0))
    with pytest.raises(ValidationError):
        nl.assemble(MOD, SpatialGrid(64, 20.0), images=0)
    with pytest.raises(ValidationError):
        nl.assemble(MOD, SpatialGrid(64, 21.0))


def test_assemble_refuses_divergent_image_sum():
    # 1 + gamma rounds to 1: the image-sum completion zeta(1 + gamma) is inf
    tiny = 4e-17
    params = ModelParams(alpha=tiny, beta=-tiny / 2, kappa=tiny / 4,
                         core_asym=0.0, nu0_mean=1.0, nu0_delta=0.3,
                         domain_length=20.0)
    with pytest.raises(NumericError, match="image sum diverges"):
        nl.assemble(params, SpatialGrid(16, 20.0))


def test_circulant_symbol_requires_flat_rate():
    with pytest.raises(ValidationError):
        nl.assemble(MOD, SpatialGrid(64, 20.0)).circulant_symbol()


def test_circulant_symbol_matches_multiplier():
    op = nl.assemble(FLAT, SpatialGrid(512, 20.0))
    sym = op.circulant_symbol()
    assert abs(sym[0]) <= 1e-10
    k = np.arange(1, 11)
    target = nl.symbol(FLAT, 2.0 * np.pi * k / 20.0)
    assert np.abs(sym[k] / target - 1.0).max() < 1e-2


def test_eigenvalue_power_law_scaling():
    # discrete spectrum follows |xi|^gamma across nearly a decade of modes
    op = nl.assemble(FLAT, SpatialGrid(1024, 20.0))
    sym = op.circulant_symbol()
    k = np.arange(2, 17)
    fit = sym[2] / 2**FLAT.gamma
    assert np.abs(sym[k] / (fit * k**FLAT.gamma) - 1.0).max() < 0.02


def test_assemble_self_convergence_tripled_grids():
    # midpoint grids nest under tripling: coarse center j is fine center 3j+1
    def apply_on(nx):
        grid = SpatialGrid(nx, 20.0)
        rho = np.exp(np.sin(2.0 * np.pi * grid.centers / 20.0))
        return nl.assemble(MOD, grid).apply(rho)

    a_coarse, a_mid, a_fine = apply_on(64), apply_on(192), apply_on(576)
    e1 = np.abs(a_coarse - a_mid[3 * np.arange(64) + 1]).max()
    e2 = np.abs(a_mid - a_fine[3 * np.arange(192) + 1]).max()
    assert e2 < e1
    assert e1 / e2 > 3.0     # expected contraction 3^(2-gamma) = 3^1.5


# ---------------------------------------------------------------------------
# dispersion constant and spectral reference
# ---------------------------------------------------------------------------


def test_dispersion_constant_unit_value():
    assert nl.dispersion_constant(1.0) == pytest.approx(np.pi, abs=1e-10)


def test_dispersion_constant_reflection_formula():
    # independent route: the integral has the closed form
    # pi / (Gamma(1+gamma) sin(pi gamma / 2)), evaluated in arbitrary precision
    import mpmath as mp

    for g in (0.3, 0.5, 11.0 / 15.0, 1.2, 5.0 / 3.0, 1.9):
        closed = float(mp.pi / (mp.gamma(1 + g) * mp.sin(mp.pi * g / 2)))
        assert nl.dispersion_constant(g) == pytest.approx(closed, rel=1e-12)


def test_dispersion_constant_domain():
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(ValidationError):
            nl.dispersion_constant(bad)


def test_fourier_reference_time_zero_exact():
    grid = SpatialGrid(64, 20.0)
    rho0 = DensityField(grid, periodized_gaussian(grid), time=0.25)
    out = nl.fourier_reference(FLAT, rho0, 0.0)
    assert np.array_equal(out.values, rho0.values)
    assert out.values is not rho0.values
    assert out.time == 0.25


def test_fourier_reference_single_mode_decay():
    grid = SpatialGrid(128, 20.0)
    xi1 = 2.0 * np.pi / 20.0
    x = grid.centers
    rho0 = DensityField(grid, 1.0 / 20.0 + 0.02 * np.cos(xi1 * (x - 0.3)))
    out = nl.fourier_reference(FLAT, rho0, 0.7)
    decay = np.exp(-FLAT.kappa * float(nl.symbol(FLAT, xi1)) * 0.7)
    expected = 1.0 / 20.0 + 0.02 * decay * np.cos(xi1 * (x - 0.3))
    np.testing.assert_allclose(out.values, expected, rtol=0, atol=1e-13)
    assert out.mass() == pytest.approx(rho0.mass(), abs=1e-13)


def test_spectral_routes_require_flat_rate():
    grid = SpatialGrid(64, 20.0)
    rho0 = DensityField(grid, periodized_gaussian(grid))
    with pytest.raises(ValidationError):
        nl.fourier_reference(MOD, rho0, 0.5)
    with pytest.raises(ValidationError):
        nl.symbol(MOD, 1.0)


# ---------------------------------------------------------------------------
# macroscopic solver
# ---------------------------------------------------------------------------


def test_solve_macro_matches_spectral_route():
    grid = SpatialGrid(256, 20.0)
    rho0 = DensityField(grid, periodized_gaussian(grid), time=0.0)
    run = nl.solve_macro(nl.assemble(FLAT, grid), rho0, 0.5)
    ref = nl.fourier_reference(FLAT, rho0, 0.5)
    diff = run.final().values - ref.values
    rel = np.sqrt(float(diff @ diff) / float(ref.values @ ref.values))
    assert rel < 2e-4


def test_solve_macro_conservation_and_dissipation():
    grid = SpatialGrid(128, 20.0)
    rho0 = DensityField(grid, periodized_gaussian(grid), time=0.0)
    run = nl.solve_macro(nl.assemble(DEGEN, grid), rho0, 0.8)
    assert np.abs(run.masses() - rho0.mass()).max() <= 1e-12
    assert np.all(np.diff(run.energies()) < 0)
    assert run.rho.min() >= -1e-8       # no spurious undershoot for this profile
    assert run.final().time == pytest.approx(0.8)


def test_solve_macro_snapshot_handling():
    grid = SpatialGrid(64, 20.0)
    op = nl.assemble(FLAT, grid)
    rho0 = DensityField(grid, periodized_gaussian(grid), time=0.2)
    run = nl.solve_macro(op, rho0, 0.3, snapshot_times=[0.2, 0.35, 0.5])
    assert run.times.tolist() == [0.2, 0.35, 0.5]
    assert np.array_equal(run.rho[0], rho0.values)
    run2 = nl.solve_macro(op, rho0, 0.3, snapshot_times=[0.2, 0.307, 0.5])
    assert run2.rho.shape == (3, 64)
    np.testing.assert_allclose(run2.rho[-1], run.rho[-1], rtol=0, atol=1e-14)


def test_solve_macro_decays_a_fourier_mode_exactly():
    # flat rate: A is circulant, so cos(2 pi k x / L) is an eigenvector with
    # eigenvalue circulant_symbol()[k] and must decay by exactly its exponential
    grid = SpatialGrid(64, 20.0)
    op = nl.assemble(FLAT, grid)
    k, amp, t = 8, 0.02, 0.5
    wave = np.cos(2.0 * np.pi * k * grid.centers / grid.length)
    rho0 = DensityField(grid, 1.0 / grid.length + amp * wave, time=0.0)
    run = nl.solve_macro(op, rho0, t)
    lam = op.circulant_symbol()[k]
    exact = (1.0 / grid.length
             + amp * np.exp(-FLAT.kappa * lam * (run.times[:, None] - rho0.time))
             * wave[None, :])
    assert np.abs(run.rho - exact).max() <= 1e-12 * amp


def test_solve_macro_validations():
    grid = SpatialGrid(64, 20.0)
    op = nl.assemble(FLAT, grid)
    rho0 = DensityField(grid, periodized_gaussian(grid))
    other = DensityField(SpatialGrid(32, 20.0),
                         periodized_gaussian(SpatialGrid(32, 20.0)))
    with pytest.raises(ValidationError):
        nl.solve_macro(op, other, 0.5)
    with pytest.raises(ValidationError):
        nl.solve_macro(op, rho0, 0.0)
    with pytest.raises(ValidationError):
        nl.solve_macro(op, rho0, 0.5, snapshot_times=[-0.1, 0.5])
    with pytest.raises(ValidationError):
        nl.solve_macro(op, rho0, 0.5, snapshot_times=[0.3, 0.2])
    with pytest.raises(ValidationError):
        nl.solve_macro(op, rho0, 0.5, snapshot_times=[0.0, 0.9])


# ---------------------------------------------------------------------------
# pointwise evaluation on the line
# ---------------------------------------------------------------------------


def test_pointwise_operator_flat_matches_fourier_oracle():
    # flat rate, beta = 0: L phi is an explicit multiple of the fractional
    # Laplacian, computable from the Gaussian's Fourier transform
    import mpmath as mp

    g = FLAT.gamma
    c_closed = float(mp.pi / (mp.gamma(1 + g) * mp.sin(mp.pi * g / 2)))
    phi = co.static_gaussian(center=10.0, width=1.0)
    for x in (10.0, 10.7, 8.5):
        want = (gamma_fn(g + 1.0) * c_closed
                * gaussian_fractional_laplacian(x, 10.0, 1.0, g))
        got = nl.nonlocal_operator_at(FLAT, phi, 0.0, x)
        assert got == pytest.approx(want, rel=1e-9)


def test_pointwise_operator_degenerate_long_reference():
    # independent route: much longer chunked far field with its own
    # zeroth-order completion, written from scratch here
    g = DEGEN.gamma
    length = DEGEN.domain_length
    phi = co.static_gaussian(center=10.0, width=1.0)

    def reference(x0: float, periods: int = 150, wcut: float = 50.0) -> float:
        phix = float(phi.value(0.0, np.asarray(x0)))

        def paired(w: float) -> float:
            up = nl.eta(DEGEN, x0, x0 + w) * (phix - float(phi.value(0.0, np.asarray(x0 + w))))
            dn = nl.eta(DEGEN, x0, x0 - w) * (phix - float(phi.value(0.0, np.asarray(x0 - w))))
            return float((up + dn) * w ** (-1.0 - g))

        near = quad(lambda r: paired(r * r) * 2.0 * r, 0.0, 1.0,
                    epsabs=1e-13, epsrel=1e-11, limit=400, full_output=1)[0]
        mid, _ = quad(paired, 1.0, wcut, epsabs=1e-13, epsrel=1e-11, limit=400)
        far = 0.0
        for m in range(periods):
            val, _ = quad(paired, wcut + m * length, wcut + (m + 1) * length,
                          epsabs=1e-14, epsrel=1e-12, limit=200)
            far += val
        w_end = wcut + periods * length
        s = 2.0 * np.pi / length
        total, coeff, p = 0.0, 1.0, 1.0 + g
        for _ in range(5):
            total += coeff * (-np.sin(s * w_end) * (s * w_end) ** (-p)
                              + p * np.cos(s * w_end) * (s * w_end) ** (-p - 1.0))
            coeff *= -p * (p + 1.0)
            p += 2.0
        completion = (phix * gamma_fn(g + 1.0) * nu0(DEGEN, x0)
                      * DEGEN.nu0_mean ** (-g) * 2.0
                      * (w_end ** (-g) / g
                         + DEGEN.nu0_delta * np.cos(s * x0) * s**g * total))
        return (near + mid + far + completion) / (1.0 - DEGEN.beta)

    for x0 in (11.3, 10.0, 4.4):
        got = nl.nonlocal_operator_at(DEGEN, phi, 0.0, x0)
        assert got == pytest.approx(reference(x0), rel=1e-6, abs=1e-9)

    v60 = nl.nonlocal_operator_at(DEGEN, phi, 0.0, 11.3)
    v200 = nl.nonlocal_operator_at(DEGEN, phi, 0.0, 11.3, far_periods=200)
    assert abs(v60 - v200) <= 1e-6


def test_pointwise_operator_constant_probe_gives_zero():
    assert nl.nonlocal_operator_at(FLAT, co.constant_probe(3.0), 0.0, 4.2) == 0.0
    assert nl.nonlocal_operator_at(DEGEN, co.constant_probe(-1.5), 0.0, 17.0) == 0.0


def test_pointwise_operator_mirror_symmetry():
    # even rate profile + even probe: L phi must be even as well
    phi = co.static_gaussian(center=0.0, width=1.0)
    a = nl.nonlocal_operator_at(DEGEN, phi, 0.0, 2.7)
    b = nl.nonlocal_operator_at(DEGEN, phi, 0.0, -2.7)
    assert a == pytest.approx(b, abs=1e-12)


def test_pointwise_operator_rejects_nondecaying_probe():
    with pytest.raises(NumericError):
        nl.nonlocal_operator_at(FLAT, plane_wave(0.9), 0.0, 3.0)


def test_operator_limit_matches_pointwise_kernel_route():
    # cross-module: the kinetic operator-limit diagnostic converges to
    # -kappa L phi evaluated by the pointwise kernel quadrature
    phi = co.static_gaussian(center=10.0, width=1.0)
    x = 10.7
    target = -DEGEN.kappa * nl.nonlocal_operator_at(DEGEN, phi, 0.0, x)
    coarse = co.operator_limit_lhs(DEGEN, 0.0, x, 0.1, phi)
    fine = co.operator_limit_lhs(DEGEN, 0.0, x, 0.05, phi)
    assert abs(fine - target) < abs(coarse - target)
    assert fine == pytest.approx(target, rel=5e-2)
