"""Shared numerical oracles for the test suite.

Integrals here are computed by adaptive quadrature with inverse-substituted
power-law tails, deliberately avoiding the closed forms under test, so that
analytic constants in the package are checked through an independent route.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfcx

from heavykin import ModelParams, NumericError, ValidationError
from heavykin import corrector as co
from heavykin import kinetic_fv as kfv
from heavykin.grids import DiscreteModel, VelocityGrid
from heavykin.model import check_eps, coercivity_constant, nu0, nu0_integral


def integral_real_line(fn, tol: float = 1e-13) -> float:
    """Integrate fn over the real line.

    Splits at the model's structural break points v = -1, 1 and maps each tail
    to (0, 1] with v -> 1/y, which turns power-law decay into an integrable
    (possibly weakly singular) endpoint.  fn must accept scalars.
    """
    core, _ = quad(fn, -1.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    right, _ = quad(lambda y: fn(1.0 / y) / y**2, 0.0, 1.0,
                    epsabs=tol, epsrel=tol, limit=200)
    left, _ = quad(lambda y: fn(-1.0 / y) / y**2, 0.0, 1.0,
                   epsabs=tol, epsrel=tol, limit=200)
    return core + right + left


def integral_interval(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Integrate fn over [lo, hi], splitting at the break points +-1."""
    points = [p for p in (-1.0, 1.0) if lo < p < hi]
    val, _ = quad(fn, lo, hi, points=points or None,
                  epsabs=tol, epsrel=tol, limit=200)
    return val


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Exact two-sided Kolmogorov-Smirnov distance of samples against cdf."""
    s = np.sort(np.asarray(samples))
    n = s.size
    c = cdf(s)
    up = np.max(np.arange(1, n + 1) / n - c)
    down = np.max(c - np.arange(0, n) / n)
    return float(max(up, down))


def ppf_by_branch(density, u):
    """Inverse cdf of a ``PiecewiseHeavyTailDensity``, one boolean mask per
    branch: each of the two tails and the core is evaluated only at its own
    u.  A route apart from ``ppf``'s one pass over all u."""
    u = np.asarray(u, dtype=float)
    tm = density.side_tail_mass
    out = np.empty_like(u)
    lo = u < tm
    hi = u > 1.0 - tm
    mid = ~(lo | hi)
    out[lo] = -((u[lo] / tm) ** (-1.0 / density.tail_exp))
    out[hi] = ((1.0 - u[hi]) / tm) ** (-1.0 / density.tail_exp)
    h, a = density.core_height, density.core_asym
    c0 = h * (1.0 - 0.5 * a) - (u[mid] - tm)
    out[mid] = -2.0 * c0 / (h + np.sqrt(h * h - 2.0 * h * a * c0))
    return out if out.ndim else float(out)


@st.composite
def model_params_st(draw, allow_asym: bool = True, allow_modulation: bool = True):
    """Hypothesis strategy over valid ModelParams."""
    alpha = draw(st.floats(0.3, 1.9))
    beta_hi = min(alpha, 2.0 - alpha)
    beta = draw(st.floats(-alpha + 0.05, beta_hi - 0.05))
    kappa = alpha * draw(st.floats(0.05, 0.45))
    asym = draw(st.floats(-0.9, 0.9)) if allow_asym else 0.0
    delta = draw(st.floats(0.0, 0.8)) if allow_modulation else 0.0
    return ModelParams(
        alpha=alpha,
        beta=beta,
        kappa=kappa,
        core_asym=asym,
        nu0_delta=delta,
    )


def gaussian_fractional_laplacian(x: float, center: float, width: float,
                                  gamma: float) -> float:
    """(|nabla|^gamma phi)(x) for a unit-height Gaussian, via its transform.

    The multiplier definition gives a cosine transform of
    xi^gamma * phihat(xi), integrated over the effective support of the
    Gaussian factor (40 standard deviations in xi).
    """
    u = x - center

    def integrand(xi: float) -> float:
        return (xi**gamma * width * np.sqrt(2.0 * np.pi)
                * np.exp(-0.5 * (width * xi) ** 2) * np.cos(xi * u))

    val, _ = quad(integrand, 0.0, 40.0 / width, limit=200)
    return val / np.pi


def plane_wave(xi: float, *, amplitude: float = 1.0,
               label: str = "plane-wave") -> co.ProbeFunction:
    """cos(xi * x), time-independent.  Admits a closed-form corrector when
    the collision frequency is spatially flat, which makes it the reference
    oracle for the quadrature machinery."""
    if xi == 0:
        raise ValidationError("parameter constraint violated: xi != 0")

    def value(x):
        return amplitude * np.cos(xi * np.asarray(x, dtype=float))

    def d1(x):
        return -amplitude * xi * np.sin(xi * np.asarray(x, dtype=float))

    space = co.SpaceFactor(value, d1, lambda x: -(xi**2) * value(x))
    return co.ProbeFunction(co._UNIT_TIME, space, t_support=(0.0, 1.0),
                            x_center=0.0, x_halfwidth=np.pi / abs(xi),
                            label=label)


def chi_dt(params: ModelParams, t, x, v, eps: float, phi: co.ProbeFunction,
           *, nodes: int = 64):
    """Time derivative of chi, as the flight average of dphi/dt sampled at
    every arrival point: a route apart from the factored a'(t) <s>."""
    check_eps(eps)
    fl = co._flight(params, x, v, eps, nodes)
    return fl.average(phi.dt(t, fl.pts))


def grid_averages_one_shot(params: ModelParams, space: co.SpaceFactor, x, v,
                           eps: float, *, nodes: int = 64):
    """<s> and <rate s + s'> on the grid x (nx,) by v (nv,) from one flight
    over the whole grid: the (nx, nv, nodes) arrays that the blocked
    ``corrector._grid_averages`` never holds at once, with s sampled once
    per average."""
    fl = co._flight(params, np.asarray(x)[:, None], np.asarray(v)[None, :],
                    eps, nodes)
    chi = fl.average(space.value(fl.pts))
    rate = co._dx_rate(params, fl)
    if rate is None:
        return chi, fl.average(space.d1(fl.pts))
    return chi, fl.average(rate * space.value(fl.pts) + space.d1(fl.pts))


def gaussian_flight_average(nu: float, x, vt, center: float, width: float,
                            amplitude: float = 1.0):
    """Flight average of a Gaussian under a flat rate nu, in closed form.

    int_0^oo nu e^{-nu z} s(x + vt z) dz for s = amplitude *
    exp(-(y - center)^2 / (2 width^2)) is an exponentially modified
    Gaussian; erfcx keeps it finite where erfc underflows.  A route apart
    from the Gauss-Laguerre rule; broadcasts over x and vt.
    """
    x, vt = np.broadcast_arrays(np.asarray(x, dtype=float),
                                np.asarray(vt, dtype=float))
    d = np.where(vt < 0.0, center - x, x - center)   # reflect vt < 0
    rest = amplitude * np.exp(-0.5 * ((x - center) / width) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = nu / np.abs(vt)
        q = (d + lam * width**2) / (width * np.sqrt(2.0))
        moving = lam * width * np.sqrt(0.5 * np.pi) * rest * erfcx(q)
    return np.where(vt == 0.0, rest, moving)


def hazard_root_by_bisection(params: ModelParams, x, vt, u):
    """z >= 0 with int_0^z nu0(x + vt s) ds = u, by plain bisection on the
    closed-form hazard until the bracket [u/nu2, u/nu1] closes to adjacent
    floats.  A route apart from the tabulated start and the Newton loop of
    ``corrector._invert_hazard``; broadcasts over (x, vt, u)."""
    x, vt, u = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (x, vt, u)))
    lo, hi = u / params.nu2, u / params.nu1
    while True:
        mid = 0.5 * (lo + hi)
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            return np.where(np.abs(nu0_integral(params, x, vt, lo) - u)
                            <= np.abs(nu0_integral(params, x, vt, hi) - u), lo, hi)
        above = nu0_integral(params, x, vt, mid) > u
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)


def coercivity_by_sample(params: ModelParams, vgrid: VelocityGrid,
                         n_samples: int, seed: int) -> tuple[float, float]:
    """Worst gap and gain violations of ``harness.check_coercivity``, one
    ``collision_operator`` call per sample in a Python loop: the route the
    batched check replaced.  Raises ``NumericError`` naming the first
    sample whose violation is not finite."""
    kinds = ("equilibrium times noise", "equilibrium multiple",
             "sparse spikes", "modulated equilibrium")
    dvm = DiscreteModel(params, vgrid)
    nv = vgrid.nv
    m_const = coercivity_constant(params)
    w, b, f_eq = vgrid.weights, dvm.bracket_beta, dvm.f_eq
    rng = np.random.default_rng(seed)
    worst_gap = worst_gain = -np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(n_samples):
            x = float(rng.uniform(0.0, params.domain_length))
            kind = i % 4
            if kind == 0:
                f = f_eq * rng.exponential(1.0, size=nv)
            elif kind == 1:
                f = float(rng.exponential(1.0)) * f_eq
            elif kind == 2:
                f = np.zeros(nv)
                idx = rng.integers(0, nv, size=int(rng.integers(1, 6)))
                f[idx] = rng.exponential(1.0, size=idx.size)
            else:
                f = f_eq * (1.0 + 0.9 * np.sin(3.0 * vgrid.u)) \
                    * rng.exponential(1.0, size=nv)
            q = dvm.collision_operator(x, f)
            lhs = float(np.sum(w * q * f / f_eq))
            defect = f - float(dvm.density(f)) * f_eq
            spread = float(nu0(params, x) * np.sum(w * b * defect ** 2 / f_eq))
            rhs = -spread / (2.0 * m_const)
            gap = (lhs - rhs) / (1.0 + abs(rhs))
            gain_sq = float(nu0(params, x)) * float(dvm.moment_beta(f) ** 2) \
                / dvm.c_beta_disc
            f_sq = float(nu0(params, x) * np.sum(w * b * f ** 2 / f_eq))
            gain = (gain_sq - f_sq) / (1.0 + abs(f_sq))
            for name, term in (("gap", gap), ("gain", gain)):
                if not np.isfinite(term):
                    raise NumericError(
                        f"coercivity sample {i} ({kinds[kind]}, x={x:.6g}) "
                        f"has a non-finite {name} violation on the velocity "
                        f"grid with vmax={vgrid.vmax:.3g}")
            worst_gap, worst_gain = max(worst_gap, gap), max(worst_gain, gain)
    return worst_gap, worst_gain


def strang_unfused(fld, eps: float, times, dt_max: float,
                   scheme_order: int) -> np.ndarray:
    """Densities at ``times`` (the first is the start) of the Strang run
    T(h/2) C(h) T(h/2) repeated, two half transports between consecutive
    collisions: the loop ``run_kinetic_det`` ran before it fused them.
    Each interval takes ceil(span / dt_max) equal steps; ``fld`` is the
    initial ``PhaseField`` and is advanced in place."""
    rhos = [fld.density().values.copy()]
    for span in np.diff(times):
        nsteps = max(1, int(np.ceil(span / dt_max - 1e-12)))
        h = span / nsteps
        for _ in range(nsteps):
            kfv.transport_apply(fld, 0.5 * h, eps, scheme_order)
            kfv.collision_apply(fld, h, eps)
            kfv.transport_apply(fld, 0.5 * h, eps, scheme_order)
        rhos.append(fld.density().values.copy())
    return np.asarray(rhos)
