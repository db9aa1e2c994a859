"""Shared numerical oracles for the test suite.

Integrals here are computed by adaptive quadrature with inverse-substituted
power-law tails, deliberately avoiding the closed forms under test, so that
analytic constants in the package are checked through an independent route.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from scipy.integrate import quad

from heavykin import ModelParams, ValidationError
from heavykin import corrector as co


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
    co._check_eps(eps)
    fl = co._flight(params, x, v, eps, nodes)
    return fl.average(phi.dt(t, fl.pts))
