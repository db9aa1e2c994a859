"""Corrected test functions for the weak formulation, and their diagnostics.

The weak form of the scaled kinetic equation is tested against a *corrected*
probe chi rather than the bare smooth probe phi(t, x).  chi solves the
flight-absorption problem

    nu0(x) * chi - vt * d_x chi = nu0(x) * phi(t, x),
    vt = eps * v * bracket(v)**(-beta),

whose explicit solution is an exponentially weighted average of phi along the
free-flight ray:

    chi(t, x, v) = int_0^oo nu0(x + vt*z) exp(-int_0^z nu0(x + vt*s) ds)
                   * phi(t, x + vt*z) dz.

Substituting the cumulative hazard u = U(z) turns the weight into e^{-u}, so
a Gauss-Laguerre rule converges spectrally; U is inverted per node by a
safeguarded Newton iteration (closed form when the frequency modulation is
off).  The inversion depends on (x, v, eps) only, so U is inverted once per
(grid, eps): every time loop below builds the flight geometry before the
loop and evaluates only the probe at each time node.  The module evaluates
chi, its t- and x-derivatives, the L2_F distance between chi and phi and
its boundedness constant, the remainder terms of the weak formulation that
must vanish with eps, and the pointwise generator integral whose limit is
the nonlocal diffusion operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad, simpson

from .errors import NumericError, ValidationError
from .model import (
    ModelParams,
    dnu0,
    drift,
    equilibrium_pdf,
    nu0,
    vel_bracket,
)

__all__ = [
    "ProbeFunction",
    "constant_probe",
    "gaussian_packet",
    "static_gaussian",
    "plane_wave",
    "modulated_packet",
    "chi_eval",
    "chi_dt",
    "chi_dx",
    "hazard_weight",
    "chi_l2_diagnostics",
    "corrector_term_qplus",
    "corrector_term_drift_g",
    "corrector_term_drift_rho",
    "operator_limit_lhs",
]


# ---------------------------------------------------------------------------
# probe functions
# ---------------------------------------------------------------------------


def _bump(s):
    """Smooth compactly supported bump: exp(1 - 1/(1-s^2)) on |s|<1, else 0."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


def _dbump(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    si = s[inside]
    q = 1.0 - si * si
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * si / (q * q))
    return out


@dataclass(frozen=True)
class ProbeFunction:
    """Smooth space-time test function with analytic derivatives.

    ``value``, ``dt``, ``dx``, ``dxx`` are vectorized callables of (t, x);
    t may be a scalar or an array broadcastable against x.  ``t_support``
    bounds the (compact) time support, and the window ``x_center`` +/-
    ``x_halfwidth`` is the spatial quadrature box used by the L2
    diagnostics -- the probe need not vanish there exactly, Gaussian decay
    is enough.

    Construction cross-checks each supplied derivative against central
    finite differences of ``value`` at interior sample points; disagreement
    beyond 1e-6 relative raises :class:`ValidationError`.
    """

    value: Callable
    dt: Callable
    dx: Callable
    dxx: Callable
    t_support: tuple
    x_center: float = 0.0
    x_halfwidth: float = 10.0
    label: str = "probe"

    def __post_init__(self) -> None:
        t0, t1 = self.t_support
        if not t1 > t0:
            raise ValidationError("parameter constraint violated: t_support must increase")
        if not self.x_halfwidth > 0:
            raise ValidationError("parameter constraint violated: x_halfwidth > 0")
        self._self_check()

    def _self_check(self) -> None:
        t0, t1 = self.t_support
        ts = t0 + (t1 - t0) * np.array([0.29, 0.5, 0.71])[:, None]
        xs = self.x_center + self.x_halfwidth * np.array([-0.43, -0.11, 0.03, 0.3])
        ht = 1e-4 * (t1 - t0)   # time-derivative scale is set by the span
        h = 1e-4
        base = self.value(ts, xs)
        scale = float(np.max(np.abs(base))) + 1e-30
        checks = (
            ("dt", self.dt(ts, xs),
             (self.value(ts + ht, xs) - self.value(ts - ht, xs)) / (2 * ht)),
            ("dx", self.dx(ts, xs),
             (self.value(ts, xs + h) - self.value(ts, xs - h)) / (2 * h)),
            ("dxx", self.dxx(ts, xs),
             (self.value(ts, xs + h) - 2 * base + self.value(ts, xs - h)) / h**2),
        )
        for name, analytic, fd in checks:
            tol = 1e-6 * (scale + np.abs(analytic))
            if not np.all(np.abs(np.asarray(analytic) - fd) <= tol):
                raise ValidationError(
                    f"probe self-check failed: {name} does not match finite differences"
                )


def constant_probe(level: float = 1.0, t_span=(0.0, 1.0)) -> ProbeFunction:
    """Probe that is constant in both t and x."""

    def const(t, x):
        return level * np.ones(np.broadcast_shapes(np.shape(t), np.shape(x)))

    def zero(t, x):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))

    return ProbeFunction(value=const, dt=zero, dx=zero, dxx=zero,
                         t_support=t_span, label="constant")


def gaussian_packet(*, center: float = 10.0, width: float = 1.0,
                    amplitude: float = 1.0, t_span=(0.0, 1.0),
                    label: str = "gaussian-packet") -> ProbeFunction:
    """Gaussian in x modulated by a compact smooth bump in t.

    The bump equals 1 at the midpoint of ``t_span`` and vanishes with all
    derivatives at its endpoints, so the probe is compactly supported in
    time (as the weak-formulation diagnostics require).
    """
    if width <= 0:
        raise ValidationError("parameter constraint violated: width > 0")
    t0, t1 = t_span
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)

    def s_of(t):
        return (np.asarray(t, dtype=float) - mid) / half

    def gauss(x):
        u = (np.asarray(x, dtype=float) - center) / width
        return np.exp(-0.5 * u * u)

    def value(t, x):
        return amplitude * _bump(s_of(t)) * gauss(x)

    def dt(t, x):
        return amplitude * _dbump(s_of(t)) / half * gauss(x)

    def dx(t, x):
        x = np.asarray(x, dtype=float)
        return value(t, x) * (-(x - center) / width**2)

    def dxx(t, x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / width
        return value(t, x) * (u * u - 1.0) / width**2

    return ProbeFunction(value=value, dt=dt, dx=dx, dxx=dxx, t_support=t_span,
                         x_center=center, x_halfwidth=max(8.0 * width, 1.0),
                         label=label)


def static_gaussian(*, center: float = 10.0, width: float = 1.0,
                    amplitude: float = 1.0, box_t=(0.0, 1.0),
                    label: str = "static-gaussian") -> ProbeFunction:
    """Time-independent Gaussian (dt = 0); for pointwise generator checks."""
    if width <= 0:
        raise ValidationError("parameter constraint violated: width > 0")

    def value(t, x):
        u = (np.asarray(x, dtype=float) - center) / width
        return amplitude * np.exp(-0.5 * u * u) * np.ones(np.shape(t))

    def zero(t, x):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))

    def dx(t, x):
        x = np.asarray(x, dtype=float)
        return value(t, x) * (-(x - center) / width**2)

    def dxx(t, x):
        x = np.asarray(x, dtype=float)
        u = (x - center) / width
        return value(t, x) * (u * u - 1.0) / width**2

    return ProbeFunction(value=value, dt=zero, dx=dx, dxx=dxx, t_support=box_t,
                         x_center=center, x_halfwidth=max(8.0 * width, 1.0),
                         label=label)


def plane_wave(xi: float, *, amplitude: float = 1.0,
               label: str = "plane-wave") -> ProbeFunction:
    """cos(xi * x), time-independent.  Admits a closed-form corrector when
    the collision frequency is spatially flat, which makes it the reference
    oracle for the quadrature machinery."""
    if xi == 0:
        raise ValidationError("parameter constraint violated: xi != 0")

    def value(t, x):
        return amplitude * np.cos(xi * np.asarray(x, dtype=float)) * np.ones(np.shape(t))

    def zero(t, x):
        return np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))

    def dx(t, x):
        return -amplitude * xi * np.sin(xi * np.asarray(x, dtype=float)) * np.ones(np.shape(t))

    def dxx(t, x):
        return -(xi**2) * value(t, x)

    return ProbeFunction(value=value, dt=zero, dx=dx, dxx=dxx,
                         t_support=(0.0, 1.0), x_center=0.0,
                         x_halfwidth=np.pi / abs(xi), label=label)


def modulated_packet(*, center: float = 10.0, width: float = 1.0,
                     wavenumber: float = 2.0, amplitude: float = 1.0,
                     t_span=(0.0, 1.0), label: str = "modulated-packet") -> ProbeFunction:
    """Plane wave times a Gaussian envelope, bump-modulated in time."""
    if width <= 0:
        raise ValidationError("parameter constraint violated: width > 0")
    t0, t1 = t_span
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    k = wavenumber

    def s_of(t):
        return (np.asarray(t, dtype=float) - mid) / half

    def parts(x):
        u = np.asarray(x, dtype=float) - center
        env = np.exp(-0.5 * (u / width) ** 2)
        return u, env

    def value(t, x):
        u, env = parts(x)
        return amplitude * _bump(s_of(t)) * np.cos(k * u) * env

    def dt(t, x):
        u, env = parts(x)
        return amplitude * _dbump(s_of(t)) / half * np.cos(k * u) * env

    def dx(t, x):
        u, env = parts(x)
        core = -k * np.sin(k * u) - (u / width**2) * np.cos(k * u)
        return amplitude * _bump(s_of(t)) * core * env

    def dxx(t, x):
        u, env = parts(x)
        ge1 = -(u / width**2)
        ge2 = (u * u / width**4 - 1.0 / width**2)
        core = (-k * k * np.cos(k * u) - 2.0 * k * np.sin(k * u) * ge1
                + np.cos(k * u) * ge2)
        return amplitude * _bump(s_of(t)) * core * env

    return ProbeFunction(value=value, dt=dt, dx=dx, dxx=dxx, t_support=t_span,
                         x_center=center, x_halfwidth=max(8.0 * width, 1.0),
                         label=label)


# ---------------------------------------------------------------------------
# corrector evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _laggauss(n: int):
    return np.polynomial.laguerre.laggauss(n)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise ValidationError("parameter constraint violated: 0 < eps <= 1")


def _flight_shift(params: ModelParams, v, eps: float):
    """Displacement per unit flight parameter: vt = eps * v * bracket(v)^-beta."""
    v = np.asarray(v, dtype=float)
    return eps * v * vel_bracket(v) ** (-params.beta)


def _cumulative_hazard(params: ModelParams, x, vt, z):
    # closed form of int_0^z nu0(x + vt*s) ds for the cosine profile; the
    # sinc form stays finite as vt*z -> 0
    s = 2.0 * np.pi / params.domain_length
    osc = np.cos(s * (x + 0.5 * vt * z)) * np.sinc(s * vt * z / (2.0 * np.pi))
    return params.nu0_mean * z * (1.0 + params.nu0_delta * osc)


def _invert_hazard(params: ModelParams, x, vt, u):
    """Solve U(z) = u for z >= 0 (vectorized safeguarded Newton).

    U' = nu0 in [nu1, nu2] brackets the root in [u/nu2, u/nu1]; iterates are
    clipped to that bracket, so the iteration cannot escape.  Convergence is
    quadratic and the guard is unreachable in practice.
    """
    if params.nu0_delta == 0.0:
        return u / params.nu0_mean + 0.0 * (x + vt)
    lo, hi = u / params.nu2, u / params.nu1
    z = u / nu0(params, x) + 0.0 * vt
    tol = 1e-13 * (1.0 + u)
    for _ in range(100):
        resid = _cumulative_hazard(params, x, vt, z) - u
        if np.all(np.abs(resid) <= tol):
            return z
        z = np.clip(z - resid / nu0(params, x + vt * z), lo, hi)
    raise NumericError("hazard inversion: Newton did not converge in 100 steps")


class _Flight(NamedTuple):
    """Gauss-Laguerre flight geometry at fixed (x, v, eps, nodes).

    ``x`` and ``vt`` carry a trailing node axis of length one; ``z`` solves
    U(z) = u at each node and ``pts = x + vt*z`` are the arrival points.
    None of it depends on t or on the probe.
    """

    x: np.ndarray
    vt: np.ndarray
    z: np.ndarray
    pts: np.ndarray
    w: np.ndarray

    def average(self, vals):
        """Flight average of values sampled at ``pts``."""
        out = vals @ self.w
        return float(out) if np.ndim(out) == 0 else out


def _flight(params: ModelParams, x, v, eps: float, nodes: int = 64) -> _Flight:
    """Invert the hazard once for the broadcast (x, v) at this eps."""
    u, w = _laggauss(nodes)
    xb, vb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(v, dtype=float))
    vt = _flight_shift(params, vb, eps)
    X, VT = xb[..., None], vt[..., None]
    Z = _invert_hazard(params, X, VT, u)
    return _Flight(X, VT, Z, X + VT * Z, w)


def _dx_rate(params: ModelParams, fl: _Flight):
    """t-independent factor multiplying phi in the dchi/dx integrand.

    The derivative of the arrival rate, dnu0/nu0, minus the derivative of
    the survival weight; None when the rate is flat (both vanish).
    """
    if params.nu0_delta == 0.0:
        return None
    s = 2.0 * np.pi / params.domain_length
    X, VT, Z = fl.x, fl.vt, fl.z
    growth = (-params.nu0_mean * params.nu0_delta * s * Z
              * np.sin(s * (X + 0.5 * VT * Z)) * np.sinc(s * VT * Z / (2.0 * np.pi)))
    return dnu0(params, fl.pts) / nu0(params, fl.pts) - growth


def _dchi(phi: ProbeFunction, t, fl: _Flight, rate):
    """dchi/dx at time t from the flight geometry and its rate factor."""
    if rate is None:
        return fl.average(phi.dx(t, fl.pts))
    return fl.average(rate * phi.value(t, fl.pts) + phi.dx(t, fl.pts))


def chi_eval(params: ModelParams, t, x, v, eps: float, phi: ProbeFunction,
             *, nodes: int = 64):
    """Corrected probe chi(t, x, v); broadcasts over x and v at fixed t.

    Convergence in ``nodes`` is spectral while the probe varies slowly on
    the mean-flight scale; probes oscillating faster than a few periods per
    flight (phase eps*xi*v*bracket(v)^-beta above ~3) need more nodes.
    """
    _check_eps(eps)
    fl = _flight(params, x, v, eps, nodes)
    return fl.average(phi.value(t, fl.pts))


def chi_dt(params: ModelParams, t, x, v, eps: float, phi: ProbeFunction,
           *, nodes: int = 64):
    """Time derivative of chi: the same flight average applied to dphi/dt."""
    _check_eps(eps)
    fl = _flight(params, x, v, eps, nodes)
    return fl.average(phi.dt(t, fl.pts))


def chi_dx(params: ModelParams, t, x, v, eps: float, phi: ProbeFunction,
           *, nodes: int = 64):
    """Space derivative of chi.

    Differentiating the flight average in x produces three terms: the
    derivative of the arrival rate, the derivative of the survival weight
    (a line integral of nu0', evaluated in closed form), and the transported
    dphi/dx.  All three are assembled on the Gauss-Laguerre nodes; the
    difference quotient (nu0(x + vt*z) - nu0(x))/vt is computed in a sinc
    form that is exact in the vt -> 0 limit.  When the rate is flat
    (nu0_delta == 0) the first two terms vanish identically and dchi/dx is
    the flight average of dphi/dx, computed directly.
    """
    _check_eps(eps)
    fl = _flight(params, x, v, eps, nodes)
    return _dchi(phi, t, fl, _dx_rate(params, fl))


def hazard_weight(params: ModelParams, x, v, eps: float, *, nodes: int = 64):
    """Flight average of the unit probe.

    Exercises the full substitution + inversion path; the exact value is
    int_0^oo nu0 e^{-U} dz = int_0^oo e^{-u} du = 1 for every (x, v, eps).
    """
    _check_eps(eps)
    fl = _flight(params, x, v, eps, nodes)
    return fl.average(np.ones_like(fl.pts))


# ---------------------------------------------------------------------------
# integrated diagnostics
# ---------------------------------------------------------------------------


def _legendre_rule(lo: float, hi: float, n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def _gap_vgrid(params: ModelParams, eps: float, nv: int):
    # resolve well past the transition speed where flights start to outrun
    # the probe; beyond vmax the corrector is negligible and the tail is
    # added analytically
    from .grids import VelocityGrid

    vmax = 10.0 * max(eps ** (-1.0 / (1.0 - params.beta)), 10.0)
    return VelocityGrid(nv, vscale=vmax / (nv - 1))


def chi_l2_diagnostics(params: ModelParams, phi: ProbeFunction, eps: float, *,
                       nt: int = 32, nxq: int = 64, nv: int = 513,
                       nodes: int = 64) -> dict:
    """L2 gap and boundedness constant of the corrector, for values and d/dt.

    ``gap`` is the squared L2_F(t, x, v) distance between chi and phi:
    tensor Gauss-Legendre quadrature in (t, x) over the probe's support box,
    the compactified velocity grid inside |v| <= vmax, and the analytic
    equilibrium tail mass times phi^2 beyond (where the corrector has
    decayed).  ``bound_ratio`` is ||chi||^2_{L2_F(t,x,v)} / ||phi||^2_{L2(t,x)},
    which the flight-average structure bounds by nu2/nu1.  The ``_dt``
    entries are the same two numbers for the time derivatives; all four
    share one quadrature box and one flight geometry.
    """
    _check_eps(eps)
    tq, wt = _legendre_rule(phi.t_support[0], phi.t_support[1], nt)
    xq, wx = _legendre_rule(phi.x_center - phi.x_halfwidth,
                            phi.x_center + phi.x_halfwidth, nxq)
    vgrid = _gap_vgrid(params, eps, nv)
    fw = vgrid.weights * equilibrium_pdf(params, vgrid.v)
    tail = 2.0 * params.kappa / params.alpha * vgrid.vmax ** (-params.alpha)
    fl = _flight(params, xq[:, None], vgrid.v[None, :], eps, nodes)

    # rows: values, time derivatives; columns: gap, ||chi||^2, ||phi||^2
    sums = np.zeros((2, 3))
    for ti, wti in zip(tq, wt):
        for row, base in zip(sums, (phi.value, phi.dt)):
            ref = base(ti, xq)
            chi = fl.average(base(ti, fl.pts))
            ref_sq = wx @ ref**2
            bulk = wx @ (((chi - ref[:, None]) ** 2) @ fw)
            row += wti * np.array([bulk + tail * ref_sq,
                                   wx @ ((chi**2) @ fw), ref_sq])
    (gap, num, den), (gap_dt, num_dt, den_dt) = sums
    return {"gap": float(gap), "gap_dt": float(gap_dt),
            "bound_ratio": float(num / den),
            "bound_ratio_dt": float(num_dt / den_dt)}


# ---------------------------------------------------------------------------
# weak-formulation remainder terms
# ---------------------------------------------------------------------------


def _require_phase(run) -> None:
    if not getattr(run, "phase", None):
        raise ValidationError("kinetic run does not carry phase-space snapshots")


def _phase_times(run, phi: ProbeFunction) -> np.ndarray:
    times = np.asarray(run.times, dtype=float)
    if phi.t_support[1] > times[-1] + 1e-12:
        raise ValidationError(
            "probe time support extends past the stored snapshots"
        )
    return times


def corrector_term_qplus(params: ModelParams, eps: float, phi: ProbeFunction,
                         run) -> float:
    """Gain-term remainder of the weak formulation.

    eps^-gamma int dt dx dv  Q+(g)(t,x,v) [chi(t,x,v) - phi(t,x)], where
    g = f - rho F is the run's deviation from local equilibrium.  The gain
    operator is rank one in v, so the v-integral collapses to the discrete
    moment sum; time integration uses Simpson's rule on the stored snapshot
    times.
    """
    _check_eps(eps)
    _require_phase(run)
    times = _phase_times(run, phi)
    centers = run.xgrid.centers
    nu_x = nu0(params, centers)
    wv = run.dvm.vgrid.weights
    gain = run.dvm.p_gain * wv
    fl = _flight(params, centers[:, None], run.dvm.vgrid.v[None, :], eps)
    vals = np.empty(times.size)
    for i, t in enumerate(times):
        g = run.g_snapshot(i)
        mb = run.dvm.moment_beta(g)
        chi = fl.average(phi.value(float(t), fl.pts))
        delta = chi - phi.value(float(t), centers)[:, None]
        vals[i] = run.xgrid.dx * float(np.sum(nu_x * mb * (delta @ gain)))
    return float(eps ** (-params.gamma) * simpson(vals, x=times))


def corrector_term_drift_g(params: ModelParams, eps: float, phi: ProbeFunction,
                           run) -> float:
    """Drift remainder against the deviation: eps^{1-gamma} j int dchi/dx g."""
    _check_eps(eps)
    j = drift(params, eps)
    if j == 0.0:
        return 0.0
    _require_phase(run)
    times = _phase_times(run, phi)
    centers = run.xgrid.centers
    wv = run.dvm.vgrid.weights
    fl = _flight(params, centers[:, None], run.dvm.vgrid.v[None, :], eps)
    rate = _dx_rate(params, fl)
    vals = np.empty(times.size)
    for i, t in enumerate(times):
        g = run.g_snapshot(i)
        dchi = _dchi(phi, float(t), fl, rate)
        vals[i] = run.xgrid.dx * float(np.sum((g * dchi) @ wv))
    return float(eps ** (1.0 - params.gamma) * j * simpson(vals, x=times))


def corrector_term_drift_rho(params: ModelParams, eps: float,
                             phi: ProbeFunction, run) -> float:
    """Drift remainder against the local-equilibrium part.

    eps^{1-gamma} j int dt dx rho(t,x) int dv F(v) [dchi/dx - dphi/dx].
    """
    _check_eps(eps)
    j = drift(params, eps)
    if j == 0.0:
        return 0.0
    _require_phase(run)
    times = _phase_times(run, phi)
    centers = run.xgrid.centers
    fw = run.dvm.vgrid.weights * run.dvm.f_eq
    fl = _flight(params, centers[:, None], run.dvm.vgrid.v[None, :], eps)
    rate = _dx_rate(params, fl)
    vals = np.empty(times.size)
    for i, t in enumerate(times):
        rho = run.rho[i]
        dchi = _dchi(phi, float(t), fl, rate)
        dref = phi.dx(float(t), centers)[:, None]
        vals[i] = run.xgrid.dx * float(rho @ ((dchi - dref) @ fw))
    return float(eps ** (1.0 - params.gamma) * j * simpson(vals, x=times))


# ---------------------------------------------------------------------------
# pointwise generator integral
# ---------------------------------------------------------------------------


def operator_limit_lhs(params: ModelParams, t: float, x: float, eps: float,
                       phi: ProbeFunction, *, nodes: int = 64,
                       vcut: float = 1e4, region: str = "full") -> float:
    """Rescaled generator integral whose eps -> 0 limit is nonlocal diffusion.

    Evaluates  eps^-gamma int nu F [chi - phi - (eps/nu) j dphi/dx] dv  at a
    single (t, x).  The velocity integral is split into the unit core, the
    algebraic shoulders up to ``vcut`` (log-substituted adaptive quadrature,
    which spreads out the transition layer near the critical speed), and the
    far tail in the inverted variable v -> vcut/s, so no asymptotic model of
    the corrector is assumed anywhere.  ``region="core"`` restricts to
    |v| <= 1, the portion covered by the small-velocity estimate.
    """
    _check_eps(eps)
    if region not in ("full", "core"):
        raise ValidationError("region must be 'full' or 'core'")
    nux = float(nu0(params, x))
    j = drift(params, eps)
    phix = float(phi.dx(t, np.asarray(x, dtype=float)))
    phiv = float(phi.value(t, np.asarray(x, dtype=float)))
    b = params.beta

    def collide(v: float) -> float:
        chi = chi_eval(params, t, x, v, eps, phi, nodes=nodes)
        return (nux * vel_bracket(v) ** b * equilibrium_pdf(params, v)
                * (chi - phiv))

    core, _ = quad(collide, -1.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)
    if region == "core":
        drift_core = eps * j * phix * 2.0 * params.core_height
        return float((core - drift_core) / eps**params.gamma)

    ymax = np.log(vcut)
    up, _ = quad(lambda y: collide(np.exp(y)) * np.exp(y), 0.0, ymax,
                 epsabs=1e-12, epsrel=1e-10, limit=200)
    dn, _ = quad(lambda y: collide(-np.exp(y)) * np.exp(y), 0.0, ymax,
                 epsabs=1e-12, epsrel=1e-10, limit=200)
    far_up, _ = quad(lambda s: collide(vcut / s) * vcut / s**2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-10, limit=200)
    far_dn, _ = quad(lambda s: collide(-vcut / s) * vcut / s**2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-10, limit=200)
    total = core + up + dn + far_up + far_dn - eps * j * phix
    return float(total / eps**params.gamma)
