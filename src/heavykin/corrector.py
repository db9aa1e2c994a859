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
a Gauss-Laguerre rule converges spectrally.  The rule keeps only its nodes
that carry weight (34 of 64).  U is inverted at each (x, v, node) by a
Newton iteration (closed form when the frequency modulation is off).  For
vt != 0, U(z) = (Phi(x + vt z) - Phi(x))/vt with Phi the primitive of nu0,
so each element starts from (Phi^-1(Phi(x) + vt u) - x)/vt, read from a
cubic Hermite table of Phi^-1 over one period; the iteration keeps its own
bracket [u/nu2, u/nu1], bisects when a step would leave it, and stops per
element once the residual |U(z) - u| meets its tolerance.  That residual
test alone judges convergence: the table only saves rounds.  The inversion
depends on (x, v, eps) only, so each diagnostic inverts U once per call.
Every probe is separable, phi(t, x) = a(t) s(x), and the flight average
acts on x only, so chi = a(t) <s>, d_t chi = a'(t) <s> and d_x chi =
a(t) <rate s + s'>: each diagnostic averages the space factor once per
call, and its time loop only scales by a(t).  One engine builds every
flight average (:func:`_averages`) a block of whole rows of the broadcast
(x, v) at a time, so no (x, v, node) array of a whole grid is ever held:
the L2 gap and a sweep row's remainders take O(nx nv) memory, not O(nx nv
nodes).  The three remainder terms of one sweep row read one
:class:`RowFlight`: one probe-time check, one drift j and one inversion for
all three, one d_x chi for both drift terms, and one g = f - rho F per
snapshot.
The module evaluates chi, its x-derivative, the L2_F distance between chi
and phi and its boundedness constant, the remainder terms of the weak
formulation that must vanish with eps, and the pointwise generator integral
whose limit is the nonlocal diffusion operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss

from .errors import NumericError, ValidationError
from .model import (
    ModelParams,
    check_eps,
    critical_speed,
    dnu0,
    dnu0_integral,
    drift,
    equilibrium_pdf,
    nu0,
    nu0_integral,
    vel_bracket,
)

__all__ = [
    "ProbeFunction",
    "constant_probe",
    "gaussian_packet",
    "static_gaussian",
    "modulated_packet",
    "chi_eval",
    "chi_dx",
    "hazard_weight",
    "chi_l2_diagnostics",
    "corrector_term_qplus",
    "corrector_term_drift_g",
    "corrector_term_drift_rho",
    "RowFlight",
    "check_probe_times",
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


class TimeFactor(NamedTuple):
    """Time factor a(t) of a separable probe and its derivative a'(t)."""

    value: Callable
    deriv: Callable


class SpaceFactor(NamedTuple):
    """Space factor s(x) of a separable probe and its derivatives s', s''."""

    value: Callable
    d1: Callable
    d2: Callable


def _zeros(y):
    return np.zeros(np.shape(y))


_UNIT_TIME = TimeFactor(lambda t: np.ones(np.shape(t)), _zeros)


def _bump_time(t_span) -> TimeFactor:
    """The bump rescaled to ``t_span``: 1 at its midpoint, vanishing with all
    derivatives at its endpoints, so the probe is compactly supported in
    time (as the weak-formulation diagnostics require)."""
    t0, t1 = t_span
    mid, half = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    return TimeFactor(lambda t: _bump((t - mid) / half),
                      lambda t: _dbump((t - mid) / half) / half)


def _constant_space(level: float) -> SpaceFactor:
    return SpaceFactor(lambda x: np.full(np.shape(x), float(level)), _zeros, _zeros)


def _gaussian_space(center: float, width: float, amplitude: float) -> SpaceFactor:
    # value and d1 run on every arrival point of a flight, so they work in
    # place, in the operation order of the plain expressions; a 0-d input
    # gives numpy scalars, which the in-place operators rebind
    def value(x):
        u = np.asarray(x, dtype=float) - center
        u /= width
        out = -0.5 * u
        out *= u
        out = np.exp(out, out=out if out.ndim else None)
        out *= amplitude
        return out

    def d1(x):
        slope = np.asarray(x, dtype=float) - center
        slope *= -1.0
        slope /= width**2
        out = value(x)
        out *= slope
        return out

    def d2(x):
        u = (np.asarray(x, dtype=float) - center) / width
        return value(x) * (u * u - 1.0) / width**2

    return SpaceFactor(value, d1, d2)


def _modulated_space(center: float, width: float, k: float,
                     amplitude: float) -> SpaceFactor:
    """cos(k (x - center)) times a Gaussian envelope."""
    def parts(x):
        # cos, sin, the envelope's log-slope -q and the envelope
        u = np.asarray(x, dtype=float) - center
        q = u / width**2
        return np.cos(k * u), np.sin(k * u), q, amplitude * np.exp(-0.5 * q * u)

    def value(x):
        c, _, _, env = parts(x)
        return c * env

    def d1(x):
        c, sn, q, env = parts(x)
        return -(k * sn + q * c) * env

    def d2(x):
        c, sn, q, env = parts(x)
        return ((q * q - 1.0 / width**2 - k * k) * c + 2.0 * k * q * sn) * env

    return SpaceFactor(value, d1, d2)


@dataclass(frozen=True)
class ProbeFunction:
    """Separable smooth space-time test function phi(t, x) = a(t) * s(x).

    ``time`` holds a and a', ``space`` holds s, s' and s''.  The methods
    ``value``, ``dt``, ``dx``, ``dxx`` evaluate phi and its derivatives at
    (t, x); t may be a scalar or an array broadcastable against x.  The
    corrector acts on x only, so every flight average is one of the space
    factor, scaled by the time factor.  ``t_support`` bounds the (compact)
    time support, and the window ``x_center`` +/- ``x_halfwidth`` is the
    spatial quadrature box used by the L2 diagnostics -- the probe need not
    vanish there exactly, Gaussian decay is enough.

    Construction cross-checks a', s' and s'' against central finite
    differences of a and s at interior sample points; disagreement beyond
    1e-6 relative raises :class:`ValidationError`.
    """

    time: TimeFactor
    space: SpaceFactor
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

    def value(self, t, x):
        return self.time.value(t) * self.space.value(x)

    def dt(self, t, x):
        return self.time.deriv(t) * self.space.value(x)

    def dx(self, t, x):
        return self.time.value(t) * self.space.d1(x)

    def dxx(self, t, x):
        return self.time.value(t) * self.space.d2(x)

    def _self_check(self) -> None:
        t0, t1 = self.t_support
        ts = t0 + (t1 - t0) * np.array([0.29, 0.5, 0.71])
        xs = self.x_center + self.x_halfwidth * np.array([-0.43, -0.11, 0.03, 0.3])
        a, s, h = self.time.value, self.space.value, 1e-4
        ht = h * (t1 - t0)   # time-derivative scale is set by the span
        checks = (
            ("dt", a(ts), self.time.deriv(ts), (a(ts + ht) - a(ts - ht)) / (2 * ht)),
            ("dx", s(xs), self.space.d1(xs), (s(xs + h) - s(xs - h)) / (2 * h)),
            ("dxx", s(xs), self.space.d2(xs),
             (s(xs + h) - 2 * s(xs) + s(xs - h)) / h**2),
        )
        for name, base, analytic, fd in checks:
            tol = 1e-6 * (float(np.max(np.abs(base))) + 1e-30 + np.abs(analytic))
            if not np.all(np.abs(np.asarray(analytic) - fd) <= tol):
                raise ValidationError(
                    f"probe self-check failed: {name} does not match finite differences"
                )


def constant_probe(level: float = 1.0, t_span=(0.0, 1.0)) -> ProbeFunction:
    """Probe that is constant in both t and x."""
    return ProbeFunction(_UNIT_TIME, _constant_space(level), t_support=t_span,
                         label="constant")


def _packet(time: TimeFactor, space: SpaceFactor, t_support, center: float,
            width: float, label: str) -> ProbeFunction:
    """Probe whose space factor has a Gaussian envelope of ``width`` about
    ``center``; its quadrature box reaches 8 widths either side."""
    if width <= 0:
        raise ValidationError("parameter constraint violated: width > 0")
    return ProbeFunction(time, space, t_support=t_support, x_center=center,
                         x_halfwidth=max(8.0 * width, 1.0), label=label)


def gaussian_packet(*, center: float = 10.0, width: float = 1.0,
                    amplitude: float = 1.0, t_span=(0.0, 1.0),
                    label: str = "gaussian-packet") -> ProbeFunction:
    """Gaussian in x modulated by the compact smooth bump over ``t_span``."""
    return _packet(_bump_time(t_span), _gaussian_space(center, width, amplitude),
                   t_span, center, width, label)


def static_gaussian(*, center: float = 10.0, width: float = 1.0,
                    amplitude: float = 1.0, box_t=(0.0, 1.0),
                    label: str = "static-gaussian") -> ProbeFunction:
    """Time-independent Gaussian (dt = 0); for pointwise generator checks."""
    return _packet(_UNIT_TIME, _gaussian_space(center, width, amplitude),
                   box_t, center, width, label)


def modulated_packet(*, center: float = 10.0, width: float = 1.0,
                     wavenumber: float = 2.0, amplitude: float = 1.0,
                     t_span=(0.0, 1.0), label: str = "modulated-packet") -> ProbeFunction:
    """Plane wave times a Gaussian envelope, bump-modulated in time."""
    return _packet(_bump_time(t_span),
                   _modulated_space(center, width, wavenumber, amplitude),
                   t_span, center, width, label)


# experiment.phi_choice: each name's probe about ``center`` over ``t_span``
_PROBE_CHOICES = {
    "gaussian": lambda center, t_span: gaussian_packet(
        center=center, width=1.0, t_span=t_span),
    "packet": lambda center, t_span: modulated_packet(
        center=center, width=1.0, t_span=t_span),
    "constant": lambda center, t_span: constant_probe(1.0, t_span=t_span),
}


def _probe_choice(name: str) -> Callable[..., ProbeFunction]:
    """The constructor ``(center, t_span) -> ProbeFunction`` that the
    ``experiment.phi_choice`` value ``name`` selects."""
    if name not in _PROBE_CHOICES:
        raise ValidationError("parameter constraint violated: phi_choice in "
                              f"{{{', '.join(_PROBE_CHOICES)}}} (got {name!r})")
    return _PROBE_CHOICES[name]


# ---------------------------------------------------------------------------
# corrector evaluation
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _laggauss(n: int):
    """The n-point Gauss-Laguerre rule without its weightless trailing nodes.

    Trailing nodes are dropped while the dropped sum of w (1 + u) stays
    <= 2**-60: the (1 + u) covers the d/dx chi growth term, which is linear
    in the flight parameter, so no flight average moves by more than 2**-60
    times the bound on its integrand (64 nodes keep 34, 128 keep 48).  The
    arrays are shared by every caller and thread, hence read-only.
    """
    u, w = laggauss(n)
    dropped = np.cumsum((w * (1.0 + u))[::-1])[::-1]   # sum over nodes >= k
    keep = np.count_nonzero(dropped > 2.0**-60)
    u, w = u[:keep].copy(), w[:keep].copy()
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _flight_shift(params: ModelParams, v, eps: float):
    """Displacement per unit flight parameter: vt = eps * v * bracket(v)^-beta."""
    v = np.asarray(v, dtype=float)
    return eps * v * vel_bracket(v) ** (-params.beta)


_BLOCK = 16384   # (x, v, node) elements per block of grid rows
# Elements per Newton call: each of its float arrays stays under 64 KiB,
# the size below which glibc's free() never trims the heap, so successive
# calls reuse their temporaries' pages instead of faulting in fresh ones.
_NEWTON = 8000
_TABLE = 2048    # intervals of the tabulated inverse primitive over one period


def _primitive(nu_mean: float, delta: float, length: float, y):
    """Phi(y) = int_0^y nu0 = nu_mean (y + (delta/sigma) sin(sigma y)), with
    sigma = 2 pi / L.  Phi' = nu0 >= nu1 > 0 and Phi(y + L) = Phi(y) +
    nu_mean L; for vt != 0 the hazard is U(z) = (Phi(x + vt z) - Phi(x))/vt."""
    sigma = 2.0 * np.pi / length
    return nu_mean * (y + (delta / sigma) * np.sin(sigma * y))


@lru_cache(maxsize=8)
def _inverse_primitive(nu_mean: float, delta: float, length: float):
    """Cubic Hermite table of Phi^-1 over one period, W in [0, nu_mean L].

    The node values solve Phi(y) = W by bisection inside y in W/nu_mean +/-
    delta/sigma (where |Phi(y)/nu_mean - y| <= delta/sigma puts the root),
    and the slopes are 1/nu0 there.  Returns the coefficients (c0, c1, c2,
    c3) of each interval's cubic in the local variable t in [0, 1]; they
    are shared by every caller and thread, hence read-only.
    """
    sigma = 2.0 * np.pi / length
    w = np.linspace(0.0, nu_mean * length, _TABLE + 1)
    lo, hi = w / nu_mean - delta / sigma, w / nu_mean + delta / sigma
    for _ in range(64):   # a width <= L/pi closes to 2^-64 L/pi
        mid = 0.5 * (lo + hi)
        above = _primitive(nu_mean, delta, length, mid) > w
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    y = 0.5 * (lo + hi)
    # dy/dt = h / nu0(y) for the interval width h in W
    m = (length / _TABLE) / (1.0 + delta * np.cos(sigma * y))
    dy = np.diff(y)
    coeffs = (y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:],
              m[:-1] + m[1:] - 2.0 * dy)
    for c in coeffs:
        c.flags.writeable = False
    return coeffs


def _table_start(params: ModelParams, x, vt, u, phi_x):
    """Start of the hazard inversion: z = (Phi^-1(Phi(x) + vt u) - x) / vt
    read from the table, and z = u / nu0(x) where vt = 0.

    The table index is clamped into range, so a huge or non-finite W reads
    a valid interval and returns a poor or NaN start, never an IndexError;
    the caller's bracket repairs it.
    """
    c0, c1, c2, c3 = _inverse_primitive(params.nu0_mean, params.nu0_delta,
                                        params.domain_length)
    with np.errstate(all="ignore"):
        f = (phi_x + vt * u) * (1.0 / (params.nu0_mean * params.domain_length))
        periods = np.floor(f)
        r = (f - periods) * _TABLE
        k = np.fmin(np.fmax(r, 0.0), _TABLE - 1).astype(np.intp)
        t = r - k
        # Horner in place: fewer temporaries for the call to hold
        y = c3[k]
        y *= t
        y += c2[k]
        y *= t
        y += c1[k]
        y *= t
        y += c0[k]
        y += periods * params.domain_length
        y -= x
        z = np.divide(y, vt, out=y)
    rest = vt == 0.0
    if rest.any():
        z[rest] = u[rest] / nu0(params, x[rest])
    return z


def _invert_hazard(params: ModelParams, x, vt, u):
    """Solve U(z) = u for z >= 0, broadcasting over (x, vt, u).

    Closed form when the rate is flat.  Otherwise the elements are inverted
    ``_NEWTON`` at a time by :func:`_newton_block`, with Phi(x) evaluated
    once on x's own shape; an element that has not met |U(z) - u| <= 1e-13
    (1 + u) after 100 rounds raises :class:`NumericError` naming the worst
    one, so an unconverged z is never returned.
    """
    if params.nu0_delta == 0.0:
        return u / params.nu0_mean + 0.0 * (x + vt)
    phi_x = _primitive(params.nu0_mean, params.nu0_delta, params.domain_length, x)
    stuck = []
    with np.nditer([x, vt, u, phi_x, None],
                   flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * 4 + [["writeonly", "allocate"]],
                   order="C", buffersize=_NEWTON) as it:
        z = it.operands[4]
        for xs, vts, us, phis, zs in it:
            zs[...], left = _newton_block(params, xs, vts, us, phis)
            if left is not None:
                stuck.append(left)
    if stuck:
        x, vt, u, resid = (np.concatenate(parts) for parts in zip(*stuck))
        k = int(np.argmax(np.abs(resid) / (1.0 + u)))
        raise NumericError(
            f"hazard inversion at delta={params.nu0_delta:g}: {x.size} of "
            f"{z.size} elements unconverged after 100 rounds; worst at "
            f"x={x[k]:.17g}, vt={vt[k]:.17g}, u={u[k]:.17g}, "
            f"residual {resid[k]:.3g}")
    return z


def _newton_block(params: ModelParams, x, vt, u, phi_x):
    """Bracketed Newton iteration on one block of elements (1-D arrays).

    U' = nu0 in [nu1, nu2] brackets the root in [u/nu2, u/nu1].  Each element
    starts from the tabulated root (:func:`_table_start`, from Phi(x) given
    in ``phi_x``) moved into its bracket, keeps its own bracket, takes the
    Newton step when it stays inside and bisects otherwise, and leaves once
    its residual meets the tolerance: the start only saves rounds,
    convergence is judged by the residual alone.  Returns z and, for the
    elements still short after 100 rounds, (x, vt, u, residual) (None when
    every element converged).
    """
    out = np.empty(u.shape)
    index = np.arange(u.size)
    lo, hi = u / params.nu2, u / params.nu1
    # fmax/fmin rather than clip: a NaN start lands on the bracket
    z = np.fmin(np.fmax(_table_start(params, x, vt, u, phi_x), lo), hi)
    for _ in range(100):
        resid = nu0_integral(params, x, vt, z) - u
        # every element is written; the unconverged are overwritten later
        out[index] = z
        live = np.flatnonzero(~(np.abs(resid) <= 1e-13 * (1.0 + u)))
        if live.size == 0:
            return out, None
        if live.size < index.size:
            index, x, vt, u, z, resid, lo, hi = (
                a.take(live) for a in (index, x, vt, u, z, resid, lo, hi))
        # U increases, so a positive residual puts z above the root
        above = resid > 0.0
        lo, hi = np.where(above, lo, z), np.where(above, z, hi)
        step = z - resid / nu0(params, x + vt * z)
        # a step onto a bracket end is taken, since the root may sit there;
        # a step that leaves z where it is would repeat the round, so it
        # bisects instead
        z = np.where((step >= lo) & (step <= hi) & (step != z), step,
                     0.5 * (lo + hi))
    return out, (x, vt, u, resid)


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


def _flight(params: ModelParams, x, v, eps: float, nodes: int = 64) -> _Flight:
    """Invert the hazard once for the broadcast (x, v) at this eps."""
    u, w = _laggauss(nodes)
    xb, vb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(v, dtype=float))
    vt = _flight_shift(params, vb, eps)
    X, VT = xb[..., None], vt[..., None]
    try:
        Z = _invert_hazard(params, X, VT, u)
    except NumericError as exc:
        raise NumericError(f"{exc} (eps={eps:g})") from None
    pts = np.multiply(VT, Z)
    pts += X
    return _Flight(X, VT, Z, pts, w)


def _dx_rate(params: ModelParams, fl: _Flight):
    """Factor multiplying the probe in the dchi/dx integrand.

    The derivative of the arrival rate, dnu0/nu0, minus the derivative of
    the survival weight; None when the rate is flat (both vanish).
    """
    if params.nu0_delta == 0.0:
        return None
    return (dnu0(params, fl.pts) / nu0(params, fl.pts)
            - dnu0_integral(params, fl.x, fl.vt, fl.z))


def _averages(params: ModelParams, space: SpaceFactor, x, v, eps: float, *,
              dchi: bool, nodes: int = 64):
    """<s> and, when ``dchi``, <rate s + s'> (d_x chi / a(t)) over the
    flights from the broadcast (x, v): each in that shape (a float when it is
    0-d), the second None without ``dchi``.

    The flight is built for one block of whole rows (along the last axis) at
    a time, about ``_BLOCK`` (x, v, node) elements, so on a grid of x (nx, 1)
    by v (1, nv) no (nx, nv, nodes) array is ever held; a row longer than a
    block is a block of its own, so a 1-D call holds its whole flight.  Each
    row's average is the same (n, nodes) @ (nodes,) product as in one flight
    over the whole shape, and every other step is elementwise, so the
    averages equal that flight's bit for bit.  s is sampled once per
    element, for both averages, and s' at most once.
    """
    check_eps(eps)
    x, v = np.broadcast_arrays(x, v)   # _flight makes them float
    shape = x.shape
    grid = (math.prod(shape[:-1]), shape[-1] if shape else 1)
    x, v = x.reshape(grid), v.reshape(grid)
    out = np.empty((1 + dchi,) + grid)
    rows = max(1, _BLOCK // (max(grid[1], 1) * _laggauss(nodes)[0].size))
    for lo in range(0, grid[0], rows):
        block = slice(lo, lo + rows)
        fl = _flight(params, x[block], v[block], eps, nodes)
        s = space.value(fl.pts)
        out[0, block] = s @ fl.w
        if dchi:
            rate = _dx_rate(params, fl)
            if rate is None:
                out[1, block] = space.d1(fl.pts) @ fl.w
            else:
                rate *= s
                rate += space.d1(fl.pts)
                out[1, block] = rate @ fl.w
                del rate   # not held through the next block's flight
    out = [a.reshape(shape) if shape else float(a[0, 0]) for a in out]
    return out[0], out[1] if dchi else None


def chi_eval(params: ModelParams, t, x, v, eps: float, phi: ProbeFunction,
             *, nodes: int = 64):
    """Corrected probe chi(t, x, v); broadcasts over x and v at fixed t.

    Convergence in ``nodes`` is spectral while the probe varies slowly on
    the mean-flight scale; probes oscillating faster than a few periods per
    flight (phase eps*xi*v*bracket(v)^-beta above ~3) need more nodes.
    """
    return phi.time.value(t) * _averages(params, phi.space, x, v, eps,
                                         dchi=False, nodes=nodes)[0]


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
    return phi.time.value(t) * _averages(params, phi.space, x, v, eps,
                                         dchi=True, nodes=nodes)[1]


def hazard_weight(params: ModelParams, x, v, eps: float, *, nodes: int = 64):
    """Flight average of the unit probe, exactly int_0^oo e^{-u} du = 1.

    It sums the kept Gauss-Laguerre weights, alike for every (x, v, eps): it
    shows that the rule is normalized and the inversion converged, not its z.
    """
    return _averages(params, _constant_space(1.0), x, v, eps, dchi=False,
                     nodes=nodes)[0]


# ---------------------------------------------------------------------------
# integrated diagnostics
# ---------------------------------------------------------------------------


def _legendre_rule(lo: float, hi: float, n: int):
    nodes, weights = leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def _gap_vgrid(params: ModelParams, eps: float, nv: int):
    # resolve well past the transition speed where flights start to outrun
    # the probe; beyond vmax the corrector is negligible and the tail is
    # added analytically
    from .grids import VelocityGrid

    critical = critical_speed(params, eps)
    if np.isinf(critical):
        raise NumericError(f"critical speed eps^(-1/(1-beta)) overflows at "
                           f"eps={eps}, beta={params.beta}")
    return VelocityGrid.spanning(nv, 10.0 * max(critical, 10.0))


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
    entries are the same two numbers for the time derivatives.  chi - phi
    = a(t) (<s> - s) and d_t(chi - phi) = a'(t) (<s> - s), so each number is
    a spatial sum over one flight average of s times the time integral of
    a^2 or a'^2.  A time-independent probe (a' = 0) leaves the d/dt ratio
    0/0 and raises :class:`ValidationError`.
    """
    check_eps(eps)
    tq, wt = _legendre_rule(phi.t_support[0], phi.t_support[1], nt)
    a2, da2 = wt @ phi.time.value(tq) ** 2, wt @ phi.time.deriv(tq) ** 2
    if da2 == 0.0:
        raise ValidationError(
            f"probe '{phi.label}' is time-independent: the d/dt bound ratio "
            "is undefined")
    xq, wx = _legendre_rule(phi.x_center - phi.x_halfwidth,
                            phi.x_center + phi.x_halfwidth, nxq)
    vgrid = _gap_vgrid(params, eps, nv)
    fw = vgrid.weights * equilibrium_pdf(params, vgrid.v)
    tail = params.tail_mass_beyond(vgrid.vmax)
    chi, _ = _averages(params, phi.space, xq[:, None], vgrid.v[None, :], eps,
                       dchi=False, nodes=nodes)
    ref = phi.space.value(xq)
    ref_sq = wx @ ref**2
    bulk = wx @ (((chi - ref[:, None]) ** 2) @ fw)
    # rows: values, time derivatives; columns: gap, ||chi||^2, ||phi||^2
    sums = np.outer([a2, da2], [bulk + tail * ref_sq, wx @ ((chi**2) @ fw), ref_sq])
    (gap, num, den), (gap_dt, num_dt, den_dt) = sums
    return {"gap": float(gap), "gap_dt": float(gap_dt),
            "bound_ratio": float(num / den),
            "bound_ratio_dt": float(num_dt / den_dt)}


# ---------------------------------------------------------------------------
# weak-formulation remainder terms
# ---------------------------------------------------------------------------


def _simpson(y, x) -> float:
    """Composite Simpson rule for samples y at strictly increasing nodes x.

    The rule and operation order of scipy.integrate.simpson (scipy >= 1.11):
    a parabola through each node triple, and for an even sample count
    Cartwright's correction over the last interval.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    n = y.size
    if n == 2:
        return float(0.5 * h[0] * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                 + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:stop + 2:2] * (2.0 - ratio)))
    if n % 2 == 0:
        # one-element slices keep scipy's array arithmetic (its power loop)
        a, b = h[-2:-1], h[-1:]
        total += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                  + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                  - b ** 3 / (6 * a * (a + b)) * y[-3])[0]
    return float(total)


def check_probe_times(phi: ProbeFunction, times) -> np.ndarray:
    """``times`` as an array, once the probe's time support is known to lie
    within [times[0], times[-1]]: the remainders integrate over the
    snapshots only, so support outside them would be dropped silently."""
    times = np.asarray(times, dtype=float)
    t0, t1 = phi.t_support
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValidationError(
            f"probe time support [{t0:g}, {t1:g}] must lie within the "
            f"snapshot times [{times[0]:g}, {times[-1]:g}]")
    return times


class RowFlight:
    """What the three remainder terms of one sweep row read: the probe
    ``phi`` and the ``run``, the run's snapshot times, checked once against
    the probe (:func:`check_probe_times`), the drift ``j`` at the run's eps,
    the deviation g = f - rho F of each snapshot, and on its (cell centre,
    velocity node) grid <s> and, when there is a drift, d_x chi / a(t) =
    <rate s + s'>.  Both averages come from one blocked pass
    (:func:`_averages`), so a row holds O(nx nv) memory.  The deviations
    and averages are built on first use."""

    def __init__(self, phi: ProbeFunction, run) -> None:
        self.phi, self.run = phi, run
        self.times = check_probe_times(phi, run.times)
        self.j = drift(run.params, run.eps)

    @cached_property
    def deviations(self) -> tuple:
        """g at every snapshot, which Q+ and the drift term in g read."""
        run = self.run
        return tuple(run.g_snapshot(i) for i in range(len(run.times)))

    @cached_property
    def _both(self) -> tuple:
        run = self.run
        return _averages(run.params, self.phi.space, run.xgrid.centers[:, None],
                         run.dvm.vgrid.v[None, :], run.eps,
                         dchi=self.j != 0.0)

    @property
    def chi(self) -> np.ndarray:
        """<s>, which Q+ reads."""
        return self._both[0]

    @property
    def dchi(self) -> np.ndarray:
        """<rate s + s'>, which both drift remainders read (None without
        a drift, when both vanish)."""
        return self._both[1]


def corrector_term_qplus(row: RowFlight) -> float:
    """Gain-term remainder of the weak formulation.

    eps^-gamma int dt dx dv  Q+(g)(t,x,v) [chi(t,x,v) - phi(t,x)], where
    g = f - rho F is the run's deviation from local equilibrium.  The gain
    operator is rank one in v, so the v-integral collapses to the discrete
    moment sum against the t-independent kernel nu0 ((<s> - s) @ gain);
    time integration uses Simpson's rule on the stored snapshot times.
    """
    phi, run, times = row.phi, row.run, row.times
    params = run.params
    centers = run.xgrid.centers
    gain = run.dvm.p_gain * run.dvm.vgrid.weights
    # snapshots first: a run without them is refused before the flight
    moments = [run.dvm.moment_beta(g) for g in row.deviations]
    delta = row.chi - phi.space.value(centers)[:, None]
    kernel = nu0(params, centers) * (delta @ gain)
    vals = np.array([kernel @ m for m in moments])
    vals *= run.xgrid.dx * phi.time.value(times)
    return float(run.eps ** (-params.gamma) * _simpson(vals, times))


def corrector_term_drift_g(row: RowFlight) -> float:
    """Drift remainder against the deviation: eps^{1-gamma} j int dchi/dx g."""
    if row.j == 0.0:
        return 0.0
    phi, run, times = row.phi, row.run, row.times
    wv = run.dvm.vgrid.weights
    # snapshots first: a run without them is refused before the flight
    gs, dchi = row.deviations, row.dchi
    vals = np.array([np.sum((g * dchi) @ wv) for g in gs])
    vals *= run.xgrid.dx * phi.time.value(times)
    return float(run.eps ** (1.0 - run.params.gamma) * row.j
                 * _simpson(vals, times))


def corrector_term_drift_rho(row: RowFlight) -> float:
    """Drift remainder against the local-equilibrium part.

    eps^{1-gamma} j int dt dx rho(t,x) int dv F(v) [dchi/dx - dphi/dx]; the
    v-integral is the t-independent kernel (<rate s + s'> - s') @ F.
    """
    if row.j == 0.0:
        return 0.0
    phi, run, times = row.phi, row.run, row.times
    fw = run.dvm.vgrid.weights * run.dvm.f_eq
    kernel = (row.dchi - phi.space.d1(run.xgrid.centers)[:, None]) @ fw
    vals = run.xgrid.dx * phi.time.value(times) * (np.asarray(run.rho) @ kernel)
    return float(run.eps ** (1.0 - run.params.gamma) * row.j
                 * _simpson(vals, times))


# ---------------------------------------------------------------------------
# pointwise generator integral
# ---------------------------------------------------------------------------

_VCUT = 1e4   # shoulder/far-tail split, not a cut-off: the far piece reaches |v| = oo


def operator_limit_lhs(params: ModelParams, t: float, x: float, eps: float,
                       phi: ProbeFunction, *, nodes: int = 64,
                       region: str = "full") -> float:
    """Rescaled generator integral whose eps -> 0 limit is nonlocal diffusion.

    Evaluates  eps^-gamma int nu F [chi - phi - (eps/nu) j dphi/dx] dv  at a
    single (t, x).  The velocity integral is split into the unit core, the
    algebraic shoulders up to ``_VCUT`` (log-substituted adaptive quadrature,
    which spreads out the transition layer near the critical speed), and the
    far tail in the inverted variable v -> _VCUT/s, so no asymptotic model of
    the corrector is assumed anywhere.  ``region="core"`` restricts to
    |v| <= 1, the portion covered by the small-velocity estimate.
    """
    from scipy.integrate import quad

    check_eps(eps)
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

    ymax = np.log(_VCUT)
    up, _ = quad(lambda y: collide(np.exp(y)) * np.exp(y), 0.0, ymax,
                 epsabs=1e-12, epsrel=1e-10, limit=200)
    dn, _ = quad(lambda y: collide(-np.exp(y)) * np.exp(y), 0.0, ymax,
                 epsabs=1e-12, epsrel=1e-10, limit=200)
    far_up, _ = quad(lambda s: collide(_VCUT / s) * _VCUT / s**2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-10, limit=200)
    far_dn, _ = quad(lambda s: collide(-_VCUT / s) * _VCUT / s**2, 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-10, limit=200)
    total = core + up + dn + far_up + far_dn - eps * j * phix
    return float(total / eps**params.gamma)
