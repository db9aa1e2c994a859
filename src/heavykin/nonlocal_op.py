"""Limiting nonlocal diffusion operator: kernel, assembly, solvers, oracles.

The scaled kinetic family converges to  d_t rho + kappa L rho = 0  with

    (L rho)(x) = 1/(1-beta) PV int eta(x, y) (rho(x) - rho(y)) / |x-y|^{1+gamma} dy,

    eta(x, y)  = nu0(x) nu0(y) Gamma(gamma+1) / nubar0(x, y)^{gamma+1},

where nubar0 is the average of nu0 along the straight segment from x to y.
This module evaluates eta (closed form; quadrature fallback as an audit
route), assembles a dense symmetric periodized matrix for L on the torus,
propagates the macroscopic equation exactly in that matrix's eigenbasis,
provides the constant-coefficient spectral reference solution, and
evaluates L phi pointwise on the line for smooth probes (the oracle used by
the operator-limit checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .grids import DensityField, SpatialGrid, snapshot_schedule
from .model import ModelParams, nu0, nu0_integral

__all__ = [
    "segment_average_nu0",
    "eta",
    "kernel_table",
    "NonlocalOperator",
    "assemble",
    "dispersion_constant",
    "symbol",
    "fourier_reference",
    "MacroRun",
    "solve_macro",
    "nonlocal_operator_at",
]


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def segment_average_nu0(params: ModelParams, x, y, *, method: str = "closed"):
    """Average of nu0 along the straight (unwrapped) segment from x to y.

    The cosine profile admits the closed form
    nubar * (1 + delta cos(s(x+y)/2) sinc(s(x-y)/(2 pi))), s = 2 pi / L,
    which is also exact in the coincidence limit y -> x.  ``method=
    "quadrature"`` integrates nu0 along the segment numerically instead
    (slow, scalar); it exists as an independent audit route.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if method == "closed":
        return nu0_integral(params, x, y - x, 1.0)
    if method == "quadrature":
        from scipy.integrate import quad

        def one(xa: float, ya: float) -> float:
            val, _ = quad(lambda u: nu0(params, xa + u * (ya - xa)), 0.0, 1.0,
                          epsabs=1e-13, epsrel=1e-12, limit=100)
            return val

        return np.vectorize(one)(x, y)
    raise ValidationError(f"unknown segment-average method {method!r}")


def eta(params: ModelParams, x, y, *, method: str = "closed"):
    """Kernel weight eta(x, y) of the limit operator.

    The z-integral behind the kernel, int z^gamma e^{-m z} dz with
    m = nubar0(x, y), is Gamma(gamma+1) m^{-gamma-1} in closed form.
    """
    g = params.gamma
    nbar = segment_average_nu0(params, x, y, method=method)
    return (nu0(params, x) * nu0(params, y) * math.gamma(g + 1.0)
            / nbar ** (g + 1.0))


def kernel_table(params: ModelParams, grid: SpatialGrid) -> np.ndarray:
    """Dense eta(x_i, x_j) on the grid's cell centers (the m = 0 image)."""
    x = grid.centers
    return eta(params, x[:, None], x[None, :])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonlocalOperator:
    """Dense symmetric PSD approximation of L on the periodic grid.

    ``matrix`` has exactly vanishing row sums (constants are in the kernel),
    non-positive off-diagonal entries, and is assembled from ``images``
    explicit periodic copies plus a Hurwitz-zeta completion of the infinite
    image sum.
    """

    params: ModelParams
    grid: SpatialGrid
    images: int
    matrix: np.ndarray

    @property
    def gamma(self) -> float:
        return self.params.gamma

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return self.matrix @ rho

    def circulant_symbol(self) -> np.ndarray:
        """Eigenvalues on Fourier modes (flat nu0 only, where A is circulant)."""
        if self.params.nu0_delta != 0.0:
            raise ValidationError("circulant symbol requires a flat rate (delta = 0)")
        return np.fft.rfft(self.matrix[0]).real


# (2k)! / B_2k for k = 1..12, the Euler-Maclaurin divisors of the cephes zeta
_EM_DIVISORS = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
                -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
                1.1646782814350067249e14, -4.5979787224074726105e15,
                1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(s: float, q) -> np.ndarray:
    """Hurwitz zeta(s, q) = sum_{k >= 0} (k + q)^-s for scalar s >= 1, q > 0.

    Euler-Maclaurin summation in the order of the cephes routine: nine
    direct terms, then up to twelve Bernoulli corrections at w = q + 9.  An
    element stops, as cephes does, once its latest term is below MACHEP of
    its sum.  s = 1 gives inf without a warning.
    """
    q = np.asarray(q, dtype=float)
    live = np.ones(q.shape, dtype=bool)
    with np.errstate(divide="ignore"):
        total = q ** -s
        w = q
        for _ in range(9):
            w = w + 1.0
            b = w ** -s
            total = np.where(live, total + b, total)
            live &= ~(np.abs(b / total) < _MACHEP)
        total = np.where(live, total + b * w / (s - 1.0), total)
        total = np.where(live, total - 0.5 * b, total)
        a, k = 1.0, 0.0
        for divisor in _EM_DIVISORS:
            a *= s + k
            b = b / w
            t = a * b / divisor
            total = np.where(live, total + t, total)
            live &= ~(np.abs(t / total) < _MACHEP)
            k += 1.0
            a *= s + k
            b = b / w
            k += 1.0
    return total


def _image_tail(g: float, length: float, x: np.ndarray, images: int) -> np.ndarray:
    """sum_{|m| > images} |x_i - x_j - m L|^(-1-g) for the cell centers x.

    Each side is L^(-1-g) zeta(1 + g, images + 1 -+ d0), d0 = (x_i - x_j) / L.
    d0 depends only on i - j, so zeta is evaluated on the 2 nx - 1 offsets
    and gathered into the nx x nx matrix.
    """
    d0 = (x - x[0]) / length
    zeta = _hurwitz_zeta(1.0 + g, images + 1.0 + np.concatenate([-d0[:0:-1], d0]))
    idx = np.arange(x.size)
    offset = idx[:, None] - idx[None, :] + x.size - 1
    return (length ** (-1.0 - g) * (zeta[::-1] + zeta))[offset]


def assemble(params: ModelParams, grid: SpatialGrid, images: int = 8) -> NonlocalOperator:
    """Assemble the dense periodized operator matrix.

    Far field: midpoint quadrature of the kernel over every cell and
    ``images`` periodic copies on each side, with the remaining infinite
    image sum completed in closed form (the kernel tends to its
    long-segment limit, so the completion is a pair of Hurwitz zeta
    values).  Near field: the singular cell is replaced by its symmetric
    second-order Taylor value, expressed as a pair coupling to the two
    neighbors so that symmetry and the zero row sum stay exact.
    """
    if grid.nx < 16:
        raise ValidationError("parameter constraint violated: nx >= 16")
    if images < 1:
        raise ValidationError("parameter constraint violated: images >= 1")
    if abs(grid.length - params.domain_length) > 1e-12 * params.domain_length:
        raise ValidationError("grid length does not match the model domain length")

    g = params.gamma
    L = params.domain_length
    h = grid.dx
    x = grid.centers
    X, Y = x[:, None], x[None, :]

    coupling = np.zeros((grid.nx, grid.nx))
    for m in range(-images, images + 1):
        d = X - Y - m * L
        with np.errstate(divide="ignore"):
            w = np.abs(d) ** (-1.0 - g)
        if m == 0:
            np.fill_diagonal(w, 0.0)
        coupling += eta(params, X, Y + m * L) * w

    # infinite-image completion: for |m| > images the segment average is nubar
    # to O(1/m), so eta is separable and the distance sum is a Hurwitz zeta
    nu_x = nu0(params, x)
    eta_far = (np.outer(nu_x, nu_x) * math.gamma(g + 1.0)
               * params.nu0_mean ** (-g - 1.0))
    coupling += eta_far * _image_tail(g, L, x, images)
    coupling *= h

    # singular cell |y - x| < h/2: symmetric pairing cancels the odd part and
    # the even part is a second difference with weight (h/2)^(2-gamma)/(2-gamma)
    near = eta(params, x, x + h) * (0.5 * h) ** (2.0 - g) / (2.0 - g) / h**2
    idx = np.arange(grid.nx)
    nxt = (idx + 1) % grid.nx
    coupling[idx, nxt] += near
    coupling[nxt, idx] += near

    if not np.all(np.isfinite(coupling)):
        # the image sum behaves like zeta(1 + gamma) ~ 1/gamma, and is inf
        # once 1 + gamma rounds to 1
        raise NumericError(
            f"nonlocal operator couplings are not finite (gamma = {g:.3g}, "
            f"nx = {grid.nx}); the periodic image sum diverges as gamma -> 0")

    diag = np.diag(coupling.sum(axis=1))
    matrix = (diag - coupling) / (1.0 - params.beta)
    return NonlocalOperator(params=params, grid=grid, images=images, matrix=matrix)


# ---------------------------------------------------------------------------
# constant-coefficient spectral reference
# ---------------------------------------------------------------------------


def _cos_tail_integral(p: float, w0: float, pairs: int = 4) -> float:
    """int_{w0}^oo cos(w) w^{-p} dw by repeated integration by parts.

    Each pair of parts steps trades the integral for boundary terms and a
    remainder two powers smaller; after ``pairs`` rounds the dropped
    remainder is below p^(2 pairs) * w0^(-p - 2 pairs), i.e. < 1e-13 for
    w0 = 200, p <= 3.
    """
    total = 0.0
    coeff = 1.0
    for _ in range(pairs):
        total += coeff * (-np.sin(w0) * w0**(-p) + p * np.cos(w0) * w0**(-p - 1.0))
        coeff *= -p * (p + 1.0)
        p += 2.0
    return total


@lru_cache(maxsize=32)
def dispersion_constant(gamma: float) -> float:
    """C(gamma) = int_R (1 - cos w) |w|^{-1-gamma} dw by adaptive quadrature.

    Split at the singularity; on [1, 200] adaptive quadrature resolves the
    oscillations, beyond that the monotone part integrates in closed form
    and the cosine part comes from a parts expansion with a certified
    remainder, so no closed form of C itself is used anywhere.
    """
    if not 0.0 < gamma < 2.0:
        raise ValidationError("parameter constraint violated: 0 < gamma < 2")
    from scipy.integrate import quad

    w0 = 200.0

    def versine(w: float) -> float:
        # 1 - cos(w) without cancellation near w = 0
        return 2.0 * np.sin(0.5 * w) ** 2 * w ** (-1.0 - gamma)

    inner, _ = quad(versine, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    mid, _ = quad(versine, 1.0, w0, epsabs=1e-13, epsrel=1e-13, limit=2000)
    tail = w0**(-gamma) / gamma - _cos_tail_integral(1.0 + gamma, w0)
    return 2.0 * (inner + mid + tail)


def symbol(params: ModelParams, xi) -> np.ndarray:
    """Fourier multiplier of L (without kappa) for the flat-rate family."""
    if params.nu0_delta != 0.0:
        raise ValidationError("spectral reference requires a flat rate (delta = 0)")
    g = params.gamma
    eta_const = math.gamma(g + 1.0) * params.nu0_mean ** (1.0 - g)
    return (eta_const / (1.0 - params.beta) * dispersion_constant(g)
            * np.abs(np.asarray(xi, dtype=float)) ** g)


def fourier_reference(params: ModelParams, rho0: DensityField, t_final: float) -> DensityField:
    """Exact multiplier evolution of d_t rho + kappa L rho = 0 on the torus.

    Valid only when nu0 is flat (the kernel is then translation invariant).
    """
    if t_final < 0:
        raise ValidationError("parameter constraint violated: t_final >= 0")
    if t_final == 0.0:
        return DensityField(rho0.grid, rho0.values.copy(), time=rho0.time,
                            provenance="fourier reference")
    grid = rho0.grid
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.nx, d=grid.dx)
    decay = np.exp(-params.kappa * symbol(params, xi) * t_final)
    values = np.fft.irfft(np.fft.rfft(rho0.values) * decay, n=grid.nx)
    return DensityField(grid, values, time=rho0.time + t_final,
                        provenance="fourier reference")


# ---------------------------------------------------------------------------
# macroscopic evolution
# ---------------------------------------------------------------------------


@dataclass
class MacroRun:
    """Snapshot trajectory of the macroscopic nonlocal diffusion equation."""

    grid: SpatialGrid
    times: np.ndarray
    rho: np.ndarray     # (n_times, nx)

    def final(self) -> DensityField:
        return DensityField(self.grid, self.rho[-1], time=float(self.times[-1]),
                            provenance="macro solve")

    def masses(self) -> np.ndarray:
        return self.rho.sum(axis=1) * self.grid.dx

    def energies(self) -> np.ndarray:
        return (self.rho**2).sum(axis=1) * self.grid.dx


def solve_macro(op: NonlocalOperator, rho0: DensityField, t_final: float, *,
                snapshot_times=None) -> MacroRun:
    """Exact evolution of d_t rho = -kappa A rho in the eigenbasis of A.

    A is symmetric, so A = V diag(lam) V^T and at each t_k of
    ``snapshot_schedule`` from t0 = rho0.time the density is rho(t_k) =
    V exp(-kappa lam (t_k - t0)) V^T rho0, with no time-step error; the only
    approximation left is the spatial one inside A.
    """
    if rho0.grid.nx != op.grid.nx:
        raise ValidationError("initial density lives on a different grid")
    t0 = rho0.time
    times = snapshot_schedule(t_final, snapshot_times, t0)

    try:
        lam, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition of the macro operator failed: {exc}") from exc
    coeffs = vecs.T @ rho0.values
    start = int(times[0] == t0)   # a snapshot at t0 is rho0 itself, bitwise
    decay = np.exp(-op.params.kappa * np.outer(times[start:] - t0, lam))
    out = np.empty((times.size, op.grid.nx))
    out[:start] = rho0.values
    out[start:] = (decay * coeffs) @ vecs.T
    if not np.all(np.isfinite(out)):
        raise NumericError("macro solve produced non-finite values")
    return MacroRun(grid=op.grid, times=times, rho=out)


# ---------------------------------------------------------------------------
# pointwise evaluation on the line
# ---------------------------------------------------------------------------

_WCUT = 50.0   # mid-range/far-field split, not a cut-off: period chunks follow


def nonlocal_operator_at(params: ModelParams, phi, t: float, x: float, *,
                         far_periods: int = 60) -> float:
    """(L phi)(x) for a smooth probe on the whole line (no periodization).

    Realizes the principal value by symmetric pairing w -> {x+w, x-w}.  The
    near piece uses the substitution w = r^2 to soften the kernel.  The far
    field oscillates forever at the rate's period, so it is integrated in
    period-length chunks out to _WCUT + far_periods * L, where the probe must
    have either decayed to zero or flattened to phi(x); past that point the
    kernel's segment average is within O(1/w) of nubar and the remaining
    tail integrates in closed form (a power tail plus a cosine tail; the
    first-order wobble cancels between the two branches of the pairing).
    This is the oracle the operator-limit diagnostics converge to (times
    kappa).
    """
    from scipy.integrate import quad

    g = params.gamma
    length = params.domain_length
    xarr = np.asarray(x, dtype=float)
    phix = float(phi.value(t, xarr))
    d1 = float(phi.dx(t, xarr))
    d2 = float(phi.dxx(t, xarr))
    # below w_switch the direct bracket 2*phi(x) - phi(x+w) - phi(x-w) loses
    # all relative precision (it is O(w^2) computed from O(1) values) and the
    # kernel amplifies the rounding noise by w^(-1-g); two Taylor terms keep
    # the integrand clean there with O(w_switch^2) relative truncation
    w_switch = 1e-3

    def paired(w: float) -> float:
        ep = eta(params, x, x + w)
        em = eta(params, x, x - w)
        if w < w_switch:
            return (-(ep - em) * d1 * w
                    - 0.5 * (ep + em) * d2 * w * w) * w ** (-1.0 - g)
        up = ep * (phix - float(phi.value(t, np.asarray(x + w))))
        dn = em * (phix - float(phi.value(t, np.asarray(x - w))))
        return (up + dn) * w ** (-1.0 - g)

    def best_effort(fn, lo: float, hi: float) -> float:
        # the paired integrand is C^0 but not C^oo at the endpoints, so the
        # extrapolation may stop short of the requested tolerance; accept the
        # value as long as the reported error estimate is genuinely small
        out = quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=300, full_output=1)
        value, abserr = out[0], out[1]
        if abserr > 1e-7 * (1.0 + abs(value)):
            raise NumericError(
                f"pointwise kernel quadrature failed: error estimate {abserr:.2e}")
        return value

    near = best_effort(lambda r: paired(r * r) * 2.0 * r, 0.0, 1.0)
    mid = best_effort(paired, 1.0, _WCUT)

    w_end = _WCUT + far_periods * length
    far = sum(best_effort(paired, _WCUT + m * length, _WCUT + (m + 1) * length)
              for m in range(far_periods))

    # tail completion beyond w_end: requires the probe to have settled
    samples = np.linspace(w_end, w_end + length, 9)
    outer = np.concatenate([np.atleast_1d(phi.value(t, np.asarray(x + samples))),
                            np.atleast_1d(phi.value(t, np.asarray(x - samples)))])
    scale = 1.0 + abs(phix)
    if np.abs(outer - phix).max() <= 1e-12 * scale:
        tail = 0.0          # constant far field: the pairing vanishes identically
    elif np.abs(outer).max() <= 1e-12 * scale:
        s = 2.0 * np.pi / length
        tail = (phix * math.gamma(g + 1.0) * nu0(params, x) * params.nu0_mean ** (-g)
                * 2.0 * (w_end ** (-g) / g
                         + params.nu0_delta * np.cos(s * x) * s**g
                         * _cos_tail_integral(1.0 + g, s * w_end)))
    else:
        raise NumericError("probe neither decays nor flattens within the "
                           "far-field range; enlarge far_periods")
    return (near + mid + far + tail) / (1.0 - params.beta)
