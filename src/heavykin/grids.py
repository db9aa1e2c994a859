"""Spatial torus grid, compactified velocity grid, and the calibrated
discrete velocity model shared by the deterministic solver and the checks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .model import ModelParams, equilibrium, nu0, vel_bracket

__all__ = [
    "SpatialGrid",
    "VelocityGrid",
    "DiscreteModel",
    "DensityField",
    "periodized_gaussian",
    "snapshot_schedule",
]

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of nx cell centers on [0, L)."""

    nx: int
    length: float

    def __post_init__(self) -> None:
        if self.nx < 2:
            raise ValidationError(f"need nx >= 2 spatial cells (got nx={self.nx})")
        if not self.length > 0:
            raise ValidationError(f"domain length must be positive (got {self.length})")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @cached_property
    def centers(self) -> np.ndarray:
        return (np.arange(self.nx) + 0.5) * self.dx


@dataclass(frozen=True)
class VelocityGrid:
    """Cell-centered grid in the compactified variable u = v/(vscale + |v|).

    The nv nodes are midpoints of a uniform partition of (-1, 1); the map
    v = vscale * u / (1 - |u|) spreads them over the whole line with the
    outermost node at |v| = vscale * (nv - 1).  Quadrature weights carry the
    Jacobian dv/du = vscale / (1 - |u|)^2, so sums w_j h(v_j) approximate
    line integrals, with a quantifiable remainder beyond the last node for
    power-law integrands.

    nv must be odd so that v = 0 is a node (the stagnant column of the
    transport stencil), and the scale must keep the weights finite.
    """

    nv: int
    vscale: float = 1.0

    def __post_init__(self) -> None:
        if self.nv < 9 or self.nv % 2 == 0:
            raise ValidationError(f"need nv odd and >= 9 (got nv={self.nv})")
        if not self.vscale > 0:
            raise ValidationError(f"vscale must be positive (got {self.vscale})")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.weights)):
                raise ValidationError(f"vscale {self.vscale:.3g} overflows the "
                                      f"quadrature weights (nv={self.nv})")

    @classmethod
    def spanning(cls, nv: int, vmax: float) -> "VelocityGrid":
        """The grid of nv nodes whose outermost node sits at |v| = vmax."""
        return cls(nv, vmax / (nv - 1))

    @property
    def du(self) -> float:
        return 2.0 / self.nv

    @cached_property
    def u(self) -> np.ndarray:
        return -1.0 + (np.arange(self.nv) + 0.5) * self.du

    @cached_property
    def v(self) -> np.ndarray:
        return self.vscale * self.u / (1.0 - np.abs(self.u))

    @cached_property
    def weights(self) -> np.ndarray:
        return self.vscale * self.du / (1.0 - np.abs(self.u)) ** 2

    @property
    def vmax(self) -> float:
        return self.vscale * (self.nv - 1)


def _row_dot(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights_j values_j along the last axis, one dot product per
    row: a row sums to the same bits alone or stacked with other rows,
    which a matrix-vector product does not promise."""
    return np.matmul(values[..., None, :], weights[:, None])[..., 0, 0][()]


@dataclass(frozen=True)
class DiscreteModel:
    """Weight-calibrated discrete velocity model on a VelocityGrid.

    The equilibrium is renormalized on the grid (sum w_j F_j = 1 exactly) and
    the post-collision density is built from the *discrete* beta-moment, so
    the collision operator's algebraic identities -- Q(F) = 0, mass
    conservation, the coercivity inequality -- hold to round-off in the
    discrete space instead of only up to quadrature error.  The continuum
    constants are recovered as the grid refines.  :meth:`decompose` and
    :attr:`w_beta` own the split f = rho F + g and the weights w <v>^beta.
    """

    params: ModelParams
    vgrid: VelocityGrid

    @cached_property
    def bracket_beta(self) -> np.ndarray:
        """<v_j>^beta, the velocity part of the collision frequency."""
        return vel_bracket(self.vgrid.v) ** self.params.beta

    @cached_property
    def w_beta(self) -> np.ndarray:
        """w_j <v_j>^beta, the quadrature weights of the beta-moment."""
        return self.vgrid.weights * self.bracket_beta

    @cached_property
    def f_eq(self) -> np.ndarray:
        raw = equilibrium(self.params).pdf(self.vgrid.v)
        return raw / np.sum(self.vgrid.weights * raw)

    @cached_property
    def c_beta_disc(self) -> float:
        return float(np.sum(self.w_beta * self.f_eq))

    @cached_property
    def p_gain(self) -> np.ndarray:
        """Discrete post-collision density; sum w_j p_j = 1 exactly."""
        return self.bracket_beta * self.f_eq / self.c_beta_disc

    # -- discrete moments ------------------------------------------------

    def density(self, values: np.ndarray) -> np.ndarray:
        """rho = sum_j w_j f_j along the last axis."""
        return _row_dot(values, self.vgrid.weights)

    def moment_beta(self, values: np.ndarray) -> np.ndarray:
        """m_beta(f) = sum_j w_j <v_j>^beta f_j along the last axis."""
        return _row_dot(values, self.w_beta)

    def decompose(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, g): f = rho F + g along the last axis, g shaped like f."""
        rho = self.density(values)
        return rho, values - np.multiply.outer(rho, self.f_eq)

    def collision_operator(self, x, values: np.ndarray) -> np.ndarray:
        """Q(f) = nu0(x) [p(v) m_beta(f) - <v>^beta f] on grid values.

        x may be scalar or an array matching the leading axis of values.
        """
        mb = self.moment_beta(values)
        gain = np.multiply.outer(mb, self.p_gain)
        loss = values * self.bracket_beta
        scale = np.asarray(nu0(self.params, x))
        return scale[..., None] * (gain - loss) if scale.ndim else scale * (gain - loss)


@dataclass
class DensityField:
    """rho(x) on a SpatialGrid at a given time, with provenance."""

    grid: SpatialGrid
    values: np.ndarray
    time: float = 0.0
    provenance: str = "unspecified"

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx,):
            raise ValidationError(
                f"density values shape {self.values.shape} does not match grid nx={self.grid.nx}"
            )

    def mass(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.grid.dx))


def periodized_gaussian(grid: SpatialGrid, center: float | None = None,
                        width: float = 1.0, images: int = 8) -> np.ndarray:
    """Normalized periodized Gaussian profile on the torus (default initial rho0).

    Sums 2*images + 1 copies of the normal density; the truncation error is
    below machine precision for width << L.  Values are renormalized so the
    discrete mass is exactly one.
    """
    if width <= 0:
        raise ValidationError(f"profile width must be positive (got {width})")
    c = 0.5 * grid.length if center is None else center
    x = grid.centers
    out = np.zeros(grid.nx)
    for m in range(-images, images + 1):
        z = (x - c - m * grid.length) / width
        out += np.exp(-0.5 * z * z)
    out /= _SQRT_2PI * width
    out /= np.sum(out) * grid.dx
    return out


def snapshot_schedule(t_final: float, snapshot_times=None, t0: float = 0.0) -> np.ndarray:
    """Snapshot times over ``t_final`` > 0 from ``t0``: six equal steps, or the
    given times, which must increase strictly within [t0, t0 + t_final]."""
    if not t_final > 0:
        raise ValidationError(f"parameter constraint violated: t_final > 0 (got {t_final})")
    if snapshot_times is None:
        return t0 + np.linspace(0.0, t_final, 6)
    times = np.asarray(snapshot_times, dtype=float)
    if not (times.ndim == 1 and times.size > 0 and times[0] >= t0
            and times[-1] <= t0 + t_final and np.all(np.diff(times) > 0)):
        raise ValidationError(
            "parameter constraint violated: snapshot times strictly increasing "
            f"within [{t0:g}, {t0 + t_final:g}] (got {times.tolist()})")
    return times
