"""Deterministic finite-volume solver for the scaled kinetic equation.

In macroscopic time the equation reads

    d_t f  =  - eps^(1-gamma) (v - j_eps) d_x f  +  eps^(-gamma) Q(f),

discretized on a spatial torus times a compactified velocity grid with Strang
splitting: half transport, full implicit collision, half transport.  The
collision step exploits the rank-one gain and is solved in closed form per
x-column, so the stiff rate nu/eps^gamma costs nothing in stability.
"""

from __future__ import annotations

import math
import time as _time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .grids import DensityField, DiscreteModel, SpatialGrid, VelocityGrid, periodized_gaussian
from .model import ModelParams, drift, nu0

__all__ = [
    "PhaseField",
    "KineticRun",
    "collision_apply",
    "transport_apply",
    "run_kinetic_det",
    "auto_vscale",
]


@dataclass
class PhaseField:
    """f(x_i, v_j) >= 0 on SpatialGrid x VelocityGrid at a given time."""

    xgrid: SpatialGrid
    dvm: DiscreteModel
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        expected = (self.xgrid.nx, self.dvm.vgrid.nv)
        if self.values.shape != expected:
            raise ValidationError(
                f"phase values shape {self.values.shape} != (nx, nv) = {expected}"
            )

    @classmethod
    def from_density(cls, xgrid: SpatialGrid, dvm: DiscreteModel,
                     rho: np.ndarray, time: float = 0.0) -> "PhaseField":
        """Local-equilibrium data f = rho(x) F(v)."""
        return cls(xgrid, dvm, np.outer(rho, dvm.f_eq), time)

    def density(self) -> DensityField:
        return DensityField(self.xgrid, self.dvm.density(self.values),
                            time=self.time, provenance="deterministic marginal")

    def mass(self) -> float:
        return float(np.sum(self.dvm.density(self.values)) * self.xgrid.dx)

    def gnorm2(self) -> float:
        """|| f - rho F ||^2 in the weighted space L^2(nu F^-1) (both variables)."""
        dvm = self.dvm
        rho = dvm.density(self.values)
        g = self.values - np.outer(rho, dvm.f_eq)
        nu_x = nu0(dvm.params, self.xgrid.centers)
        col = (dvm.vgrid.weights * dvm.bracket_beta) / dvm.f_eq
        return float(self.xgrid.dx * np.sum(nu_x[:, None] * g * g * col[None, :]))

    def fnorm2_finv(self) -> float:
        """|| f ||^2 in L^2(F^-1) (the a-priori bound's right-hand-side norm)."""
        col = self.dvm.vgrid.weights / self.dvm.f_eq
        return float(self.xgrid.dx * np.sum(self.values**2 * col[None, :]))


def collision_apply(fld: PhaseField, dt_coll: float, eps: float = 1.0) -> PhaseField:
    """One backward-Euler collision step, exact per x-column via the rank-one gain.

    Solving (1 + lam <v>^b) f' = f + lam p m' with m' = m_beta(f') reduces to a
    scalar equation per column: m' = S1 / (1 - lam S2), and lam S2 < 1 always
    (S2 is a p-average of lam<v>^b/(1+lam<v>^b) < 1), so the step is
    unconditionally well-posed, positivity-preserving, and exactly conservative.
    """
    if not dt_coll > 0:
        raise ValidationError(f"dt_coll must be positive (got {dt_coll})")
    dvm = fld.dvm
    p = dvm.params
    lam = dt_coll * nu0(p, fld.xgrid.centers) / eps**p.gamma  # (nx,)
    b = dvm.bracket_beta
    w = dvm.vgrid.weights
    denom = 1.0 + lam[:, None] * b[None, :]
    s1 = (fld.values / denom) @ (w * b)
    s2 = ((w * b * dvm.p_gain)[None, :] / denom).sum(axis=1)
    mstar = s1 / (1.0 - lam * s2)
    fld.values = (fld.values + (lam * mstar)[:, None] * dvm.p_gain[None, :]) / denom
    return fld


def _minmod_ratio(delta_up: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """phi(r) with r = delta_up/delta, zero wherever delta vanishes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(delta != 0.0, delta_up / np.where(delta != 0.0, delta, 1.0), 0.0)
    return np.clip(r, 0.0, 1.0)


def transport_apply(fld: PhaseField, dt: float, eps: float,
                    scheme_order: int = 1) -> PhaseField:
    """Periodic transport at per-column speed eps^(1-gamma) (v_j - j_eps).

    scheme_order 1 is donor-cell upwind; 2 is MUSCL with the minmod limiter
    (TVD, positivity-preserving at CFL <= 1).  Column mass is conserved by
    telescoping fluxes in either case.
    """
    p = fld.dvm.params
    speeds = eps ** (1.0 - p.gamma) * (fld.dvm.vgrid.v - drift(p, eps))  # (nv,)
    dx = fld.xgrid.dx
    smax = float(np.max(np.abs(speeds)))
    if smax > 0 and dt > dx / smax * (1.0 + 1e-12):
        raise NumericError(
            f"CFL violation in transport: dt={dt:.6g} exceeds admissible "
            f"dt <= {dx / smax:.6g} (max speed {smax:.6g}, dx {dx:.6g})"
        )
    if scheme_order not in (1, 2):
        raise ValidationError(f"scheme_order must be 1 or 2 (got {scheme_order})")

    f = fld.values
    c = speeds * dt / dx  # signed Courant numbers per column
    fp = np.roll(f, -1, axis=0)
    if scheme_order == 1:
        fm = np.roll(f, 1, axis=0)
        fld.values = np.where(c[None, :] >= 0.0,
                              f - c[None, :] * (f - fm),
                              f - c[None, :] * (fp - f))
        fld.time += dt
        return fld

    # MUSCL: limited flux at the i+1/2 face for every column, by speed sign.
    d = fp - f                      # f_{i+1} - f_i
    dm = np.roll(d, 1, axis=0)      # f_i - f_{i-1}
    dp = np.roll(d, -1, axis=0)     # f_{i+2} - f_{i+1}
    cb = np.abs(c)[None, :]
    s = speeds[None, :]
    flux_pos = s * (f + 0.5 * (1.0 - cb) * _minmod_ratio(dm, d) * d)
    flux_neg = s * (fp - 0.5 * (1.0 - cb) * _minmod_ratio(dp, d) * d)
    flux = np.where(s >= 0.0, flux_pos, flux_neg)
    fld.values = f - (dt / dx) * (flux - np.roll(flux, 1, axis=0))
    fld.time += dt
    return fld


def auto_vscale(params: ModelParams, nv: int, eps_min: float,
                tail_target: float = 1e-3) -> float:
    """Velocity-grid scale so the outermost node covers both the critical
    scale eps^(-1/(1-beta)) and the tail-mass-loss target."""
    critical = eps_min ** (-1.0 / (1.0 - params.beta))
    # 5% headroom keeps the realized loss strictly inside the budget
    tail = (2.0 * params.kappa / (params.alpha * tail_target)) ** (1.0 / params.alpha)
    return 1.05 * max(critical, tail, 10.0) / (nv - 1)


@dataclass
class KineticRun:
    """Everything a kinetic_fv run produces: density/diagnostic trajectories
    and (optionally) full phase-space snapshots for the corrector checks."""

    params: ModelParams
    eps: float
    xgrid: SpatialGrid
    dvm: DiscreteModel
    scheme_order: int
    dt_max: float
    times: np.ndarray
    rho: np.ndarray                     # (n_times, nx)
    gnorm2: np.ndarray                  # (n_times,)
    mass: np.ndarray                    # (n_times,)
    f0_norm2: float                     # || f_0 ||^2_{L^2(F^-1)}
    rho_l2: np.ndarray                  # (n_times,) of || rho ||_{L^2}
    phase: list[np.ndarray] = field(default_factory=list)  # [] unless stored
    wall_time: float = 0.0

    def g_snapshot(self, index: int) -> np.ndarray:
        """g = f - rho F at a stored phase snapshot."""
        if not self.phase:
            raise ValidationError("run was made without store_phase=True")
        f = self.phase[index]
        return f - np.outer(self.dvm.density(f), self.dvm.f_eq)


def run_kinetic_det(params: ModelParams, eps: float, *,
                    xgrid: SpatialGrid, vgrid: VelocityGrid,
                    t_final: float, snapshot_times=None,
                    scheme_order: int = 1, cfl: float = 0.9,
                    rho0: np.ndarray | None = None,
                    store_phase: bool = False) -> KineticRun:
    """Strang-split (transport/collision/transport) run up to t_final.

    Snapshot times are landed on exactly by shortening steps.  Emits a warning
    with the quantified tail-mass loss when the velocity grid misses either
    the critical scale eps^(-1/(1-beta)) or the 1e-3 tail-mass budget.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps in (0, 1] (got {eps})")
    if not t_final > 0:
        raise ValidationError(f"t_final must be positive (got {t_final})")
    if not 0.0 < cfl <= 1.0:
        raise ValidationError(f"cfl must lie in (0, 1] (got {cfl})")

    dvm = DiscreteModel(params, vgrid)
    critical = eps ** (-1.0 / (1.0 - params.beta))
    if vgrid.vmax < critical or dvm.tail_mass_loss > 1e-3:
        warnings.warn(
            f"velocity grid vmax={vgrid.vmax:.3g} below the critical scale "
            f"{critical:.3g} or tail-mass loss {dvm.tail_mass_loss:.3e} > 1e-3; "
            "results carry the quoted tail defect",
            stacklevel=2,
        )

    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, t_final, 6)
    snap = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    if snap.size == 0 or snap[0] < 0 or snap[-1] > t_final * (1 + 1e-12):
        raise ValidationError("snapshot times must lie within [0, t_final]")

    if rho0 is None:
        rho0 = periodized_gaussian(xgrid)
    fld = PhaseField.from_density(xgrid, dvm, np.asarray(rho0, dtype=float))

    speeds = eps ** (1.0 - params.gamma) * (vgrid.v - drift(params, eps))
    smax = float(np.max(np.abs(speeds)))
    # The CFL constraint applies to the half-step of length dt/2.
    dt_max = 2.0 * cfl * xgrid.dx / smax if smax > 0 else t_final

    started = _time.perf_counter()
    times, rhos, gnorms, masses, rhol2, phases = [], [], [], [], [], []
    steps = 0

    def record() -> None:
        dens = fld.density()
        if not np.all(np.isfinite(dens.values)):
            raise NumericError(f"solver produced non-finite densities at "
                               f"t={fld.time:.6g} after {steps} steps")
        if np.any(dens.values < -1e-12):
            raise NumericError(f"solver produced negative densities at "
                               f"t={fld.time:.6g} after {steps} steps; "
                               "positivity lost")
        times.append(fld.time)
        rhos.append(dens.values.copy())
        gnorms.append(fld.gnorm2())
        masses.append(fld.mass())
        rhol2.append(dens.l2_norm())
        if store_phase:
            phases.append(fld.values.copy())

    f0_norm2 = fld.fnorm2_finv()
    t = 0.0
    if snap[0] == 0.0:
        record()
        remaining = snap[1:]
    else:
        remaining = snap

    for target in remaining:
        span = target - t
        nsteps = max(1, math.ceil(span / dt_max - 1e-12))
        h = span / nsteps
        for _ in range(nsteps):
            transport_apply(fld, 0.5 * h, eps, scheme_order)
            collision_apply(fld, h, eps)
            transport_apply(fld, 0.5 * h, eps, scheme_order)
        steps += nsteps
        t = target
        fld.time = t  # suppress roundoff drift in the time stamp
        record()

    return KineticRun(
        params=params, eps=eps, xgrid=xgrid, dvm=dvm,
        scheme_order=scheme_order, dt_max=dt_max,
        times=np.asarray(times), rho=np.asarray(rhos),
        gnorm2=np.asarray(gnorms), mass=np.asarray(masses),
        f0_norm2=f0_norm2, rho_l2=np.asarray(rhol2),
        phase=phases, wall_time=_time.perf_counter() - started,
    )
