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
from .model import ModelParams, critical_speed, drift, nu0

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
    # step set-ups of collision_apply / transport_apply, by kind
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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


def _plan(fld: PhaseField, kind: str, key: tuple, build):
    """The step set-up of ``kind`` for ``key``, built on first use.

    One slot per kind: a Strang run alternates one transport and one
    collision step length per snapshot interval, so a new key replaces the
    old plan instead of piling up.  The grid and the model are part of the
    key, so a field given a new grid never reuses a stale plan.
    """
    key = (key, fld.xgrid, fld.dvm)
    cached = fld._plans.get(kind)
    if cached is None or cached[0] != key:
        cached = fld._plans[kind] = (key, build())
    return cached[1]


@dataclass(frozen=True)
class _CollisionPlan:
    lam: np.ndarray        # (nx,) dt nu0(x) / eps^gamma
    denom: np.ndarray      # (nx, nv) 1 + lam <v>^beta
    wb: np.ndarray         # (nv,) w <v>^beta
    one_minus: np.ndarray  # (nx,) 1 - lam S2
    work: np.ndarray       # (nx, nv) scratch, reused by every step


def _collision_plan(fld: PhaseField, dt_coll: float, eps: float) -> _CollisionPlan:
    dvm = fld.dvm
    p = dvm.params
    lam = dt_coll * nu0(p, fld.xgrid.centers) / eps**p.gamma
    b = dvm.bracket_beta
    wb = dvm.vgrid.weights * b
    denom = 1.0 + lam[:, None] * b[None, :]
    s2 = ((wb * dvm.p_gain)[None, :] / denom).sum(axis=1)
    return _CollisionPlan(lam, denom, wb, 1.0 - lam * s2,
                          np.empty(fld.values.shape))


def collision_apply(fld: PhaseField, dt_coll: float, eps: float) -> PhaseField:
    """One backward-Euler collision step, exact per x-column via the rank-one gain.

    Solving (1 + lam <v>^b) f' = f + lam p m' with m' = m_beta(f') reduces to a
    scalar equation per column: m' = S1 / (1 - lam S2), and lam S2 < 1 always
    (S2 is a p-average of lam<v>^b/(1+lam<v>^b) < 1), so the step is
    unconditionally well-posed, positivity-preserving, and exactly conservative.
    Everything but S1 is fixed by (dt_coll, eps) and built once per field.
    """
    if not dt_coll > 0:
        raise ValidationError(f"dt_coll must be positive (got {dt_coll})")
    plan = _plan(fld, "collision", (dt_coll, eps),
                 lambda: _collision_plan(fld, dt_coll, eps))
    f, work = fld.values, plan.work
    s1 = np.divide(f, plan.denom, out=work) @ plan.wb
    mstar = s1 / plan.one_minus
    np.multiply((plan.lam * mstar)[:, None], fld.dvm.p_gain[None, :], out=work)
    fld.values = np.add(f, work, out=work) / plan.denom
    return fld


def _transport_speeds(params: ModelParams, eps: float,
                      v: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-column speeds eps^(1-gamma) (v_j - j_eps) and their largest modulus."""
    speeds = eps ** (1.0 - params.gamma) * (v - drift(params, eps))
    return speeds, float(np.max(np.abs(speeds)))


@dataclass(frozen=True)
class _TransportPlan:
    order: int
    courant: float         # dt / dx
    speeds: np.ndarray     # (nv,)
    coef: np.ndarray       # (nv,) order 1: Courant numbers c; order 2: the
                           # slope factor 0.5 (1 - |c|), negated where s < 0
    upwind: np.ndarray     # flat indices of each cell's upwind difference
    upwind_f: np.ndarray   # flat indices of each cell's upwind value (order 2)
    # scratch reused by every step: the padded copies of f and of its
    # differences, a cell array, the limiter ratio and its mask, the fluxes
    fpad: np.ndarray       # (nx + 3, nv)
    dpad: np.ndarray       # (nx + 2, nv)
    cells: np.ndarray      # (nx, nv)
    ratio: np.ndarray      # (nx, nv)
    nonzero: np.ndarray    # (nx, nv) bool
    flux: np.ndarray       # (nx + 1, nv)


def _rows(nx: int, nv: int, shift: np.ndarray) -> np.ndarray:
    """Flat indices of rows i + shift_j, column j, in a C-ordered (., nv) array."""
    return ((np.arange(nx)[:, None] + shift[None, :]) * nv
            + np.arange(nv)[None, :]).ravel()


def _transport_plan(fld: PhaseField, dt: float, eps: float,
                    scheme_order: int) -> _TransportPlan:
    speeds, smax = _transport_speeds(fld.dvm.params, eps, fld.dvm.vgrid.v)
    dx = fld.xgrid.dx
    if smax > 0 and dt > dx / smax * (1.0 + 1e-12):
        raise NumericError(
            f"CFL violation in transport: dt={dt:.6g} exceeds admissible "
            f"dt <= {dx / smax:.6g} (max speed {smax:.6g}, dx {dx:.6g})"
        )
    if scheme_order not in (1, 2):
        raise ValidationError(f"scheme_order must be 1 or 2 (got {scheme_order})")
    nx, nv = fld.values.shape
    c = speeds * dt / dx
    # Rows of the padded arrays in transport_apply: dpad row i holds
    # f_i - f_{i-1}, row i + 1 holds f_{i+1} - f_i, row i + 2 f_{i+2} - f_{i+1};
    # fpad row i + 1 holds f_i and row i + 2 holds f_{i+1}.
    if scheme_order == 1:
        left = (c < 0.0).astype(np.intp)
        coef, upwind, upwind_f = c, _rows(nx, nv, left), None
    else:
        left = (speeds < 0.0).astype(np.intp)
        limiter = 0.5 * (1.0 - np.abs(c))
        coef = np.where(left == 1, -limiter, limiter)
        upwind, upwind_f = _rows(nx, nv, 2 * left), _rows(nx, nv, 1 + left)
    return _TransportPlan(
        scheme_order, dt / dx, speeds, coef, upwind, upwind_f,
        fpad=np.empty((nx + 3, nv)), dpad=np.empty((nx + 2, nv)),
        cells=np.empty((nx, nv)), ratio=np.empty((nx, nv)),
        nonzero=np.empty((nx, nv), dtype=bool), flux=np.empty((nx + 1, nv)))


def transport_apply(fld: PhaseField, dt: float, eps: float,
                    scheme_order: int = 1) -> PhaseField:
    """Periodic transport at per-column speed eps^(1-gamma) (v_j - j_eps).

    scheme_order 1 is donor-cell upwind; 2 is MUSCL with the minmod limiter
    (TVD, positivity-preserving at CFL <= 1).  Column mass is conserved by
    telescoping fluxes in either case.  The speeds, the CFL check, the
    Courant numbers and each column's upwind side are fixed by
    (dt, eps, scheme_order) and built once per field; a step gathers every
    cell's upwind values and evaluates one flux formula.
    """
    plan = _plan(fld, "transport", (dt, eps, scheme_order),
                 lambda: _transport_plan(fld, dt, eps, scheme_order))
    f = fld.values
    nx = f.shape[0]
    # periodic padding: fpad row r holds f_{r-1}, dpad row r f_r - f_{r-1}
    fpad = np.concatenate((f[-1:], f, f[:2]), axis=0, out=plan.fpad)
    dpad = np.subtract(fpad[1:], fpad[:-1], out=plan.dpad)
    cells = plan.cells
    np.take(dpad, plan.upwind, out=cells.reshape(-1), mode="clip")
    if plan.order == 1:
        # c >= 0: f_i - c (f_i - f_{i-1});  c < 0: f_i - c (f_{i+1} - f_i)
        fld.values = f - np.multiply(plan.coef, cells, out=cells)
        fld.time += dt
        return fld

    # MUSCL with the minmod-limited slope from the upwind side:
    #   s >= 0: flux_{i+1/2} = s (f_i + 0.5 (1 - |c|) phi(r) d_i)
    #   s < 0:  flux_{i+1/2} = s (f_{i+1} - 0.5 (1 - |c|) phi(r) d_i)
    # with d_i = f_{i+1} - f_i and r the upwind difference over d_i (0 where
    # d_i vanishes); adding the negated slope equals subtracting it exactly.
    d = dpad[1:-1]
    ratio = plan.ratio
    ratio.fill(0.0)
    np.divide(cells, d, out=ratio, where=np.not_equal(d, 0.0, out=plan.nonzero))
    np.clip(ratio, 0.0, 1.0, out=ratio)
    slope = np.multiply(np.multiply(plan.coef, ratio, out=ratio), d, out=ratio)
    np.take(fpad, plan.upwind_f, out=cells.reshape(-1), mode="clip")
    flux = plan.flux                # row r: the face flux of cell r - 1
    np.multiply(plan.speeds, np.add(cells, slope, out=cells), out=flux[1:])
    flux[0] = flux[nx]
    np.subtract(flux[1:], flux[:-1], out=cells)
    fld.values = f - np.multiply(plan.courant, cells, out=cells)
    fld.time += dt
    return fld


# A run needing more CFL-bound steps than this has a velocity grid far wider
# than its spatial grid can follow (the tail-mass vmax as alpha -> 0); it
# fails at once instead of running for days.
_MAX_STEPS = 10**7


def auto_vscale(params: ModelParams, nv: int, eps_min: float,
                tail_target: float = 1e-3) -> float:
    """Velocity-grid scale so the outermost node covers both the critical
    scale eps^(-1/(1-beta)) and the tail-mass-loss target."""
    critical = critical_speed(params, eps_min)
    try:
        tail = (2.0 * params.kappa / (params.alpha * tail_target)) ** (1.0 / params.alpha)
    except OverflowError:
        tail = math.inf
    # 5% headroom keeps the realized loss strictly inside the budget
    vscale = 1.05 * max(critical, tail, 10.0) / (nv - 1)
    if not math.isfinite(vscale):
        raise NumericError(
            f"velocity grid scale overflows (critical speed {critical:.3g}, "
            f"tail-mass speed {tail:.3g}); give the grid an explicit vmax")
    return vscale


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
    steps: int = 0                      # Strang steps taken

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
    # the deviation norms weight by w/f_eq and w<v>^beta/f_eq; an f_eq
    # underflowed to zero or to a subnormal makes them inf/NaN from the
    # first snapshot on
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        finite = (np.isfinite(vgrid.weights / dvm.f_eq)
                  & np.isfinite(vgrid.weights * dvm.bracket_beta / dvm.f_eq))
    if not np.all(finite):
        node = int(np.argmin(finite))
        raise NumericError(
            f"discrete equilibrium is {dvm.f_eq[node]:.3g} at velocity node "
            f"{node} (v={vgrid.v[node]:.6g}) for {params}; the deviation norms "
            "divide by it")
    critical = critical_speed(params, eps)
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

    _, smax = _transport_speeds(params, eps, vgrid.v)
    # The CFL constraint applies to the half-step of length dt/2.
    dt_max = 2.0 * cfl * xgrid.dx / smax if smax > 0 else t_final
    if not snap[-1] <= _MAX_STEPS * dt_max:
        raise NumericError(
            f"reaching t={snap[-1]:.6g} takes more than {_MAX_STEPS:.0e} steps "
            f"of dt <= {dt_max:.3g} (max speed {smax:.3g}); the velocity grid "
            f"(vmax {vgrid.vmax:.3g}) is too wide for dx = {xgrid.dx:.3g}")

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
        gnorm2 = fld.gnorm2()
        if not np.isfinite(gnorm2):
            raise NumericError(f"solver produced a non-finite deviation norm "
                               f"at t={fld.time:.6g} after {steps} steps")
        times.append(fld.time)
        rhos.append(dens.values.copy())
        gnorms.append(gnorm2)
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
        phase=phases, wall_time=_time.perf_counter() - started, steps=steps,
    )
