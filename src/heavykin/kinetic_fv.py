"""Deterministic finite-volume solver for the scaled kinetic equation.

In macroscopic time the equation reads

    d_t f  =  - eps^(1-gamma) (v - j_eps) d_x f  +  eps^(-gamma) Q(f),

discretized on a spatial torus times a compactified velocity grid with Strang
splitting: half transport, full implicit collision, half transport.  Between
two collisions the two half transports run as one transport of a full step,
so a snapshot interval of n steps is T(h/2) [C(h) T(h)]^(n-1) C(h) T(h/2):
the same splitting, with n + 1 transports instead of 2n.  The collision step
exploits the rank-one gain and is solved in closed form per x-column, so the
stiff rate nu/eps^gamma costs nothing in stability.  What a step of a given
length needs besides f is built once, into the field's plan table.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .grids import (DensityField, DiscreteModel, SpatialGrid, VelocityGrid,
                    mass_drift, periodized_gaussian, snapshot_schedule)
from .model import (ModelParams, check_eps, coercivity_constant,
                    critical_speed, drift, nu0)

__all__ = [
    "PhaseField",
    "KineticRun",
    "collision_apply",
    "transport_apply",
    "run_kinetic_det",
    "auto_vscale",
    "check_scheme_order",
    "check_courant",
]


@dataclass
class PhaseField:
    """f(x_i, v_j) >= 0 on SpatialGrid x VelocityGrid at a given time.

    ``_plans`` holds the step set-ups of collision_apply and transport_apply
    by ``(kind, *step)``; nothing is evicted, so a caller that changes its
    step length (or the field's grids) empties it, as run_kinetic_det does.
    """

    xgrid: SpatialGrid
    dvm: DiscreteModel
    values: np.ndarray
    time: float = 0.0
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

    def gnorm2(self) -> float:
        """|| f - rho F ||^2 in the weighted space L^2(nu F^-1) (both variables)."""
        dvm = self.dvm
        _, g = dvm.decompose(self.values)
        nu_x = nu0(dvm.params, self.xgrid.centers)
        col = dvm.w_beta / dvm.f_eq
        return float(self.xgrid.dx * np.sum(nu_x[:, None] * g * g * col[None, :]))


def _plan(fld: PhaseField, key: tuple, build):
    """The plan table's entry ``key`` = (kind, *step), built on first use."""
    if key not in fld._plans:
        fld._plans[key] = build()
    return fld._plans[key]


@dataclass(frozen=True)
class _CollisionPlan:
    lam: np.ndarray        # (nx,) dt nu0(x) / eps^gamma
    denom: np.ndarray      # (nx, nv) 1 + lam <v>^beta
    one_minus: np.ndarray  # (nx,) 1 - lam S2
    work: np.ndarray       # (nx, nv) scratch, reused by every step


def _collision_plan(fld: PhaseField, dt_coll: float, eps: float) -> _CollisionPlan:
    dvm = fld.dvm
    p = dvm.params
    lam = dt_coll * nu0(p, fld.xgrid.centers) / eps**p.gamma
    denom = 1.0 + lam[:, None] * dvm.bracket_beta[None, :]
    s2 = ((dvm.w_beta * dvm.p_gain)[None, :] / denom).sum(axis=1)
    return _CollisionPlan(lam, denom, 1.0 - lam * s2,
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
    plan = _plan(fld, ("collision", dt_coll, eps),
                 lambda: _collision_plan(fld, dt_coll, eps))
    f, work = fld.values, plan.work
    s1 = np.divide(f, plan.denom, out=work) @ fld.dvm.w_beta
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
class _TransportScratch:
    """Work arrays of transport_apply, shared by a field's transport plans:
    the shifted field, the padded copies of f and of its differences, a cell
    array, the limiter ratio and its mask, the fluxes."""

    shifted: np.ndarray    # (nx, nv)
    fpad: np.ndarray       # (nx + 3, nv)
    dpad: np.ndarray       # (nx + 2, nv)
    cells: np.ndarray      # (nx, nv)
    ratio: np.ndarray      # (nx, nv)
    nonzero: np.ndarray    # (nx, nv) bool
    flux: np.ndarray       # (nx + 1, nv)

    @classmethod
    def empty(cls, nx: int, nv: int) -> "_TransportScratch":
        return cls(np.empty((nx, nv)), np.empty((nx + 3, nv)),
                   np.empty((nx + 2, nv)), np.empty((nx, nv)),
                   np.empty((nx, nv)), np.empty((nx, nv), dtype=bool),
                   np.empty((nx + 1, nv)))


@dataclass(frozen=True)
class _TransportPlan:
    order: int
    courant: float         # dt / dx
    speeds: np.ndarray     # the speeds, or where a column moves by whole
                           # cells, the speeds of its fractional part
    coef: np.ndarray       # order 1: Courant numbers c; order 2: the slope
                           # factor 0.5 (1 - |c|), negated where s < 0;
                           # both (nv,) at order 1, (nx, nv) at order 2, so
                           # its two multiplies per step broadcast nothing
    upwind: np.ndarray     # flat indices of each cell's upwind difference
    upwind_f: np.ndarray   # flat indices of each cell's upwind value (order 2)
    shift: np.ndarray | None  # flat indices of each cell's value n_j whole
                              # cells upstream; None if every n_j is 0
    scratch: _TransportScratch


def _rows(nx: int, nv: int, shift: np.ndarray) -> np.ndarray:
    """Flat indices of rows i + shift_j, column j, in a C-ordered (., nv) array."""
    return ((np.arange(nx)[:, None] + shift[None, :]) * nv
            + np.arange(nv)[None, :]).ravel()


def check_scheme_order(scheme_order: int) -> None:
    """Raise :class:`ValidationError` unless the order is 1 or 2."""
    if scheme_order not in (1, 2):
        raise ValidationError(f"scheme_order must be 1 or 2 (got {scheme_order})")


def _transport_plan(fld: PhaseField, dt: float, eps: float,
                    scheme_order: int) -> _TransportPlan:
    check_scheme_order(scheme_order)
    speeds, _ = _transport_speeds(fld.dvm.params, eps, fld.dvm.vgrid.v)
    dx = fld.xgrid.dx
    nx, nv = fld.values.shape
    c = speeds * dt / dx
    # Each column first moves by its whole cells n = trunc(c), an exact
    # periodic shift, then by the fraction c - n (|c - n| < 1) at the speed
    # that fraction stands for.  c - n is exact in floating point, so it
    # keeps the digits of c below its integer part: about 9 at the
    # |n| <= 1e7 that run_kinetic_det allows.
    whole = np.trunc(c)
    shift = None
    if np.any(whole != 0.0):
        c = c - whole
        speeds = np.where(whole == 0.0, speeds, c * (dx / dt))
        shift = _rows(nx, nv, np.mod(-whole, nx).astype(np.intp)) % (nx * nv)
    # Rows of the padded arrays in transport_apply: dpad row i holds
    # f_i - f_{i-1}, row i + 1 holds f_{i+1} - f_i, row i + 2 f_{i+2} - f_{i+1};
    # fpad row i + 1 holds f_i and row i + 2 holds f_{i+1}.
    if scheme_order == 1:
        left = (c < 0.0).astype(np.intp)
        coef = c
    else:
        left = (speeds < 0.0).astype(np.intp)
        limiter = 0.5 * (1.0 - np.abs(c))
        coef = np.where(left == 1, -limiter, limiter)
        coef, speeds = (np.broadcast_to(a, (nx, nv)).copy()
                        for a in (coef, speeds))
    scratch = _plan(fld, ("transport scratch",),
                    lambda: _TransportScratch.empty(nx, nv))
    # the h/2 and h plans of a run share these indices: their upwind sides
    # differ only where a column of one moves by exactly whole cells
    upwind, upwind_f = _plan(
        fld, ("upwind rows", scheme_order, left.tobytes()),
        lambda: ((_rows(nx, nv, left), None) if scheme_order == 1
                 else (_rows(nx, nv, 2 * left), _rows(nx, nv, 1 + left))))
    return _TransportPlan(scheme_order, dt / dx, speeds, coef, upwind,
                          upwind_f, shift, scratch)


def transport_apply(fld: PhaseField, dt: float, eps: float,
                    scheme_order: int = 1) -> PhaseField:
    """Periodic transport at per-column speed eps^(1-gamma) (v_j - j_eps).

    Each column moves by the whole cells of its Courant number c = s dt/dx
    as an exact periodic shift, then by the fraction of a cell left over:
    by donor-cell upwind (scheme_order 1) or MUSCL with the minmod limiter
    (scheme_order 2), both TVD and positivity-preserving at a fraction below
    one.  This is flux-form semi-Lagrangian transport: mass-exact and
    positive for any dt, column by column.  The speeds, the whole-cell
    shifts, the fractional Courant numbers and each column's upwind side
    are fixed by (dt, eps, scheme_order) and built once per field; a step
    gathers the shifted field (skipped where every column moves less than a
    cell), gathers every cell's upwind values and evaluates one flux
    formula.
    """
    plan = _plan(fld, ("transport", dt, eps, scheme_order),
                 lambda: _transport_plan(fld, dt, eps, scheme_order))
    work = plan.scratch
    f = fld.values
    if plan.shift is not None:
        f = work.shifted
        np.take(fld.values, plan.shift, out=f.reshape(-1), mode="clip")
    nx = f.shape[0]
    # periodic padding: fpad row r holds f_{r-1}, dpad row r f_r - f_{r-1}
    fpad = np.concatenate((f[-1:], f, f[:2]), axis=0, out=work.fpad)
    dpad = np.subtract(fpad[1:], fpad[:-1], out=work.dpad)
    cells = work.cells
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
    ratio = work.ratio
    ratio.fill(0.0)
    np.divide(cells, d, out=ratio, where=np.not_equal(d, 0.0, out=work.nonzero))
    np.clip(ratio, 0.0, 1.0, out=ratio)
    slope = np.multiply(np.multiply(plan.coef, ratio, out=ratio), d, out=ratio)
    np.take(fpad, plan.upwind_f, out=cells.reshape(-1), mode="clip")
    flux = work.flux                # row r: the face flux of cell r - 1
    np.multiply(plan.speeds, np.add(cells, slope, out=cells), out=flux[1:])
    flux[0] = flux[nx]
    np.subtract(flux[1:], flux[:-1], out=cells)
    fld.values = f - np.multiply(plan.courant, cells, out=cells)
    fld.time += dt
    return fld


# A run needing more CFL-bound steps than this has a velocity grid far wider
# than its spatial grid can follow (the tail-mass vmax as alpha -> 0); it
# fails at once.  A step may be longer than the CFL step, but this bound
# keeps each transport's whole-cell shift |n| <= 2e7 cfl (a full step's), so
# the fractional Courant numbers keep about 8 digits.
_MAX_STEPS = 10**7

# The largest collision number dt nu2 / eps^gamma of a step at cfl = 1.
# Strang splitting with a backward-Euler collision is not
# asymptotic-preserving, so the step must stay a fixed fraction of the
# collision time eps^gamma / nu2 however fast the transport could go.  With
# the fused transports, on the 48x49 degenerate sweep (seed 12345) and the
# 128x129 particle reference (10^6 particles, seed 999): at 0.05 every
# verdict holds (macro-convergence errors 1.32e-2 ... 3.40e-3, particle
# check 2.79 SE); at 0.1 the sweep's verdicts still hold (last two errors
# 3.74e-3, 3.61e-3) but the particle check fails at 3.02 SE.
_COLLISION_NUMBER = 1.0 / 40.0


def check_courant(cfl: float) -> None:
    """Raise :class:`ValidationError` unless ``cfl`` lies in (0, 1]."""
    if not 0.0 < cfl <= 1.0:
        raise ValidationError(f"cfl must lie in (0, 1] (got {cfl})")


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


def _grid_defects(params: ModelParams, eps: float,
                  vgrid: VelocityGrid) -> dict:
    """How far the velocity grid falls short of the equilibrium: the
    continuum mass ``tail_mass_loss`` at |v| >= vmax, and how far it
    reaches past the critical speed v_c = eps^(-1/(1-beta)): the fraction
    (vmax/v_c)^-alpha of the equilibrium mass past v_c that it cuts off
    (1.0 when vmax <= v_c, v_c = inf included), its nodes v > v_c, and
    vmax/v_c."""
    critical, vmax = critical_speed(params, eps), vgrid.vmax
    return {"tail_mass_loss": params.tail_mass_beyond(vmax),
            "critical_tail_loss":
            (vmax / critical) ** -params.alpha if vmax > critical else 1.0,
            "nodes_past_critical": int(np.count_nonzero(vgrid.v > critical)),
            "vmax_over_critical": vmax / critical}


@dataclass
class KineticRun:
    """Everything a kinetic_fv run produces: density/diagnostic trajectories
    and (optionally) full phase-space snapshots for the corrector checks,
    which a sweep drops once the run's row is built."""

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
    step_bound: str = "cfl"             # what sets dt_max: "cfl" or "collision"

    @property
    def summary(self) -> dict:
        """The run's deterministic scalars: ``steps``, ``dt_max`` and
        ``step_bound``, the :func:`mass_drift` ``mass_err``,
        and the velocity grid's defects of :func:`_grid_defects`."""
        return {"steps": self.steps, "dt_max": self.dt_max,
                "step_bound": self.step_bound,
                "mass_err": mass_drift(self.mass),
                **_grid_defects(self.params, self.eps, self.dvm.vgrid)}

    @property
    def apriori_bound(self) -> float:
        """The a-priori envelope M ||f_0||^2 eps^gamma of ||g(t)||^2."""
        return (coercivity_constant(self.params) * self.f0_norm2
                * self.eps ** self.params.gamma)

    def g_snapshot(self, index: int) -> np.ndarray:
        """g = f - rho F at a stored phase snapshot."""
        if not self.phase:
            raise ValidationError(
                "kinetic run carries no phase-space snapshots: it was made "
                "without store_phase=True, or it is a sweep run, whose "
                "snapshots are dropped once its row is built; rebuild it "
                "with run_kinetic_det(..., store_phase=True)")
        return self.dvm.decompose(self.phase[index])[1]


def run_kinetic_det(params: ModelParams, eps: float, *,
                    xgrid: SpatialGrid, vgrid: VelocityGrid,
                    t_final: float, snapshot_times=None,
                    scheme_order: int = 1, cfl: float = 0.9,
                    store_phase: bool = False) -> KineticRun:
    """Strang-split (transport/collision/transport) run up to t_final from
    the local equilibrium of :func:`periodized_gaussian`.

    The step is the longer of the CFL step 2 dx / smax and the collision
    bound eps^gamma / (40 nu2), both times ``cfl``; transport takes any
    step, so the bound only keeps the splitting accurate.  Steps shorten to
    land on each time of ``snapshot_schedule``: an interval of n equal steps
    h runs T(h/2) [C(h) T(h)]^(n-1) C(h) T(h/2), the half transports that
    meet between two collisions fused into one, and ends on its snapshot.
    Intervals whose steps agree to round-off share one h.  How far the
    velocity grid misses the critical scale eps^(-1/(1-beta)) or the
    equilibrium tail is recorded in the run's :attr:`KineticRun.summary`.
    """
    check_eps(eps)
    check_courant(cfl)
    snap = snapshot_schedule(t_final, snapshot_times)

    dvm = DiscreteModel(params, vgrid)
    # the deviation norms weight by w/f_eq and w<v>^beta/f_eq; an f_eq
    # underflowed to zero or to a subnormal makes them inf/NaN from the
    # first snapshot on
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_finv = vgrid.weights / dvm.f_eq
        finite = np.isfinite(w_finv) & np.isfinite(dvm.w_beta / dvm.f_eq)
    if not np.all(finite):
        node = int(np.argmin(finite))
        raise NumericError(
            f"discrete equilibrium is {dvm.f_eq[node]:.3g} at velocity node "
            f"{node} (v={vgrid.v[node]:.6g}) for {params}; the deviation norms "
            "divide by it")

    fld = PhaseField.from_density(xgrid, dvm, periodized_gaussian(xgrid))

    _, smax = _transport_speeds(params, eps, vgrid.v)
    # The CFL step bounds the end transports of length dt/2; the fused ones
    # between collisions move up to 2 cfl cells.  Transport is stable at any
    # step, so the longer of the CFL step and the collision bound sets the
    # step; cfl scales both.
    cfl_dt = 2.0 * cfl * xgrid.dx / smax if smax > 0 else t_final
    collision_dt = cfl * _COLLISION_NUMBER * eps**params.gamma / params.nu2
    dt_max, step_bound = ((cfl_dt, "cfl") if cfl_dt >= collision_dt
                          else (collision_dt, "collision"))
    if not snap[-1] <= _MAX_STEPS * cfl_dt:
        raise NumericError(
            f"reaching t={snap[-1]:.6g} takes more than {_MAX_STEPS:.0e} steps "
            f"of dt <= {cfl_dt:.3g} (max speed {smax:.3g}); the velocity grid "
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
        masses.append(dens.mass())
        rhol2.append(dens.l2_norm())
        if store_phase:
            phases.append(fld.values.copy())

    f0_norm2 = float(xgrid.dx * np.sum(fld.values**2 * w_finv))
    t = h = 0.0
    for target in snap:
        if target > t:   # a snapshot at t = 0 takes no step
            span = target - t
            nsteps = max(1, math.ceil(span / dt_max - 1e-12))
            # spans equal up to round-off (a linspace schedule) keep one
            # step length, so its collision and transport plans are reused
            if not math.isclose(span / nsteps, h, rel_tol=1e-12):
                h = span / nsteps
                fld._plans.clear()    # the plans of the last h are stale
            # T(h/2) [C(h) T(h)]^(nsteps-1) C(h) T(h/2): the two half
            # transports between consecutive collisions run as one
            transport_apply(fld, 0.5 * h, eps, scheme_order)
            for _ in range(nsteps - 1):
                collision_apply(fld, h, eps)
                transport_apply(fld, h, eps, scheme_order)
            collision_apply(fld, h, eps)
            transport_apply(fld, 0.5 * h, eps, scheme_order)
            steps += nsteps
            t = target
            fld.time = t  # suppress roundoff drift in the time stamp
        record()

    return KineticRun(
        params=params, eps=eps, xgrid=xgrid, dvm=dvm,
        scheme_order=scheme_order, dt_max=dt_max, step_bound=step_bound,
        times=np.asarray(times), rho=np.asarray(rhos),
        gnorm2=np.asarray(gnorms), mass=np.asarray(masses),
        f0_norm2=f0_norm2, rho_l2=np.asarray(rhol2),
        phase=phases, wall_time=_time.perf_counter() - started, steps=steps,
    )
