"""Sweep orchestration: run the kinetic solvers across a ladder of scaling
parameters, compare against the limiting nonlocal diffusion, and emit a
self-contained report with named pass/fail verdicts.

The deterministic solver is the headline instrument; the particle solver is a
single-epsilon statistical cross-check.  All constants entering verdicts are
measured (or, for the corrector-decay prefactors, fitted at the largest
epsilon and disclosed in the metrics).
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .config import RunConfig, config_dict
from .corrector import (ProbeFunction, RowFlight, _probe_choice,
                        check_probe_times, corrector_term_drift_g,
                        corrector_term_drift_rho, corrector_term_qplus)
from .errors import HeavykinError, NumericError, ValidationError
from .grids import DensityField, DiscreteModel, SpatialGrid, VelocityGrid, \
    periodized_gaussian, snapshot_schedule
from .kinetic_fv import KineticRun, auto_vscale, run_kinetic_det
from .kinetic_mc import advance, density_standard_error, estimate_density, \
    init_ensemble
from .model import ModelParams, check_eps_ladder, coercivity_constant, nu0
from .nonlocal_op import assemble, solve_macro
from .outputs import _plain, json_text

__all__ = ["Verdict", "SweepReport", "run_sweep", "check_apriori",
           "check_coercivity", "check_correctors", "mc_cross_check",
           "build_grids", "probe_from_choice"]


@dataclass
class Verdict:
    """One named pass/fail check with its tolerance and supporting numbers."""

    criterion: str
    passed: bool
    tolerance: str
    metrics: dict = field(default_factory=dict)
    note: str = ""

    def as_dict(self) -> dict:
        return {"criterion": self.criterion, "passed": self.passed,
                "tolerance": self.tolerance, "metrics": _plain(self.metrics),
                "note": self.note}


@dataclass
class SweepReport:
    """Everything a sweep produced, re-runnable from the embedded config."""

    version: str
    seed: int
    config: dict
    params: dict
    eps_list: list
    rows: list
    macro: dict
    verdicts: list
    diagnostics: dict = field(default_factory=dict)
    runs: list = field(default_factory=list, repr=False, compare=False)

    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "config": _plain(self.config),
            "params": _plain(self.params),
            "eps_list": _plain(self.eps_list),
            "rows": _plain(self.rows),
            "macro": _plain(self.macro),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "diagnostics": _plain(self.diagnostics),
        }

    def to_json(self, *, drop_wall_times: bool = False) -> str:
        payload = self.as_dict()
        if drop_wall_times:
            payload = _strip_wall_times(payload)
        return json_text(payload)


def _strip_wall_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_times(v) for k, v in obj.items()
                if "wall_time" not in k}
    if isinstance(obj, list):
        return [_strip_wall_times(v) for v in obj]
    return obj


def build_grids(cfg: RunConfig) -> tuple[SpatialGrid, VelocityGrid]:
    """Grids implied by a config (resolving the 'auto' velocity policy)."""
    xgrid = SpatialGrid(cfg.nx, cfg.model.domain_length)
    if cfg.vmax_policy == "auto":
        vscale = auto_vscale(cfg.model, cfg.nv, min(cfg.eps_list))
    else:
        vscale = float(cfg.vmax_policy) / (cfg.nv - 1)
    return xgrid, VelocityGrid(cfg.nv, vscale)


def probe_from_choice(cfg: RunConfig) -> ProbeFunction:
    """The weak-formulation probe named by experiment.phi_choice."""
    return _probe_choice(cfg.phi_choice)(0.5 * cfg.model.domain_length,
                                         (0.0, cfg.t_final))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_apriori(run: KineticRun) -> Verdict:
    """Energy and density bounds for one kinetic run.

    ||g(t)||^2 <= M ||f_0||^2 eps^gamma and ||rho(t)|| <= ||f_0||, both up to
    a 5% discretization slack, at every stored snapshot.
    """
    times = np.asarray(run.times, dtype=float)
    gnorm2 = np.asarray(run.gnorm2, dtype=float)
    if times.size == 0 or gnorm2.size == 0 or not run.f0_norm2 > 0:
        raise ValidationError("run carries no stored norm diagnostics")
    m_const = coercivity_constant(run.params)
    bound = run.apriori_bound
    g_margin = float(np.max(gnorm2) / bound)
    rho_margin = float(np.max(run.rho_l2) / np.sqrt(run.f0_norm2))
    passed = g_margin <= 1.05 and rho_margin <= 1.05
    return Verdict(
        criterion="apriori-bounds",
        passed=passed,
        tolerance="margins <= 1.05",
        metrics={"eps": run.eps, "g_margin": g_margin,
                 "rho_margin": rho_margin, "bound": bound,
                 "gnorm2_over_eps_gamma":
                     float(np.max(gnorm2) / run.eps ** run.params.gamma),
                 "coercivity_M": m_const},
    )


# The four families of random states check_coercivity samples, in turn,
# and how many samples it evaluates at once.
_SAMPLE_KINDS = ("equilibrium times noise", "equilibrium multiple",
                 "sparse spikes", "modulated equilibrium")
_COERCIVITY_BLOCK = 32


def _coercivity_samples(params: ModelParams, vgrid: VelocityGrid,
                        f_eq: np.ndarray, n_samples: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions (n,) and states (n, nv) of check_coercivity's samples.

    Sample i draws its x, then its state of kind ``_SAMPLE_KINDS[i % 4]``,
    so the stream of draws is that of one sample after another.
    """
    nv = vgrid.nv
    xs = np.empty(n_samples)
    fs = np.zeros((n_samples, nv))
    modulated = f_eq * (1.0 + 0.9 * np.sin(3.0 * vgrid.u))
    for i, f in enumerate(fs):
        xs[i] = rng.uniform(0.0, params.domain_length)
        kind = i % 4
        if kind == 0:
            np.multiply(f_eq, rng.exponential(1.0, size=nv), out=f)
        elif kind == 1:                                # exact kernel element
            np.multiply(float(rng.exponential(1.0)), f_eq, out=f)
        elif kind == 2:
            idx = rng.integers(0, nv, size=int(rng.integers(1, 6)))
            f[idx] = rng.exponential(1.0, size=idx.size)
        else:
            np.multiply(modulated, rng.exponential(1.0, size=nv), out=f)
    return xs, fs


def check_coercivity(params: ModelParams, vgrid: VelocityGrid,
                     n_samples: int = 1000, *, seed: int = 2026,
                     tol: float = 1e-10) -> Verdict:
    """Spectral-gap and gain-boundedness inequalities on random data.

    For random nonnegative densities f on ``vgrid`` and random positions x,
    checks  sum_v w Q(f) f / F  <=  -nu0(x)/(2M) ||f - rho F||^2_{L^2(<v>^b/F)}
    and the gain bound  ||Q+(f)/nu||^2_{L^2(nu/F)} <= ||f||^2_{L^2(nu/F)}.
    The samples are stacked into an (n_samples, nv) array and evaluated
    a block of rows at a time.
    A sample whose relative violation is not finite (a grid so wide that
    the weighted sums overflow) raises :class:`NumericError`.
    """
    if n_samples < 1:
        raise ValidationError("n_samples must be positive")
    dvm = DiscreteModel(params, vgrid)
    m_const = coercivity_constant(params)
    w, b, f_eq = vgrid.weights, dvm.bracket_beta, dvm.f_eq
    xs, fs = _coercivity_samples(params, vgrid, f_eq, n_samples,
                                 np.random.default_rng(seed))

    gap, gain = np.empty(n_samples), np.empty(n_samples)
    # Blocks of samples keep the temporaries small: a sweep checks
    # coercivity last, on top of the memory its runs hold.  Sums that
    # overflow, or divide by an f_eq underflowed to 0, are caught below, by
    # the finiteness of each sample.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n_samples, _COERCIVITY_BLOCK):
            block = slice(lo, lo + _COERCIVITY_BLOCK)
            x, f = xs[block], fs[block]
            nu = nu0(params, x)
            q = dvm.collision_operator(x, f)
            lhs = np.sum(w * q * f / f_eq, axis=1)
            defect = f - dvm.density(f)[:, None] * f_eq
            rhs = -(nu * np.sum(w * b * defect ** 2 / f_eq, axis=1)) \
                / (2.0 * m_const)
            gap[block] = (lhs - rhs) / (1.0 + np.abs(rhs))
            gain_sq = nu * dvm.moment_beta(f) ** 2 / dvm.c_beta_disc
            f_sq = nu * np.sum(w * b * f ** 2 / f_eq, axis=1)
            gain[block] = (gain_sq - f_sq) / (1.0 + np.abs(f_sq))
    finite = np.isfinite(gap) & np.isfinite(gain)
    if not finite.all():
        i = int(np.argmin(finite))
        name = "gap" if not np.isfinite(gap[i]) else "gain"
        raise NumericError(
            f"coercivity sample {i} ({_SAMPLE_KINDS[i % 4]}, "
            f"x={xs[i]:.6g}) has a non-finite {name} violation on "
            f"the velocity grid with vmax={vgrid.vmax:.3g}")
    worst_gap, worst_gain = float(np.max(gap)), float(np.max(gain))

    passed = worst_gap <= tol and worst_gain <= tol
    return Verdict(
        criterion="coercivity",
        passed=passed,
        tolerance=f"relative violations <= {tol:g}",
        metrics={"n_samples": n_samples, "max_gap_violation": worst_gap,
                 "max_gain_violation": worst_gain, "coercivity_M": m_const},
    )


# Decay exponents for the three remainder terms of the weak formulation, as
# functions of gamma and beta; each term is O(eps^s) with the s below.
def _remainder_exponents(params: ModelParams) -> tuple[float, float, float]:
    g, b = params.gamma, params.beta
    free = 1.0 / (1.0 - b)
    s1 = min(0.5 * (2.0 - g), 0.5 * g)
    s2 = min(1.0 - 0.5 * g, free)
    s3 = min(2.0 - g, free)
    return s1, s2, s3


def check_correctors(rows: list[dict], params: ModelParams) -> Verdict:
    """Remainder-term decay across a ladder of sweep rows.

    Each of the three weak-formulation remainders must shrink as eps does,
    with a log-log slope no flatter than its predicted exponent minus 0.15.
    The magnitudes are the rows' ``qplus_term``, ``drift_g_term`` and
    ``drift_rho_term``, computed once per eps by the sweep.  Terms that
    vanish identically (no drift when the tail index is below one, or a
    constant probe) pass trivially.  Prefactors are fitted at the largest
    eps and disclosed, never assumed.
    """
    if len(rows) < 3:
        raise ValidationError("slope estimation needs at least 3 eps values")
    eps = np.array(check_eps_ladder([row["eps"] for row in rows]))
    exponents = _remainder_exponents(params)
    names = ("qplus", "drift_g", "drift_rho")

    metrics: dict = {"eps": eps.tolist()}
    passed = True
    for name, s_pred in zip(names, exponents):
        mags = np.array([abs(row[f"{name}_term"]) for row in rows])
        metrics[f"{name}_terms"] = mags.tolist()
        metrics[f"{name}_exponent_predicted"] = s_pred
        if np.max(mags) <= 1e-13:
            metrics[f"{name}_slope"] = None
            metrics[f"{name}_note"] = "identically zero"
            continue
        slope = float(np.polyfit(np.log(eps), np.log(mags), 1)[0])
        metrics[f"{name}_slope"] = slope
        metrics[f"{name}_fitted_prefactor"] = float(mags[0] / eps[0] ** s_pred)
        decreasing = bool(np.all(np.diff(mags) < 0))
        metrics[f"{name}_decreasing"] = decreasing
        if not decreasing or slope < s_pred - 0.15:
            passed = False
    return Verdict(
        criterion="corrector-decay",
        passed=passed,
        tolerance="slopes >= predicted - 0.15; magnitudes decreasing",
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _kinetic_row(cfg: RunConfig, eps: float, xgrid: SpatialGrid,
                 vgrid: VelocityGrid, phi: ProbeFunction) -> tuple[dict, KineticRun]:
    started = time.perf_counter()
    run = run_kinetic_det(
        cfg.model, eps, xgrid=xgrid, vgrid=vgrid, t_final=cfg.t_final,
        snapshot_times=cfg.snapshot_times, scheme_order=cfg.scheme_order,
        cfl=cfg.cfl, store_phase=True)
    # one blocked flight pass and one g per snapshot, for all three remainders
    shared = RowFlight(phi, run)
    qplus = corrector_term_qplus(shared)
    drift_g = corrector_term_drift_g(shared)
    drift_rho = corrector_term_drift_rho(shared)
    row = {
        "eps": eps,
        **run.summary,
        "qplus_term": qplus,
        "drift_g_term": drift_g,
        "drift_rho_term": drift_rho,
        "wall_time": time.perf_counter() - started,
    }
    return row, run


def _deal(count: int, workers: int) -> list[list[int]]:
    """Rung indices dealt into ``workers`` shares in snake order, starting
    from the last (smallest, so longest) eps: each share runs its longest
    rung first, and the shares' step totals come out close."""
    shares: list[list[int]] = [[] for _ in range(workers)]
    for turn, i in enumerate(reversed(range(count))):
        lap, seat = divmod(turn, workers)
        shares[seat if lap % 2 == 0 else workers - 1 - seat].append(i)
    return shares


def _run_share(job, eps_share: list[float], fd: int) -> None:
    """A forked child's body: its rows, or the exception that stopped it,
    go pickled through the pipe's write end ``fd``.

    It never returns: the child always leaves through ``os._exit``, so it
    never unwinds into the caller's stack.  A payload that cannot be
    pickled leaves the pipe empty, its traceback on stderr and exit code 1.
    """
    code = 1
    try:
        try:
            payload = (True, [job(e) for e in eps_share])
        except Exception as exc:
            payload = (False, exc)
        data = pickle.dumps(payload)
        with open(fd, "wb") as out:
            out.write(data)
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
    finally:
        _flush_std_streams()
        os._exit(code)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):   # None, or closed
            pass


def _map_rungs(job, eps_list: list[float], workers: int, meanwhile):
    """``([job(e) for e in eps_list], meanwhile())`` on up to ``workers``
    processes, this one among them.

    The rungs are dealt by :func:`_deal`; every share but the last goes to
    a child made by ``os.fork``, which inherits the job (it closes over the
    probe, whose factors are local lambdas, so it could not be pickled) and
    writes back its pickled results through a pipe.  This process flushes
    its standard streams before each fork, so no buffered text is written
    twice, runs the last share, then the rung-independent ``meanwhile()``
    while the children finish, and reads each pipe to its end.  A child
    that exits without reporting raises RuntimeError naming its eps and
    exit code; on any exception the children not yet reaped get SIGTERM,
    and none outlives the call.  Where the platform cannot fork, the rungs
    run serially here.  A fork copies only the calling thread, so the sweep
    forks before mc_cross_check starts its particle threads.
    """
    workers = min(workers, len(eps_list))
    if workers < 2 or not hasattr(os, "fork"):
        return [job(e) for e in eps_list], meanwhile()
    results: list = [None] * len(eps_list)
    *forked, own = _deal(len(eps_list), workers)
    children = []   # (share, pid, pipe's read end) of each child not reaped
    try:
        for share in forked:
            _flush_std_streams()
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(job, [eps_list[i] for i in share], w)
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)   # so r reads EOF once the child is gone
            children.append((share, pid, open(r, "rb")))
        for i in own:
            results[i] = job(eps_list[i])
        extra = meanwhile()
        while children:
            share, pid, reader = children[0]
            data = reader.read()
            reader.close()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if not data:
                raise RuntimeError(
                    "sweep worker for eps = "
                    + ", ".join(f"{eps_list[i]:g}" for i in share)
                    + " exited with code "
                    + f"{os.waitstatus_to_exitcode(status)} before reporting")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            for i, result in zip(share, payload):
                results[i] = result
        return results, extra
    except BaseException:
        for _, pid, _ in children:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for _, pid, reader in children:
            reader.close()
            os.waitpid(pid, 0)


def mc_cross_check(cfg: RunConfig, det_run: KineticRun,
                   bins: int = 64) -> Verdict:
    """Particle cross-check at the largest eps: binned densities must agree
    with the deterministic marginal within three standard errors per bin."""
    eps = det_run.eps
    ens = init_ensemble(cfg.model, cfg.particles, cfg.seed)
    ens = advance(ens, cfg.t_final, eps)
    if det_run.xgrid.nx % bins != 0:
        bins = det_run.xgrid.nx
    fld = estimate_density(ens, bins)
    se = density_standard_error(ens, fld)
    det_binned = det_run.rho[-1].reshape(bins, -1).mean(axis=1)
    diff = np.abs(fld.values - det_binned)
    passed = bool(np.all(diff <= 3.0 * se + 1e-15))
    # an empty bin has zero binomial SE, so its z-score is undefined; it is
    # counted instead, and judged by the pass rule alone
    has_se = se > 0.0
    max_z = float(np.max(diff[has_se] / se[has_se], initial=0.0))
    return Verdict(
        criterion="mc-cross-check",
        passed=passed,
        tolerance="|mc - det| <= 3 SE per bin",
        metrics={"eps": eps, "particles": cfg.particles, "bins": bins,
                 "max_z": max_z,
                 "empty_bins": int(np.count_nonzero(~has_se)),
                 "max_abs_diff": float(np.max(diff)),
                 "collisions": ens.collision_count,
                 "advance_rounds": ens.advance_rounds},
    )


def run_sweep(cfg: RunConfig, *, threads: int = 1) -> SweepReport:
    """Run the full comparison ladder described by ``cfg``.

    For each eps (strictly decreasing) the deterministic kinetic solver is
    run from a shared initial density; the limiting nonlocal equation is
    solved once on the same grid; the report rows carry the terminal L^2
    errors, bound margins, remainder magnitudes and wall times, and the
    verdict list the named pass/fail checks.  With ``threads`` > 1 the
    independent eps runs are shared among up to ``threads`` processes: this
    one, which also solves the limit and checks coercivity, and forked
    workers (serially where the platform cannot fork); rows are merged in
    eps order regardless.  A rung failing with a HeavykinError becomes an
    error row; any other exception reaches the caller with its own type.
    """
    eps_list = check_eps_ladder(cfg.eps_list)
    schedule = snapshot_schedule(cfg.t_final, cfg.snapshot_times)
    if schedule[-1] < cfg.t_final - 1e-12:
        raise ValidationError("snapshot_times must end at t_final for the "
                              "terminal comparison")
    phi = probe_from_choice(cfg)
    check_probe_times(phi, schedule)   # every rung's remainders cover the probe
    if threads < 1:
        raise ValidationError("threads must be positive")

    params = cfg.model
    xgrid, vgrid = build_grids(cfg)
    rho0 = periodized_gaussian(xgrid)

    # Limiting equation: assembled first, so a refused operator fails
    # before any rung runs; solved once, shared by every row.
    macro_started = time.perf_counter()
    op = assemble(params, xgrid)
    assemble_s = time.perf_counter() - macro_started

    def job(e: float):
        try:
            return _kinetic_row(cfg, e, xgrid, vgrid, phi)
        except HeavykinError as exc:
            return {"eps": e, "error": f"{type(exc).__name__}: {exc}"}, None

    def rung_free():
        # the work no rung needs, done while forked rungs finish
        solve_started = time.perf_counter()
        macro_run = solve_macro(
            op, DensityField(xgrid, rho0, provenance="initial"), cfg.t_final)
        macro = {
            "nx": xgrid.nx,
            "t_final": cfg.t_final,
            "mass_err": float(abs(macro_run.masses()[-1] - 1.0)),
            "wall_time": assemble_s + time.perf_counter() - solve_started,
        }
        return macro_run.final(), macro, \
            check_coercivity(params, vgrid, 200, seed=cfg.seed)

    results, (macro_final, macro, coercivity) = \
        _map_rungs(job, eps_list, threads, rung_free)

    rows = []
    runs: list[KineticRun | None] = []
    verdicts: list[Verdict] = []
    for row, run in results:
        if run is not None:
            diff = run.rho[-1] - macro_final.values
            row["error_l2"] = float(np.sqrt(xgrid.dx * np.sum(diff ** 2)))
            apriori = check_apriori(run)
            row["g_margin"] = apriori.metrics["g_margin"]
            row["rho_margin"] = apriori.metrics["rho_margin"]
            row["gnorm2_over_eps_gamma"] = \
                apriori.metrics["gnorm2_over_eps_gamma"]
            verdicts.append(apriori)
        rows.append(row)
        runs.append(run)

    ok_runs = [r for r in runs if r is not None]
    verdicts.append(Verdict(
        criterion="runs-completed",
        passed=len(ok_runs) == len(eps_list),
        tolerance="every eps run finishes",
        metrics={"requested": len(eps_list), "completed": len(ok_runs)},
        note="" if len(ok_runs) == len(eps_list) else "partial report",
    ))

    mass_errs = [row["mass_err"] for row in rows if "mass_err" in row]
    mass_errs.append(macro["mass_err"])
    verdicts.append(Verdict(
        criterion="mass-conservation",
        passed=max(mass_errs) < 1e-9,
        tolerance="|mass - 1| < 1e-9",
        metrics={"max_mass_err": max(mass_errs)},
    ))

    errors = [row["error_l2"] for row in rows if "error_l2" in row]
    if len(errors) >= 2:
        decreasing = all(b < a for a, b in zip(errors, errors[1:]))
        verdicts.append(Verdict(
            criterion="macro-convergence",
            passed=decreasing,
            tolerance="terminal L2 error strictly decreasing in eps",
            metrics={"errors": errors,
                     "ratio_last_first": errors[-1] / errors[0]},
        ))

    diagnostics: dict = {}
    ratios = [row["gnorm2_over_eps_gamma"] for row in rows
              if "gnorm2_over_eps_gamma" in row]
    if len(ratios) >= 2:
        # Measured, not asserted: the rescaled energy should be eps-uniform.
        diagnostics["gnorm2_ratio_spread"] = max(ratios) / min(ratios)

    if len(ok_runs) >= 3 and len(ok_runs) == len(eps_list) \
            and ok_runs[0].times.size >= 3:
        verdicts.append(check_correctors(rows, params))

    verdicts.append(coercivity)

    if cfg.particles > 0 and runs[0] is not None:
        verdicts.append(mc_cross_check(cfg, runs[0]))

    return SweepReport(
        version=__version__,
        seed=cfg.seed,
        config=config_dict(cfg),
        params=params.as_dict(),
        eps_list=eps_list,
        rows=rows,
        macro=macro,
        verdicts=verdicts,
        diagnostics=diagnostics,
        runs=runs,
    )
