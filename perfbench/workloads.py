"""The benchmark's three workloads: inputs, the program calls, and checks.

Each workload drives heavykin's public API the way ``heavykin sweep`` and the
acceptance fixtures do, at a grid scale that lets several rounds fit in one
run (see README.md for the scale-down and why).  Checks compare against
results computed here, apart from the program, or against properties the
method must have; none compares against a stored copy of earlier output.

Every program call goes through the module attribute (``harness.run_sweep``,
``kinetic_fv.run_kinetic_det``, ...) so that a traced round sees it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

from heavykin import harness, kinetic_fv, outputs
from heavykin.config import default_config, parse_config
from heavykin.grids import SpatialGrid, VelocityGrid

# Grid sizes per scale.  "full" is what the benchmark measures; "smoke"
# exercises the same code in seconds and is not expected to pass the
# convergence checks.
SCALES = {
    "full": {"sweep-drift": (64, 65), "sweep-degenerate": (48, 49),
             "particle-xcheck": (128, 129), "particles": 10**6},
    "smoke": {"sweep-drift": (24, 25), "sweep-degenerate": (16, 17),
              "particle-xcheck": (64, 65), "particles": 10**4},
}

# The acceptance sweep configurations, with the grid, seed and output
# directory filled in per round.
SWEEP_CFG = {
    "sweep-drift": """
model.alpha = 1.5
model.core_asym = 0.5
discretization.nx = {nx}
discretization.nv = {nv}
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.t_final = 0.5
experiment.seed = {seed}
output.dir = {out}
""",
    "sweep-degenerate": """
model.alpha = 0.8
model.beta = 0.25
model.core_asym = 0.5
model.nu0_delta = 0.3
discretization.nx = {nx}
discretization.nv = {nv}
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.t_final = 0.5
experiment.seed = {seed}
output.dir = {out}
""",
}

PARTICLE_EPS = 0.2
PARTICLE_BINS = 64


@dataclasses.dataclass
class Round:
    """One workload instance: its inputs, and after ``run`` its results."""

    name: str
    cfg: object
    grids: tuple
    threads: int = 1
    report: object = None          # SweepReport (sweeps)
    det: object = None             # KineticRun (particle reference)
    verdict: object = None         # mc-cross-check Verdict (particles)
    ensemble: object = None        # ParticleEnsemble after advance


def _work_dir(name: str) -> str:
    # relative to the checkout root, so the config echoed into the report
    # (and hence its digest) is the same in every checkout
    return f"perfbench/out/work/{name}"


def setup(name: str, seed: int, scale: str) -> Round:
    """Config parse and grid construction: the set-up the CLI performs."""
    size = SCALES[scale]
    if name in SWEEP_CFG:
        nx, nv = size[name]
        cfg = parse_config(SWEEP_CFG[name].format(
            nx=nx, nv=nv, seed=seed, out=_work_dir(name)))
        threads = min(2, os.cpu_count() or 1) \
            if name == "sweep-degenerate" else 1
        # run_sweep builds its grids again; building them here keeps grid
        # construction in set-up time, where a config-driven caller pays it
        return Round(name, cfg, harness.build_grids(cfg),
                     threads=threads)
    # the acceptance particle_cross_check fixture
    nx, nv = size[name]
    cfg = dataclasses.replace(default_config(), particles=size["particles"],
                              seed=seed, t_final=0.5)
    params = cfg.model
    vgrid = VelocityGrid(nv, kinetic_fv.auto_vscale(params, nv, PARTICLE_EPS,
                                                    tail_target=1e-4))
    return Round(name, cfg,
                 (SpatialGrid(nx, params.domain_length), vgrid))


def run(rd: Round) -> None:
    """The timed part: from the call to finished verdicts and outputs."""
    if rd.name in SWEEP_CFG:
        rd.report = harness.run_sweep(rd.cfg, threads=rd.threads)
        outputs.write_outputs(rd.report, rd.cfg.out_dir, rd.cfg.formats)
        return
    xgrid, vgrid = rd.grids
    rd.det = kinetic_fv.run_kinetic_det(
        rd.cfg.model, PARTICLE_EPS, xgrid=xgrid, vgrid=vgrid,
        t_final=rd.cfg.t_final, scheme_order=2)
    # mc_cross_check keeps its ensemble to itself; catch what advance
    # returns on the way out
    advance = harness.advance

    def keep(*args, **kwargs):
        rd.ensemble = advance(*args, **kwargs)
        return rd.ensemble

    harness.advance = keep
    try:
        rd.verdict = harness.mc_cross_check(rd.cfg, rd.det,
                                            bins=PARTICLE_BINS)
    finally:
        harness.advance = advance


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def gamma_of(alpha: float, beta: float) -> float:
    return (alpha - beta) / (1.0 - beta)


def closed_form_density(params, x: np.ndarray, t: float) -> np.ndarray:
    """Flat-rate limit solution from a unit Gaussian at L/2, by Fourier series.

    Uses the closed-form multiplier
    kappa nu^(1-gamma) pi / ((1-beta) sin(pi gamma/2)) |xi|^gamma, not the
    program's quadrature of the dispersion constant.
    """
    length, g = params.domain_length, gamma_of(params.alpha, params.beta)
    xi = 2.0 * np.pi * np.arange(1, 65) / length
    mult = (params.kappa * params.nu0_mean ** (1.0 - g) * math.pi
            / ((1.0 - params.beta) * math.sin(math.pi * g / 2.0)) * xi ** g)
    amp = np.exp(-0.5 * xi ** 2 - mult * t)
    return (1.0 + 2.0 * np.cos(np.outer(x - 0.5 * length, xi)) @ amp) / length


def equilibrium_cdf(params, v: np.ndarray) -> np.ndarray:
    """CDF of F: affine core A(1 + a v) on |v| < 1, tails kappa |v|^(-1-alpha)."""
    t = params.kappa / params.alpha
    a = params.core_asym
    height = 0.5 * (1.0 - 2.0 * t)
    core = t + height * ((v + 1.0) + 0.5 * a * (v * v - 1.0))
    left = t * np.abs(np.minimum(v, -1.0)) ** (-params.alpha)
    right = 1.0 - t * np.maximum(v, 1.0) ** (-params.alpha)
    return np.where(v <= -1.0, left, np.where(v >= 1.0, right, core))


def _mass_positivity(rho: np.ndarray, dx: float) -> dict:
    mass_dev = float(np.max(np.abs(rho.sum(axis=1) * dx - 1.0)))
    low = float(np.min(rho))
    return {"mass": {"ok": mass_dev < 1e-9, "max_dev": mass_dev},
            "positivity": {"ok": low >= -1e-12, "min": low}}


def _sweep_mass(report) -> dict:
    # every rung runs on the same spatial grid
    return _mass_positivity(np.concatenate([r.rho for r in report.runs]),
                            report.runs[0].xgrid.dx)


def _drift_terms(report) -> list[float]:
    return [row[k] for row in report.rows
            for k in ("drift_g_term", "drift_rho_term")]


def _outputs_check(rd: Round) -> dict:
    out = Path(rd.cfg.out_dir)
    try:
        with open(out / "report.json") as fh:
            written = json.load(fh)
        with open(out / "sweep_rows.csv") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        return {"ok": False, "error": str(exc)}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    names = [v["criterion"] for v in written.get("verdicts", [])]
    ok = (names == [v.criterion for v in rd.report.verdicts]
          and len(written.get("rows", [])) == len(rd.report.rows)
          and len(lines) == len(rd.report.rows) + 1)
    return {"ok": ok, "rows": len(lines) - 1}


def check(rd: Round) -> dict:
    """Named checks of one round; each entry carries ``ok`` and its numbers."""
    if rd.name == "sweep-drift":
        report = rd.report
        errs = [float(np.sqrt(r.xgrid.dx * np.sum(
            (r.rho[-1] - closed_form_density(r.params, r.xgrid.centers,
                                             float(r.times[-1]))) ** 2)))
            for r in report.runs]
        return {
            "closed-form-convergence": {
                "ok": all(b < a for a, b in zip(errs, errs[1:]))
                and errs[-1] / errs[0] < 0.5,
                "errors": errs, "ratio_last_first": errs[-1] / errs[0]},
            **_sweep_mass(report),
            "drift-remainders-nonzero": {
                "ok": all(math.isfinite(d) and d != 0.0
                          for d in _drift_terms(report))},
            "outputs": _outputs_check(rd),
        }
    if rd.name == "sweep-degenerate":
        report = rd.report
        model = rd.cfg.model
        eps = np.array(report.eps_list)
        mags = np.abs([row["qplus_term"] for row in report.rows])
        slope = float(np.polyfit(np.log(eps), np.log(mags), 1)[0])
        need = gamma_of(model.alpha, model.beta) / 2.0 - 0.15
        return {
            "drift-remainders-zero": {
                "ok": all(d == 0.0 for d in _drift_terms(report))},
            "gain-remainder-decay": {
                "ok": slope >= need and bool(np.all(np.diff(mags) < 0)),
                "slope": slope, "required": need, "magnitudes": mags.tolist()},
            **_sweep_mass(report),
            "outputs": _outputs_check(rd),
        }
    # particle-xcheck
    params, ens = rd.cfg.model, rd.ensemble
    length = params.domain_length
    counts, _ = np.histogram(ens.positions, bins=PARTICLE_BINS,
                             range=(0.0, length))
    inside = bool(np.all((ens.positions >= 0.0) & (ens.positions < length)))
    # beta = 0 and a flat rate: every candidate event is accepted, so the
    # collision count is Poisson with mean N T / eps^gamma
    mean = ens.count * rd.cfg.t_final \
        / PARTICLE_EPS ** gamma_of(params.alpha, params.beta)
    z = (ens.collision_count - mean) / math.sqrt(mean)
    from scipy import stats  # imported here to keep it out of set-up time
    ks = stats.kstest(ens.velocities, lambda v: equilibrium_cdf(params, v))
    return {
        "particle-mass-by-count": {
            "ok": inside and int(counts.sum()) == ens.count,
            "counted": int(counts.sum()), "particles": ens.count},
        "collision-count-poisson": {
            "ok": abs(z) <= 5.0, "count": ens.collision_count,
            "expected": mean, "z": z},
        "velocities-follow-F": {
            "ok": float(ks.pvalue) >= 1e-6, "ks_statistic": float(ks.statistic),
            "p_value": float(ks.pvalue)},
        **_mass_positivity(rd.det.rho, rd.det.xgrid.dx),
    }


def fragile(rd: Round) -> dict:
    """Program verdicts known to be fragile: reported on every run, not gated."""
    if rd.name == "sweep-degenerate":
        v = next((v for v in rd.report.verdicts
                  if v.criterion == "macro-convergence"), None)
        return {} if v is None else {"macro-convergence": {
            "passed": v.passed, "errors": v.metrics["errors"]}}
    if rd.name == "particle-xcheck":
        return {"mc-cross-check": {"passed": rd.verdict.passed,
                                   "max_z": rd.verdict.metrics["max_z"]}}
    return {}


def verdicts(rd: Round) -> dict:
    found = rd.report.verdicts if rd.report is not None else [rd.verdict]
    return {v.criterion: v.passed for v in found}


def fingerprint(rd: Round) -> tuple[str, dict]:
    """Digest of the deterministic results, and exact counts, of one round."""
    if rd.report is not None:
        blob = rd.report.to_json(drop_wall_times=True).encode()
        return hashlib.sha256(blob).hexdigest(), {}
    h = hashlib.sha256(rd.det.rho.tobytes())
    h.update(json.dumps(rd.verdict.as_dict(), sort_keys=True).encode())
    h.update(rd.ensemble.positions.tobytes())
    h.update(rd.ensemble.velocities.tobytes())
    return h.hexdigest(), {"collision_count": rd.ensemble.collision_count}
