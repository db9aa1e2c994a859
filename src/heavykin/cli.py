"""Command-line surface.

Subcommands cover the individual instruments (`model-info`, `kinetic-det`,
`kinetic-mc`, `chi-check`, `kernel`, `macro-solve`, `limit-check`) and the
orchestrated ladders (`sweep`, `invariants`).  Exit codes: 0 all checks pass,
1 a verdict failed, 2 usage/config/output error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .config import (RunConfig, config_dict, default_config, load_config,
                     validate_config)
from .corrector import (chi_eval, chi_l2_diagnostics, constant_probe,
                        hazard_weight, operator_limit_lhs, static_gaussian)
from .errors import ConfigError, NumericError, OutputError, ValidationError
from .grids import DensityField, SpatialGrid, mass_drift, periodized_gaussian
from .harness import (Verdict, build_grids, check_coercivity,
                      probe_from_choice, run_sweep)
from .kinetic_fv import run_kinetic_det
from .kinetic_mc import (advance, density_standard_error, estimate_density,
                         init_ensemble)
from .model import strictly_decreasing
from .nonlocal_op import assemble, eta, kernel_table, nonlocal_operator_at, \
    solve_macro
from .outputs import (check_formats, json_text, write_manifest_json,
                      write_outputs, write_table_csv)

__all__ = ["main"]


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else default_config()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    for attr in ("nx", "nv", "scheme_order"):
        if getattr(args, attr, None) is not None:
            overrides[attr] = getattr(args, attr)
    if overrides:
        cfg = validate_config(dataclasses.replace(cfg, **overrides))
    # only kinetic-det has phase-space snapshots; fail before any work runs
    check_formats(cfg.formats, phase=args.command == "kinetic-det")
    return cfg


def _print_verdicts(args, verdicts) -> bool:
    ok = True
    for v in verdicts:
        ok &= v.passed
        _say(args, f"[{'PASS' if v.passed else 'FAIL'}] {v.criterion} "
                   f"({v.tolerance})")
    return ok


def _write_checks(args, cfg: RunConfig, verdicts, columns=(), rows=()) -> int:
    """Write a check command's table (if it has ``columns``) and verdict
    manifest, print the verdicts, and return the exit code."""
    stem = f"{cfg.out_dir}/{args.command.replace('-', '_')}"
    if columns and "csv" in cfg.formats:
        write_table_csv(f"{stem}.csv", columns, rows)
    if "json" in cfg.formats:
        write_manifest_json({"kind": args.command,
                             "verdicts": [v.as_dict() for v in verdicts]},
                            f"{stem}.json", config=config_dict(cfg))
    return 0 if _print_verdicts(args, verdicts) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_model_info(args) -> int:
    cfg = _config(args)
    info = cfg.model.as_dict()
    _say(args, json_text(info))
    if args.out is not None and "json" in cfg.formats:
        write_manifest_json({"kind": "model-info", **info},
                            f"{cfg.out_dir}/model.json",
                            config=config_dict(cfg))
    return 0


def cmd_kinetic_det(args) -> int:
    cfg = _config(args)
    xgrid, vgrid = build_grids(cfg)
    eps = cfg.eps_list[0]
    run = run_kinetic_det(
        cfg.model, eps, xgrid=xgrid, vgrid=vgrid, t_final=cfg.t_final,
        snapshot_times=cfg.snapshot_times, scheme_order=cfg.scheme_order,
        cfl=cfg.cfl, store_phase="binary" in cfg.formats)
    paths = write_outputs(run, cfg.out_dir, cfg.formats,
                          config=config_dict(cfg))
    summary = run.summary
    _say(args, f"kinetic-det eps={eps}: {len(run.times)} snapshots, "
               f"mass drift {summary['mass_err']:.2e}, "
               f"vmax/v_c {summary['vmax_over_critical']:.3g} "
               f"(critical tail loss {summary['critical_tail_loss']:.3g}), "
               f"wrote {len(paths)} file(s) to {cfg.out_dir}")
    return 0


def cmd_kinetic_mc(args) -> int:
    cfg = _config(args)
    eps = cfg.eps_list[0]
    ens = init_ensemble(cfg.model, cfg.particles, cfg.seed)
    ens = advance(ens, cfg.t_final, eps)
    fld = estimate_density(ens, cfg.nx)
    se = density_standard_error(ens, fld)
    paths = write_outputs(fld, cfg.out_dir, cfg.formats,
                          config=config_dict(cfg))
    _say(args, f"kinetic-mc eps={eps} n={cfg.particles}: mass {fld.mass():.12f}, "
               f"median bin SE {float(np.median(se)):.3e}, "
               f"{ens.collision_count} collisions in {ens.advance_rounds} "
               f"rounds, wrote {len(paths)} file(s) to {cfg.out_dir}")
    return 0


def cmd_chi_check(args) -> int:
    cfg = _config(args)
    phi = probe_from_choice(cfg)
    bound = cfg.model.nu2 / cfg.model.nu1
    rows = [{"eps": eps, **chi_l2_diagnostics(cfg.model, phi, eps)}
            for eps in cfg.eps_list]
    gaps = [r["gap"] for r in rows]
    gaps_dt = [r["gap_dt"] for r in rows]
    verdicts = [
        Verdict("corrector-gap-decay",
                strictly_decreasing(gaps) and strictly_decreasing(gaps_dt),
                "gaps strictly decreasing in eps",
                {"eps": list(cfg.eps_list), "gap": gaps, "gap_dt": gaps_dt}),
        Verdict("corrector-boundedness",
                all(r[key] <= bound * (1 + 1e-9) for r in rows
                    for key in ("bound_ratio", "bound_ratio_dt")),
                f"ratios (values and d/dt) <= nu2/nu1 = {bound:g}",
                {"ratios": [r["bound_ratio"] for r in rows],
                 "ratios_dt": [r["bound_ratio_dt"] for r in rows]}),
    ]
    return _write_checks(args, cfg, verdicts, ("eps", "gap", "gap_dt",
                         "bound_ratio", "bound_ratio_dt"), rows)


def cmd_kernel(args) -> int:
    cfg = _config(args)
    grid = SpatialGrid(cfg.nx, cfg.model.domain_length)
    table = kernel_table(cfg.model, grid)
    if "csv" in cfg.formats:
        rows = [{"x": float(x), "y": float(y), "eta": float(v)}
                for i, x in enumerate(grid.centers)
                for y, v in zip(grid.centers, table[i])]
        write_table_csv(f"{cfg.out_dir}/kernel.csv", ("x", "y", "eta"), rows)
    if "json" in cfg.formats:
        write_manifest_json({
            "kind": "kernel",
            "nx": grid.nx,
            "gamma": cfg.model.gamma,
            "min": float(table.min()),
            "max": float(table.max()),
            "symmetry_defect": float(np.max(np.abs(table - table.T))),
        }, f"{cfg.out_dir}/kernel.json", config=config_dict(cfg))
    _say(args, f"kernel table {grid.nx}x{grid.nx}: range "
               f"[{table.min():.6g}, {table.max():.6g}]")
    return 0


def cmd_macro_solve(args) -> int:
    cfg = _config(args)
    grid = SpatialGrid(cfg.nx, cfg.model.domain_length)
    op = assemble(cfg.model, grid)
    rho0 = DensityField(grid, periodized_gaussian(grid), provenance="initial")
    run = solve_macro(op, rho0, cfg.t_final, snapshot_times=cfg.snapshot_times)
    paths = write_outputs(run, cfg.out_dir, cfg.formats,
                          config=config_dict(cfg))
    _say(args, f"macro-solve to T={cfg.t_final}: mass drift "
               f"{mass_drift(run.masses()):.2e}, wrote {len(paths)} file(s)")
    return 0


def cmd_limit_check(args) -> int:
    cfg = _config(args)
    params = cfg.model
    center = 0.5 * params.domain_length
    phi = static_gaussian(center=center, width=1.0)
    points = [(0.15, center - 2.1), (0.3, center - 0.7), (0.45, center),
              (0.6, center + 0.7), (0.75, center + 2.6)]
    rows = []
    verdicts = []
    for t, x in points:
        target = -params.kappa * nonlocal_operator_at(params, phi, t, x)
        errs = [abs(operator_limit_lhs(params, t, x, e, phi) - target)
                for e in cfg.eps_list]
        for e, err in zip(cfg.eps_list, errs):
            rows.append({"t": t, "x": x, "eps": e, "target": target,
                         "abs_err": err})
        rel = errs[-1] / abs(target)
        verdicts.append(Verdict(
            f"operator-limit[t={t:g},x={x:g}]",
            strictly_decreasing(errs) and rel < 0.05,
            "errors decreasing in eps; terminal relative error < 5%",
            {"eps": list(cfg.eps_list), "abs_err": errs, "terminal_rel": rel,
             "target": target}))
    return _write_checks(args, cfg, verdicts,
                         ("t", "x", "eps", "target", "abs_err"), rows)


def cmd_sweep(args) -> int:
    cfg = _config(args)
    report = run_sweep(cfg, threads=args.threads)
    paths = write_outputs(report, cfg.out_dir, cfg.formats)
    ok = _print_verdicts(args, report.verdicts)
    _say(args, f"wrote {len(paths)} file(s) to {cfg.out_dir}")
    return 0 if ok else 1


def cmd_invariants(args) -> int:
    cfg = _config(args)
    params = cfg.model
    rng = np.random.default_rng(cfg.seed)
    n = 200

    xs = rng.uniform(0.0, params.domain_length, n)
    vs = rng.standard_cauchy(n)
    es = rng.uniform(0.02, 1.0, n)

    worst_hazard = 0.0
    for x, v, e in zip(xs, vs, es):
        worst_hazard = max(worst_hazard,
                           abs(float(hazard_weight(params, x, v, e)) - 1.0))
    const_vals = chi_eval(params, 0.5, xs, vs, 0.3,
                          constant_probe(1.0, t_span=(0.0, cfg.t_final)))
    worst_chi = float(np.max(np.abs(const_vals - 1.0)))

    pairs = rng.uniform(0.0, params.domain_length, (500, 2))
    sym = float(np.max(np.abs(eta(params, pairs[:, 0], pairs[:, 1])
                              - eta(params, pairs[:, 1], pairs[:, 0]))))

    verdicts = [
        check_coercivity(params, build_grids(cfg)[1], 1000, seed=cfg.seed),
        Verdict("hazard-normalization", worst_hazard <= 1e-12,
                "max |weight - 1| <= 1e-12",
                {"max_defect": worst_hazard, "samples": n}),
        Verdict("corrector-identity", worst_chi <= 1e-12,
                "constant probe reproduced to 1e-12",
                {"max_defect": worst_chi, "samples": n}),
        Verdict("kernel-symmetry", sym <= 1e-12,
                "max |eta(x,y) - eta(y,x)| <= 1e-12",
                {"max_defect": sym, "pairs": 500}),
    ]
    return _write_checks(args, cfg, verdicts)


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "model-info": (cmd_model_info, "print model constants and derived scales"),
    "kinetic-mc": (cmd_kinetic_mc, "particle run at the first eps of the list"),
    "kinetic-det": (cmd_kinetic_det, "deterministic run at the first eps"),
    "chi-check": (cmd_chi_check, "corrector gap decay and boundedness ladder"),
    "kernel": (cmd_kernel, "tabulate the limit kernel on the spatial grid"),
    "macro-solve": (cmd_macro_solve, "solve the limiting nonlocal equation"),
    "limit-check": (cmd_limit_check, "pointwise generator-to-limit comparison"),
    "sweep": (cmd_sweep, "full eps ladder with verdicts and report"),
    "invariants": (cmd_invariants, "fast battery of exact identities"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key-value config file (defaults apply "
                             "when omitted)")
    common.add_argument("--out", metavar="DIR",
                        help="override output.dir from the config")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override experiment.seed")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="heavykin",
        description="kinetic-to-fractional-diffusion laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        if name == "sweep":
            cmd.add_argument("--threads", type=int, default=1, metavar="N",
                             help="processes running eps rungs at once: "
                                  "the caller plus N-1 forked workers "
                                  "(serially where the platform cannot "
                                  "fork)")
        if name == "kinetic-det":
            cmd.add_argument("--nx", type=int, metavar="N",
                             help="override discretization.nx")
            cmd.add_argument("--nv", type=int, metavar="N",
                             help="override discretization.nv (odd)")
            cmd.add_argument("--scheme-order", type=int, dest="scheme_order",
                             metavar="K",
                             help="override discretization.scheme_order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        return handler(args)
    except (ConfigError, ValidationError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
