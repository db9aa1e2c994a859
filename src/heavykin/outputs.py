"""File emission: CSV for fields and tables, JSON manifests, raw binary
phase-space dumps, and gnuplot plot scripts.

Conventions (the full format reference lives in docs/file-formats.md):

* every JSON manifest carries ``schema_version`` and the package ``version``;
* no NaN/Inf is ever serialized -- :class:`NumericError` is raised instead;
* I/O failures surface as :class:`OutputError` naming the path;
* CSV column order is fixed per kind and spelled out below;
* raw binary is used only for phase-space fields (they are the large ones)
  and round-trips bit-exactly through :func:`read_phase_binary`.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, NumericError, OutputError
from .grids import DensityField, DiscreteModel, SpatialGrid, VelocityGrid
from .kinetic_fv import KineticRun, PhaseField
from .model import ModelParams
from .nonlocal_op import MacroRun

__all__ = ["SCHEMA_VERSION", "FORMATS", "check_format_names", "check_formats",
           "json_text", "write_outputs", "write_density_csv",
           "write_trajectory_csv", "write_table_csv", "write_manifest_json",
           "write_phase_binary", "read_phase_binary", "write_gnuplot_script"]

SCHEMA_VERSION = 1
FORMATS = ("csv", "json", "binary", "gnuplot")

SWEEP_COLUMNS = ("eps", "error_l2", "g_margin", "rho_margin",
                 "gnorm2_over_eps_gamma", "mass_err", "qplus_term",
                 "drift_g_term", "drift_rho_term", "wall_time", "error")

# binary phase dump: little-endian header, then nx*nv float64 row-major
#   8s  magic  b"HEAVYKIN"
#   I   schema version
#   I   nx
#   I   nv
#   9d  time, vscale, alpha, beta, kappa, core_asym, nu0_mean, nu0_delta,
#       domain_length
_PHASE_MAGIC = b"HEAVYKIN"
_PHASE_HEADER = struct.Struct("<8sIII9d")


def _finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{what} contains non-finite values; refusing to serialize")
    return arr


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write(path: Path, data: str | bytes) -> Path:
    """Write text (as UTF-8) or bytes to ``path``, creating its directory."""
    blob = data.encode("utf-8") if isinstance(data, str) else data
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


def check_format_names(formats) -> None:
    """Raise :class:`ConfigError` unless ``formats`` is a nonempty subset of
    :data:`FORMATS`; config load applies this part alone, since the pairing
    rules of :func:`check_formats` depend on the command."""
    if not formats or any(f not in FORMATS for f in formats):
        raise ConfigError(
            f"output.formats must be a nonempty subset of {{{', '.join(FORMATS)}}}"
            f" (got {', '.join(map(str, formats)) or 'none'})")


def check_formats(formats, *, phase: bool) -> None:
    """Raise :class:`ConfigError` unless ``formats`` passes
    :func:`check_format_names`, with ``binary`` only for a phase-space
    result (``phase``) and ``gnuplot`` only beside the ``csv`` its scripts
    plot."""
    check_format_names(formats)
    if "binary" in formats and not phase:
        raise ConfigError("binary dumps are reserved for phase-space fields "
                          "(a PhaseField, or a kinetic run made with "
                          "store_phase=True); drop 'binary' from "
                          "output.formats for this command")
    if "gnuplot" in formats and "csv" not in formats:
        raise ConfigError("gnuplot scripts plot the CSV files; add 'csv' to "
                          "output.formats or drop 'gnuplot'")


def json_text(payload) -> str:
    """Canonical JSON of ``payload``: sorted keys, indent 2; a NaN or
    infinity raises :class:`NumericError` instead of being written."""
    try:
        return json.dumps(_plain(payload), indent=2, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"JSON output contains non-finite values: "
                           f"{exc}") from exc


def _csv_text(columns, rows) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cell(value, what: str):
    if isinstance(value, (float, np.floating)):
        return repr(float(_finite(value, what)))
    return value


# ---------------------------------------------------------------------------
# typed writers
# ---------------------------------------------------------------------------


def write_density_csv(field: DensityField, path) -> Path:
    """Columns ``x,rho``; one row per grid cell."""
    values = _finite(field.values, "density field")
    rows = [(repr(float(x)), repr(float(r)))
            for x, r in zip(field.grid.centers, values)]
    return _write(Path(path), _csv_text(("x", "rho"), rows))


def write_trajectory_csv(times, grid: SpatialGrid, rho, path) -> Path:
    """Columns ``time,x,rho``, long format, snapshot-major."""
    times = _finite(times, "snapshot times")
    rho = _finite(rho, "density trajectory")
    rows = []
    for t, slab in zip(times, rho):
        rows.extend((repr(float(t)), repr(float(x)), repr(float(r)))
                    for x, r in zip(grid.centers, slab))
    return _write(Path(path), _csv_text(("time", "x", "rho"), rows))


def write_table_csv(path, columns, rows) -> Path:
    """Generic table: fixed ``columns`` order, one dict per row; missing
    entries are left empty (never silently reordered)."""
    body = [[_cell(row.get(col, ""), f"column {col}") for col in columns]
            for row in rows]
    return _write(Path(path), _csv_text(columns, body))


def write_manifest_json(payload: dict, path, *, config: dict | None = None) -> Path:
    """JSON manifest with ``schema_version`` and package ``version`` fields;
    pass the flat ``config`` mapping to echo the full run description."""
    data = {"schema_version": SCHEMA_VERSION, "version": __version__}
    if config is not None:
        data["config"] = config
    data.update(payload)
    return _write(Path(path), json_text(data) + "\n")


def write_phase_binary(fld: PhaseField, path) -> Path:
    """Raw dump of a phase-space field (see module docstring for the layout)."""
    values = _finite(fld.values, "phase field")
    p = fld.dvm.params
    header = _PHASE_HEADER.pack(
        _PHASE_MAGIC, SCHEMA_VERSION, fld.xgrid.nx, fld.dvm.vgrid.nv,
        fld.time, fld.dvm.vgrid.vscale, p.alpha, p.beta, p.kappa,
        p.core_asym, p.nu0_mean, p.nu0_delta, p.domain_length)
    return _write(Path(path), header + values.astype("<f8").tobytes())


def read_phase_binary(path) -> PhaseField:
    """Inverse of :func:`write_phase_binary`; bit-exact on the values."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _PHASE_HEADER.size or blob[:8] != _PHASE_MAGIC:
        raise OutputError(f"{path} is not a phase-space dump (bad magic)")
    (_, schema, nx, nv, time, vscale, alpha, beta, kappa, core_asym,
     nu0_mean, nu0_delta, domain_length) = _PHASE_HEADER.unpack_from(blob)
    if schema != SCHEMA_VERSION:
        raise OutputError(f"{path}: unsupported schema version {schema}")
    expected = _PHASE_HEADER.size + 8 * nx * nv
    if len(blob) != expected:
        raise OutputError(f"{path}: truncated dump ({len(blob)} of "
                          f"{expected} bytes)")
    params = ModelParams(alpha=alpha, beta=beta, kappa=kappa,
                         core_asym=core_asym, nu0_mean=nu0_mean,
                         nu0_delta=nu0_delta, domain_length=domain_length)
    values = np.frombuffer(blob, dtype="<f8",
                           offset=_PHASE_HEADER.size).reshape(nx, nv).copy()
    dvm = DiscreteModel(params, VelocityGrid(nv, vscale))
    return PhaseField(SpatialGrid(nx, domain_length), dvm, values, time)


def write_gnuplot_script(path, csv_name: str, *, title: str, xlabel: str,
                         ylabel: str, using: str, logscale: str = "",
                         style: str = "linespoints") -> Path:
    """Minimal gnuplot driver for one of the CSV files next to it."""
    lines = [
        "# generated plot script; run:  gnuplot <this file>",
        'set datafile separator ","',
        "set key off",
        f'set title "{title}"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logscale:
        lines.append(f"set logscale {logscale}")
    # datafile modifiers are positional: skip must precede using
    lines.append(f'plot "{csv_name}" skip 1 using {using} with {style}')
    return _write(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def _density_outputs(field: DensityField, out: Path, formats,
                     config) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(write_density_csv(field, out / "density.csv"))
    if "json" in formats:
        written.append(write_manifest_json({
            "kind": "density",
            "time": field.time,
            "provenance": field.provenance,
            "nx": field.grid.nx,
            "domain_length": field.grid.length,
            "mass": field.mass(),
            "l2_norm": field.l2_norm(),
        }, out / "density.json", config=config))
    if "gnuplot" in formats:
        written.append(write_gnuplot_script(
            out / "density.gnuplot", "density.csv", title="density",
            xlabel="x", ylabel="rho", using="1:2", style="lines"))
    return written


def _phase_outputs(fld: PhaseField, out: Path, formats, config) -> list[Path]:
    written = []
    if "binary" in formats:
        written.append(write_phase_binary(fld, out / "phase.bin"))
    if "csv" in formats:
        written.append(write_density_csv(fld.density(), out / "density.csv"))
    if "json" in formats:
        written.append(write_manifest_json({
            "kind": "phase",
            "time": fld.time,
            "nx": fld.xgrid.nx,
            "nv": fld.dvm.vgrid.nv,
            "mass": fld.mass(),
        }, out / "phase.json", config=config))
    if "gnuplot" in formats:
        written.append(write_gnuplot_script(
            out / "density.gnuplot", "density.csv", title="phase marginal",
            xlabel="x", ylabel="rho", using="1:2", style="lines"))
    return written


def _macro_outputs(run: MacroRun, out: Path, formats, config) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(write_trajectory_csv(run.times, run.grid, run.rho,
                                            out / "macro.csv"))
    if "json" in formats:
        written.append(write_manifest_json({
            "kind": "macro-run",
            "nx": run.grid.nx,
            "domain_length": run.grid.length,
            "times": run.times,
            "masses": run.masses(),
            "energies": run.energies(),
        }, out / "macro.json", config=config))
    if "gnuplot" in formats:
        written.append(write_gnuplot_script(
            out / "macro.gnuplot", "macro.csv", title="macro density",
            xlabel="x", ylabel="rho", using="2:3", style="dots"))
    return written


def _kinetic_outputs(run: KineticRun, out: Path, formats, config) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(write_trajectory_csv(run.times, run.xgrid, run.rho,
                                            out / "kinetic.csv"))
        # fluctuation diagnostic against its a-priori envelope
        rows = [{"t": float(t), "gnorm2": float(g), "bound": run.apriori_bound}
                for t, g in zip(run.times, run.gnorm2)]
        written.append(write_table_csv(out / "gnorm.csv",
                                       ("t", "gnorm2", "bound"), rows))
    if "json" in formats:
        written.append(write_manifest_json({
            "kind": "kinetic-run",
            "eps": run.eps,
            "scheme_order": run.scheme_order,
            "nx": run.xgrid.nx,
            "nv": run.dvm.vgrid.nv,
            "times": run.times,
            "mass": run.mass,
            "gnorm2": run.gnorm2,
            "rho_l2": run.rho_l2,
            "f0_norm2": run.f0_norm2,
            "dt_max": run.dt_max,
            "step_bound": run.step_bound,
            "wall_time": run.wall_time,
        }, out / "kinetic.json", config=config))
    if "binary" in formats:
        for i, (t, values) in enumerate(zip(run.times, run.phase)):
            fld = PhaseField(run.xgrid, run.dvm, values, time=float(t))
            written.append(write_phase_binary(fld, out / f"phase_{i:03d}.bin"))
    if "gnuplot" in formats:
        written.append(write_gnuplot_script(
            out / "kinetic.gnuplot", "kinetic.csv", title="kinetic density",
            xlabel="x", ylabel="rho", using="2:3", style="dots"))
    return written


def _sweep_outputs(report, out: Path, formats) -> list[Path]:
    written = []
    if "csv" in formats:
        written.append(write_table_csv(out / "sweep_rows.csv", SWEEP_COLUMNS,
                                       report.rows))
    if "json" in formats:
        written.append(write_manifest_json(report.as_dict(),
                                           out / "report.json"))
    if "gnuplot" in formats:
        written.append(write_gnuplot_script(
            out / "sweep.gnuplot", "sweep_rows.csv",
            title="terminal L2 error vs eps", xlabel="eps",
            ylabel="error", using="1:2", logscale="xy"))
    return written


def write_outputs(obj, out_dir, formats=("csv", "json"), *,
                  config: dict | None = None) -> list[Path]:
    """Write ``obj`` under ``out_dir`` in each requested format.

    Accepts a DensityField, PhaseField, KineticRun, MacroRun, or SweepReport;
    returns the written paths.  ``config`` (the flat run-config mapping) is
    echoed into the JSON manifest when given; sweep reports already embed
    theirs.  Formats that break :func:`check_formats` raise
    :class:`ConfigError` before anything is written; a KineticRun counts as
    phase-space output only when it stores snapshots.
    """
    check_formats(formats, phase=isinstance(obj, PhaseField)
                  or (isinstance(obj, KineticRun) and bool(obj.phase)))
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output dir {out}: {exc}") from exc

    if isinstance(obj, DensityField):
        return _density_outputs(obj, out, formats, config)
    if isinstance(obj, PhaseField):
        return _phase_outputs(obj, out, formats, config)
    if isinstance(obj, MacroRun):
        return _macro_outputs(obj, out, formats, config)
    if isinstance(obj, KineticRun):
        return _kinetic_outputs(obj, out, formats, config)
    # SweepReport (avoid importing harness here just for isinstance)
    if hasattr(obj, "verdicts") and hasattr(obj, "as_dict"):
        return _sweep_outputs(obj, out, formats)
    raise ConfigError(f"no writers for objects of type {type(obj).__name__}")
