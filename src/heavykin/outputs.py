"""File emission: CSV for fields and tables, JSON manifests, raw binary
phase-space dumps, and gnuplot plot scripts.

Conventions (the full format reference lives in docs/file-formats.md):

* every JSON manifest carries ``schema_version`` and the package ``version``;
* no NaN/Inf is ever serialized -- :class:`NumericError` is raised instead;
* I/O failures surface as :class:`OutputError` naming the path;
* every CSV goes through :func:`write_table_csv`, its column order fixed
  per kind and spelled out below;
* raw binary is used only for phase-space fields (they are the large ones)
  and round-trips bit-exactly through :func:`read_phase_binary`.
"""

from __future__ import annotations

import csv
import io
import json
import math
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
           "json_text", "write_outputs", "write_table_csv",
           "write_manifest_json", "write_phase_binary", "read_phase_binary",
           "write_gnuplot_script"]

SCHEMA_VERSION = 1
FORMATS = ("csv", "json", "binary", "gnuplot")

SWEEP_COLUMNS = ("eps", "error_l2", "g_margin", "rho_margin",
                 "gnorm2_over_eps_gamma", "mass_err", "steps", "dt_max",
                 "step_bound", "tail_mass_loss", "critical_tail_loss",
                 "nodes_past_critical", "vmax_over_critical", "qplus_term",
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


def _cell(value, column: str):
    """A float cell as a finite Python float, which the CSV writer prints
    with ``repr`` (read back bit-exactly); any other cell as it is."""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise NumericError(f"column {column} contains non-finite values; "
                               "refusing to serialize")
    return value


# ---------------------------------------------------------------------------
# typed writers
# ---------------------------------------------------------------------------


def write_table_csv(path, columns, rows) -> Path:
    """The one CSV writer: fixed ``columns`` order, one dict per row;
    missing entries are left empty (never silently reordered).  A NaN or
    infinite cell raises :class:`NumericError` before the file exists."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # a finite Python float, the common cell, is written as it is; one flat
    # list of cells, cut into rows of len(columns), spares a list per row
    cells = [cell if type(cell := row.get(col, "")) is float
             and math.isfinite(cell) else _cell(cell, col)
             for row in rows for col in columns]
    writer.writerows(zip(*[iter(cells)] * len(columns)))
    return _write(Path(path), buf.getvalue())


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
    if not np.all(np.isfinite(fld.values)):
        raise NumericError("phase field contains non-finite values; "
                           "refusing to serialize")
    p = fld.dvm.params
    header = _PHASE_HEADER.pack(
        _PHASE_MAGIC, SCHEMA_VERSION, fld.xgrid.nx, fld.dvm.vgrid.nv,
        fld.time, fld.dvm.vgrid.vscale, p.alpha, p.beta, p.kappa,
        p.core_asym, p.nu0_mean, p.nu0_delta, p.domain_length)
    return _write(Path(path), header + fld.values.astype("<f8").tobytes())


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


def _plotted(table: str, script: str, columns, rows, **plot) -> tuple:
    """The csv entry of ``table``, whose ``rows()`` are built when it is
    written, and the gnuplot entry of the ``script`` that plots it."""
    return (("csv", lambda out: write_table_csv(out / table, columns, rows())),
            ("gnuplot", lambda out: write_gnuplot_script(out / script, table,
                                                         **plot)))


def _profile(fld: DensityField, title: str) -> tuple:
    """density.csv (``x,rho``, one row per grid cell) and its plot."""
    return _plotted("density.csv", "density.gnuplot", ("x", "rho"), lambda: [
        {"x": x, "rho": r}
        for x, r in zip(fld.grid.centers.tolist(), fld.values.tolist())],
        title=title, xlabel="x", ylabel="rho", using="1:2", style="lines")


def _trajectory(run, grid: SpatialGrid, stem: str, title: str) -> tuple:
    """``stem``.csv (``time,x,rho``, snapshot-major) and its plot."""
    return _plotted(f"{stem}.csv", f"{stem}.gnuplot", ("time", "x", "rho"),
                    lambda: [{"time": t, "x": x, "rho": r}
                             for t, slab in zip(run.times.tolist(),
                                                run.rho.tolist())
                             for x, r in zip(grid.centers.tolist(), slab)],
                    title=title, xlabel="x", ylabel="rho", using="2:3",
                    style="dots")


def _files(obj, config) -> list:
    """Every file ``obj`` can be written to, in write order, as (format,
    writer) pairs: the writer takes the directory, builds its data, writes
    one file and returns its path.  Only phase-space results have
    ``binary`` entries."""
    def manifest(name: str, payload):
        return ("json", lambda out: write_manifest_json(
            payload(), out / name, config=config))

    if isinstance(obj, DensityField):
        table, plot = _profile(obj, "density")
        return [table, manifest("density.json", lambda: {
                    "kind": "density",
                    "time": obj.time,
                    "provenance": obj.provenance,
                    "nx": obj.grid.nx,
                    "domain_length": obj.grid.length,
                    "mass": obj.mass(),
                    "l2_norm": obj.l2_norm(),
                }), plot]
    if isinstance(obj, PhaseField):
        density = obj.density()
        table, plot = _profile(density, "phase marginal")
        return [table, manifest("phase.json", lambda: {
                    "kind": "phase",
                    "time": obj.time,
                    "nx": obj.xgrid.nx,
                    "nv": obj.dvm.vgrid.nv,
                    "mass": density.mass(),
                }),
                ("binary", lambda out: write_phase_binary(obj,
                                                          out / "phase.bin")),
                plot]
    if isinstance(obj, MacroRun):
        table, plot = _trajectory(obj, obj.grid, "macro", "macro density")
        return [table, manifest("macro.json", lambda: {
                    "kind": "macro-run",
                    "nx": obj.grid.nx,
                    "domain_length": obj.grid.length,
                    "times": obj.times,
                    "masses": obj.masses(),
                    "energies": obj.energies(),
                }), plot]
    if isinstance(obj, KineticRun):
        table, plot = _trajectory(obj, obj.xgrid, "kinetic", "kinetic density")
        return [
            table,
            # fluctuation diagnostic against its a-priori envelope
            ("csv", lambda out: write_table_csv(
                out / "gnorm.csv", ("t", "gnorm2", "bound"),
                [{"t": t, "gnorm2": g, "bound": obj.apriori_bound}
                 for t, g in zip(obj.times.tolist(), obj.gnorm2.tolist())])),
            manifest("kinetic.json", lambda: {
                "kind": "kinetic-run",
                "eps": obj.eps,
                "scheme_order": obj.scheme_order,
                "nx": obj.xgrid.nx,
                "nv": obj.dvm.vgrid.nv,
                "times": obj.times,
                "mass": obj.mass,
                "gnorm2": obj.gnorm2,
                "rho_l2": obj.rho_l2,
                "f0_norm2": obj.f0_norm2,
                **obj.summary,
                "wall_time": obj.wall_time,
            }),
            # only a run made with store_phase has snapshots to dump
            *(("binary", lambda out, i=i, t=t, f=f: write_phase_binary(
                PhaseField(obj.xgrid, obj.dvm, f, time=t),
                out / f"phase_{i:03d}.bin"))
              for i, (t, f) in enumerate(zip(obj.times.tolist(), obj.phase))),
            plot,
        ]
    # SweepReport (avoid importing harness here just for isinstance)
    if hasattr(obj, "verdicts") and hasattr(obj, "as_dict"):
        table, plot = _plotted(
            "sweep_rows.csv", "sweep.gnuplot", SWEEP_COLUMNS, lambda: obj.rows,
            title="terminal L2 error vs eps", xlabel="eps", ylabel="error",
            using="1:2", logscale="xy")
        return [table, ("json", lambda out: write_manifest_json(
                    obj.as_dict(), out / "report.json")), plot]
    raise ConfigError(f"no writers for objects of type {type(obj).__name__}")


def write_outputs(obj, out_dir, formats=("csv", "json"), *,
                  config: dict | None = None) -> list[Path]:
    """Write ``obj`` under ``out_dir`` in each requested format.

    Accepts a DensityField, PhaseField, KineticRun, MacroRun, or SweepReport;
    returns the written paths, format by format in :data:`FORMATS` order.
    ``config`` (the flat run-config mapping) is echoed into the JSON manifest
    when given; sweep reports already embed theirs.  An object of another
    type, or formats that break :func:`check_formats`, raise
    :class:`ConfigError` before the first file creates the directory.
    """
    files = _files(obj, config)
    check_formats(formats, phase=any(fmt == "binary" for fmt, _ in files))
    out = Path(out_dir)
    return [write(out) for fmt, write in files if fmt in formats]
