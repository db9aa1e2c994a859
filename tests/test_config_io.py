"""File emission and command-line plumbing.

Everything here runs on deliberately tiny grids: the point is exercising the
writers, the round-trips, and the exit-code contract, not the physics.
"""

import csv
import json
import struct
import warnings

import numpy as np
import pytest

from heavykin.cli import _build_parser, main
from heavykin.config import parse_config
from heavykin.errors import ConfigError, NumericError, OutputError
from heavykin.grids import DensityField, SpatialGrid, VelocityGrid, \
    periodized_gaussian
from heavykin.harness import SweepReport, build_grids, run_sweep
from heavykin.kinetic_fv import PhaseField, run_kinetic_det
from heavykin.model import ModelParams
from heavykin.nonlocal_op import assemble, solve_macro
from heavykin.outputs import (FORMATS, SCHEMA_VERSION, read_phase_binary,
                              write_density_csv, write_manifest_json,
                              write_outputs, write_phase_binary,
                              write_table_csv)

PARAMS = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5,
                     nu0_mean=1.0, nu0_delta=0.0, domain_length=20.0)


def small_run(store_phase=False):
    grid = SpatialGrid(16, 20.0)
    # vscale sized so the tiny grid still meets the default tail budget
    vgrid = VelocityGrid(17, 2.6)
    return run_kinetic_det(PARAMS, 0.4, xgrid=grid, vgrid=vgrid, t_final=0.05,
                           scheme_order=1, store_phase=store_phase)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_density_csv_one_row_per_cell(tmp_path):
    grid = SpatialGrid(4, 20.0)
    fld = DensityField(grid, np.array([0.1, 0.2, 0.3, 0.4]))
    path = write_density_csv(fld, tmp_path / "d.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) == 5
    assert [float(l.split(",")[1]) for l in lines[1:]] == [0.1, 0.2, 0.3, 0.4]


def test_density_csv_values_roundtrip_through_repr(tmp_path):
    grid = SpatialGrid(8, 20.0)
    fld = DensityField(grid, periodized_gaussian(grid))
    lines = write_density_csv(fld, tmp_path / "d.csv").read_text().splitlines()
    back = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.array_equal(back, fld.values)  # repr round-trips float64 exactly


def test_manifest_carries_schema_and_version(tmp_path):
    path = write_manifest_json({"kind": "probe", "n": 3}, tmp_path / "m.json")
    data = json.loads(path.read_text())
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["version"]
    assert data["kind"] == "probe"


def test_manifest_rejects_nan():
    with pytest.raises(NumericError):
        write_manifest_json({"bad": float("nan")}, "/tmp/never-written.json")


def test_table_csv_fixed_column_order_and_gaps(tmp_path):
    rows = [{"b": 2.0, "a": 1.0}, {"a": 3.0}]
    path = write_table_csv(tmp_path / "t.csv", ("a", "b"), rows)
    lines = path.read_text().splitlines()
    assert lines == ["a,b", "1.0,2.0", "3.0,"]


def test_table_csv_rejects_inf(tmp_path):
    with pytest.raises(NumericError):
        write_table_csv(tmp_path / "t.csv", ("a",), [{"a": float("inf")}])


# ---------------------------------------------------------------------------
# binary phase dumps
# ---------------------------------------------------------------------------


def test_phase_binary_roundtrip_bit_exact(tmp_path):
    run = small_run(store_phase=True)
    fld = PhaseField(run.xgrid, run.dvm, run.phase[-1],
                     time=float(run.times[-1]))
    path = write_phase_binary(fld, tmp_path / "p.bin")
    back = read_phase_binary(path)
    assert np.array_equal(back.values, fld.values)
    assert back.time == fld.time
    assert back.xgrid.nx == fld.xgrid.nx
    assert back.dvm.vgrid.vscale == fld.dvm.vgrid.vscale
    assert back.dvm.params == fld.dvm.params


def test_phase_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAPHSE" + b"\x00" * 100)
    with pytest.raises(OutputError, match="magic"):
        read_phase_binary(path)


def test_phase_binary_truncated(tmp_path):
    run = small_run(store_phase=True)
    fld = PhaseField(run.xgrid, run.dvm, run.phase[0])
    path = write_phase_binary(fld, tmp_path / "p.bin")
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(OutputError, match="truncated"):
        read_phase_binary(path)


def test_phase_binary_unsupported_schema(tmp_path):
    header = struct.Struct("<8sIII9d").pack(
        b"HEAVYKIN", 99, 2, 9, 0.0, 1.0, 1.5, 0.0, 0.2, 0.5, 1.0, 0.0, 20.0)
    path = tmp_path / "future.bin"
    path.write_bytes(header + b"\x00" * (8 * 2 * 9))
    with pytest.raises(OutputError, match="schema"):
        read_phase_binary(path)


def test_phase_binary_missing_file(tmp_path):
    with pytest.raises(OutputError, match="cannot read"):
        read_phase_binary(tmp_path / "absent.bin")


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def test_write_outputs_density_files(tmp_path):
    grid = SpatialGrid(8, 20.0)
    fld = DensityField(grid, periodized_gaussian(grid), provenance="test")
    paths = write_outputs(fld, tmp_path, ("csv", "json", "gnuplot"))
    assert sorted(p.name for p in paths) == ["density.csv", "density.gnuplot",
                                             "density.json"]
    manifest = json.loads((tmp_path / "density.json").read_text())
    assert manifest["provenance"] == "test"
    assert manifest["mass"] == pytest.approx(1.0, abs=1e-12)


def test_write_outputs_rejects_binary_for_density(tmp_path):
    grid = SpatialGrid(4, 20.0)
    fld = DensityField(grid, np.ones(4))
    with pytest.raises(ConfigError, match="phase-space"):
        write_outputs(fld, tmp_path, ("binary",))


def test_write_outputs_unknown_format(tmp_path):
    grid = SpatialGrid(4, 20.0)
    with pytest.raises(ConfigError, match="hdf5"):
        write_outputs(DensityField(grid, np.ones(4)), tmp_path, ("hdf5",))


def test_write_outputs_empty_formats(tmp_path):
    grid = SpatialGrid(4, 20.0)
    with pytest.raises(ConfigError):
        write_outputs(DensityField(grid, np.ones(4)), tmp_path, ())


def test_write_outputs_unknown_object(tmp_path):
    with pytest.raises(ConfigError, match="no writers"):
        write_outputs(object(), tmp_path, ("csv",))


def test_write_outputs_unknown_object_creates_no_directory(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="no writers"):
        write_outputs(object(), out, ("csv",))
    assert not out.exists()


def _phase_field():
    run = small_run(store_phase=True)
    return PhaseField(run.xgrid, run.dvm, run.phase[-1], time=run.times[-1])


def _macro_run():
    grid = SpatialGrid(16, 20.0)
    return solve_macro(assemble(PARAMS, grid),
                       DensityField(grid, periodized_gaussian(grid)), 0.1)


def _sweep_report():
    row = {"eps": 0.4, "error_l2": 0.1, "wall_time": 0.0}
    return SweepReport(version="0", seed=1, config={}, params={},
                       eps_list=[0.4], rows=[row], macro={}, verdicts=[])


# small_run keeps the default schedule's six snapshots
_SNAPSHOTS = [f"phase_{i:03d}.bin" for i in range(6)]


# every result type in every format it accepts; the file names are the ones
# docs/file-formats.md lists
@pytest.mark.parametrize("make, formats, names", [
    (lambda: DensityField(SpatialGrid(4, 20.0), np.ones(4)),
     ("gnuplot", "json", "csv"),
     ["density.csv", "density.gnuplot", "density.json"]),
    (_phase_field, ("gnuplot", "binary", "json", "csv"),
     ["density.csv", "density.gnuplot", "phase.bin", "phase.json"]),
    (_macro_run, ("gnuplot", "json", "csv"),
     ["macro.csv", "macro.gnuplot", "macro.json"]),
    (lambda: small_run(store_phase=True), ("gnuplot", "binary", "json", "csv"),
     ["gnorm.csv", "kinetic.csv", "kinetic.gnuplot", "kinetic.json"]
     + _SNAPSHOTS),
    (_sweep_report, ("gnuplot", "json", "csv"),
     ["report.json", "sweep.gnuplot", "sweep_rows.csv"]),
])
def test_write_outputs_file_names_per_type(tmp_path, make, formats, names):
    paths = write_outputs(make(), tmp_path, formats)
    assert sorted(p.name for p in paths) == names
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    # paths come back format by format in FORMATS order, whatever the request
    kinds = [{".csv": "csv", ".json": "json", ".bin": "binary",
              ".gnuplot": "gnuplot"}[p.suffix] for p in paths]
    assert kinds == sorted(kinds, key=FORMATS.index)


def test_write_outputs_kinetic_with_snapshots(tmp_path):
    run = small_run(store_phase=True)
    paths = write_outputs(run, tmp_path, ("csv", "json", "binary"))
    names = sorted(p.name for p in paths)
    assert names[0] == "gnorm.csv"
    assert names[1] == "kinetic.csv"
    assert names[2] == "kinetic.json"
    assert all(n.startswith("phase_") for n in names[3:])
    assert len(names) == 3 + len(run.times)
    # trajectory CSV is long format: header + nt * nx rows
    lines = (tmp_path / "kinetic.csv").read_text().splitlines()
    assert lines[0] == "time,x,rho"
    assert len(lines) == 1 + len(run.times) * run.xgrid.nx
    back = read_phase_binary(tmp_path / "phase_000.bin")
    assert np.array_equal(back.values, run.phase[0])


def test_write_outputs_kinetic_binary_needs_phase(tmp_path):
    run = small_run(store_phase=False)
    with pytest.raises(ConfigError, match="store_phase"):
        write_outputs(run, tmp_path, ("binary",))


def test_write_outputs_refuses_binary_without_snapshots_before_writing(tmp_path):
    # a run without snapshots is not phase-space output, so the format check
    # refuses it before the CSV and JSON files are written
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="phase-space"):
        write_outputs(small_run(store_phase=False), out,
                      ("csv", "json", "binary"))
    assert not out.exists() or not any(out.iterdir())


def test_config_and_writer_refuse_unknown_formats_alike(tmp_path):
    with pytest.raises(ConfigError) as on_load:
        parse_config("output.formats = csv, yaml\n")
    grid = SpatialGrid(4, 20.0)
    with pytest.raises(ConfigError) as on_write:
        write_outputs(DensityField(grid, np.ones(4)), tmp_path, ("csv", "yaml"))
    assert str(on_load.value) == str(on_write.value)
    assert "yaml" in str(on_load.value)
    assert on_load.traceback[-1].name == on_write.traceback[-1].name \
        == "check_format_names"


def test_write_outputs_macro(tmp_path):
    grid = SpatialGrid(32, 20.0)
    op = assemble(PARAMS, grid)
    rho0 = DensityField(grid, periodized_gaussian(grid))
    run = solve_macro(op, rho0, 0.1)
    paths = write_outputs(run, tmp_path, ("csv", "json"))
    manifest = json.loads((tmp_path / "macro.json").read_text())
    assert manifest["kind"] == "macro-run"
    assert len(manifest["masses"]) == len(manifest["times"])
    assert all(abs(m - 1.0) < 1e-10 for m in manifest["masses"])
    assert sorted(p.name for p in paths) == ["macro.csv", "macro.json"]


def test_write_outputs_nan_density_refused(tmp_path):
    grid = SpatialGrid(4, 20.0)
    fld = DensityField(grid, np.array([1.0, np.nan, 1.0, 1.0]))
    with pytest.raises(NumericError, match="non-finite"):
        write_outputs(fld, tmp_path, ("csv",))


def test_write_outputs_out_dir_is_a_file(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    grid = SpatialGrid(4, 20.0)
    with pytest.raises(OutputError):
        write_outputs(DensityField(grid, np.ones(4)), blocker, ("csv",))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY = """
model.alpha = 1.5
model.core_asym = 0.5
discretization.nx = 32
discretization.nv = 33
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2
experiment.t_final = 0.1
output.formats = csv, json
"""


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1." in capsys.readouterr().out


def test_cli_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cli_threads_only_on_sweep(capsys):
    # --threads acts only on the sweep's eps rungs; elsewhere it is rejected
    with pytest.raises(SystemExit) as exc:
        main(["model-info", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert _build_parser().parse_args(["sweep", "--threads", "3"]).threads == 3


def test_cli_model_info_prints_json(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["model-info", "--config", cfg]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["gamma"] == 1.5
    assert info["coercivity_M"] == pytest.approx(2.0)


def test_cli_model_info_writes_manifest(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["model-info", "--config", cfg, "--quiet",
                 "--out", str(tmp_path / "o")]) == 0
    data = json.loads((tmp_path / "o" / "model.json").read_text())
    assert data["kind"] == "model-info"
    assert data["gamma"] == 1.5


def test_cli_missing_config(capsys):
    assert main(["sweep", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_bad_config_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY + "\nmodel.alhpa = 1\n")
    assert main(["sweep", "--config", cfg]) == 2
    assert "alpha" in capsys.readouterr().err  # suggestion names the real key


def test_cli_bad_model_value(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "model.kappa = 5.0\n")
    assert main(["model-info", "--config", cfg]) == 2
    assert "kappa" in capsys.readouterr().err


def test_cli_kinetic_det_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["kinetic-det", "--config", cfg]) == 0
    assert (out / "kinetic.csv").exists()
    assert (out / "kinetic.json").exists()
    assert "mass drift" in capsys.readouterr().out
    # manifest echoes the full run description
    manifest = json.loads((out / "kinetic.json").read_text())
    assert manifest["config"]["model.alpha"] == 1.5
    assert manifest["config"]["discretization.nx"] == 32
    assert manifest["config"]["experiment.eps_list"] == [0.4, 0.2]
    assert manifest["step_bound"] in ("cfl", "collision")
    assert manifest["dt_max"] > 0


def test_cli_kinetic_det_json_explains_its_velocity_grid(tmp_path, capsys):
    # vmax = 2 misses the critical speed 10 at eps = 0.1: the defect goes
    # to kinetic.json and the summary line, never to a warning
    out = tmp_path / "out"
    text = (TINY.replace("nv = 33", "nv = 17\ndiscretization.vmax_policy = 2")
            .replace("eps_list = 0.4, 0.2", "eps_list = 0.1")
            + f"output.dir = {out}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kinetic-det", "--config", write_cfg(tmp_path, text)]) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    assert "vmax/v_c 0.2 (critical tail loss 1)" in stdout
    cfg = parse_config(text)
    xgrid, vgrid = build_grids(cfg)
    summary = run_kinetic_det(
        cfg.model, 0.1, xgrid=xgrid, vgrid=vgrid, t_final=cfg.t_final,
        scheme_order=cfg.scheme_order, cfl=cfg.cfl).summary
    assert set(summary) == {
        "steps", "dt_max", "step_bound", "mass_err", "tail_mass_loss",
        "critical_tail_loss", "nodes_past_critical", "vmax_over_critical"}
    manifest = json.loads((out / "kinetic.json").read_text())
    assert {k: manifest[k] for k in summary} == summary
    assert summary["critical_tail_loss"] == 1.0
    assert summary["vmax_over_critical"] < 1.0


def test_cli_kinetic_det_gnorm_diagnostic(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["kinetic-det", "--config", cfg, "--quiet"]) == 0
    lines = (out / "gnorm.csv").read_text().splitlines()
    assert lines[0] == "t,gnorm2,bound"
    rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
    assert rows  # one row per snapshot, each inside its envelope
    assert all(g <= b for _, g, b in rows)


def test_cli_kinetic_det_dimension_flags(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["kinetic-det", "--config", cfg, "--quiet",
                 "--nx", "24", "--nv", "25", "--scheme-order", "1"]) == 0
    manifest = json.loads((out / "kinetic.json").read_text())
    assert manifest["nx"] == 24
    assert manifest["nv"] == 25
    assert manifest["scheme_order"] == 1


def test_cli_kinetic_det_rejects_even_nv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["kinetic-det", "--config", cfg, "--quiet",
                 "--nv", "24"]) == 2
    assert "nv odd" in capsys.readouterr().err


def test_cli_kinetic_det_binary_snapshots(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("csv, json", "binary")
                    + f"output.dir = {out}\n")
    assert main(["kinetic-det", "--config", cfg, "--quiet"]) == 0
    dumps = sorted(out.glob("phase_*.bin"))
    assert dumps
    fld = read_phase_binary(dumps[0])
    assert fld.xgrid.nx == 32
    assert fld.dvm.params.alpha == 1.5


def test_cli_kinetic_mc(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"experiment.particles = 4000\n"
                    f"output.dir = {out}\n")
    assert main(["kinetic-mc", "--config", cfg]) == 0
    assert (out / "density.csv").exists()
    assert "mass 1.0000" in capsys.readouterr().out


def test_cli_kinetic_mc_needs_particles(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["kinetic-mc", "--config", cfg]) == 2
    assert "particles" in capsys.readouterr().err


def test_cli_macro_solve(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["macro-solve", "--config", cfg, "--quiet"]) == 0
    assert (out / "macro.csv").exists()


def test_cli_macro_solve_accepts_kinetic_det_schedule(tmp_path):
    # snapshots need not include the initial time: any increasing schedule
    # inside [0, t_final] that kinetic-det takes, macro-solve takes too
    times = TINY + "experiment.snapshot_times = 0.05, 0.1\n"
    for command in ("kinetic-det", "macro-solve"):
        out = tmp_path / command
        cfg = write_cfg(tmp_path, times + f"output.dir = {out}\n")
        assert main([command, "--config", cfg, "--quiet"]) == 0
    macro = json.loads((tmp_path / "macro-solve" / "macro.json").read_text())
    assert macro["times"] == [0.05, 0.1]
    full = tmp_path / "full"
    cfg = write_cfg(tmp_path, TINY + "experiment.snapshot_times = 0, 0.05, 0.1\n"
                    f"output.dir = {full}\n")
    assert main(["macro-solve", "--config", cfg, "--quiet"]) == 0
    np.testing.assert_allclose(
        json.loads((full / "macro.json").read_text())["energies"][1:],
        macro["energies"], rtol=1e-13)


def test_cli_sweep_refuses_schedule_starting_after_zero(tmp_path, capsys):
    # the sweep's probe is supported on [0, t_final]: a schedule starting
    # later would drop part of it from every remainder
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + "experiment.snapshot_times = 0.05, 0.1\n"
                    f"output.dir = {out}\n")
    assert main(["sweep", "--config", cfg, "--quiet"]) == 2
    assert "probe time support" in capsys.readouterr().err
    assert not out.exists()


COMMANDS = ("model-info", "kinetic-det", "kinetic-mc", "chi-check", "kernel",
            "macro-solve", "limit-check", "sweep", "invariants")


@pytest.mark.parametrize("command, formats", [
    *((c, "csv, binary") for c in COMMANDS if c != "kinetic-det"),
    *((c, "json, gnuplot") for c in COMMANDS)])
def test_cli_rejects_unwritable_formats_before_work(tmp_path, capsys, command,
                                                   formats):
    # binary dumps hold phase-space snapshots, which only kinetic-det has, and
    # a gnuplot script plots a CSV file: either mismatch is a config error
    # raised before the command computes or writes anything
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("csv, json", formats)
                    + "experiment.particles = 100\n")
    assert main([command, "--config", cfg, "--quiet", "--out", str(out)]) == 2
    assert formats.split(", ")[1] in capsys.readouterr().err
    assert not out.exists()


def test_cli_kernel(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["kernel", "--config", cfg, "--quiet"]) == 0
    lines = (out / "kernel.csv").read_text().splitlines()
    assert lines[0] == "x,y,eta"
    assert len(lines) == 1 + 32 * 32
    manifest = json.loads((out / "kernel.json").read_text())
    assert manifest["symmetry_defect"] < 1e-12


def test_cli_invariants(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["invariants", "--config", cfg]) == 0
    report = capsys.readouterr().out
    for name in ("coercivity", "hazard-normalization", "corrector-identity",
                 "kernel-symmetry"):
        assert f"[PASS] {name}" in report
    data = json.loads((out / "invariants.json").read_text())
    assert all(v["passed"] for v in data["verdicts"])


def _heavy_tail_cfg(tmp_path, alpha, kappa, vmax):
    return write_cfg(tmp_path, (
        f"model.alpha = {alpha}\n"
        "model.beta = 0.0\n"
        f"model.kappa = {kappa}\n"
        "model.core_asym = 0.0\n"
        "discretization.nx = 16\n"
        "discretization.nv = 9\n"
        f"discretization.vmax_policy = {vmax}\n"
        "experiment.eps_list = 0.4, 0.2\n"
        "experiment.t_final = 0.05\n"
        f"output.dir = {tmp_path / 'out'}\n"
        "output.formats = json\n"))


def test_cli_sweep_checks_coercivity_on_explicit_grid(tmp_path, capsys):
    # the automatic vmax overflows at this alpha; the sweep must not size
    # a grid of its own for the coercivity check when the config gives one
    cfg = _heavy_tail_cfg(tmp_path, 1e-3, 4e-4, 4)
    assert main(["sweep", "--config", cfg]) in (0, 1)
    assert "[PASS] coercivity" in capsys.readouterr().out


def test_cli_invariants_overflowing_grid_is_numeric_failure(tmp_path,
                                                            capsys):
    # the automatic vmax is ~2e290 here: the coercivity sums overflow
    cfg = _heavy_tail_cfg(tmp_path, 0.01, 0.004, "auto")
    assert main(["invariants", "--config", cfg]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_cli_limit_check_small_gamma(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, (
        "model.alpha = 0.5\n"
        "model.core_asym = 0.0\n"
        "experiment.eps_list = 0.2, 0.1, 0.05, 0.025\n"
        f"output.dir = {out}\n"
        "output.formats = csv, json\n"))
    assert main(["limit-check", "--config", cfg]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 5
    lines = (out / "limit_check.csv").read_text().splitlines()
    assert lines[0] == "t,x,eps,target,abs_err"
    assert len(lines) == 1 + 5 * 4


def test_cli_chi_check(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("0.4, 0.2", "0.3")
                    + f"output.dir = {out}\n")
    assert main(["chi-check", "--config", cfg]) == 0
    assert "[PASS] corrector-boundedness" in capsys.readouterr().out
    lines = (out / "chi_check.csv").read_text().splitlines()
    assert lines[0] == "eps,gap,gap_dt,bound_ratio,bound_ratio_dt"
    assert len(lines) == 2


@pytest.mark.parametrize("command", ["chi-check", "limit-check"])
def test_cli_ladder_checks_reject_ascending_eps(tmp_path, capsys, command):
    # both commands judge a decrease along the ladder; an ascending list is
    # a config error before any work, not a verdict on reversed data
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("0.4, 0.2", "0.1, 0.2, 0.4")
                    + f"output.dir = {out}\n")
    assert main([command, "--config", cfg, "--quiet"]) == 2
    assert "experiment.eps_list" in capsys.readouterr().err
    assert not out.exists()


def test_cli_chi_check_bounds_time_derivative_ratio(tmp_path, capsys,
                                                    monkeypatch):
    # criterion 05 bounds both ratios: a d/dt ratio above nu2/nu1 alone must
    # fail the verdict and show in the manifest
    import heavykin.cli as cli
    real = cli.chi_l2_diagnostics

    def inflated(params, phi, eps, **kw):
        diag = real(params, phi, eps, **kw)
        assert diag["bound_ratio"] <= params.nu2 / params.nu1
        return {**diag, "bound_ratio_dt": 1.5 * params.nu2 / params.nu1}

    monkeypatch.setattr(cli, "chi_l2_diagnostics", inflated)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("0.4, 0.2", "0.3")
                    + f"output.dir = {out}\n")
    assert main(["chi-check", "--config", cfg]) == 1
    assert "[FAIL] corrector-boundedness" in capsys.readouterr().out
    verdict = json.loads((out / "chi_check.json").read_text())["verdicts"][1]
    assert verdict["criterion"] == "corrector-boundedness"
    assert verdict["metrics"]["ratios_dt"] == [1.5]


def test_cli_chi_check_rejects_time_independent_probe(tmp_path, capsys):
    # a constant probe has a' = 0, so the d/dt bound ratio is 0/0: a usage
    # error before any output, not a NaN handed to the writers
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY.replace("0.4, 0.2", "0.3")
                    + "experiment.phi_choice = constant\n"
                    + f"output.dir = {out}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["chi-check", "--config", cfg]) == 2
    assert "time-independent" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_sweep_writes_report(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["sweep", "--config", cfg]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == SCHEMA_VERSION
    assert [row["eps"] for row in report["rows"]] == [0.4, 0.2]
    assert (out / "sweep_rows.csv").exists()
    text = capsys.readouterr().out
    assert "[PASS] apriori-bounds" in text


def test_sweep_rows_csv_carries_every_run_summary_key(tmp_path):
    # the CSV alone shows each rung's steps and how far its velocity grid
    # reaches, each cell as write_table_csv writes the row's value
    report = run_sweep(parse_config(TINY))
    [path] = write_outputs(report, tmp_path, ("csv",))
    with path.open(newline="") as fh:
        header, *lines = list(csv.reader(fh))
    assert header[:2] == ["eps", "error_l2"]
    assert len(lines) == len(report.rows) == len(report.runs) == 2
    for row, run, line in zip(report.rows, report.runs, lines):
        assert set(run.summary) <= set(header)
        for key in run.summary:
            value = row[key]
            want = repr(float(value)) if isinstance(value, float) else str(value)
            assert line[header.index(key)] == want, key


def test_cli_sweep_seed_override_lands_in_report(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, TINY + f"output.dir = {out}\n")
    assert main(["sweep", "--config", cfg, "--quiet", "--seed", "777"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 777
    assert report["config"]["experiment.seed"] == 777


def test_cli_sweep_reports_identical_across_runs(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    for sub in ("a", "b"):
        assert main(["sweep", "--config", cfg, "--quiet",
                     "--out", str(tmp_path / sub)]) == 0

    def strip(node):
        # wall times and the destination directory are environmental; every
        # scientific field must match exactly
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if "wall_time" not in k and k != "output.dir"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    a = strip(json.loads((tmp_path / "a" / "report.json").read_text()))
    b = strip(json.loads((tmp_path / "b" / "report.json").read_text()))
    assert a == b


def test_cli_quiet_silences_stdout(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["model-info", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().out == ""
