"""Config parsing and sweep-harness behavior.

The sweep fixture here is deliberately small (coarse grids, short horizon) so
the whole file stays fast; the full-resolution ladders live in the acceptance
suite.  What is checked here is plumbing: strict config round-trips, verdict
wiring, report determinism, and the failure paths.
"""

import contextlib
import dataclasses
import gc
import io
import json
import os
import signal
import sys
import weakref

import numpy as np
import pytest

import heavykin
import heavykin.harness as harness_mod
from heavykin import corrector as co
from heavykin.config import (RunConfig, config_dict, default_config,
                             load_config, parse_config, serialize_config,
                             validate_config)
from heavykin.corrector import (corrector_term_drift_g,
                                corrector_term_drift_rho, corrector_term_qplus)
from heavykin.errors import ConfigError, NumericError, ValidationError
from heavykin.grids import DiscreteModel, SpatialGrid, VelocityGrid
from heavykin.harness import (build_grids, check_apriori, check_coercivity,
                              check_correctors, mc_cross_check,
                              probe_from_choice, run_sweep)
from heavykin.kinetic_fv import (KineticRun, _grid_defects, auto_vscale,
                                 run_kinetic_det)
from heavykin.kinetic_mc import (advance, density_standard_error,
                                 estimate_density, init_ensemble)
from heavykin.model import ModelParams, critical_speed
from oracles import coercivity_by_sample

# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

ALL_KEYS = [
    "model.alpha", "model.beta", "model.kappa", "model.core_asym",
    "model.nu0_mean", "model.nu0_delta", "model.domain_length",
    "discretization.nx", "discretization.nv", "discretization.vmax_policy",
    "discretization.scheme_order", "discretization.dt_policy",
    "experiment.eps_list", "experiment.t_final", "experiment.snapshot_times",
    "experiment.particles", "experiment.seed", "experiment.phi_choice",
    "output.dir", "output.formats",
]


def test_default_round_trip():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)) == cfg
    assert parse_config("") == cfg          # empty file -> all defaults


def test_minimal_file_fills_defaults():
    cfg = parse_config("model.alpha = 1.2\n")
    assert cfg.model.alpha == 1.2
    assert cfg.nx == 256 and cfg.seed == 12345
    assert cfg.model.kappa == 0.2           # untouched model default


def test_comments_and_blank_lines():
    cfg = parse_config(
        "# full-line comment\n"
        "\n"
        "model.alpha = 1.1   # trailing comment\n"
        "   experiment.seed=99\n"
    )
    assert cfg.model.alpha == 1.1 and cfg.seed == 99


def test_unknown_key_reports_line_and_suggestion():
    with pytest.raises(ConfigError, match=r"line 2.*discretization\.nx"):
        parse_config("model.alpha = 1.2\ndiscretization.nxx = 4\n")


def test_unknown_key_hints_the_closest_key():
    # the match above also finds the mistyped key itself; this reads the hint
    with pytest.raises(ConfigError) as err:
        parse_config("model.alpah = 1.5")
    assert "did you mean 'model.alpha'" in str(err.value)


def test_unknown_section_lists_sections():
    with pytest.raises(ConfigError, match="unknown section.*model, discretization"):
        parse_config("grid.nx = 4\n")


def test_duplicate_key_cites_both_lines():
    with pytest.raises(ConfigError, match="line 3.*duplicate.*line 1"):
        parse_config("model.alpha = 1.2\n\nmodel.alpha = 1.3\n")


def test_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("model.alpha 1.2\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("model.alpha =\n")


def test_bad_values_report_key():
    with pytest.raises(ConfigError, match="discretization.nx"):
        parse_config("discretization.nx = many\n")
    with pytest.raises(ConfigError, match="discretization.nv"):
        parse_config("discretization.nv = 2.5\n")
    with pytest.raises(ConfigError, match="experiment.eps_list"):
        parse_config("experiment.eps_list = 0.4, soup\n")


def test_model_constraints_are_validated_on_load():
    # constraint violations surface with the constraint spelled out
    with pytest.raises(ValidationError, match="kappa"):
        parse_config("model.alpha = 0.5\nmodel.kappa = 0.3\n")
    with pytest.raises(ValidationError, match="beta"):
        parse_config("model.alpha = 1.5\nmodel.beta = 0.7\n")


@pytest.mark.parametrize("line, fragment", [
    ("discretization.nv = 64", "odd"),
    ("discretization.nx = 1", "nx"),
    ("discretization.scheme_order = 3", "scheme_order"),
    ("discretization.dt_policy = 1.5", "dt_policy"),
    ("discretization.vmax_policy = -3.0", "vmax_policy"),
    ("discretization.vmax_policy = inf", "vmax_policy"),
    ("discretization.vmax_policy = 1e308", "vmax_policy"),
    ("experiment.eps_list = 0.4, 1.5", "eps_list"),
    ("experiment.t_final = 0.0", "t_final"),
    ("experiment.snapshot_times = 0.3, 0.1", "snapshot_times"),
    ("experiment.snapshot_times = 0.1, 0.9", "snapshot_times"),
    ("experiment.particles = -5", "particles"),
    ("experiment.phi_choice = wavelet", "phi_choice"),
    ("output.formats = csv, yaml", "formats"),
])
def test_config_constraints(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(line + "\n")


def test_round_trip_nondefault_config():
    cfg = RunConfig(
        model=ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=-0.3,
                          nu0_mean=1.3, nu0_delta=0.4, domain_length=15.0),
        nx=128, nv=65, vmax_policy=30.0, scheme_order=2, dt_policy=0.45,
        eps_list=(0.3, 0.1), t_final=0.7, snapshot_times=(0.0, 0.35, 0.7),
        particles=5000, seed=99, phi_choice="packet",
        out_dir="results/run1", formats=("json", "binary", "gnuplot"))
    assert parse_config(serialize_config(cfg)) == cfg


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment.seed = 4\n", encoding="utf-8")
    assert load_config(path).seed == 4
    with pytest.raises(ConfigError, match="missing.cfg"):
        load_config(tmp_path / "missing.cfg")


def test_config_dict_covers_every_key():
    mapping = config_dict(default_config())
    assert list(mapping) == ALL_KEYS
    assert mapping["experiment.snapshot_times"] is None
    assert mapping["output.formats"] == ["csv", "json"]


# ---------------------------------------------------------------------------
# sweep harness
# ---------------------------------------------------------------------------

SMALL_CFG_TEXT = """
model.alpha = 1.5
model.core_asym = 0.5
discretization.nx = 64
discretization.nv = 65
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1
experiment.t_final = 0.3
experiment.particles = 20000
experiment.seed = 7
"""


@pytest.fixture(scope="module")
def small_cfg():
    return parse_config(SMALL_CFG_TEXT)


@pytest.fixture(scope="module")
def small_report(small_cfg):
    return run_sweep(small_cfg)


def test_rows_in_eps_order_with_metrics(small_report):
    eps = [row["eps"] for row in small_report.rows]
    assert eps == [0.4, 0.2, 0.1]
    for row in small_report.rows:
        for key in ("error_l2", "g_margin", "rho_margin", "mass_err",
                    "qplus_term", "drift_g_term", "drift_rho_term", "steps",
                    "tail_mass_loss", "critical_tail_loss",
                    "nodes_past_critical", "vmax_over_critical", "wall_time"):
            assert key in row
        assert row["wall_time"] > 0
    assert small_report.version == heavykin.__version__


def test_rows_carry_steps_and_velocity_grid_defects(small_cfg, small_report):
    # deterministic, so they survive drop_wall_times
    bare = json.loads(small_report.to_json(drop_wall_times=True))["rows"]
    for row, kept, run in zip(small_report.rows, bare, small_report.runs):
        assert run.summary.items() <= row.items()
        assert set(run.summary) <= set(kept)
        assert row["steps"] > 0 and row["dt_max"] > 0
        assert row["vmax_over_critical"] == \
            run.dvm.vgrid.vmax / critical_speed(small_cfg.model, row["eps"])
    # smaller eps: more steps (faster transport), a larger critical speed
    assert [r["steps"] for r in small_report.rows] == \
        sorted(r["steps"] for r in small_report.rows)
    assert small_report.rows[-1]["vmax_over_critical"] < \
        small_report.rows[0]["vmax_over_critical"]


def test_critical_reach_of_the_acceptance_grids_at_smallest_eps():
    # eps = 0.05: the degenerate 128 x 129 grid has 17 nodes past v_c and
    # cuts off 4.7 % of the equilibrium mass past it, the 256 x 257 drift
    # grid one node and 31 %
    ladder = "experiment.eps_list = 0.4, 0.2, 0.1, 0.05\n"
    for text, nodes, loss in (
            ("model.alpha = 0.8\nmodel.beta = 0.25\nmodel.nu0_delta = 0.3\n"
             "discretization.nx = 128\ndiscretization.nv = 129\n", 17, 0.047),
            ("model.alpha = 1.5\n"
             "discretization.nx = 256\ndiscretization.nv = 257\n", 1, 0.312)):
        cfg = parse_config("model.core_asym = 0.5\n" + text + ladder)
        _, vgrid = build_grids(cfg)
        reach = _grid_defects(cfg.model, 0.05, vgrid)
        assert reach["nodes_past_critical"] == nodes
        assert reach["critical_tail_loss"] == pytest.approx(loss, abs=5e-4)
    # no grid reaches an infinite critical speed: nothing is past it, and
    # the whole tail past it is cut off
    params = ModelParams(alpha=1.0, beta=0.95, kappa=0.2)
    assert critical_speed(params, 1e-20) == np.inf
    assert _grid_defects(params, 1e-20, VelocityGrid(9, 1.0)) \
        == {"tail_mass_loss": params.tail_mass_beyond(8.0),
            "critical_tail_loss": 1.0, "nodes_past_critical": 0,
            "vmax_over_critical": 0.0}


def test_terminal_errors_decrease(small_report):
    errors = [row["error_l2"] for row in small_report.rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] / errors[0] < 0.5


def test_expected_verdicts_present_and_passing(small_report):
    names = {v.criterion for v in small_report.verdicts}
    assert {"apriori-bounds", "runs-completed", "mass-conservation",
            "macro-convergence", "corrector-decay", "coercivity",
            "mc-cross-check"} <= names
    assert small_report.passed()
    assert small_report.diagnostics["gnorm2_ratio_spread"] < 3.0


def test_gain_remainder_vanishes_without_velocity_weighting(small_report):
    # beta = 0 makes the gain moment of g the density of g, which is zero,
    # so the first remainder is identically zero and the verdict notes it.
    verdict = next(v for v in small_report.verdicts
                   if v.criterion == "corrector-decay")
    assert verdict.metrics["qplus_note"] == "identically zero"
    assert verdict.metrics["drift_g_slope"] is not None
    assert verdict.metrics["drift_rho_decreasing"] is True


def test_report_json_wall_time_handling(small_report):
    full = small_report.to_json()
    bare = small_report.to_json(drop_wall_times=True)
    assert "wall_time" in full and "wall_time" not in bare
    payload = json.loads(full)
    assert payload["version"] == heavykin.__version__
    assert payload["seed"] == 7
    assert payload["params"]["gamma"] == 1.5


def test_reports_deterministic_across_thread_counts(small_cfg, small_report):
    for threads in (2, 4):
        again = run_sweep(small_cfg, threads=threads)
        assert again.to_json(drop_wall_times=True) == \
            small_report.to_json(drop_wall_times=True)


def test_report_embeds_rerunnable_config(small_cfg, small_report):
    lines = []
    for key, value in small_report.config.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ", ".join(repr(v) if isinstance(v, float) else str(v)
                              for v in value)
        lines.append(f"{key} = {value}")
    assert parse_config("\n".join(lines)) == small_cfg


def test_sweep_input_validation(small_cfg):
    bad = dataclasses.replace(small_cfg, eps_list=(0.1, 0.2))
    with pytest.raises(ValidationError, match="decreasing"):
        run_sweep(bad)
    bad = dataclasses.replace(small_cfg, eps_list=(0.2, 0.2))
    with pytest.raises(ValidationError, match="decreasing"):
        run_sweep(bad)
    bad = dataclasses.replace(small_cfg, snapshot_times=(0.0, 0.2))
    with pytest.raises(ValidationError, match="t_final"):
        run_sweep(bad)
    with pytest.raises(ValidationError, match="threads"):
        run_sweep(small_cfg, threads=0)


def test_sweep_refuses_schedule_starting_after_the_probe(small_cfg,
                                                         monkeypatch):
    # the probe's support starts at 0; snapshots from later on would drop
    # part of it from every remainder, so no rung may run
    rows = []
    monkeypatch.setattr(harness_mod, "_kinetic_row",
                        lambda *args: rows.append(args))
    t_final = small_cfg.t_final
    bad = dataclasses.replace(small_cfg,
                              snapshot_times=(0.4 * t_final, t_final))
    with pytest.raises(ValidationError, match="probe time support"):
        run_sweep(bad)
    assert rows == []


def test_single_eps_sweep_has_no_monotonicity_verdict():
    cfg = parse_config(
        "discretization.nx = 32\ndiscretization.nv = 33\n"
        "experiment.eps_list = 0.4\nexperiment.t_final = 0.1\n")
    rep = run_sweep(cfg)
    assert len(rep.rows) == 1
    names = {v.criterion for v in rep.verdicts}
    assert "macro-convergence" not in names
    assert "corrector-decay" not in names
    assert "mc-cross-check" not in names       # particles = 0
    assert rep.passed()


@pytest.mark.parametrize("delta", [0.5, 0.9])
@pytest.mark.parametrize("alpha, beta", [(0.8, 0.25), (1.5, 0.0)])
def test_strongly_modulated_rate_completes_every_row(alpha, beta, delta):
    # the hazard inversion once failed every row for delta >= 0.5
    cfg = parse_config(
        f"model.alpha = {alpha}\nmodel.beta = {beta}\n"
        f"model.core_asym = 0.5\nmodel.nu0_delta = {delta}\n"
        "discretization.nx = 16\ndiscretization.nv = 17\n"
        "experiment.eps_list = 0.4, 0.2, 0.1\nexperiment.t_final = 0.2\n")
    rep = run_sweep(cfg)
    assert [row.get("error") for row in rep.rows] == [None] * 3
    completed = next(v for v in rep.verdicts if v.criterion == "runs-completed")
    assert completed.passed


def test_solver_failure_yields_partial_report(small_cfg, monkeypatch):
    calls = {"n": 0}
    import heavykin.harness as harness_mod
    real = harness_mod.run_kinetic_det

    def failing(params, eps, **kwargs):
        calls["n"] += 1
        if eps == 0.2:
            raise NumericError("synthetic mid-ladder failure")
        return real(params, eps, **kwargs)

    monkeypatch.setattr(harness_mod, "run_kinetic_det", failing)
    cfg = dataclasses.replace(small_cfg, particles=0)
    rep = run_sweep(cfg)
    assert calls["n"] == 3
    assert "error" in rep.rows[1] and "error_l2" not in rep.rows[1]
    assert "synthetic" in rep.rows[1]["error"]
    completed = next(v for v in rep.verdicts if v.criterion == "runs-completed")
    assert not completed.passed and completed.note == "partial report"
    assert not rep.passed()
    json.loads(rep.to_json())                  # still serializable


# ---------------------------------------------------------------------------
# eps rungs in worker processes
# ---------------------------------------------------------------------------

TINY_CFG_TEXT = """
discretization.nx = 16
discretization.nv = 17
experiment.eps_list = 0.4, 0.2, 0.1
experiment.t_final = 0.1
"""


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_config(TINY_CFG_TEXT)


def _tag_rows_with_pid(monkeypatch):
    import heavykin.harness as harness_mod
    real = harness_mod._kinetic_row

    def tagged(*args, **kwargs):
        row, run = real(*args, **kwargs)
        row["pid"] = os.getpid()
        return row, run

    monkeypatch.setattr(harness_mod, "_kinetic_row", tagged)


def _fail_at(monkeypatch, eps, exc):
    import heavykin.harness as harness_mod
    real = harness_mod.run_kinetic_det

    def failing(params, e, **kwargs):
        if e == eps:
            raise exc
        return real(params, e, **kwargs)

    monkeypatch.setattr(harness_mod, "run_kinetic_det", failing)


def test_rungs_shared_between_caller_and_forked_workers(tiny_cfg, monkeypatch):
    # the caller is one of the min(threads, rungs) processes on the rungs
    _tag_rows_with_pid(monkeypatch)
    for threads, pids in ((2, 2), (4, 3)):
        forked = run_sweep(tiny_cfg, threads=threads)
        seen = {row["pid"] for row in forked.rows}
        assert len(seen) == pids and os.getpid() in seen
    serial = run_sweep(tiny_cfg, threads=1)
    assert all(row["pid"] == os.getpid() for row in serial.rows)
    # the runs come back whole
    for a, b in zip(forked.runs, serial.runs):
        assert np.array_equal(a.rho, b.rho) and a.steps == b.steps


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_runs_come_back_without_phase_snapshots(tiny_cfg, threads):
    # a rung's snapshots are read by its row's remainders only, so neither
    # the caller's loop nor a forked worker's pickle keeps them
    report = run_sweep(tiny_cfg, threads=threads)
    assert len(report.runs) == len(tiny_cfg.eps_list)
    for run in report.runs:
        assert sum(f.nbytes for f in run.phase) == 0
        assert run.rho.shape == (len(run.times), tiny_cfg.nx)
        with pytest.raises(ValidationError,
                           match="a sweep run, whose snapshots are dropped"):
            run.g_snapshot(0)


def test_rungs_dealt_in_snake_order_from_the_smallest_eps():
    # eps decreases along the ladder, so the last index is the longest rung
    assert harness_mod._deal(4, 2) == [[3, 0], [2, 1]]
    assert harness_mod._deal(3, 2) == [[2], [1, 0]]
    assert harness_mod._deal(7, 3) == [[6, 1, 0], [5, 2], [4, 3]]
    assert harness_mod._deal(2, 2) == [[1], [0]]


def test_rungs_run_serially_where_fork_is_missing(tiny_cfg, monkeypatch):
    monkeypatch.delattr(harness_mod.os, "fork")
    _tag_rows_with_pid(monkeypatch)
    rep = run_sweep(tiny_cfg, threads=2)
    assert [row["pid"] for row in rep.rows] == [os.getpid()] * 3


def test_partial_report_identical_across_thread_counts(tiny_cfg, monkeypatch):
    _fail_at(monkeypatch, 0.2, NumericError("synthetic mid-ladder failure"))
    reports = [run_sweep(tiny_cfg, threads=n).to_json(drop_wall_times=True)
               for n in (1, 2)]
    assert reports[0] == reports[1]
    rows = json.loads(reports[0])["rows"]
    assert rows[1]["error"] == "NumericError: synthetic mid-ladder failure"
    assert "error" not in rows[0] and "error" not in rows[2]


def test_foreign_rung_exception_keeps_its_type(tiny_cfg, monkeypatch):
    # only HeavykinError becomes an error row; anything else is a bug
    _fail_at(monkeypatch, 0.2, ZeroDivisionError("synthetic bug"))
    with pytest.raises(ZeroDivisionError, match="synthetic bug"):
        run_sweep(tiny_cfg, threads=2)


def test_workers_capped_by_rung_count(tiny_cfg, monkeypatch):
    forked = []
    fork = harness_mod.os.fork

    def recording():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(harness_mod.os, "fork", recording)
    _tag_rows_with_pid(monkeypatch)
    rep = run_sweep(dataclasses.replace(tiny_cfg, eps_list=(0.4, 0.2)),
                    threads=8)
    # two rungs: one in a forked worker, one in the caller
    assert len(forked) == 1
    assert {row["pid"] for row in rep.rows} == {os.getpid(), forked[0]}


def _raise_in(monkeypatch, where, exc):
    # raise from the first rung run in the caller ("caller") or in a
    # forked worker ("worker")
    real = harness_mod.run_kinetic_det
    caller = os.getpid()

    def failing(params, e, **kwargs):
        if (os.getpid() == caller) == (where == "caller"):
            raise exc
        return real(params, e, **kwargs)

    monkeypatch.setattr(harness_mod, "run_kinetic_det", failing)


def _assert_no_child_left():
    # every child of this process has been reaped: none is running, and no
    # zombie waits for its status
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_the_sweep(tiny_cfg, monkeypatch):
    run_sweep(tiny_cfg, threads=3)
    _assert_no_child_left()
    with monkeypatch.context() as m:
        _fail_at(m, 0.2, NumericError("synthetic error row"))
        rep = run_sweep(tiny_cfg, threads=2)
    assert "error" in rep.rows[1]
    _assert_no_child_left()
    for where in ("caller", "worker"):
        with monkeypatch.context() as m:
            _raise_in(m, where, ZeroDivisionError(f"bug in the {where}"))
            with pytest.raises(ZeroDivisionError, match=f"bug in the {where}"):
                run_sweep(tiny_cfg, threads=2)
        _assert_no_child_left()


@contextlib.contextmanager
def _deadline(seconds: int):
    # a sweep waiting on a worker that will never report fails the test
    # instead of hanging it
    def expire(signum, frame):
        raise TimeoutError(f"sweep still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_dying_without_report_raises_promptly(tiny_cfg, monkeypatch):
    real = harness_mod._kinetic_row
    caller = os.getpid()

    def dying(cfg, eps, *args):
        if os.getpid() != caller:
            os._exit(3)
        return real(cfg, eps, *args)

    monkeypatch.setattr(harness_mod, "_kinetic_row", dying)
    with _deadline(30), pytest.raises(
            RuntimeError, match=r"sweep worker for eps = 0\.1 exited with "
                                r"code 3 before reporting"):
        run_sweep(tiny_cfg, threads=2)
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("holds a lambda")
        self.hook = lambda: None


def test_worker_exception_that_cannot_be_pickled_raises(tiny_cfg,
                                                        monkeypatch):
    # the forked rung cannot send its exception back; its child still exits
    # and the caller names the rung instead of waiting
    _raise_in(monkeypatch, "worker", _Unpicklable())
    with _deadline(30), pytest.raises(
            RuntimeError, match=r"sweep worker for eps = 0\.1 exited with "
                                r"code 1 before reporting"):
        run_sweep(tiny_cfg, threads=2)
    _assert_no_child_left()


def test_buffered_caller_text_written_once(tiny_cfg, monkeypatch, capfd):
    # a block-buffered stdout holds the caller's text when the sweep forks;
    # the child flushes its streams when it leaves, so unless the caller
    # flushed first the text would come out twice
    real = harness_mod.run_kinetic_det
    caller = os.getpid()

    def printing(params, e, **kwargs):
        if os.getpid() != caller:
            print(f"worker rung {e:g}", flush=True)
        return real(params, e, **kwargs)

    stdout = io.TextIOWrapper(open(os.dup(1), "wb"))
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", stdout)
        m.setattr(harness_mod, "run_kinetic_det", printing)
        stdout.write("caller text before the sweep\n")
        run_sweep(tiny_cfg, threads=2)
    stdout.close()
    out = capfd.readouterr().out
    assert out.count("caller text before the sweep") == 1
    assert out.count("worker rung 0.1") == 1


# ---------------------------------------------------------------------------
# one flight pass per sweep row
# ---------------------------------------------------------------------------

ROW_CFG_TEXT = """
model.alpha = 1.5
model.beta = 0.25
model.core_asym = 0.5
model.nu0_delta = 0.3
discretization.nx = 24
discretization.nv = 25
experiment.eps_list = 0.4, 0.2, 0.1
experiment.t_final = 0.2
"""


@pytest.fixture(scope="module")
def row_cfg():
    return parse_config(ROW_CFG_TEXT)


def _row(cfg, phi=None):
    xgrid, vgrid = build_grids(cfg)
    return harness_mod._kinetic_row(cfg, cfg.eps_list[0], xgrid, vgrid,
                                    phi or probe_from_choice(cfg))


def _with_phase(cfg, eps):
    """The sweep's run at ``eps`` made again with its phase snapshots, which
    the sweep drops once the row is built; the run is deterministic."""
    xgrid, vgrid = build_grids(cfg)
    return run_kinetic_det(
        cfg.model, eps, xgrid=xgrid, vgrid=vgrid, t_final=cfg.t_final,
        snapshot_times=cfg.snapshot_times, scheme_order=cfg.scheme_order,
        cfl=cfg.cfl, store_phase=True)


def _row_elements(cfg):
    """(x, v, node) elements of one row's flight grid."""
    return cfg.nx * cfg.nv * co._laggauss(64)[0].size


def test_row_inverts_the_hazard_once(row_cfg, monkeypatch):
    # a drift config on a modulated rate: all three remainders need the
    # flight, and each (x, v, node) element is inverted once
    elements = []
    invert = co._invert_hazard

    def counting(params, x, vt, u):
        elements.append(np.broadcast(x, vt, u).size)
        return invert(params, x, vt, u)

    monkeypatch.setattr(co, "_invert_hazard", counting)
    row, run = _row(row_cfg)
    assert row["drift_g_term"] != 0.0 and row["drift_rho_term"] != 0.0
    assert sum(elements) == _row_elements(row_cfg)


def test_row_samples_the_space_factor_at_most_twice(row_cfg):
    # per (x, v, node) element: s once, for <s> in Q+ and for d_x chi, which
    # both drift terms share; s' once, for d_x chi
    elements = {"value": 0, "d1": 0}

    def counting(name, fn):
        def wrapped(x):
            if np.ndim(x) == 3:
                elements[name] += np.size(x)
            return fn(x)
        return wrapped

    base = probe_from_choice(row_cfg)
    phi = dataclasses.replace(base, space=base.space._replace(
        value=counting("value", base.space.value),
        d1=counting("d1", base.space.d1)))
    _row(row_cfg, phi)
    n = _row_elements(row_cfg)
    assert elements == {"value": n, "d1": n}


def test_row_forms_each_deviation_once(row_cfg, monkeypatch):
    # Q+ and the drift term in g read g = f - rho F from the row
    calls = []
    g_snapshot = KineticRun.g_snapshot
    monkeypatch.setattr(KineticRun, "g_snapshot",
                        lambda run, i: calls.append(i) or g_snapshot(run, i))
    row, run = _row(row_cfg)
    assert row["drift_g_term"] != 0.0
    assert calls == list(range(len(run.times))) and len(calls) > 2


def test_row_remainders_equal_standalone_calls(row_cfg):
    # each term on a row of its own equals its value on the shared row
    phi = probe_from_choice(row_cfg)
    row, _ = _row(row_cfg, phi)
    run = _with_phase(row_cfg, row["eps"])
    assert row["qplus_term"] == corrector_term_qplus(co.RowFlight(phi, run))
    assert row["drift_g_term"] == corrector_term_drift_g(co.RowFlight(phi, run))
    assert row["drift_rho_term"] == corrector_term_drift_rho(
        co.RowFlight(phi, run))


def test_row_keeps_no_reference_to_its_run(row_cfg, monkeypatch):
    phi = probe_from_choice(row_cfg)
    _, run = _row(row_cfg, phi)
    gone = weakref.ref(run)
    del run
    gc.collect()
    assert gone() is None

    # a remainder failing inside the row leaves nothing behind either
    runs = []

    def failing(row):
        # Q+ has filled the row's averages and deviations by now
        runs.append(weakref.ref(row.run))
        raise RuntimeError("synthetic failure inside the row")

    monkeypatch.setattr(harness_mod, "corrector_term_drift_g", failing)
    with pytest.raises(RuntimeError, match="synthetic"):
        _row(row_cfg, phi)
    gc.collect()
    assert len(runs) == 1 and runs[0]() is None


def test_drift_free_row_never_computes_dchi(monkeypatch):
    # alpha < 1 has no drift: the row inverts each (x, v, node) element
    # once, for Q+, and never samples s' on the arrival points
    cfg = parse_config(ROW_CFG_TEXT.replace("model.alpha = 1.5",
                                            "model.alpha = 0.8"))
    elements = []
    invert = co._invert_hazard
    monkeypatch.setattr(co, "_invert_hazard", lambda params, x, vt, u: (
        elements.append(np.broadcast(x, vt, u).size)
        or invert(params, x, vt, u)))
    base = probe_from_choice(cfg)
    d1_calls = []

    def counting(x):
        if np.ndim(x) == 3:
            d1_calls.append(x)
        return base.space.d1(x)

    phi = dataclasses.replace(base, space=base.space._replace(d1=counting))
    row, _ = _row(cfg, phi)
    assert row["drift_g_term"] == row["drift_rho_term"] == 0.0
    assert row["qplus_term"] != 0.0
    assert sum(elements) == _row_elements(cfg)
    assert d1_calls == []


def test_sweep_calls_the_three_remainder_names(tiny_cfg, monkeypatch):
    # the benchmark times the remainders by wrapping these harness names;
    # each call takes its rung's row, and nothing else
    calls = {}
    for name in ("corrector_term_qplus", "corrector_term_drift_g",
                 "corrector_term_drift_rho"):
        def counting(*args, _real=getattr(harness_mod, name), _name=name,
                     **kwargs):
            calls.setdefault(_name, []).append((args, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness_mod, name, counting)
    report = run_sweep(tiny_cfg, threads=1)
    assert len(tiny_cfg.eps_list) == len(report.runs) == 3
    assert sorted(calls) == ["corrector_term_drift_g",
                             "corrector_term_drift_rho", "corrector_term_qplus"]
    for made in calls.values():
        assert len(made) == 3
        for (args, kwargs), run in zip(made, report.runs):
            assert kwargs == {} and len(args) == 1
            assert isinstance(args[0], co.RowFlight) and args[0].run is run


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def test_check_apriori_on_real_run(small_report):
    verdict = check_apriori(small_report.runs[0])
    assert verdict.passed
    assert 0 < verdict.metrics["g_margin"] <= 1.0
    assert verdict.metrics["coercivity_M"] == pytest.approx(2.0)


def test_check_apriori_requires_diagnostics(small_cfg):
    xgrid = SpatialGrid(16, 20.0)
    dvm = DiscreteModel(small_cfg.model, VelocityGrid(9, 2.0))
    hollow = KineticRun(
        params=small_cfg.model, eps=0.3, xgrid=xgrid, dvm=dvm,
        scheme_order=1, dt_max=0.1, times=np.array([]),
        rho=np.zeros((0, 16)), gnorm2=np.array([]), mass=np.array([]),
        f0_norm2=0.0, rho_l2=np.array([]))
    with pytest.raises(ValidationError, match="diagnostics"):
        check_apriori(hollow)


def test_check_coercivity_degenerate_rate(asym_params):
    vgrid = VelocityGrid(129, auto_vscale(asym_params, 129, 1.0))
    verdict = check_coercivity(asym_params, vgrid, 300, seed=11)
    assert verdict.passed
    assert verdict.metrics["max_gap_violation"] < 1e-12
    assert verdict.metrics["max_gain_violation"] < 1e-12
    with pytest.raises(ValidationError, match="n_samples"):
        check_coercivity(asym_params, vgrid, 0)


def test_check_coercivity_refuses_non_finite_samples():
    # on a grid this wide the weighted sums overflow; the verdict must not
    # pass on NaN samples, nor fail with a bare OverflowError
    params = ModelParams(alpha=0.01, beta=0.0, kappa=0.004)
    vgrid = VelocityGrid(129, 1e160 / 128)
    with pytest.raises(NumericError,
                       match=r"sample \d+ .*x=.*vmax=1e\+160") as batch:
        check_coercivity(params, vgrid, 200)
    # the batch names the sample, kind and x the per-sample loop stops at
    with pytest.raises(NumericError) as loop:
        coercivity_by_sample(params, vgrid, 200, 2026)
    assert str(batch.value) == str(loop.value)


@pytest.mark.parametrize("params", [
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5),
    ModelParams(alpha=0.8, beta=0.25, kappa=0.2, core_asym=0.5, nu0_delta=0.3),
    ModelParams(alpha=1.2, beta=-0.3, kappa=0.3, core_asym=-0.4, nu0_delta=0.6),
])
@pytest.mark.parametrize("nv", [33, 129, 257])
def test_check_coercivity_batch_equals_per_sample_loop(params, nv):
    # one pass over all samples, bit for bit the per-sample loop's worst
    # violations (round-off sized, so any other rounding would show)
    vgrid = VelocityGrid(nv, auto_vscale(params, nv, 0.05))
    for seed in (12345, 2026):
        metrics = check_coercivity(params, vgrid, 203, seed=seed).metrics
        gap, gain = coercivity_by_sample(params, vgrid, 203, seed)
        assert (metrics["max_gap_violation"], metrics["max_gain_violation"]) \
            == (gap, gain)


def test_sweep_checks_coercivity_on_its_own_grid():
    cfg = parse_config("discretization.nx = 16\n"
                       "discretization.nv = 17\n"
                       "discretization.vmax_policy = 40\n"
                       "experiment.eps_list = 0.4, 0.2\n"
                       "experiment.t_final = 0.05\n")
    report = run_sweep(cfg)
    [verdict] = [v for v in report.verdicts if v.criterion == "coercivity"]
    direct = check_coercivity(cfg.model, build_grids(cfg)[1], 200,
                              seed=cfg.seed)
    assert verdict.metrics == direct.metrics


def test_check_correctors_input_validation(small_cfg, small_report):
    with pytest.raises(ValidationError, match="at least 3"):
        check_correctors(small_report.rows[:2], small_cfg.model)
    with pytest.raises(ValidationError, match="decreasing"):
        check_correctors(list(reversed(small_report.rows)), small_cfg.model)


def test_row_remainders_equal_direct_terms(small_cfg, small_report):
    # check_correctors reads these rows, so they must be the terms themselves
    phi = probe_from_choice(small_cfg)
    for row, kept in zip(small_report.rows, small_report.runs):
        run = _with_phase(small_cfg, row["eps"])
        assert np.array_equal(run.rho, kept.rho)
        for name, term in (("qplus", corrector_term_qplus),
                           ("drift_g", corrector_term_drift_g),
                           ("drift_rho", corrector_term_drift_rho)):
            assert row[f"{name}_term"] == term(co.RowFlight(phi, run))


def test_mc_cross_check_reuses_det_run(small_cfg, small_report):
    verdict = mc_cross_check(small_cfg, small_report.runs[0])
    assert verdict.passed
    assert verdict.metrics["bins"] == 64
    assert verdict.metrics["max_z"] < 3.0
    assert verdict.metrics["empty_bins"] == 0


def test_mc_cross_check_modulated_rate():
    # delta > 0 couples the Fourier modes, so the particle twin is the
    # judge of the (collision-bound) grid solver.  A coarser grid would not
    # do: on 64 cells the finite-volume defect alone gives mean z^2 ~ 1.7
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5,
                         nu0_delta=0.3)
    eps, nv = 0.2, 257
    det = run_kinetic_det(
        params, eps, xgrid=SpatialGrid(256, params.domain_length),
        vgrid=VelocityGrid(nv, auto_vscale(params, nv, eps, tail_target=1e-4)),
        t_final=0.5, scheme_order=2)
    assert det.step_bound == "collision"
    cfg = dataclasses.replace(default_config(), model=params,
                              particles=200_000, seed=1, t_final=0.5)
    verdict = mc_cross_check(cfg, det)
    assert verdict.passed and verdict.metrics["empty_bins"] == 0
    assert verdict.metrics["max_z"] <= 3.0


def test_mc_cross_check_empty_bins(small_cfg, small_report):
    # 200 particles leave bins empty; their zero SE must not blow up max_z
    cfg = dataclasses.replace(small_cfg, particles=200)
    det = small_report.runs[0]
    verdict = mc_cross_check(cfg, det)
    metrics = verdict.metrics
    assert metrics["empty_bins"] > 0
    assert np.isfinite(metrics["max_z"]) and metrics["max_z"] < 100.0
    ens = advance(init_ensemble(cfg.model, cfg.particles, cfg.seed),
                  cfg.t_final, det.eps)
    fld = estimate_density(ens, metrics["bins"])
    se = density_standard_error(ens, fld)
    binned = det.rho[-1].reshape(metrics["bins"], -1).mean(axis=1)
    rule = bool(np.all(np.abs(fld.values - binned) <= 3.0 * se + 1e-15))
    assert verdict.passed == rule


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_probe_from_choice_variants(small_cfg):
    for choice in ("gaussian", "packet", "constant"):
        cfg = dataclasses.replace(small_cfg, phi_choice=choice)
        probe = probe_from_choice(cfg)
        assert probe.t_support == (0.0, cfg.t_final)
    flat = probe_from_choice(dataclasses.replace(small_cfg,
                                                 phi_choice="constant"))
    assert flat.value(0.1, np.array([0.0, 5.0])) == pytest.approx([1.0, 1.0])


def test_probe_from_choice_refuses_unknown_name(small_cfg):
    # a name outside the table is refused, not taken for the constant probe,
    # and config validation quotes the same table
    wavelet = dataclasses.replace(small_cfg, phi_choice="wavelet")
    with pytest.raises(ValidationError, match="phi_choice"):
        probe_from_choice(wavelet)
    with pytest.raises(ConfigError, match=r"experiment\.phi_choice: .*"
                       r"\{gaussian, packet, constant\}"):
        validate_config(wavelet)


def test_build_grids_policies(small_cfg):
    xgrid, vgrid = build_grids(small_cfg)
    assert xgrid.nx == small_cfg.nx and vgrid.vmax > 0
    explicit = dataclasses.replace(small_cfg, vmax_policy=30.0)
    _, vgrid = build_grids(explicit)
    assert vgrid.vmax == pytest.approx(30.0)
