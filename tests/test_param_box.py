"""Whole admissible parameter box through the command line.

Every model in the box -- alpha in (0, 2), beta in (-alpha, min(alpha,
2 - alpha)), kappa in (0, alpha/2), delta in [0, 1) -- must give one of the
documented exit codes and never a traceback, including the corners
gamma -> 0, gamma -> 2 and delta -> 1.  Runs are `kinetic-det` on tiny grids,
`kinetic-mc` with a few hundred particles, two-rung `sweep`s on two worker
processes (on 16 cells, the fewest the macro operator assembles on), one-rung
`chi-check`s, and `invariants` on the same tiny velocity grids.
"""

import math
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heavykin.cli import main

OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

MODEL_BOX = dict(
    alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    beta_frac=OPEN_UNIT, kappa_frac=OPEN_UNIT,
    delta=st.floats(0.0, 1.0, exclude_max=True),
    core_asym=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    eps=st.sampled_from([0.4, 0.2, 0.1, 0.05]))

# The corners of the box, each with the velocity grid (vmax, scheme order)
# kinetic-det runs it on: gamma -> 0 (beta -> alpha), gamma -> 2 (beta ->
# 2 - alpha, where the critical speed overflows for beta -> 1), delta -> 1,
# alpha -> 0 (more steps than the budget, then an overflowing tail-mass speed)
# and alpha -> 2.
CORNERS = [
    (dict(alpha=0.8, beta_frac=1 - 1e-12, kappa_frac=0.5, delta=0.3,
          core_asym=0.5, eps=0.05), "auto", 2),
    (dict(alpha=1.0, beta_frac=1 - 1e-9, kappa_frac=0.5, delta=0.0,
          core_asym=0.5, eps=0.05), "auto", 2),
    (dict(alpha=1.2, beta_frac=1 - 1e-12, kappa_frac=0.5, delta=0.3,
          core_asym=-0.5, eps=0.4), "auto", 2),
    (dict(alpha=1.5, beta_frac=0.5, kappa_frac=0.5, delta=1 - 1e-12,
          core_asym=0.5, eps=0.05), "40", 2),
    (dict(alpha=0.05, beta_frac=0.5, kappa_frac=0.5, delta=0.0,
          core_asym=0.0, eps=0.4), "auto", 1),
    (dict(alpha=1e-3, beta_frac=0.5, kappa_frac=0.5, delta=0.0,
          core_asym=0.0, eps=0.4), "auto", 1),
    (dict(alpha=2 - 1e-12, beta_frac=0.5, kappa_frac=1 - 1e-12, delta=0.5,
          core_asym=0.5, eps=0.05), "auto", 2),
]


def corners(*grid):
    """One hypothesis example per corner, with the named parts ("vmax",
    "order") of its velocity grid."""
    def decorate(test):
        for model, vmax, order in CORNERS:
            extra = {key: value for key, value in
                     dict(vmax=vmax, order=order).items() if key in grid}
            test = example(**model, **extra)(test)
        return test
    return decorate


def _inside(value, lo, hi):
    """``value``, moved one ulp into the open interval (lo, hi) where
    rounding put it on or past an end."""
    return min(max(value, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def _model(alpha, beta_frac, kappa_frac):
    # a tiny fraction rounds beta to -alpha or underflows kappa to 0, which
    # config validation rejects before the instrument runs
    upper = min(alpha, 2.0 - alpha)
    return (_inside(-alpha + beta_frac * (upper + alpha), -alpha, upper),
            _inside(kappa_frac * alpha / 2.0, 0.0, alpha / 2.0))


def _run(command, alpha, beta, kappa, delta, core_asym, eps, extra, *flags,
         nx=8):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "box.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"model.alpha = {alpha!r}\n"
                     f"model.beta = {beta!r}\n"
                     f"model.kappa = {kappa!r}\n"
                     f"model.nu0_delta = {delta!r}\n"
                     f"model.core_asym = {core_asym!r}\n"
                     f"discretization.nx = {nx}\n"
                     "discretization.nv = 9\n"
                     f"experiment.eps_list = {eps}\n"
                     "experiment.t_final = 0.05\n"
                     f"output.dir = {tmp}/out\n"
                     "output.formats = csv, json\n"
                     + extra)
        return main([command, "--config", cfg, "--quiet", *flags])


def _kinetic_det(alpha, beta, kappa, delta, core_asym, eps, vmax, order):
    return _run("kinetic-det", alpha, beta, kappa, delta, core_asym, eps,
                f"discretization.vmax_policy = {vmax}\n"
                f"discretization.scheme_order = {order}\n")


@given(**MODEL_BOX, vmax=st.sampled_from(["4", "40"]),
       order=st.sampled_from([1, 2]))
# The drawn velocity grids are explicit: the automatic vmax grows like
# (2 kappa / (alpha tail_target))^(1/alpha), so a CFL-bound run at small
# alpha may legitimately take hours.  The corners use it.
@corners("vmax", "order")
@settings(max_examples=60, deadline=None)
# numpy's overflow warnings at the corners are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kinetic_det_exit_codes_over_parameter_box(alpha, beta_frac, kappa_frac,
                                                   delta, core_asym, eps, vmax,
                                                   order):
    beta, kappa = _model(alpha, beta_frac, kappa_frac)
    code = _kinetic_det(alpha, beta, kappa, delta, core_asym, eps, vmax, order)
    assert code in (0, 1, 2, 3)


def test_kinetic_det_rejects_underflowed_equilibrium(capsys):
    # kappa = 5e-324 leaves only the core node of F on this grid, and
    # kappa = 1e-310 leaves subnormal tail nodes whose reciprocal overflows;
    # the deviation norms divide by F, so the run must stop before stepping
    for kappa in (5e-324, 1e-310):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _kinetic_det(1.99, -0.25, kappa, 0.78, 0.5, 0.4, "40", 2)
        assert code == 3
        assert "velocity node 0" in capsys.readouterr().err


@given(**MODEL_BOX)
@corners()
@settings(max_examples=60, deadline=None)
# as alpha - beta -> 0 the inverse-cdf tail draws overflow (numpy warns, the
# run exits 3)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kinetic_mc_exit_codes_over_parameter_box(alpha, beta_frac, kappa_frac,
                                                  delta, core_asym, eps):
    beta, kappa = _model(alpha, beta_frac, kappa_frac)
    code = _run("kinetic-mc", alpha, beta, kappa, delta, core_asym, eps,
                "experiment.particles = 200\n")
    assert code in (0, 1, 2, 3)


@given(**MODEL_BOX, vmax=st.sampled_from(["4", "40"]),
       order=st.sampled_from([1, 2]))
@corners("vmax", "order")
# the automatic vmax of this model is ~1e290: a coercivity check on a grid of
# its own overflowed, although the config gives vmax 4
@example(alpha=0.01, beta_frac=0.5, kappa_frac=0.8, delta=0.0, core_asym=0.0,
         eps=0.2, vmax="4", order=2)
@settings(max_examples=60, deadline=None)
# as for kinetic-det; the forked workers inherit this filter
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_exit_codes_over_parameter_box(alpha, beta_frac, kappa_frac,
                                             delta, core_asym, eps, vmax,
                                             order):
    beta, kappa = _model(alpha, beta_frac, kappa_frac)
    code = _run("sweep", alpha, beta, kappa, delta, core_asym,
                f"{2 * eps!r}, {eps!r}",
                f"discretization.vmax_policy = {vmax}\n"
                f"discretization.scheme_order = {order}\n",
                "--threads", "2", nx=16)
    assert code in (0, 1, 2, 3)


@given(**MODEL_BOX)
@corners()
@settings(max_examples=20, deadline=None)
def test_chi_check_exit_codes_over_parameter_box(alpha, beta_frac, kappa_frac,
                                                 delta, core_asym, eps):
    beta, kappa = _model(alpha, beta_frac, kappa_frac)
    code = _run("chi-check", alpha, beta, kappa, delta, core_asym, eps, "")
    assert code in (0, 1, 2, 3)


@given(**MODEL_BOX, vmax=st.sampled_from(["4", "40"]))
@corners("vmax")
@settings(max_examples=50, deadline=None)
def test_invariants_exit_codes_over_parameter_box(alpha, beta_frac, kappa_frac,
                                                  delta, core_asym, eps, vmax):
    beta, kappa = _model(alpha, beta_frac, kappa_frac)
    code = _run("invariants", alpha, beta, kappa, delta, core_asym, eps,
                f"discretization.vmax_policy = {vmax}\n")
    assert code in (0, 1, 2, 3)
