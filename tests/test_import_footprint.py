"""The package and the sweep path run without scipy; the audit routes load it.

scipy serves only the independent audit routes (adaptive quadrature), each
of which imports it on first use.  Every check runs in a fresh interpreter,
whose ``sys.modules`` shows what the code under test imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_PARTS = ("scipy.special", "scipy.integrate")

SWEEP_CFG = """
model.alpha = {alpha}
model.beta = {beta}
model.core_asym = 0.5
model.nu0_delta = {delta}
discretization.nx = {nx}
discretization.nv = {nv}
discretization.scheme_order = 2
experiment.eps_list = 0.4, 0.2, 0.1, 0.05
experiment.t_final = 0.5
experiment.seed = 12345
"""
DRIFT = SWEEP_CFG.format(alpha=1.5, beta=0.0, delta=0.0, nx=24, nv=25)
DEGENERATE = SWEEP_CFG.format(alpha=0.8, beta=0.25, delta=0.3, nx=16, nv=17)


def _scipy_loaded(code: str) -> dict:
    """Run ``code`` in a new interpreter; it calls ``mark(label)`` to record
    which of SCIPY_PARTS are imported at that point."""
    prelude = (
        "import sys\n"
        f"PARTS = {SCIPY_PARTS!r}\n"
        "seen = {}\n"
        "def mark(label):\n"
        "    seen[label] = sorted(p for p in PARTS if p in sys.modules)\n"
    )
    coda = "\nimport json\nprint(json.dumps(seen))\n"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", prelude + code + coda],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_and_sweeps_load_no_scipy():
    # the forked rungs report their own sys.modules through a wrapped row
    seen = _scipy_loaded(f"""
import heavykin
mark("import heavykin")
import heavykin.cli
mark("import heavykin.cli")
from heavykin import harness
from heavykin.config import parse_config
for name, text in (("drift", {DRIFT!r}), ("degenerate", {DEGENERATE!r})):
    report = harness.run_sweep(parse_config(text))
    assert all("error" not in row for row in report.rows), report.rows
    mark(name + " sweep")

rung = harness._kinetic_row
def marked_rung(*args):
    row, run = rung(*args)
    row["scipy"] = sorted(p for p in PARTS if p in sys.modules)
    return row, run
harness._kinetic_row = marked_rung
report = harness.run_sweep(parse_config({DEGENERATE!r}), threads=2)
seen["forked rungs"] = sorted({{p for row in report.rows for p in row["scipy"]}})
""")
    assert seen == {"import heavykin": [], "import heavykin.cli": [],
                    "drift sweep": [], "degenerate sweep": [],
                    "forked rungs": []}


AUDIT_ROUTES = {
    "eta-quadrature": """
from heavykin.model import ModelParams
from heavykin.nonlocal_op import eta
p = ModelParams(alpha=0.5, kappa=0.2, nu0_delta=0.3)
closed = eta(p, 0.3, 7.1)
audited = eta(p, 0.3, 7.1, method="quadrature")
assert abs(audited / closed - 1.0) < 1e-10, (closed, audited)
""",
    "dispersion_constant": """
import math
from heavykin.nonlocal_op import dispersion_constant
# C(1) = int (1 - cos w) / w^2 dw = pi
assert abs(dispersion_constant(1.0) - math.pi) < 1e-10
""",
    "operator_limit_lhs": """
import math
from heavykin.corrector import gaussian_packet, operator_limit_lhs
from heavykin.model import ModelParams
p = ModelParams(alpha=0.8, beta=0.25, kappa=0.2, nu0_delta=0.3)
phi = gaussian_packet(center=10.0, width=1.0, t_span=(0.0, 1.0))
assert math.isfinite(operator_limit_lhs(p, 0.5, 10.0, 0.1, phi))
""",
    "coercivity_functional": """
from heavykin.model import ModelParams, coercivity_constant, coercivity_functional
p = ModelParams(alpha=1.5, kappa=0.2, nu0_delta=0.3)
assert 0.0 < coercivity_functional(p, 0.0, 0.0) <= coercivity_constant(p) * (1 + 1e-12)
""",
}


@pytest.mark.parametrize("route", sorted(AUDIT_ROUTES))
def test_audit_routes_import_scipy_on_first_use(route):
    seen = _scipy_loaded("import heavykin\nmark('before')\n"
                         + AUDIT_ROUTES[route] + "mark('after')\n")
    assert seen["before"] == []
    assert "scipy.integrate" in seen["after"]
