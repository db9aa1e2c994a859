"""Monte Carlo solver: sampling, thinning dynamics, estimators, determinism."""

import numpy as np
import pytest
from scipy import stats

from heavykin import ModelParams, NumericError, ValidationError
from heavykin import kinetic_mc
from heavykin import model as m
from heavykin.kinetic_mc import (
    advance,
    density_standard_error,
    estimate_density,
    init_ensemble,
)
from oracles import ks_statistic


SYM = ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_counts_and_domain(asym_params):
    ens = init_ensemble(asym_params, n=10_000, seed=5)
    assert ens.count == 10_000
    assert np.all((ens.positions >= 0) & (ens.positions < asym_params.domain_length))
    assert ens.time == 0.0


def test_init_positions_chi2():
    params = SYM
    ens = init_ensemble(params, n=100_000, seed=11)
    c, w, L = 0.5 * params.domain_length, 1.0, params.domain_length
    edges = np.concatenate(([0.0], np.linspace(c - 3.0, c + 3.0, 25), [L]))
    counts, _ = np.histogram(ens.positions, bins=edges)
    cdf = stats.norm(loc=c, scale=w).cdf
    probs = np.diff(cdf(edges))
    probs[0] += cdf(0.0) - 0.0  # wrapped tails land in the edge lumps
    probs[-1] += 1.0 - cdf(L)
    probs /= probs.sum()
    assert np.all(probs * ens.count > 10)
    res = stats.chisquare(counts, f_exp=probs * ens.count)
    assert res.pvalue > 0.01


def test_init_velocities_ks():
    params = SYM
    ens = init_ensemble(params, n=1_000_000, seed=12)
    assert ks_statistic(ens.velocities, m.equilibrium(params).cdf) < 2e-3


def test_init_validation(asym_params):
    with pytest.raises(ValidationError, match="particle"):
        init_ensemble(asym_params, n=0)
    with pytest.raises(ValidationError, match="profile"):
        init_ensemble(asym_params, n=10, profile="delta")
    with pytest.raises(ValidationError, match="partitions"):
        init_ensemble(asym_params, n=10, partitions=11)


# ---------------------------------------------------------------------------
# advance
# ---------------------------------------------------------------------------


def test_advance_collision_rate_matches_poisson():
    # beta = 0, delta = 0: every candidate accepted, rate nu/eps^gamma exactly.
    params = SYM
    eps = 0.7
    ens = init_ensemble(params, n=100_000, seed=21)
    advance(ens, dt_macro=1.0, eps=eps)
    per_particle = ens.collision_count / ens.count
    expected = params.nu0_mean / eps**params.gamma
    assert per_particle == pytest.approx(expected, rel=0.02)


def test_advance_preserves_count_and_time(asym_params):
    ens = init_ensemble(asym_params, n=5_000, seed=3)
    advance(ens, dt_macro=0.3, eps=0.5)
    assert ens.count == 5_000
    assert ens.time == pytest.approx(0.3)
    assert np.all((ens.positions >= 0) & (ens.positions < asym_params.domain_length))


def test_uniform_profile_is_stationary():
    params = SYM
    ens = init_ensemble(params, n=400_000, seed=31, profile="uniform")
    advance(ens, dt_macro=1.0, eps=0.6)
    fld = estimate_density(ens, nx=64)
    p = 1.0 / 64
    se_counts = np.sqrt(ens.count * p * (1 - p))
    counts = fld.values * fld.grid.dx * ens.count
    assert np.max(np.abs(counts - ens.count * p)) < 4 * se_counts


def test_velocity_law_equilibrates_to_f():
    # beta = 0: a single collision resamples v ~ F exactly; run to ~14 expected
    # collisions so the never-collided atom is negligible.
    params = SYM
    ens = init_ensemble(params, n=1_000_000, seed=41)
    ens.velocities[:] = 0.0
    advance(ens, dt_macro=5.0, eps=0.5)
    assert ks_statistic(ens.velocities, m.equilibrium(params).cdf) < 2e-3


def test_velocity_law_equilibrates_degenerate_rate():
    # beta != 0 mixes through variable rates; KS to F still shrinks.
    params = ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5,
                         nu0_delta=0.3)
    ens = init_ensemble(params, n=400_000, seed=42)
    ens.velocities[:] = 0.0
    before = ks_statistic(ens.velocities, m.equilibrium(params).cdf)
    advance(ens, dt_macro=6.0, eps=0.5)
    after = ks_statistic(ens.velocities, m.equilibrium(params).cdf)
    assert after < 4e-3 < before


def test_reproducibility_bit_identical(asym_params):
    a = init_ensemble(asym_params, n=20_000, seed=77)
    b = init_ensemble(asym_params, n=20_000, seed=77)
    for ens in (a, b):
        advance(ens, dt_macro=0.4, eps=0.3)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)
    assert a.collision_count == b.collision_count
    c = init_ensemble(asym_params, n=20_000, seed=78)
    advance(c, dt_macro=0.4, eps=0.3)
    assert not np.array_equal(a.positions, c.positions)


def test_advance_raises_on_infinite_rate(asym_params, monkeypatch):
    # an infinite rate makes every waiting time zero: without the check the
    # round loop never reaches the end time
    ens = init_ensemble(asym_params, n=100, seed=5)
    monkeypatch.setattr(kinetic_mc, "vel_bracket", lambda v: np.inf)
    with pytest.raises(NumericError, match="non-finite collision rate"):
        advance(ens, dt_macro=0.3, eps=0.5)


def test_advance_caps_rounds(asym_params):
    # streams whose clock never ticks and whose candidates are all rejected
    # keep every particle short of the end time at a finite rate
    class Stalled:
        def exponential(self, size):
            return np.zeros(size)

        def random(self, size):
            return np.ones(size)

    ens = init_ensemble(asym_params, n=100, seed=5, partitions=2)
    ens.streams = [Stalled(), Stalled()]
    with pytest.raises(NumericError, match=r"after \d+ rounds .*t=0"):
        advance(ens, dt_macro=0.3, eps=0.5)


# ---------------------------------------------------------------------------
# density estimation
# ---------------------------------------------------------------------------


def test_estimate_density_spike(asym_params):
    ens = init_ensemble(asym_params, n=1000, seed=1)
    ens.positions[:] = 3.31
    fld = estimate_density(ens, nx=10)
    assert fld.mass() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(fld.values) == 1
    assert fld.values.max() == pytest.approx(1.0 / fld.grid.dx)


def test_histogram_standard_error_against_replicas():
    params = SYM
    nx, n, reps = 100, 200_000, 50
    vals = np.empty((reps, nx))
    for r in range(reps):
        ens = init_ensemble(params, n=n, seed=1000 + r)
        vals[r] = estimate_density(ens, nx=nx).values
    measured = vals.std(axis=0, ddof=1)
    ens = init_ensemble(params, n=n, seed=1000)
    fld = estimate_density(ens, nx=nx)
    predicted = density_standard_error(ens, fld)
    # compare on bins carrying real mass; replica noise of the std is ~10%
    busy = fld.values * fld.grid.dx * n > 500
    ratio = measured[busy] / predicted[busy]
    assert np.all((ratio > 0.7) & (ratio < 1.3))


def test_boundary_bins_stay_dilute_default_profile():
    # periodization monitor: the torus seam stays dilute relative to the bulk
    # (heavy tails do carry a little mass around, so this is a ratio check)
    params = SYM
    ens = init_ensemble(params, n=200_000, seed=9)
    advance(ens, dt_macro=0.5, eps=0.2)
    fld = estimate_density(ens, nx=64)
    seam = fld.values[[0, -1]]
    assert np.all(seam < 0.01 * fld.values.max())
