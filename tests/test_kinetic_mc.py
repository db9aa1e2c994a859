"""Monte Carlo solver: sampling, thinning dynamics, estimators, determinism."""

import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

from heavykin import ModelParams, NumericError, ValidationError
from heavykin import kinetic_mc
from heavykin import model as m
from heavykin.cli import main
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


def _round_loop_advance(ens, dt_macro, eps):
    """Reference: partitions one after another, each round gathering the live
    particles out of full-size partition arrays and scattering them back,
    with every live rate recomputed and nu0 evaluated at every candidate."""
    p = ens.params
    j = m.drift(p, eps)
    speed_scale = eps ** (1.0 - p.gamma)
    rate_scale = p.nu2 / eps**p.gamma
    pcd = m.post_collision_density(p)
    t_end = ens.time + dt_macro
    for sl, g in zip(ens.partition_slices(), ens.streams):
        x = ens.positions[sl].copy()
        v = ens.velocities[sl].copy()
        t = np.full(x.shape, ens.time)
        alive = np.arange(x.size)
        while alive.size:
            xa, va, ta = x[alive], v[alive], t[alive]
            rate = rate_scale * m.vel_bracket(va) ** p.beta
            t_cand = ta + g.exponential(size=alive.size) / rate
            flight = np.minimum(t_cand, t_end) - ta
            xa = np.mod(xa + speed_scale * (va - j) * flight, p.domain_length)
            collide = t_cand < t_end
            done = alive[~collide]
            x[done], t[done] = xa[~collide], t_end
            idx = alive[collide]
            xc, tc = xa[collide], t_cand[collide]
            accept = g.random(idx.size) * p.nu2 < m.nu0(p, xc)
            n_acc = int(np.count_nonzero(accept))
            if n_acc:
                v[idx[accept]] = pcd.sample(g, n_acc)
                ens.collision_count += n_acc
            x[idx], t[idx] = xc, tc
            alive = idx
        ens.positions[sl] = x
        ens.velocities[sl] = v
    ens.time = t_end


@pytest.mark.parametrize("partitions", [1, 3, 8])
@pytest.mark.parametrize("params", [
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.0),   # flat, j = 0
    ModelParams(alpha=1.5, beta=0.25, kappa=0.2, core_asym=0.5,
                nu0_delta=0.3),                                   # thinning
    ModelParams(alpha=1.2, beta=-0.3, kappa=0.3, core_asym=-0.7),  # drift
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5),   # default
    ModelParams(alpha=1.5, beta=0.0, kappa=0.2, core_asym=0.5,
                nu0_delta=0.3),                                   # flat, thinning
], ids=["flat", "modulated", "drift", "default", "flat-modulated"])
def test_advance_matches_round_loop_bitwise(params, partitions):
    ens = init_ensemble(params, n=3_001, seed=17, partitions=partitions)
    ref = init_ensemble(params, n=3_001, seed=17, partitions=partitions)
    for dt_macro in (0.25, 0.4):     # the streams continue across calls
        advance(ens, dt_macro=dt_macro, eps=0.3)
        _round_loop_advance(ref, dt_macro, eps=0.3)
        assert np.array_equal(ens.positions, ref.positions)
        assert np.array_equal(ens.velocities, ref.velocities)
        assert ens.collision_count == ref.collision_count
        assert ens.time == ref.time
    assert ens.collision_count > 0 and ens.advance_rounds > 1


def test_wrap_is_mod_except_at_length():
    # np.mod's result, bit for bit, except that the remainders it rounds up
    # to L itself (tiny negative inputs) wrap to 0.0
    L = 20.0
    tiny = np.finfo(float).tiny
    a = np.concatenate([
        np.random.default_rng(3).standard_normal(1_000_000) * 3 * L,
        [0.0, -0.0, L, -L, 2 * L, -2 * L, np.inf, -np.inf, np.nan,
         1e308, -1e308, 5e-324, -5e-324, tiny, -tiny, tiny / 4, -tiny / 4,
         -1e-17, 1e-17, L - 1e-15, -(L - 1e-15)],
    ])
    with np.errstate(invalid="ignore"):
        ref = np.mod(a, L)
    got = kinetic_mc._wrap(a.copy(), L)
    at_length = ref == L
    assert np.count_nonzero(at_length) >= 3    # -5e-324, -tiny / 4, -1e-17
    assert np.all(got[at_length] == 0.0) and not np.any(np.signbit(got[at_length]))
    assert np.array_equal(got[~at_length].view(np.int64),
                          ref[~at_length].view(np.int64))
    finite = np.isfinite(a)
    assert np.all((got[finite] >= 0.0) & (got[finite] < L))


def test_partition_results_independent_of_worker_count(asym_params,
                                                        monkeypatch):
    # 8 workers on any machine: more threads than cores, switching often,
    # all writing their partitions' slices of the same two arrays
    threads = set()
    partition = kinetic_mc._advance_partition

    def recording(*args):
        threads.add(threading.get_ident())
        return partition(*args)

    monkeypatch.setattr(kinetic_mc, "_advance_partition", recording)
    results = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 8):
            monkeypatch.setattr(kinetic_mc.os, "sched_getaffinity",
                                lambda pid, k=workers: set(range(k)))
            threads.clear()
            ens = init_ensemble(asym_params, n=20_000, seed=23)
            initial = ens.positions.copy(), ens.velocities.copy()
            advance(ens, dt_macro=0.3, eps=0.4)
            advance(ens, dt_macro=0.2, eps=0.4)
            results[workers] = (*initial, ens.positions, ens.velocities,
                                ens.collision_count, ens.advance_rounds)
            on_main = threads == {threading.get_ident()}
            assert on_main == (workers == 1)
    finally:
        sys.setswitchinterval(interval)
    serial = results[1]
    for workers in (2, 8):
        for a, b in zip(serial, results[workers]):
            assert np.array_equal(a, b)


def test_pool_sizes_by_cpu_count_without_affinity(monkeypatch):
    # platforms without sched_getaffinity size the pool by os.cpu_count
    monkeypatch.delattr(kinetic_mc.os, "sched_getaffinity", raising=False)
    for cores, pooled in ((2, True), (None, False)):
        monkeypatch.setattr(kinetic_mc.os, "cpu_count", lambda c=cores: c)
        idents = kinetic_mc._pool_map(threading.get_ident, [()] * 3)
        # the caller is one of the workers
        assert threading.get_ident() in idents
        assert (len(set(idents)) > 1) == pooled


def test_pool_map_raises_in_the_caller_with_its_errstate(asym_params,
                                                         monkeypatch):
    # a partition failing on a thread beside the caller raises in advance's
    # caller with its own type, after every thread has joined, and every
    # worker ran under the caller's np.errstate
    monkeypatch.setattr(kinetic_mc.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2, 3})
    ens = init_ensemble(asym_params, n=4_000, seed=3, partitions=4)
    caller = threading.get_ident()
    partition = kinetic_mc._advance_partition
    over = []   # idents of finished threads may be reused, so count calls

    def failing(*args):
        over.append(np.geterr()["over"])
        if threading.get_ident() != caller:
            raise NumericError("synthetic partition failure")
        return partition(*args)

    monkeypatch.setattr(kinetic_mc, "_advance_partition", failing)
    before = threading.active_count()
    with np.errstate(over="raise"), \
            pytest.raises(NumericError, match="synthetic partition failure"):
        advance(ens, dt_macro=0.1, eps=0.5)
    assert threading.active_count() == before
    assert over == ["raise"] * 4


def test_pool_map_raises_the_first_failing_task(monkeypatch):
    # as the serial loop would: task 1 fails before task 2, whichever
    # thread gets there first
    monkeypatch.setattr(kinetic_mc.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2})

    def fn(k):
        if k:
            raise ValueError(f"task {k}")
        return k

    with pytest.raises(ValueError, match="task 1"):
        kinetic_mc._pool_map(fn, [(k,) for k in range(6)])


def test_advance_reports_rounds(asym_params):
    ens = init_ensemble(asym_params, n=2_000, seed=4, partitions=4)
    advance(ens, dt_macro=0.3, eps=0.5)
    first = ens.advance_rounds
    # one round settles every particle whose first candidate is past t_end
    advance(ens, dt_macro=1e-12, eps=0.5)
    assert first > 1 and ens.advance_rounds == 1


def test_advance_raises_on_overflowing_velocity(monkeypatch):
    # tail exponent alpha = 0.005: about one inverse-cdf draw in 40 overflows
    # to inf.  A post-collision draw that does so, in a worker thread, must
    # raise at its round and time, not warn or pass on an infinite flight.
    params = ModelParams(alpha=0.005, beta=0.0, kappa=0.002)
    monkeypatch.setattr(kinetic_mc.os, "sched_getaffinity",
                        lambda pid: {0, 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = init_ensemble(params, n=40, seed=5, partitions=2)
        assert np.all(np.isfinite(ens.velocities))
        with pytest.raises(NumericError, match=r"\d+ of \d+ post-collision "
                                               r"velocity draws overflow .* "
                                               r"at round \d+, t=\S+ "
                                               r"\(tail exponent alpha=0\.005"):
            advance(ens, dt_macro=5.0, eps=0.5)


def test_init_raises_on_overflowing_velocity(tmp_path, capsys):
    # alpha = 0.005: seed 0 draws two of 40 initial velocities past the
    # double range; the draw says so instead of returning +-inf or warning
    params = ModelParams(alpha=0.005, beta=0.0, kappa=0.002)
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("model.alpha = 0.005\nmodel.beta = 0.0\n"
                   "model.kappa = 0.002\nexperiment.particles = 40\n"
                   f"experiment.seed = 0\noutput.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"2 of 40 velocity draws .*"
                                               r"alpha=0\.005"):
            init_ensemble(params, n=40, seed=0)
        assert main(["kinetic-mc", "--config", str(cfg), "--quiet"]) == 3
    assert "alpha=0.005" in capsys.readouterr().err


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
