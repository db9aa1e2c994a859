"""Monte Carlo particle solver for the scaled kinetic equation on the torus.

Particles carry (x, v); free flight at speed eps^(1-gamma) (v - j_eps) is
interrupted by collisions simulated *exactly* by thinning: candidate events
from a homogeneous clock at the majorant rate nu2 <v>^beta / eps^gamma (valid
along a whole flight, since v is constant there), accepted with probability
nu0(x_candidate)/nu2, after which the velocity is redrawn from the
post-collision density p.  No time-step bias anywhere.

Each round's flight is computed in place on that round's fresh draw buffers,
and the live particles are compacted by index; with beta = 0 the rate is the
scalar nu2 / eps^gamma, and with delta = 0 thinning compares against the
scalar mean rate.  Positions, velocities and collision counts are bit for bit
those of the plain compacted round loop (``np.mod`` wrap, per-particle rates,
nu0 at every candidate), except that a position rounding to L wraps to 0.

Randomness is organized in counter-based streams, one Philox key per ensemble
partition (fixed default 8).  `init_ensemble` and `advance` deal the
partitions round-robin to one worker per available core: the calling thread
and plain threads started beside it; each partition draws only from its own
stream and writes only its own slice, so results are byte-identical for a
given (seed, partition count) whatever the worker count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import NumericError, ValidationError
from .grids import DensityField, SpatialGrid
from .model import (
    ModelParams,
    check_eps,
    drift,
    equilibrium,
    nu0,
    post_collision_density,
    vel_bracket,
)

__all__ = ["ParticleEnsemble", "init_ensemble", "advance", "estimate_density"]


@dataclass
class ParticleEnsemble:
    params: ModelParams
    positions: np.ndarray
    velocities: np.ndarray
    time: float
    seed: int
    partitions: int
    streams: list[Generator] = field(repr=False, default_factory=list)
    collision_count: int = 0
    advance_rounds: int = 0     # most rounds any partition took, last advance

    @property
    def count(self) -> int:
        return self.positions.size

    def partition_slices(self) -> list[slice]:
        """Contiguous, deterministic split of particles into partitions."""
        n, p = self.count, self.partitions
        edges = [n * k // p for k in range(p + 1)]
        return [slice(edges[k], edges[k + 1]) for k in range(p)]


def _partition_streams(seed: int, partitions: int) -> list[Generator]:
    return [
        Generator(Philox(key=np.array([seed, k], dtype=np.uint64)))
        for k in range(partitions)
    ]


def _pool_map(fn, tasks: list) -> list:
    """``[fn(*task) for task in tasks]``, on up to one thread per usable core.

    The tasks are dealt round-robin to min(tasks, cores) workers: this
    thread and threads started beside it, each under the caller's
    floating-point error state (``np.errstate``).  They write disjoint
    memory and draw from their own streams, so the results do not depend on
    the worker count; with one core they run here.  A worker stops at its
    first failing task; once every thread has joined, the exception of the
    first failing task is raised, as the serial loop would raise it.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(len(tasks), cores)
    if workers <= 1:
        return [fn(*task) for task in tasks]
    state = np.geterr()
    results: list = [None] * len(tasks)
    failed: dict = {}   # task index -> its exception

    def run(seat: int) -> None:
        with np.errstate(**state):
            for k in range(seat, len(tasks), workers):
                try:
                    results[k] = fn(*tasks[k])
                except BaseException as exc:
                    failed[k] = exc
                    return

    threads = [threading.Thread(target=run, args=(seat,))
               for seat in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return results


def init_ensemble(params: ModelParams, n: int, seed: int = 0, *,
                  profile: str = "gaussian", partitions: int = 8) -> ParticleEnsemble:
    """Draw (x, v) ~ rho0(x) F(v) i.i.d.

    rho0 is ``periodized_gaussian``'s unit Gaussian at L/2 (exact
    periodization: wrap a normal draw) or the uniform profile.  Partition
    streams are created here and consumed by advance in a fixed order.  A
    velocity draw past the double range (tail exponents near 0) raises
    :class:`NumericError`.
    """
    if n < 1:
        raise ValidationError(f"need at least one particle (got {n} particles)")
    if partitions < 1 or partitions > n:
        raise ValidationError(f"partitions must lie in [1, n] (got {partitions})")
    if profile not in ("gaussian", "uniform"):
        raise ValidationError(f"unknown initial profile {profile!r}")

    length = params.domain_length
    streams = _partition_streams(seed, partitions)
    ens = ParticleEnsemble(
        params=params,
        positions=np.empty(n),
        velocities=np.empty(n),
        time=0.0,
        seed=seed,
        partitions=partitions,
        streams=streams,
    )
    feq = equilibrium(params)

    def draw(sl: slice, g: Generator) -> None:
        m = sl.stop - sl.start
        x = ens.positions[sl]
        if profile == "gaussian":
            g.standard_normal(out=x)
            x += 0.5 * length
            _wrap(x, length)
        else:
            g.random(out=x)
            x *= length
        with np.errstate(over="ignore"):   # counted below
            ens.velocities[sl] = feq.sample(g, m)

    _pool_map(draw, list(zip(ens.partition_slices(), streams)))
    overflowed = np.count_nonzero(~np.isfinite(ens.velocities))
    if overflowed:
        raise NumericError(
            f"MC init: {overflowed} of {n} velocity draws overflow the double "
            f"range (tail exponent alpha={params.alpha:g})")
    return ens


def advance(ens: ParticleEnsemble, dt_macro: float, eps: float) -> ParticleEnsemble:
    """Evolve every particle to time + dt_macro by the exact jump process.

    Each round draws one candidate event for every particle still short of
    the end time.  A non-finite collision rate, or more rounds than a
    generous multiple of the expected event count rate*dt_macro, raises
    :class:`NumericError` instead of looping without end; so does a
    post-collision velocity draw past the double range, or a flight that
    overflows to a non-finite final position.
    The partitions run on this thread and threads beside it;
    ``advance_rounds`` records the most rounds any of them took.
    """
    if dt_macro <= 0:
        raise ValidationError(f"dt_macro must be positive (got {dt_macro})")
    check_eps(eps)

    results = _pool_map(_advance_partition,
                        [(ens, sl, g, dt_macro, eps) for sl, g in
                         zip(ens.partition_slices(), ens.streams)])
    ens.time += dt_macro
    ens.collision_count += sum(accepted for accepted, _ in results)
    ens.advance_rounds = max(rounds for _, rounds in results)
    return ens


def _advance_partition(ens: ParticleEnsemble, sl: slice, g, dt_macro: float,
                       eps: float) -> tuple[int, int]:
    """Advance the particles of one partition with its own stream.

    The live particles' x, v, t, ensemble index and rate are kept compacted:
    each round takes the indices of those whose candidate event falls before
    t_end, writes the finished ones straight into ``ens`` (partitions own
    disjoint slices) and gathers the rest.  Returns (accepted collisions,
    rounds).
    """
    p = ens.params
    j = drift(p, eps)
    speed_scale = eps ** (1.0 - p.gamma)
    rate_scale = p.nu2 / eps**p.gamma
    pcd = post_collision_density(p)
    length = p.domain_length
    t_end = ens.time + dt_macro
    # <v>**0.0 == 1.0 exactly, so with beta = 0 every rate is rate_scale
    flat_rate = p.beta == 0.0
    # nu_mean * (1 + 0.0 * cos) == nu_mean exactly, so with delta = 0 the
    # thinning threshold is one number
    nu_flat = p.nu0_mean if p.nu0_delta == 0.0 else None

    # views of the partition's slice: x is rebound to each round's flight
    # buffer, v to gathered copies or fresh draws, and settled particles are
    # written back (a new velocity may land in the slice before its particle
    # settles; settling writes the same value)
    x, v = ens.positions[sl], ens.velocities[sl]
    t = np.full(x.shape, ens.time)
    index = np.arange(sl.start, sl.stop)
    rate = rate_scale if flat_rate else rate_scale * vel_bracket(v) ** p.beta
    peak = _finite_peak(rate, 0, t)
    # a particle's candidate events are Poisson with mean rate*dt_macro, and
    # the fastest initial particle bounds the typical rate, so the last
    # particle finishes far inside this
    max_rounds = 100 + 10 * math.ceil(peak * dt_macro)
    rounds = accepted = 0

    while index.size:
        if rounds >= max_rounds:
            raise NumericError(
                f"MC advance: {index.size} particles still short of "
                f"t={t_end:.6g} after {rounds} rounds (earliest at "
                f"t={float(t.min()):.6g})"
            )
        rounds += 1
        # t + e / rate and x + speed_scale * (v - j) * flight, evaluated in
        # place in that order
        t_cand = g.exponential(size=index.size)
        t_cand /= rate
        t_cand += t
        flight = np.minimum(t_cand, t_end)
        flight -= t
        move = v - j
        move *= speed_scale
        move *= flight
        del flight
        move += x
        x = _wrap(move, length)

        # settle finished particles, then gather the live ones one array at
        # a time, so each old array is freed before the next copy
        collide = t_cand < t_end
        live = np.flatnonzero(collide)
        if live.size < index.size:
            done = np.flatnonzero(np.logical_not(collide, out=collide))
            settled = index.take(done)
            ens.positions[settled] = x.take(done)
            ens.velocities[settled] = v.take(done)
            index = index.take(live)
            x = x.take(live)
            v = v.take(live)
            if not flat_rate:
                rate = rate.take(live)
            t_cand = t_cand.take(live)
        t = t_cand

        # thinning acceptance at candidate events
        thinning = g.random(index.size)
        thinning *= p.nu2
        accept = thinning < (nu0(p, x) if nu_flat is None else nu_flat)
        n_acc = int(np.count_nonzero(accept))
        if n_acc:
            with np.errstate(over="ignore"):   # counted below
                v_new = pcd.sample(g, n_acc)
            if not (math.isfinite(v_new.min()) and math.isfinite(v_new.max())):
                overflowed = ~np.isfinite(v_new)
                raise NumericError(
                    f"MC advance: {np.count_nonzero(overflowed)} of {n_acc} "
                    f"post-collision velocity draws overflow the double range "
                    f"at round {rounds}, t={float(t[accept][overflowed].min()):.6g} "
                    f"(tail exponent alpha={p.alpha:g})")
            if not flat_rate:
                rate_new = rate_scale * vel_bracket(v_new) ** p.beta
                _finite_peak(rate_new, rounds, t)
            if n_acc == index.size:     # all accepted, the rule when delta = 0
                v = v_new
                if not flat_rate:
                    rate = rate_new
            else:
                hit = np.flatnonzero(accept)
                v[hit] = v_new
                if not flat_rate:
                    rate[hit] = rate_new
            accepted += n_acc

    # a finite but huge velocity can still overflow its flight to inf, which
    # lands at NaN on the torus
    lost = np.count_nonzero(~np.isfinite(ens.positions[sl]))
    if lost:
        raise NumericError(
            f"MC advance: {lost} particles have non-finite positions at "
            f"t={t_end:.6g}; their velocities overflow the flight "
            f"(largest |v| {float(np.max(np.abs(ens.velocities[sl]))):.3g})"
        )
    return accepted, rounds


def _wrap(a: np.ndarray, length: float) -> np.ndarray:
    """``np.mod(a, length)`` in place, bit for bit for length > 0, except that
    a remainder rounding up to ``length`` (a tiny negative ``a``) folds to
    0.0, so every finite result lies in [0, length).  Non-finite ``a`` gives
    NaN, as in ``np.mod``, without its warning.  Only the elements outside
    [0, length) take the ``fmod``; the rest are their own remainder."""
    out = np.flatnonzero((a < 0.0) | (a >= length))
    if out.size:
        r = a.take(out)
        with np.errstate(invalid="ignore"):
            np.fmod(r, length, out=r)
        np.add(r, length, out=r, where=r < 0.0)
        r[r == length] = 0.0
        a[out] = r
    a += 0.0    # -0.0 to +0.0
    return a


def _finite_peak(rate, rounds: int, t: np.ndarray) -> float:
    """Largest rate; raises if it is not finite (t: live particle times)."""
    peak = float(np.max(rate))
    if not math.isfinite(peak):
        raise NumericError(f"MC advance: non-finite collision rate {peak} at "
                           f"round {rounds}, t={float(t.min()):.6g}")
    return peak


def estimate_density(ens: ParticleEnsemble, nx: int) -> DensityField:
    """Histogram estimate of rho(x), normalized to unit mass (exact by count)."""
    grid = SpatialGrid(nx=nx, length=ens.params.domain_length)
    counts, _ = np.histogram(ens.positions, bins=nx,
                             range=(0.0, ens.params.domain_length))
    values = counts / (ens.count * grid.dx)
    return DensityField(grid, values, time=ens.time, provenance="MC histogram")


def density_standard_error(ens: ParticleEnsemble, fld: DensityField) -> np.ndarray:
    """Binomial per-bin standard error of a histogram estimate."""
    phat = fld.values * fld.grid.dx
    return np.sqrt(np.maximum(phat * (1.0 - phat), 0.0) / ens.count) / fld.grid.dx
