"""Monte Carlo particle solver for the scaled kinetic equation on the torus.

Particles carry (x, v); free flight at speed eps^(1-gamma) (v - j_eps) is
interrupted by collisions simulated *exactly* by thinning: candidate events
from a homogeneous clock at the majorant rate nu2 <v>^beta / eps^gamma (valid
along a whole flight, since v is constant there), accepted with probability
nu0(x_candidate)/nu2, after which the velocity is redrawn from the
post-collision density p.  No time-step bias anywhere.

Randomness is organized in counter-based streams, one Philox key per ensemble
partition (fixed default 8), so results are byte-identical for a given
(seed, partition count) regardless of how many workers execute partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .grids import DensityField, SpatialGrid
from .model import (
    ModelParams,
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
    streams: list[np.random.Generator] = field(repr=False, default_factory=list)
    collision_count: int = 0

    @property
    def count(self) -> int:
        return self.positions.size

    def partition_slices(self) -> list[slice]:
        """Contiguous, deterministic split of particles into partitions."""
        n, p = self.count, self.partitions
        edges = [n * k // p for k in range(p + 1)]
        return [slice(edges[k], edges[k + 1]) for k in range(p)]


def _partition_streams(seed: int, partitions: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        for k in range(partitions)
    ]


def init_ensemble(params: ModelParams, n: int, seed: int = 0, *,
                  profile: str = "gaussian", center: float | None = None,
                  width: float = 1.0, partitions: int = 8) -> ParticleEnsemble:
    """Draw (x, v) ~ rho0(x) F(v) i.i.d.

    rho0 is the wrapped Gaussian (exact periodization: wrap a normal draw) or
    the uniform profile.  Partition streams are created here and consumed by
    advance in a fixed order.
    """
    if n < 1:
        raise ValidationError(f"need at least one particle (got n={n})")
    if partitions < 1 or partitions > n:
        raise ValidationError(f"partitions must lie in [1, n] (got {partitions})")
    if profile not in ("gaussian", "uniform"):
        raise ValidationError(f"unknown initial profile {profile!r}")
    if width <= 0:
        raise ValidationError(f"profile width must be positive (got {width})")

    length = params.domain_length
    c = 0.5 * length if center is None else center
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
    for sl, g in zip(ens.partition_slices(), streams):
        m = sl.stop - sl.start
        if profile == "gaussian":
            ens.positions[sl] = np.mod(c + width * g.standard_normal(m), length)
        else:
            ens.positions[sl] = g.random(m) * length
        ens.velocities[sl] = feq.sample(g, m)
    return ens


def advance(ens: ParticleEnsemble, dt_macro: float, eps: float) -> ParticleEnsemble:
    """Evolve every particle to time + dt_macro by the exact jump process.

    Each round draws one candidate event for every particle still short of
    the end time.  A non-finite collision rate, or more rounds than a
    generous multiple of the expected event count rate*dt_macro, raises
    :class:`NumericError` instead of looping without end.
    """
    if dt_macro <= 0:
        raise ValidationError(f"dt_macro must be positive (got {dt_macro})")
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps in (0, 1] (got {eps})")

    p = ens.params
    j = drift(p, eps)
    speed_scale = eps ** (1.0 - p.gamma)
    rate_scale = p.nu2 / eps**p.gamma
    pcd = post_collision_density(p)
    length = p.domain_length
    t_end = ens.time + dt_macro
    accepted_total = 0

    for sl, g in zip(ens.partition_slices(), ens.streams):
        x = ens.positions[sl].copy()
        v = ens.velocities[sl].copy()
        t = np.full(x.shape, ens.time)
        alive = np.arange(x.size)
        rounds = 0

        while alive.size:
            xa, va, ta = x[alive], v[alive], t[alive]
            rate = rate_scale * vel_bracket(va) ** p.beta
            peak = float(np.max(rate))
            if not math.isfinite(peak):
                raise NumericError(
                    f"MC advance: non-finite collision rate {peak} at round "
                    f"{rounds}, t={float(ta.min()):.6g}"
                )
            if rounds == 0:
                # a particle's candidate events are Poisson with mean
                # rate*dt_macro, and the fastest initial particle bounds the
                # typical rate, so the last particle finishes far inside this
                max_rounds = 100 + 10 * math.ceil(peak * dt_macro)
            elif rounds >= max_rounds:
                raise NumericError(
                    f"MC advance: {alive.size} particles still short of "
                    f"t={t_end:.6g} after {rounds} rounds (earliest at "
                    f"t={float(ta.min()):.6g})"
                )
            rounds += 1
            tau = g.exponential(size=alive.size) / rate
            t_cand = ta + tau
            flight = np.minimum(t_cand, t_end) - ta
            xa = np.mod(xa + speed_scale * (va - j) * flight, length)
            collide = t_cand < t_end

            # settle finished particles
            done = alive[~collide]
            x[done], t[done] = xa[~collide], t_end

            # thinning acceptance at candidate events
            idx = alive[collide]
            xc, tc = xa[collide], t_cand[collide]
            accept = g.random(idx.size) * p.nu2 < nu0(p, xc)
            n_acc = int(np.count_nonzero(accept))
            if n_acc:
                v[idx[accept]] = pcd.sample(g, n_acc)
                accepted_total += n_acc
            x[idx], t[idx] = xc, tc
            alive = idx

        ens.positions[sl] = x
        ens.velocities[sl] = v

    ens.time = t_end
    ens.collision_count += accepted_total
    return ens


def estimate_density(ens: ParticleEnsemble, nx: int) -> DensityField:
    """Histogram estimate of rho(x), normalized to unit mass (exact by count)."""
    if nx < 2:
        raise ValidationError(f"need nx >= 2 bins (got {nx})")
    grid = SpatialGrid(nx=nx, length=ens.params.domain_length)
    counts, _ = np.histogram(ens.positions, bins=nx,
                             range=(0.0, ens.params.domain_length))
    values = counts / (ens.count * grid.dx)
    return DensityField(grid, values, time=ens.time, provenance="MC histogram")


def density_standard_error(ens: ParticleEnsemble, fld: DensityField) -> np.ndarray:
    """Binomial per-bin standard error of a histogram estimate."""
    phat = fld.values * fld.grid.dx
    return np.sqrt(np.maximum(phat * (1.0 - phat), 0.0) / ens.count) / fld.grid.dx
