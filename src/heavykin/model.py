"""Equilibrium / cross-section family and all of its derived constants.

The concrete model implemented here (dimension one throughout):

* heavy-tailed equilibrium with an affine, possibly asymmetric core,

  ``F(v) = A (1 + a v)`` for ``|v| < 1``  and  ``F(v) = kappa |v|^(-1-alpha)``
  for ``|v| >= 1``, with ``A = (1 - 2 kappa / alpha) / 2`` so that ``F``
  integrates to one exactly;

* separable cross-section ``b(x, v, v') = nu0(x) <v>^beta <v'>^beta / c_beta``
  where ``<v> = max(|v|, 1)`` and ``c_beta = int <v>^beta F dv``, giving the
  collision frequency ``nu(x, v) = nu0(x) <v>^beta`` and a rank-one gain with
  post-collision density ``p(v) = <v>^beta F(v) / c_beta``;

* cosine-modulated spatial rate ``nu0(x) = nu_mean (1 + delta cos(2 pi x/L))``
  on the torus of length ``L``, bounded between ``nu1`` and ``nu2``.

Everything downstream (Monte Carlo, deterministic solver, corrector, nonlocal
limit operator) consumes the model only through :class:`ModelParams` and the
functions below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "PiecewiseHeavyTailDensity",
    "gamma_exponent",
    "equilibrium",
    "equilibrium_pdf",
    "sample_equilibrium",
    "post_collision_density",
    "sample_post_collision",
    "vel_bracket",
    "nu0",
    "nu0_integral",
    "dnu0_integral",
    "collision_frequency",
    "cross_section_b",
    "critical_speed",
    "check_eps",
    "check_eps_ladder",
    "drift",
    "coercivity_constant",
    "coercivity_functional",
]


def _require(condition: bool, inequality: str) -> None:
    if not condition:
        raise ValidationError(f"parameter constraint violated: {inequality}")


def gamma_exponent(alpha: float, beta: float) -> float:
    """Anomalous-diffusion order ``gamma = (alpha - beta) / (1 - beta)``.

    Requires ``alpha > 0`` and ``beta < min(alpha, 2 - alpha)``, which together
    place gamma in (0, 2).
    """
    _require(alpha > 0, f"alpha > 0 (got alpha={alpha})")
    _require(
        beta < min(alpha, 2.0 - alpha),
        f"beta < min(alpha, 2 - alpha) (got alpha={alpha}, beta={beta})",
    )
    return (alpha - beta) / (1.0 - beta)


@dataclass(frozen=True)
class ModelParams:
    """Immutable bundle of model constants; derived quantities are properties.

    Construction validates every family constraint and raises
    :class:`~heavykin.errors.ValidationError` naming the violated inequality.
    """

    alpha: float
    beta: float = 0.0
    kappa: float = 0.2
    core_asym: float = 0.0
    nu0_mean: float = 1.0
    nu0_delta: float = 0.0
    domain_length: float = 20.0

    def __post_init__(self) -> None:
        gamma_exponent(self.alpha, self.beta)   # alpha > 0, beta < min(...)
        _require(self.kappa > 0, f"kappa > 0 (got kappa={self.kappa})")
        _require(
            self.kappa < self.alpha / 2,
            f"kappa < alpha/2 (got kappa={self.kappa}, alpha/2={self.alpha / 2})",
        )
        _require(
            self.beta > -self.alpha,
            f"beta > -alpha (got beta={self.beta}, -alpha={-self.alpha})",
        )
        _require(
            -1.0 < self.core_asym < 1.0,
            f"core_asym in (-1, 1) (got core_asym={self.core_asym})",
        )
        _require(self.nu0_mean > 0, f"nu0_mean > 0 (got nu0_mean={self.nu0_mean})")
        _require(
            0.0 <= self.nu0_delta < 1.0,
            f"nu0_delta in [0, 1) (got nu0_delta={self.nu0_delta})",
        )
        _require(
            self.domain_length > 0,
            f"domain_length > 0 (got domain_length={self.domain_length})",
        )

    # ---- derived constants -------------------------------------------------

    @property
    def gamma(self) -> float:
        """Order of the limiting nonlocal operator, in (0, 2)."""
        return (self.alpha - self.beta) / (1.0 - self.beta)

    @property
    def core_height(self) -> float:
        """Core height ``A = (1 - 2 kappa/alpha)/2``; positive by construction."""
        return 0.5 * (1.0 - 2.0 * self.kappa / self.alpha)

    def bracket_moment(self, power: float) -> float:
        """Closed-form moment ``int <v>^power F(v) dv``; needs ``power < alpha``."""
        _require(
            power < self.alpha,
            f"bracket moment finite only for power < alpha (got power={power})",
        )
        return 2.0 * self.core_height + 2.0 * self.kappa / (self.alpha - power)

    @property
    def c_beta(self) -> float:
        """Normalization ``int <v>^beta F dv`` of the post-collision density."""
        return self.bracket_moment(self.beta)

    @property
    def c_negbeta(self) -> float:
        """Moment ``int <v>^(-beta) F dv`` (finite because ``beta > -alpha``)."""
        return self.bracket_moment(-self.beta)

    @property
    def nu1(self) -> float:
        """Lower bound of nu0(x)."""
        return self.nu0_mean * (1.0 - self.nu0_delta)

    @property
    def nu2(self) -> float:
        """Upper bound of nu0(x)."""
        return self.nu0_mean * (1.0 + self.nu0_delta)

    @property
    def dnu0_sup(self) -> float:
        """``sup_x |nu0'(x)| = 2 pi nu_mean delta / L`` (the C^1 bound)."""
        return 2.0 * math.pi * self.nu0_mean * self.nu0_delta / self.domain_length

    @property
    def equilibrium_mean(self) -> float:
        """Core first moment ``2 A a / 3``.

        For ``alpha > 1`` this is the full first moment of F (the two power
        tails cancel exactly); for ``alpha = 1`` it equals every symmetric
        truncation of the first moment; for ``alpha < 1`` the full moment does
        not exist and this value is only the core contribution.
        """
        return 2.0 * self.core_height * self.core_asym / 3.0

    @property
    def tail_mass(self) -> float:
        """Total equilibrium mass at ``|v| >= 1``, equal to ``2 kappa / alpha``."""
        return 2.0 * self.kappa / self.alpha

    def tail_mass_beyond(self, speed: float) -> float:
        """Equilibrium mass at ``|v| >= speed``: ``2 kappa speed^(-alpha) /
        alpha`` from ``speed = 1`` on, and below it the tail mass plus the
        core's ``2 A (1 - speed)`` (the asymmetric core terms cancel)."""
        if speed < 1.0:
            return self.tail_mass + 2.0 * self.core_height * (1.0 - speed)
        return 2.0 * self.kappa * speed ** (-self.alpha) / self.alpha

    def as_dict(self) -> dict:
        """All fields plus derived constants, for reports and `model-info`."""
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "kappa": self.kappa,
            "core_asym": self.core_asym,
            "nu0_mean": self.nu0_mean,
            "nu0_delta": self.nu0_delta,
            "domain_length": self.domain_length,
            "gamma": self.gamma,
            "core_height": self.core_height,
            "c_beta": self.c_beta,
            "c_negbeta": self.c_negbeta,
            "nu1": self.nu1,
            "nu2": self.nu2,
            "dnu0_sup": self.dnu0_sup,
            "coercivity_M": coercivity_constant(self),
            "equilibrium_mean": self.equilibrium_mean,
            "tail_mass": self.tail_mass,
        }


@dataclass(frozen=True)
class PiecewiseHeavyTailDensity:
    """Normalized density ``h(v) = H (1 + a v)`` on ``|v| < 1`` and
    ``c |v|^(-1-q)`` on ``|v| >= 1``, with exact cdf/ppf.

    Both the equilibrium F and the post-collision density p are members of
    this family (p is F with ``(H, a, c, q) -> (A/c_beta, a, kappa/c_beta,
    alpha - beta)``), so one analytic inversion serves both samplers.
    """

    core_height: float
    core_asym: float
    tail_coeff: float
    tail_exp: float

    def __post_init__(self) -> None:
        _require(self.core_height > 0, "core height > 0")
        _require(abs(self.core_asym) < 1, "core asymmetry in (-1, 1)")
        _require(self.tail_coeff > 0, "tail coefficient > 0")
        _require(self.tail_exp > 0, "tail exponent > 0")
        total = 2.0 * self.core_height + 2.0 * self.tail_coeff / self.tail_exp
        _require(abs(total - 1.0) < 1e-9, f"density normalized (mass = {total!r})")

    @property
    def side_tail_mass(self) -> float:
        """Mass of one tail: ``c / q``."""
        return self.tail_coeff / self.tail_exp

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        absv = np.abs(v)
        out = np.empty_like(absv)
        core = absv < 1.0
        out[core] = self.core_height * (1.0 + self.core_asym * v[core])
        out[~core] = self.tail_coeff * absv[~core] ** (-1.0 - self.tail_exp)
        return out if out.ndim else float(out)

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        tm = self.side_tail_mass
        out = np.empty_like(v)
        left = v <= -1.0
        right = v >= 1.0
        mid = ~(left | right)
        out[left] = tm * np.abs(v[left]) ** (-self.tail_exp)
        out[right] = 1.0 - tm * v[right] ** (-self.tail_exp)
        vm = v[mid]
        out[mid] = tm + self.core_height * (
            (vm + 1.0) + 0.5 * self.core_asym * (vm * vm - 1.0)
        )
        return out if out.ndim else float(out)

    def ppf(self, u):
        """Exact inverse cdf; maps the tail-mass break points to -1/+1 exactly.

        The core root is evaluated at every u, then the tail u are
        overwritten; a scalar u gives a float.
        """
        u = np.asarray(u, dtype=float)
        uf = u.ravel()
        tm = self.side_tail_mass
        # Core: solve (H a/2) v^2 + H v + H(1 - a/2) - (u - tm) = 0 for the
        # root in [-1, 1], written in the cancellation-free form that also
        # covers a = 0: -2 c0 / (h + sqrt(h h - 2 h a c0)) with
        # c0 = h (1 - a/2) - (u - tm), evaluated in place in that order.
        # Tail u may take the square root of a negative.
        h, a = self.core_height, self.core_asym
        out = uf - tm
        np.subtract(h * (1.0 - 0.5 * a), out, out=out)
        root = out * (2.0 * h * a)
        np.subtract(h * h, root, out=root)
        with np.errstate(invalid="ignore"):
            np.sqrt(root, out=root)
        root += h
        out *= -2.0
        out /= root
        lo = np.flatnonzero(uf < tm)
        hi = np.flatnonzero(uf > 1.0 - tm)
        out[lo] = -((uf.take(lo) / tm) ** (-1.0 / self.tail_exp))
        out[hi] = ((1.0 - uf.take(hi)) / tm) ** (-1.0 / self.tail_exp)
        return out.reshape(u.shape) if u.ndim else float(out[0])

    def sample(self, rng: np.random.Generator, size=None):
        u = np.asarray(rng.random(size))
        # rng.random() can return exactly 0.0, which the left tail maps to -inf.
        np.maximum(u, np.finfo(float).tiny, out=u)
        return self.ppf(u)


# ---- family members ---------------------------------------------------------


def equilibrium(params: ModelParams) -> PiecewiseHeavyTailDensity:
    """The equilibrium F as a sampleable density object."""
    return PiecewiseHeavyTailDensity(
        core_height=params.core_height,
        core_asym=params.core_asym,
        tail_coeff=params.kappa,
        tail_exp=params.alpha,
    )


def post_collision_density(params: ModelParams) -> PiecewiseHeavyTailDensity:
    """p(v) = <v>^beta F(v) / c_beta, again a member of the same family."""
    cb = params.c_beta
    return PiecewiseHeavyTailDensity(
        core_height=params.core_height / cb,
        core_asym=params.core_asym,
        tail_coeff=params.kappa / cb,
        tail_exp=params.alpha - params.beta,
    )


def equilibrium_pdf(params: ModelParams, v):
    """F(v); vectorized over v."""
    return equilibrium(params).pdf(v)


def sample_equilibrium(params: ModelParams, rng: np.random.Generator, size=None):
    """Exact inverse-cdf draws from F."""
    return equilibrium(params).sample(rng, size)


def sample_post_collision(params: ModelParams, rng: np.random.Generator, size=None):
    """Exact inverse-cdf draws from the post-collision density p."""
    return post_collision_density(params).sample(rng, size)


# ---- collision frequency and cross-section ----------------------------------


def vel_bracket(v):
    """The bracket ``<v> = max(|v|, 1)`` regularizing the collision frequency."""
    return np.maximum(np.abs(v), 1.0)


def nu0(params: ModelParams, x):
    """Spatial collision rate ``nu_mean (1 + delta cos(2 pi x / L))``."""
    x = np.asarray(x, dtype=float)
    out = params.nu0_mean * (
        1.0 + params.nu0_delta * np.cos(2.0 * np.pi * x / params.domain_length)
    )
    return out if out.ndim else float(out)


def dnu0(params: ModelParams, x):
    """Derivative nu0'(x) of the cosine profile."""
    x = np.asarray(x, dtype=float)
    s = 2.0 * np.pi / params.domain_length
    out = -params.nu0_mean * params.nu0_delta * s * np.sin(s * x)
    return out if out.ndim else float(out)


def nu0_integral(params: ModelParams, x, vt, z):
    """Closed form of ``int_0^z nu0(x + vt*s) ds``; finite as vt*z -> 0."""
    s = 2.0 * np.pi / params.domain_length
    osc = np.cos(s * (x + 0.5 * vt * z)) * np.sinc(s * vt * z / (2.0 * np.pi))
    return params.nu0_mean * z * (1.0 + params.nu0_delta * osc)


def dnu0_integral(params: ModelParams, x, vt, z):
    """x-derivative of :func:`nu0_integral`, ``int_0^z nu0'(x + vt*s) ds``."""
    s = 2.0 * np.pi / params.domain_length
    return (-params.nu0_mean * params.nu0_delta * s * z
            * np.sin(s * (x + 0.5 * vt * z)) * np.sinc(s * vt * z / (2.0 * np.pi)))


def collision_frequency(params: ModelParams, x, v):
    """nu(x, v) = nu0(x) <v>^beta (broadcasts over x and v)."""
    return nu0(params, x) * vel_bracket(v) ** params.beta


def cross_section_b(params: ModelParams, x, v, vp):
    """Symmetric kernel b(x, v, v') = nu0(x) <v>^beta <v'>^beta / c_beta."""
    return (
        nu0(params, x)
        * vel_bracket(v) ** params.beta
        * vel_bracket(vp) ** params.beta
        / params.c_beta
    )


# ---- drift -------------------------------------------------------------------


def critical_speed(params: ModelParams, eps: float) -> float:
    """The critical speed ``eps^(-1/(1-beta))`` of the scaling.

    ``inf`` where it exceeds the float range (beta close to 1, small eps).
    """
    try:
        return eps ** (-1.0 / (1.0 - params.beta))
    except OverflowError:
        return math.inf


def check_eps(eps: float) -> None:
    """Raise :class:`ValidationError` unless the scale eps lies in (0, 1]."""
    if not 0.0 < eps <= 1.0:
        raise ValidationError(
            f"parameter constraint violated: eps in (0, 1] (got eps={eps})")


def check_eps_ladder(eps_list) -> list[float]:
    """``eps_list`` as floats; raises unless non-empty, in (0, 1], strictly decreasing."""
    ladder = [float(e) for e in eps_list]
    for eps in ladder:
        check_eps(eps)
    if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValidationError("parameter constraint violated: eps ladder "
                              f"non-empty and strictly decreasing (got {ladder})")
    return ladder


def drift(params: ModelParams, eps: float) -> float:
    """Theorem drift j^eps_F: three cases in alpha.

    * alpha < 1: zero (no drift subtraction needed);
    * alpha = 1: the first moment truncated at ``|v| <= eps^(-1/(1-beta))``;
      that radius is >= 1 for every eps <= 1, and past |v| = 1 the two tails
      cancel exactly (equal tail constant on both sides), leaving 2Aa/3;
    * alpha > 1: the full first moment, 2Aa/3 for the same reason.
    """
    check_eps(eps)
    if params.alpha < 1.0:
        return 0.0
    return params.equilibrium_mean


# ---- coercivity ---------------------------------------------------------------


def coercivity_constant(params: ModelParams) -> float:
    """The dissipation constant M, in closed form for this family.

    M = sup_{x,v} [ int F' nu(x,v)/b(x,v,v') dv'
                    + ( int (F'/nu(x,v')) (b(x,v,v')/nu(x,v))^2 dv' )^{1/2} ]
      = c_beta c_{-beta} + (nu1 c_beta)^{-1/2},

    the first term being (x, v)-independent and the second maximized at the
    minimizer of nu0.  Finiteness needs beta in (-alpha, alpha), which the
    parameter validation enforces.
    """
    cb = params.c_beta
    return cb * params.c_negbeta + 1.0 / math.sqrt(params.nu1 * cb)


def coercivity_functional(params: ModelParams, x: float, v: float) -> float:
    """Pointwise value of the coercivity functional at (x, v), by quadrature.

    Independent audit of :func:`coercivity_constant`: integrates the defining
    expressions numerically (adaptive core + inverse-substituted tails) without
    using the closed-form moments.  The sup over any (x, v) grid reproduces M.
    """
    from scipy.integrate import quad

    nu_xv = collision_frequency(params, x, v)
    feq = equilibrium(params)

    def first(vp: float) -> float:
        return feq.pdf(vp) * nu_xv / cross_section_b(params, x, v, vp)

    def second(vp: float) -> float:
        b = cross_section_b(params, x, v, vp)
        return feq.pdf(vp) / collision_frequency(params, x, vp) * (b / nu_xv) ** 2

    def full_line(fn) -> float:
        core, _ = quad(fn, -1.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        right, _ = quad(lambda y: fn(1.0 / y) / y**2, 0.0, 1.0,
                        epsabs=1e-13, epsrel=1e-13)
        left, _ = quad(lambda y: fn(-1.0 / y) / y**2, 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13)
        return core + right + left

    return full_line(first) + math.sqrt(full_line(second))
