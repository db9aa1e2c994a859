"""Run configuration: a flat, diff-friendly key-value format.

Files are UTF-8 text, one ``section.key = value`` per line, ``#`` starting a
comment.  The schema is strict: unknown or duplicate keys are parse errors
(with line numbers), and every constraint is re-validated on load.
Serialization is canonical, so load -> serialize -> load is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corrector import _probe_choice
from .errors import ConfigError, ValidationError
from .grids import SpatialGrid, VelocityGrid, snapshot_schedule
from .kinetic_fv import check_courant, check_scheme_order
from .model import ModelParams, check_eps_ladder
from .outputs import check_format_names

__all__ = ["RunConfig", "parse_config", "load_config", "serialize_config",
           "config_dict", "default_config", "validate_config"]

_SECTIONS = ("model", "discretization", "experiment", "output")


@dataclass(frozen=True)
class RunConfig:
    """Validated experiment description (model, grids, sweep, output)."""

    model: ModelParams
    nx: int = 256
    nv: int = 257
    vmax_policy: float | str = "auto"   # "auto" or explicit outermost speed
    scheme_order: int = 1
    dt_policy: float | str = "cfl"      # "cfl" (0.9) or explicit step fraction
    eps_list: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    t_final: float = 0.5
    snapshot_times: tuple[float, ...] | None = None
    particles: int = 0
    seed: int = 12345
    phi_choice: str = "gaussian"
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    @property
    def cfl(self) -> float:
        """The fraction of the admissible step ``dt_policy`` names ("cfl"
        is 0.9); it scales both the CFL step and the collision bound."""
        return 0.9 if self.dt_policy == "cfl" else float(self.dt_policy)


def _int(raw: str) -> int:
    if not raw.lstrip("+-").isdigit():
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for chunk in raw.split(",") for p in chunk.split())


def _keyword_or_float(keyword: str):
    """Parser for a policy that is ``keyword`` or an explicit number."""
    return lambda raw: keyword if raw == keyword else float(raw)


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# key -> (RunConfig attribute or model field, parser)
_SCHEMA: dict[str, tuple[str, object]] = {
    "model.alpha": ("alpha", float),
    "model.beta": ("beta", float),
    "model.kappa": ("kappa", float),
    "model.core_asym": ("core_asym", float),
    "model.nu0_mean": ("nu0_mean", float),
    "model.nu0_delta": ("nu0_delta", float),
    "model.domain_length": ("domain_length", float),
    "discretization.nx": ("nx", _int),
    "discretization.nv": ("nv", _int),
    "discretization.vmax_policy": ("vmax_policy", _keyword_or_float("auto")),
    "discretization.scheme_order": ("scheme_order", _int),
    "discretization.dt_policy": ("dt_policy", _keyword_or_float("cfl")),
    "experiment.eps_list": ("eps_list", _float_list),
    "experiment.t_final": ("t_final", float),
    "experiment.snapshot_times": ("snapshot_times", _float_list),
    "experiment.particles": ("particles", _int),
    "experiment.seed": ("seed", _int),
    "experiment.phi_choice": ("phi_choice", str),
    "output.dir": ("out_dir", str),
    "output.formats": ("formats", _str_list),
}

_MODEL_DEFAULTS = {"alpha": 1.5, "beta": 0.0, "kappa": 0.2, "core_asym": 0.5,
                   "nu0_mean": 1.0, "nu0_delta": 0.0, "domain_length": 20.0}


def default_config() -> RunConfig:
    """The default experiment (every key at its documented default)."""
    return RunConfig(model=ModelParams(**_MODEL_DEFAULTS))


def parse_config(text: str) -> RunConfig:
    """Parse config text; raise ConfigError (with line numbers) on bad input."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            import difflib   # only a typo needs it
            hint = difflib.get_close_matches(key, _SCHEMA, n=1)
            extra = f" (did you mean {hint[0]!r}?)" if hint else ""
            section = key.split(".", 1)[0]
            if "." not in key or section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section in key {key!r}; "
                                  f"sections are {', '.join(_SECTIONS)}{extra}")
            raise ConfigError(f"line {lineno}: unknown key {key!r}{extra}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries[key] = (value, lineno)

    model_kwargs = dict(_MODEL_DEFAULTS)
    config_kwargs: dict[str, object] = {}
    for key, (value, lineno) in entries.items():
        attr, parser = _SCHEMA[key]
        try:
            parsed = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        if key.startswith("model."):
            model_kwargs[attr] = parsed
        else:
            config_kwargs[attr] = parsed

    return validate_config(RunConfig(model=ModelParams(**model_kwargs),
                                     **config_kwargs))


def validate_config(cfg: RunConfig) -> RunConfig:
    """Re-check every constraint on an already-built config.

    ``parse_config`` validates on the way in; use this after programmatic
    edits (``dataclasses.replace``) so hand-built configs share the same
    gate.  A rule owned elsewhere is checked by its owner and fails as a
    :class:`ConfigError` naming the key.  Returns the config unchanged.
    """
    def owned(key: str, rule, *args) -> None:
        try:
            rule(*args)
        except ValidationError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    def bad(constraint: str) -> ConfigError:
        return ConfigError(f"parameter constraint violated: {constraint}")

    owned("discretization.nx", SpatialGrid, cfg.nx, cfg.model.domain_length)
    owned("discretization.nv", VelocityGrid, cfg.nv)
    owned("discretization.scheme_order", check_scheme_order, cfg.scheme_order)
    if cfg.vmax_policy != "auto":
        owned("discretization.vmax_policy", VelocityGrid.spanning, cfg.nv,
              float(cfg.vmax_policy))
    owned("discretization.dt_policy", check_courant, cfg.cfl)
    owned("experiment.eps_list", check_eps_ladder, cfg.eps_list)
    owned("experiment.t_final", snapshot_schedule, cfg.t_final)
    owned("experiment.snapshot_times", snapshot_schedule, cfg.t_final,
          cfg.snapshot_times)
    if cfg.particles < 0:
        raise bad("experiment.particles >= 0")
    if cfg.seed < 0:
        raise bad("experiment.seed >= 0")
    owned("experiment.phi_choice", _probe_choice, cfg.phi_choice)
    check_format_names(cfg.formats)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _format_value(value) -> str:
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_dict(cfg: RunConfig) -> dict[str, object]:
    """Canonical flat mapping key -> plain value (for report embedding)."""
    out: dict[str, object] = {}
    model = cfg.model.as_dict()
    for key, (attr, _) in _SCHEMA.items():
        if key.startswith("model."):
            value = model[attr]
        else:
            value = getattr(cfg, attr)
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(serialize_config(cfg)) == cfg."""
    lines = []
    current_section = None
    for key, value in config_dict(cfg).items():
        section = key.split(".", 1)[0]
        if section != current_section:
            if current_section is not None:
                lines.append("")
            lines.append(f"# {section}")
            current_section = section
        if value is None:
            continue
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"
