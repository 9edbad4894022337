"""Run configuration: JSON schema, validation, initial-data generation.

Configs are strict: unknown keys are errors, domain violations are reported
all at once with field-level messages.  Random initial data comes from a
counter-based generator (Philox) keyed by the config seed, so runs are
bit-reproducible.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from .integrate import MODELS, StepperConfig
from .models import (MAX_GRID, MAX_N, MAX_P, MAX_STEPS, N_RULE, RHS, config_lines,
                     grid_violations, is_number, unknown_keys, violations)
from .spectral import ModeSet, SpectralField, read_snapshot, wiener_norm, with_cutoff

__all__ = [
    "ConfigError",
    "NormalizeSpec",
    "InitialDataSpec",
    "OutputSpec",
    "RunConfig",
    "MAX_GRID",
    "MAX_N",
    "MAX_P",
    "MAX_STEPS",
    "parse_config",
    "read_json",
    "load_config",
    "config_to_dict",
    "generate_initial",
    "prepare_initial",
]

NORM_EXPONENTS = {"a0": 0.0, "a2": 2.0, "a4": 4.0, "a6": 6.0}

_TOP_RULES = (N_RULE, ("seed", True, lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer"))
_DECAY_RULES = (("amplitude", False, lambda v: v > 0, "must be > 0"),
                ("sigma", False, lambda v: v >= 0, "must be >= 0"))
_NORMALIZE_RULES = (("value", False, lambda v: v > 0, "must be > 0"),)
_SNAPSHOT_RULES = (("snapshot_every", True, lambda v: v >= 0, "must be an integer >= 0"),)
_REQUIRED_PARAMS = {"epitaxial": {"K2"}, "thinfilm": {"chi", "p"}}


class ConfigError(ValueError):
    """Carries the full list of violations found in one pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@contextmanager
def file_errors(path, prefix: str = ""):
    """Turn an OSError on the way to the file at path into a ConfigError
    that names it."""
    try:
        yield
    except FileNotFoundError:
        raise ConfigError([f"{prefix}{path}: no such file"]) from None
    except OSError as e:
        raise ConfigError([f"{prefix}{path}: {e.strerror or e}"]) from None


@dataclass(frozen=True)
class NormalizeSpec:
    """Rescale generated data so that one Wiener norm hits an exact value."""

    norm: str
    value: float


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str
    modes: tuple = ()
    amplitude: float | None = None
    sigma: float | None = None
    path: str | None = None
    zero_mean: bool = True
    normalize: NormalizeSpec | None = None


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "."
    trace_csv: str = "trace.csv"
    report_json: str = "report.json"
    snapshot_every: int = 0
    snapshot_prefix: str = "snapshot"


@dataclass(frozen=True)
class RunConfig:
    model: str
    n: int
    params: object
    initial_data: InitialDataSpec
    stepper: StepperConfig
    outputs: OutputSpec
    seed: int


def _section(cls, d, path: str, required=(), defaults=None):
    """(cls from d and defaults, or None; d's config-error lines under path):
    unknown keys, cls.RULES in table order, then, if all else holds, cls.CROSS."""
    if not isinstance(d, dict):
        return None, [f"{path[:-1]}: must be an object"]
    errors = unknown_keys(d, path, {f.name for f in fields(cls)})
    values = {**(defaults or {}), **d}
    errors += config_lines(violations(cls.RULES, values, required,
                                      () if errors else getattr(cls, "CROSS", ())), path)
    return (None if errors else cls(**values)), errors


def _parse_initial(d, n, path="initial_data."):
    if not isinstance(d, dict):
        return None, ["initial_data: must be an object"]
    kinds = ("modes", "random_decay", "snapshot")
    kind = d.get("kind")
    if kind not in kinds:
        return None, [f"{path}kind: must be one of {kinds}, got {kind!r}"]
    errors = []
    allowed = {"kind", "zero_mean", "normalize"}
    modes = []
    if kind == "modes":
        allowed |= {"modes"}
        raw = d.get("modes")
        if not isinstance(raw, list) or not raw:
            errors.append(f"{path}modes: must be a nonempty list of [k1, k2, re, im]")
            raw = []
        for i, entry in enumerate(raw):
            if (not isinstance(entry, list)) or len(entry) != 4:
                errors.append(f"{path}modes[{i}]: must be [k1, k2, re, im]")
                continue
            k1, k2, re, im = entry
            if not all(isinstance(k, int) and not isinstance(k, bool) for k in (k1, k2)):
                errors.append(f"{path}modes[{i}]: k1, k2 must be integers")
            elif n is not None and max(abs(k1), abs(k2)) > n:
                errors.append(f"{path}modes[{i}]: mode ({k1}, {k2}) outside cutoff n={n}")
            elif not (is_number(re) and is_number(im)):
                errors.append(f"{path}modes[{i}]: re, im must be finite numbers")
            else:
                modes.append((k1, k2, float(re), float(im)))
    elif kind == "random_decay":
        allowed |= {"amplitude", "sigma"}
        errors += config_lines(violations(_DECAY_RULES, d, {"amplitude", "sigma"}), path)
    else:
        allowed |= {"path"}
        if not isinstance(d.get("path"), str) or not d.get("path"):
            errors.append(f"{path}path: snapshot kind requires a file path")
    errors += unknown_keys(d, path, allowed)
    zero_mean = d.get("zero_mean", True)
    if not isinstance(zero_mean, bool):
        errors.append(f"{path}zero_mean: must be a boolean")
    nd = d.get("normalize")
    if "normalize" in d and not isinstance(nd, dict):
        errors.append(f"{path}normalize: must be an object")
    elif nd is not None:
        errors += unknown_keys(nd, path + "normalize.", {"norm", "value"})
        if nd.get("norm") not in NORM_EXPONENTS:
            errors.append(f"{path}normalize.norm: must be one of {tuple(NORM_EXPONENTS)}")
        errors += config_lines(violations(_NORMALIZE_RULES, nd, {"value"}), path + "normalize.")
    if errors:
        return None, errors
    decay = {k: float(d[k]) for k in ("amplitude", "sigma") if kind == "random_decay"}
    normalize = None if nd is None else NormalizeSpec(norm=nd["norm"], value=float(nd["value"]))
    return InitialDataSpec(kind=kind, modes=tuple(modes), path=d.get("path"),
                           zero_mean=zero_mean, normalize=normalize, **decay), []


def _parse_outputs(d, path="outputs."):
    if not isinstance(d, dict):
        return None, ["outputs: must be an object"]
    errors = unknown_keys(d, path, {f.name for f in fields(OutputSpec)})
    values = {**asdict(OutputSpec()), **d}
    for key in ("directory", "trace_csv", "report_json", "snapshot_prefix"):
        if not isinstance(values[key], str) or not values[key]:
            errors.append(f"{path}{key}: must be a nonempty string")
    errors += config_lines(violations(_SNAPSHOT_RULES, d), path)
    return (None if errors else OutputSpec(**values)), errors


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict, reporting every violation at once."""
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    errors = unknown_keys(raw, "", {f.name for f in fields(RunConfig)})
    model = raw.get("model")
    if model not in MODELS:
        errors.append(f"model: must be one of {MODELS}, got {model!r}")
    top = violations(_TOP_RULES, raw, {"n"})
    errors += config_lines(top)
    n = None if any(field == "n" for field, *_ in top) else raw["n"]
    params = None
    if model in MODELS:
        if "params" not in raw:
            errors.append("params: required")
        else:
            params, sub = _section(RHS[model].params_type, raw["params"], "params.",
                                   _REQUIRED_PARAMS[model])
            errors += sub
    if params is not None and n is not None:
        errors += config_lines(grid_violations(model, n, params), "params.")
    initial = None
    if "initial_data" not in raw:
        errors.append("initial_data: required")
    else:
        initial, sub = _parse_initial(raw["initial_data"], n)
        errors += sub
    opt = {k: {} if raw.get(k) is None else raw[k] for k in ("stepper", "outputs")}
    stepper, sub = _section(StepperConfig, opt["stepper"], "stepper.",
                            defaults={"dt": 1e-3, "t_end": 1.0})
    outputs, sub2 = _parse_outputs(opt["outputs"])
    errors += sub + sub2
    if errors:
        raise ConfigError(errors)
    return RunConfig(model=model, n=int(n), params=params, initial_data=initial,
                     stepper=stepper, outputs=outputs, seed=int(raw.get("seed", 0)))


def read_json(path):
    """Parsed JSON file contents; a file that cannot be read, or bad JSON,
    is a ConfigError."""
    with file_errors(path), open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as e:  # JSONDecodeError, or an integer too long to convert
            raise ConfigError([f"{path}: invalid JSON ({e})"]) from None


def load_config(path) -> RunConfig:
    return parse_config(read_json(path))


def _as_json(v):
    return [_as_json(x) for x in v] if isinstance(v, tuple) else v


def config_to_dict(cfg: RunConfig) -> dict:
    """Serializable echo; parse_config(config_to_dict(cfg)) == cfg.  Unset
    fields (None, or no modes) are left out."""
    return asdict(cfg, dict_factory=lambda items: {k: _as_json(v) for k, v in items
                                                   if v is not None and v != ()})


def generate_initial(spec: InitialDataSpec, n: int, seed: int) -> SpectralField:
    """Realize an initial-data spec on cutoff n.

    random_decay draws one phase per half-plane mode (k1 > 0, or k1 = 0 and
    k2 > 0, in row-major order) from Philox(seed), with |uhat(k)| =
    amplitude * |k|^-sigma, and mirrors it to -k; the same seed always
    produces the same field.
    """
    if spec.kind == "modes":
        f = SpectralField.from_modes(
            n, [((k1, k2), complex(re, im)) for k1, k2, re, im in spec.modes])
    elif spec.kind == "random_decay":
        modes = ModeSet(n)
        abs2 = modes.abs2
        # the half plane k1 > 0, or k1 = 0 and k2 > 0; row-major order is the draw order
        half = np.zeros(abs2.shape, dtype=bool)
        half[n + 1 :] = True
        half[n, n + 1 :] = True
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2 * n * (n + 1))
        # Python's ** per mode: numpy's SIMD power can differ from libm pow in the last bit
        mag = np.array([spec.amplitude * a ** (-spec.sigma / 2.0) for a in abs2[half].tolist()])
        e = np.exp(1j * theta)
        # mag * e as a scalar complex product rounds it; numpy's SIMD complex
        # multiply fuses it and can flip the sign of an underflowed zero
        c = np.zeros(abs2.shape, dtype=np.complex128)
        c.real[half] = mag * e.real - 0.0 * e.imag
        c.imag[half] = mag * e.imag + 0.0 * e.real
        c[::-1, ::-1][half] = np.conj(c[half])
        f = SpectralField(modes, c)
    elif spec.kind == "snapshot":
        with file_errors(spec.path, "initial_data.path: "):
            try:
                f = with_cutoff(read_snapshot(spec.path), n)
            except ValueError as e:  # read_snapshot's messages name the path
                raise ConfigError([f"initial_data.path: {e}"]) from None
    else:
        raise ValueError(f"unknown initial-data kind {spec.kind!r}")

    if spec.zero_mean:
        f = _without_mean(f)
    if spec.normalize is not None:
        s = NORM_EXPONENTS[spec.normalize.norm]
        cur = wiener_norm(f, s)
        if not math.isfinite(cur):
            raise ConfigError([f"initial_data.normalize: the Wiener norm {spec.normalize.norm} "
                               "of the generated field overflows the float range"])
        where = f"initial_data.normalize: {spec.normalize.norm} = {spec.normalize.value!r}: "
        if cur == 0.0:
            raise ConfigError([f"{where}the generated field has zero {spec.normalize.norm} norm"])
        with np.errstate(over="ignore", invalid="ignore"):
            c = f.coeff * (spec.normalize.value / cur)
        if not np.isfinite(c).all():
            raise ConfigError([f"{where}rescaling the generated field "
                               "overflows the float range"])
        f = SpectralField._exact(f.modes, c)  # a real factor keeps f exactly Hermitian
    return f


def _without_mean(f: SpectralField) -> SpectralField:
    """f with uhat(0) = 0: zeroing the (real) mean keeps f exactly Hermitian,
    so it needs no second symmetrization pass."""
    c = f.coeff.copy()
    c[f.n, f.n] = 0.0
    return SpectralField._exact(f.modes, c)


def prepare_initial(cfg: RunConfig):
    """Generate the field the integrator evolves plus reporting metadata.

    Epitaxial runs evolve u itself.  Thin-film configs describe u0 with mean
    1 (or directly the zero-mean fluctuation); the run evolves v = u - 1 and
    the reports state that norms refer to v.
    """
    f = generate_initial(cfg.initial_data, cfg.n, cfg.seed)
    if cfg.model == "epitaxial":
        return f, {"variable": "u"}
    m = f.coeff[cfg.n, cfg.n]
    if abs(m - 1.0) <= 1e-12:
        f = _without_mean(f)
    elif abs(m) > 1e-12:
        raise ConfigError([
            "initial_data: thin-film data must be u0 with mean 1 "
            f"or a zero-mean fluctuation, got mean {m!r}"
        ])
    return f, {"variable": "v"}
