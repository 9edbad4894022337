"""Run configuration: JSON schema, validation, initial-data generation.

Configs are strict: unknown keys are errors, and every violation is
reported at once with field-level messages, from the rows each config
dataclass states (see models): RULES (with the fields each initial-data
kind takes), nested SECTIONS, and CROSS rows for the params type, the grid
caps and the modes' cutoff.  Constructing a dataclass raises the first.
Random initial data comes from a counter-based generator (Philox) keyed by
the config seed, so runs are bit-reproducible.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from .integrate import MODELS, StepperConfig
from .models import (MAX_GRID, MAX_N, MAX_P, MAX_STEPS, N_RULE, RHS, ZERO_MEAN_TOL, Checked,
                     config_lines, grid_violations, is_number, unknown_keys, violations)
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
KINDS = {"modes": ("modes",), "random_decay": ("amplitude", "sigma"), "snapshot": ("path",)}
# what a kind's field reads when it is left out, besides "required"
_ABSENT = {"modes": "must be a nonempty list of [k1, k2, re, im]",
           "path": "snapshot kind requires a file path"}
PATH_RULE = "must be a nonempty string the file system can name"
# The schema nests about 5 levels (7 for an axes file whose values are
# initial_data objects with modes); deeper JSON is refused before anything
# walks it recursively.
MAX_JSON_DEPTH = 32
# The largest corpus config is under 400 bytes; a longer file (a device that
# never ends, say) is refused after this many characters are read.
MAX_JSON_CHARS = 2**24


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


def is_path(v) -> bool:
    """A nonempty string that the file system can name: os.fsencode takes
    it, and it holds no NUL."""
    try:
        return isinstance(v, str) and v != "" and b"\0" not in os.fsencode(v)
    except UnicodeError:  # a lone surrogate that surrogateescape cannot encode
        return False


def mode_violations(modes, n=None) -> list:
    """(modes[i], message, entry, False) per entry of modes that is not [k1, k2, re, im]
    with integers k1, k2 (within cutoff n, if given) and finite numbers re, im."""
    found = []
    for i, e in enumerate(modes):
        message = (
            "must be [k1, k2, re, im]" if not isinstance(e, (list, tuple)) or len(e) != 4
            else "k1, k2 must be integers" if not all(type(k) is int for k in e[:2])
            else f"mode ({e[0]}, {e[1]}) outside cutoff n={n}" if n is not None and max(map(abs, e[:2])) > n
            else "re, im must be finite numbers" if not (is_number(e[2]) and is_number(e[3])) else None)
        found += [(f"modes[{i}]", message, e, False)] if message else []
    return found


def _kind_fields(s) -> list:
    """For a known kind: its modes' entries, the fields it takes that s lacks, the others s has."""
    if s.get("kind") not in tuple(KINDS):
        return []
    takes, modes = KINDS[s["kind"]], s.get("modes")
    return (mode_violations(modes if "modes" in takes and isinstance(modes, (list, tuple)) else ())
            + [(f, _ABSENT.get(f, "required"), None, False) for f in takes if f not in s]
            + [(f, "unknown key", s[f], False) for f in ("modes", "amplitude", "sigma", "path")
               if f in s and f not in takes])


def _model_checks(s) -> list:
    """The model's params type and grid caps, then the modes' cutoff; s lacks a section not built."""
    want, found = RHS[s["model"]].params_type, []
    if "params" in s:
        found = ([("params." + f, *rest) for f, *rest in grid_violations(s["model"], s["n"], s["params"])]
                 if isinstance(s["params"], want)
                 else [("params", f"the {s['model']} model needs {want.__name__}", s["params"], True)])
    modes = s["initial_data"].modes or () if "initial_data" in s else ()
    return found + [("initial_data." + f, *rest) for f, *rest in mode_violations(modes, s["n"])]


@dataclass(frozen=True)
class NormalizeSpec(Checked):
    """Rescale generated data so that one Wiener norm hits an exact value."""

    norm: str
    value: float

    RULES = (("norm", None, lambda v: v in tuple(NORM_EXPONENTS), f"must be one of {tuple(NORM_EXPONENTS)}"),
             ("value", False, lambda v: v > 0, "must be > 0"))


@dataclass(frozen=True)
class InitialDataSpec(Checked):
    kind: str
    modes: tuple | None = None
    amplitude: float | None = None
    sigma: float | None = None
    path: str | None = None
    zero_mean: bool = True
    normalize: NormalizeSpec | None = None

    RULES = (("kind", None, lambda v: v in tuple(KINDS), f"must be one of {tuple(KINDS)}"),
             ("modes", None, lambda v: isinstance(v, (list, tuple)) and len(v) > 0, _ABSENT["modes"]),
             ("amplitude", False, lambda v: v > 0, "must be > 0"),
             ("sigma", False, lambda v: v >= 0, "must be >= 0"),
             ("path", None, is_path, PATH_RULE),
             _kind_fields,
             ("zero_mean", None, lambda v: isinstance(v, bool), "must be a boolean"))
    SECTIONS = (("normalize", lambda s: NormalizeSpec, ("norm", "value")),)

    def __post_init__(self):
        super().__post_init__()
        if self.modes is not None:  # plain tuples, as parsing the echo gives them
            object.__setattr__(self, "modes", tuple((k1, k2, float(r), float(i)) for k1, k2, r, i in self.modes))


@dataclass(frozen=True)
class OutputSpec(Checked):
    directory: str = "."
    trace_csv: str = "trace.csv"
    report_json: str = "report.json"
    snapshot_every: int = 0
    snapshot_prefix: str = "snapshot"

    RULES = (*((key, None, is_path, PATH_RULE)
               for key in ("directory", "trace_csv", "report_json", "snapshot_prefix")),
             ("snapshot_every", True, lambda v: v >= 0, "must be an integer >= 0"))


@dataclass(frozen=True)
class RunConfig(Checked):
    model: str
    n: int
    params: object
    initial_data: InitialDataSpec
    stepper: StepperConfig = StepperConfig(dt=1e-3, t_end=1.0)
    outputs: OutputSpec = OutputSpec()
    seed: int = 0

    RULES = (("model", None, lambda v: v in MODELS, f"must be one of {MODELS}"), N_RULE,
             ("seed", True, lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer"))
    # (field, its class given the values, or None; the keys a config must give)
    SECTIONS = (("params", lambda s: s.get("model") in MODELS and RHS[s["model"]].params_type,
                 ("K2", "chi", "p")),
                ("initial_data", lambda s: InitialDataSpec, ("kind",)),
                ("stepper", lambda s: StepperConfig, ()),
                ("outputs", lambda s: OutputSpec, ()))
    CROSS = (_model_checks,)


def _section(cls, d, path: str, required=(), defaults=None):
    """(cls from d and defaults, or None; d's config-error lines under path):
    unknown keys, cls.RULES in table order, each of cls.SECTIONS, then, if
    the rules hold, cls.CROSS.  A section left out takes its default, and so
    does a null one whose default is a section, which its keys default to."""
    if not isinstance(d, dict):
        return None, [f"{path[:-1]}: must be an object"]
    errors = unknown_keys(d, path, {f.name for f in fields(cls)})
    values = {**(defaults or {}), **d}
    found = violations(cls.RULES, values, required)
    errors += config_lines(found, path)
    for field, section, keys in cls.SECTIONS:
        default, sub_cls = cls.__dataclass_fields__[field].default, section(values)
        inner = {k: v for k, v in vars(default).items() if v is not None} if is_dataclass(default) else {}
        if not sub_cls or values.get(field) is None and (field not in values or inner):
            if sub_cls and default is MISSING:
                errors.append(f"{path}{field}: required")
            values.pop(field, None)  # left out, or null: the default
            continue
        built, sub = _section(sub_cls, values.pop(field), f"{path}{field}.", keys, inner)
        values.update({} if built is None else {field: built})
        errors += sub
    if not found:
        errors += config_lines(violations((), values, cross=cls.CROSS), path)
    return (None if errors else cls(**values)), errors


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict, reporting every violation at once."""
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    cfg, errors = _section(RunConfig, raw, "", ("model", "n"))
    if errors:
        raise ConfigError(errors)
    return cfg


def read_json(path):
    """Parsed JSON file contents; a file that cannot be read, is longer than
    MAX_JSON_CHARS characters, holds bad JSON, or JSON nested deeper than
    MAX_JSON_DEPTH, is a ConfigError."""
    deep = ConfigError([f"{path}: JSON nested deeper than {MAX_JSON_DEPTH} levels"])
    with file_errors(path), open(path) as fh:
        try:
            text = fh.read(MAX_JSON_CHARS + 1)
            data = json.loads(text) if len(text) <= MAX_JSON_CHARS else None
        except ValueError as e:  # not text, JSONDecodeError, or an integer too long to convert
            raise ConfigError([f"{path}: invalid JSON ({e})"]) from None
        except RecursionError:
            raise deep from None
    if len(text) > MAX_JSON_CHARS:
        raise ConfigError([f"{path}: longer than {MAX_JSON_CHARS} characters"])
    level = [data]  # the values at each depth in turn, without recursion
    for _ in range(MAX_JSON_DEPTH):
        level = [v for c in level if isinstance(c, (dict, list))
                 for v in (c.values() if isinstance(c, dict) else c)]
    if any(isinstance(c, (dict, list)) for c in level):
        raise deep
    return data


def load_config(path) -> RunConfig:
    return parse_config(read_json(path))


def config_to_dict(cfg: RunConfig) -> dict:
    """Serializable echo without the unset (None) fields; parse_config(config_to_dict(cfg)) == cfg."""
    return asdict(cfg, dict_factory=lambda items: {k: v for k, v in items if v is not None})


def generate_initial(spec: InitialDataSpec, n: int, seed: int, generated=None) -> SpectralField:
    """Realize an initial-data spec on cutoff n.

    random_decay draws one phase per half-plane mode (k1 > 0, or k1 = 0 and
    k2 > 0, in row-major order) from Philox(seed), with |uhat(k)| =
    amplitude * |k|^-sigma, and mirrors it to -k; the same seed always
    produces the same field.  generated, a dict kept by a caller that
    prepares a batch, holds each datum made for it (or the errors that
    refused it), keyed by the spec without normalize, n and seed, and the
    norms normalize has taken of it, so that members that differ only in
    normalize share one generation.
    """
    generated = {} if generated is None else generated
    key = (*(v for k, v in vars(spec).items() if k != "normalize"), n, seed)
    if key not in generated:
        try:
            generated[key] = _generate(spec, n, seed)
        except ConfigError as e:
            generated[key] = e.errors
    f = generated[key]
    if isinstance(f, list):
        raise ConfigError(f)
    if spec.normalize is None:
        return f
    norm = spec.normalize.norm
    if (key, norm) not in generated:
        generated[key, norm] = wiener_norm(f, NORM_EXPONENTS[norm])
    return _normalized(f, spec.normalize, generated[key, norm])


def _generate(spec: InitialDataSpec, n: int, seed: int) -> SpectralField:
    """generate_initial of spec without its normalize."""
    if spec.kind == "modes":
        try:
            f = SpectralField.from_modes(n, [((k1, k2), complex(re, im)) for k1, k2, re, im in spec.modes])
        except ValueError as e:  # not Hermitian, or past the float range
            raise ConfigError([f"initial_data.modes: {e}"]) from None
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
        f = SpectralField._from_half(modes, c[:, n:])
    else:
        with file_errors(spec.path, "initial_data.path: "):
            try:
                f = with_cutoff(read_snapshot(spec.path), n)
            except ValueError as e:  # read_snapshot's messages name the path
                raise ConfigError([f"initial_data.path: {e}"]) from None
    return _without_mean(f) if spec.zero_mean else f


def _normalized(f: SpectralField, normalize: NormalizeSpec, cur: float) -> SpectralField:
    """f, whose Wiener norm normalize.norm is cur, rescaled to normalize.value;
    subnormal data, whose moduli lose bits, has its norm taken times 2^1000."""
    if np.max(np.abs(f.half.view(np.float64))) < 2.0**-1022:
        f = SpectralField._from_half(f.modes, (f.half.view(np.float64) * 2.0**1000).view(np.complex128))
        cur = wiener_norm(f, NORM_EXPONENTS[normalize.norm])
    if not math.isfinite(cur):
        raise ConfigError([f"initial_data.normalize: the Wiener norm {normalize.norm} "
                           "of the generated field overflows the float range"])
    where = f"initial_data.normalize: {normalize.norm} = {normalize.value!r}: "
    if cur == 0.0:
        raise ConfigError([f"{where}the generated field has zero {normalize.norm} norm"])
    with np.errstate(over="ignore", invalid="ignore"):
        factor = normalize.value / cur
        if math.isfinite(factor):
            c = f.half * factor
        else:  # past the float range alone: divide the parts by cur first, then scale
            c = (np.ascontiguousarray(f.half).view(np.float64) / cur * normalize.value).view(np.complex128)
    if not np.isfinite(c).all():
        raise ConfigError([f"{where}rescaling the generated field overflows the float range"])
    return SpectralField._from_half(f.modes, c)


def _without_mean(f: SpectralField) -> SpectralField:
    """f with uhat(0) = 0."""
    half = f.half.copy()
    half[f.n, 0] = 0.0
    return SpectralField._from_half(f.modes, half)


def prepare_initial(cfg: RunConfig, generated=None):
    """Generate the field the integrator evolves plus reporting metadata.

    Epitaxial runs evolve u itself.  Thin-film configs describe u0 with mean
    1 (or directly the zero-mean fluctuation); the run evolves v = u - 1 and
    the reports state that norms refer to v.  generated is generate_initial's.
    """
    f = generate_initial(cfg.initial_data, cfg.n, cfg.seed, generated)
    if cfg.model == "epitaxial":
        return f, {"variable": "u"}
    m = f.half[cfg.n, 0]
    if abs(m - 1.0) <= ZERO_MEAN_TOL:
        f = _without_mean(f)
    elif abs(m) > ZERO_MEAN_TOL:
        raise ConfigError([
            "initial_data: thin-film data must be u0 with mean 1 "
            f"or a zero-mean fluctuation, got mean {m!r}"
        ])
    return f, {"variable": "v"}
