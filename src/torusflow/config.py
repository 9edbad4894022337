"""Run configuration: JSON schema, validation, initial-data generation.

Configs are strict: unknown keys are errors, domain violations are reported
all at once with field-level messages.  Random initial data comes from a
counter-based generator (Philox) keyed by the config seed, so runs are
bit-reproducible.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .integrate import MODELS, SCHEMES, StepperConfig
from .models import EpitaxialParams, ThinFilmParams
from .spectral import ModeSet, SpectralField, _grids, read_snapshot, wiener_norm, with_cutoff

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

# Resource caps, checked before any allocation.  MAX_GRID bounds the points
# per axis of the 3n+1 quadratic grid and the (p+1)n+1 thin-film power grid;
# MAX_P keeps p! a finite double; MAX_STEPS bounds round(t_end / dt).
MAX_GRID = 4096
MAX_N = (MAX_GRID - 1) // 3
MAX_P = 170
MAX_STEPS = 10**7


class ConfigError(ValueError):
    """Carries the full list of violations found in one pass."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


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


def _is_number(v, integer=False) -> bool:
    """A JSON number (an integer when asked for) that fits its field.  JSON
    integers are unbounded, so their magnitude is checked before a float or
    numpy conversion can overflow or raise."""
    if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
        return False
    if isinstance(v, int):
        return abs(v) < 2**64 if integer else abs(v) <= sys.float_info.max
    return math.isfinite(v)


class _Ctx:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, msg: str):
        self.errors.append(msg)

    def known(self, d: dict, path: str, allowed):
        for key in d:
            if key not in allowed:
                self.fail(f"{path}{key}: unknown key")

    def number(self, d: dict, path: str, key: str, default=None, required=False,
               cond=None, msg=None, integer=False):
        if key not in d:
            if required:
                self.fail(f"{path}{key}: required")
            return default
        v = d[key]
        if not _is_number(v, integer):
            kind = "an integer below 2**64 in magnitude" if integer else "a finite number"
            self.fail(f"{path}{key}: must be {kind}, got {v!r}")
            return default
        if cond is not None and not cond(v):
            self.fail(f"{path}{key}: {msg}")
            return default
        return v


def _parse_params(ctx: _Ctx, model: str, d, path="params."):
    if not isinstance(d, dict):
        ctx.fail("params: must be an object")
        return None
    if model == "epitaxial":
        ctx.known(d, path, {"K0", "K1", "K2", "K3"})
        k0 = ctx.number(d, path, "K0", 0.0, cond=lambda v: v >= 0, msg="must satisfy K0 >= 0")
        k1 = ctx.number(d, path, "K1", 0.0, cond=lambda v: v >= 0, msg="must satisfy K1 >= 0")
        k2 = ctx.number(d, path, "K2", required=True, cond=lambda v: v > 0,
                        msg="must satisfy K2 > 0")
        k3 = ctx.number(d, path, "K3", 0.0, cond=lambda v: v >= 0, msg="must satisfy K3 >= 0")
        if ctx.errors:
            return None
        return EpitaxialParams(K0=float(k0), K1=float(k1), K2=float(k2), K3=float(k3))
    ctx.known(d, path, {"chi", "p", "c_estimate"})
    chi = ctx.number(d, path, "chi", required=True, cond=lambda v: 0 < v < 1,
                     msg="must satisfy 0 < chi < 1")
    p = ctx.number(d, path, "p", required=True, integer=True, cond=lambda v: 2 <= v <= MAX_P,
                   msg=f"must be an integer 2 <= p <= {MAX_P}")
    c = ctx.number(d, path, "c_estimate", 1.0, cond=lambda v: v > 0,
                   msg="must satisfy c_estimate > 0")
    if ctx.errors:
        return None
    return ThinFilmParams(chi=float(chi), p=int(p), c_estimate=float(c))


def _parse_initial(ctx: _Ctx, d, n, path="initial_data."):
    if not isinstance(d, dict):
        ctx.fail("initial_data: must be an object")
        return None
    kinds = ("modes", "random_decay", "snapshot")
    kind = d.get("kind")
    if kind not in kinds:
        ctx.fail(f"{path}kind: must be one of {kinds}, got {kind!r}")
        return None
    allowed = {"kind", "zero_mean", "normalize"}
    modes: tuple = ()
    amplitude = sigma = spath = None
    if kind == "modes":
        allowed |= {"modes"}
        raw = d.get("modes")
        if not isinstance(raw, list) or not raw:
            ctx.fail(f"{path}modes: must be a nonempty list of [k1, k2, re, im]")
        else:
            out = []
            for i, entry in enumerate(raw):
                if (not isinstance(entry, list)) or len(entry) != 4:
                    ctx.fail(f"{path}modes[{i}]: must be [k1, k2, re, im]")
                    continue
                k1, k2, re, im = entry
                if not all(isinstance(k, int) and not isinstance(k, bool) for k in (k1, k2)):
                    ctx.fail(f"{path}modes[{i}]: k1, k2 must be integers")
                    continue
                if n is not None and max(abs(k1), abs(k2)) > n:
                    ctx.fail(f"{path}modes[{i}]: mode ({k1}, {k2}) outside cutoff n={n}")
                    continue
                if not (_is_number(re) and _is_number(im)):
                    ctx.fail(f"{path}modes[{i}]: re, im must be finite numbers")
                    continue
                out.append((int(k1), int(k2), float(re), float(im)))
            modes = tuple(out)
    elif kind == "random_decay":
        allowed |= {"amplitude", "sigma"}
        amplitude = ctx.number(d, path, "amplitude", required=True, cond=lambda v: v > 0,
                               msg="must be > 0")
        sigma = ctx.number(d, path, "sigma", required=True, cond=lambda v: v >= 0,
                           msg="must be >= 0")
    else:
        allowed |= {"path"}
        spath = d.get("path")
        if not isinstance(spath, str) or not spath:
            ctx.fail(f"{path}path: snapshot kind requires a file path")
    ctx.known(d, path, allowed)
    zero_mean = d.get("zero_mean", True)
    if not isinstance(zero_mean, bool):
        ctx.fail(f"{path}zero_mean: must be a boolean")
        zero_mean = True
    normalize = None
    if "normalize" in d:
        nd = d["normalize"]
        if not isinstance(nd, dict):
            ctx.fail(f"{path}normalize: must be an object")
        else:
            ctx.known(nd, path + "normalize.", {"norm", "value"})
            which = nd.get("norm")
            if which not in NORM_EXPONENTS:
                ctx.fail(f"{path}normalize.norm: must be one of {tuple(NORM_EXPONENTS)}")
            value = ctx.number(nd, path + "normalize.", "value", required=True,
                               cond=lambda v: v > 0, msg="must be > 0")
            if which in NORM_EXPONENTS and value is not None:
                normalize = NormalizeSpec(norm=which, value=float(value))
    if ctx.errors:
        return None
    return InitialDataSpec(kind=kind, modes=modes,
                           amplitude=None if amplitude is None else float(amplitude),
                           sigma=None if sigma is None else float(sigma),
                           path=spath, zero_mean=zero_mean, normalize=normalize)


def _parse_stepper(ctx: _Ctx, d, path="stepper."):
    if d is None:
        d = {}
    if not isinstance(d, dict):
        ctx.fail("stepper: must be an object")
        return None
    ctx.known(d, path, {"scheme", "dt", "t_end", "record_every", "blowup_threshold"})
    scheme = d.get("scheme", "ETD2")
    if scheme not in SCHEMES:
        ctx.fail(f"{path}scheme: must be one of {SCHEMES}, got {scheme!r}")
        scheme = "ETD2"
    dt = ctx.number(d, path, "dt", 1e-3, cond=lambda v: v > 0, msg="must satisfy dt > 0")
    t_end = ctx.number(d, path, "t_end", 1.0, cond=lambda v: v > 0,
                       msg="must satisfy t_end > 0")
    rec = ctx.number(d, path, "record_every", 10, integer=True, cond=lambda v: v >= 1,
                     msg="must be an integer >= 1")
    thr = ctx.number(d, path, "blowup_threshold", None, cond=lambda v: v > 0,
                     msg="must be > 0")
    if ctx.errors:
        return None
    if t_end < dt:
        ctx.fail(f"{path}t_end: must be >= dt ({dt})")
        return None
    steps = t_end / dt
    if not math.isfinite(steps) or round(steps) > MAX_STEPS:
        ctx.fail(f"{path}t_end: t_end / dt = {steps:.6g} exceeds the cap of {MAX_STEPS} steps")
        return None
    return StepperConfig(dt=float(dt), t_end=float(t_end), scheme=scheme,
                         record_every=int(rec),
                         blowup_threshold=None if thr is None else float(thr))


def _parse_outputs(ctx: _Ctx, d, path="outputs."):
    if d is None:
        d = {}
    if not isinstance(d, dict):
        ctx.fail("outputs: must be an object")
        return None
    ctx.known(d, path, {"directory", "trace_csv", "report_json", "snapshot_every",
                        "snapshot_prefix"})
    directory = d.get("directory", ".")
    trace_csv = d.get("trace_csv", "trace.csv")
    report_json = d.get("report_json", "report.json")
    prefix = d.get("snapshot_prefix", "snapshot")
    for key, v in (("directory", directory), ("trace_csv", trace_csv),
                   ("report_json", report_json), ("snapshot_prefix", prefix)):
        if not isinstance(v, str) or not v:
            ctx.fail(f"{path}{key}: must be a nonempty string")
    every = ctx.number(d, path, "snapshot_every", 0, integer=True, cond=lambda v: v >= 0,
                       msg="must be an integer >= 0")
    if ctx.errors:
        return None
    return OutputSpec(directory=directory, trace_csv=trace_csv, report_json=report_json,
                      snapshot_every=int(every), snapshot_prefix=prefix)


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict, reporting every violation at once."""
    ctx = _Ctx()
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    ctx.known(raw, "", {"model", "n", "params", "initial_data", "stepper", "outputs", "seed"})
    model = raw.get("model")
    if model not in MODELS:
        ctx.fail(f"model: must be one of {MODELS}, got {model!r}")
    n = ctx.number(raw, "", "n", None, required=True, integer=True,
                   cond=lambda v: 1 <= v <= MAX_N,
                   msg=f"must be an integer 1 <= n <= {MAX_N} (3n+1 <= {MAX_GRID} grid points)")
    seed = ctx.number(raw, "", "seed", 0, integer=True, cond=lambda v: 0 <= v < 2**64,
                      msg="must be a 64-bit unsigned integer")
    params = None
    if model in MODELS:
        if "params" not in raw:
            ctx.fail("params: required")
        else:
            sub = _Ctx()
            params = _parse_params(sub, model, raw["params"])
            ctx.errors.extend(sub.errors)
    if isinstance(params, ThinFilmParams) and n is not None \
            and (params.p + 1) * n + 1 > MAX_GRID:
        ctx.fail(f"params.p: the power grid (p+1)n+1 = {(params.p + 1) * n + 1} "
                 f"exceeds {MAX_GRID} points")
    initial = None
    if "initial_data" not in raw:
        ctx.fail("initial_data: required")
    else:
        sub = _Ctx()
        initial = _parse_initial(sub, raw["initial_data"], n if isinstance(n, int) else None)
        ctx.errors.extend(sub.errors)
    sub = _Ctx()
    stepper = _parse_stepper(sub, raw.get("stepper"))
    ctx.errors.extend(sub.errors)
    sub = _Ctx()
    outputs = _parse_outputs(sub, raw.get("outputs"))
    ctx.errors.extend(sub.errors)
    if ctx.errors:
        raise ConfigError(ctx.errors)
    return RunConfig(model=model, n=int(n), params=params, initial_data=initial,
                     stepper=stepper, outputs=outputs, seed=int(seed))


def read_json(path):
    """Parsed JSON file contents; a missing file or bad JSON is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"{path}: no such file"]) from None
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
        abs2 = _grids(n)[2]
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
        f = SpectralField(ModeSet(n), c)
    elif spec.kind == "snapshot":
        f = with_cutoff(read_snapshot(spec.path), n)
    else:
        raise ValueError(f"unknown initial-data kind {spec.kind!r}")

    if spec.zero_mean:
        c = f.coeff.copy()
        c[n, n] = 0.0
        f = SpectralField(f.modes, c)
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
        f = SpectralField(f.modes, c)
    return f


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
    if abs(m) <= 1e-12:
        v = f
    elif abs(m - 1.0) <= 1e-12:
        c = f.coeff.copy()
        c[cfg.n, cfg.n] = 0.0
        v = SpectralField(f.modes, c)
    else:
        raise ConfigError([
            "initial_data: thin-film data must be u0 with mean 1 "
            f"or a zero-mean fluctuation, got mean {m!r}"
        ])
    return v, {"variable": "v"}
