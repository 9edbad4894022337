import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from torusflow import (
    ConfigError,
    EpitaxialParams,
    NormTrace,
    SpectralField,
    StepperConfig,
    ThinFilmParams,
    config_to_dict,
    generate_initial,
    load_config,
    parse_config,
    prepare_initial,
    read_trace_csv,
    wiener_norm,
    write_snapshot,
    write_report_json,
    write_trace_csv,
)
from torusflow.config import (KINDS, MAX_GRID, MAX_N, MAX_P, MAX_STEPS, InitialDataSpec,
                              NormalizeSpec, OutputSpec, RunConfig)
from torusflow.models import make_rhs
from torusflow.output import CSV_HEADER
from _helpers import random_field


def minimal_epitaxial(**overrides):
    cfg = {
        "model": "epitaxial",
        "n": 4,
        "params": {"K2": 1.0},
        "initial_data": {"kind": "modes", "modes": [[1, 0, 0.5, 0.0], [-1, 0, 0.5, 0.0]],
                         "zero_mean": False},
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_config_fills_documented_defaults(self):
        cfg = parse_config(minimal_epitaxial())
        assert cfg.params == EpitaxialParams(K0=0.0, K1=0.0, K2=1.0, K3=0.0)
        assert cfg.stepper.scheme == "ETD2"
        assert cfg.stepper.dt == 1e-3
        assert cfg.stepper.t_end == 1.0
        assert cfg.stepper.record_every == 10
        assert cfg.stepper.blowup_threshold is None
        assert cfg.outputs.directory == "."
        assert cfg.outputs.trace_csv == "trace.csv"
        assert cfg.outputs.report_json == "report.json"
        assert cfg.outputs.snapshot_every == 0
        assert cfg.seed == 0

    def test_k2_zero_rejected_with_message(self):
        raw = minimal_epitaxial(params={"K2": 0.0})
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert any("K2 > 0" in msg for msg in exc.value.errors)

    def test_unknown_keys_are_errors(self):
        raw = minimal_epitaxial()
        raw["extra"] = 1
        raw["params"]["K9"] = 1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        msgs = " | ".join(exc.value.errors)
        assert "extra: unknown key" in msgs
        assert "params.K9: unknown key" in msgs

    def test_multiple_violations_reported_at_once(self):
        raw = {
            "model": "thinfilm",
            "n": 0,
            "params": {"chi": 1.5, "p": 2.5},
            "initial_data": {"kind": "nope"},
            "stepper": {"dt": -1.0},
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        msgs = " | ".join(exc.value.errors)
        for frag in ("n:", "chi", "p", "kind", "dt"):
            assert frag in msgs

    def test_round_trip(self):
        raw = {
            "model": "thinfilm",
            "n": 6,
            "params": {"chi": 0.25, "p": 3, "c_estimate": 2.0},
            "initial_data": {"kind": "random_decay", "amplitude": 0.1, "sigma": 2.5,
                             "zero_mean": True,
                             "normalize": {"norm": "a0", "value": 0.2}},
            "stepper": {"scheme": "IMEX1", "dt": 0.01, "t_end": 2.0, "record_every": 5,
                        "blowup_threshold": 100.0},
            "outputs": {"directory": "out", "trace_csv": "t.csv", "report_json": "r.json",
                        "snapshot_every": 50, "snapshot_prefix": "snap"},
            "seed": 7,
        }
        cfg = parse_config(raw)
        again = parse_config(config_to_dict(cfg))
        assert again == cfg

    @pytest.mark.parametrize("raw, errors", [
        (minimal_epitaxial(model="thinfilm", params={"p": 3}), ["params.chi: required"]),
        (minimal_epitaxial(params={"K1": 0.5}), ["params.K2: required"]),
        ({"model": "epitaxial", "n": 4, "params": {"K2": 1.0}}, ["initial_data: required"]),
        (minimal_epitaxial(initial_data="modes"), ["initial_data: must be an object"]),
        ([minimal_epitaxial()], ["config: must be a JSON object"]),
    ], ids=["chi", "K2", "initial_data", "initial_data_type", "config_type"])
    def test_missing_or_mistyped_section(self, raw, errors):
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert exc.value.errors == errors

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("section,key,value", [
        (None, "n", 10**31),
        (None, "seed", 10**31),
        ("params", "p", -10**31),
        ("stepper", "record_every", 10**31),
        ("params", "K2", 10**400),
    ], ids=["n", "seed", "p", "record_every", "K2"])
    def test_oversized_integer_rejected_with_message(self, section, key, value):
        raw = minimal_epitaxial()
        if key == "p":
            raw.update(model="thinfilm", params={"chi": 0.3, "p": 3})
            raw["initial_data"]["zero_mean"] = True
        target = raw if section is None else raw.setdefault(section, {})
        target[key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        assert [msg.split(":")[0] for msg in exc.value.errors] == \
            [key if section is None else f"{section}.{key}"]

    def test_load_config_overlong_integer(self, tmp_path):
        p = tmp_path / "long.json"
        p.write_text('{"n": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)

    def test_mode_outside_cutoff_rejected(self):
        raw = minimal_epitaxial(n=1)
        raw["initial_data"]["modes"] = [[2, 0, 0.5, 0.0], [-2, 0, 0.5, 0.0]]
        with pytest.raises(ConfigError, match="outside cutoff"):
            parse_config(raw)


def thinfilm(n, p, **overrides):
    return minimal_epitaxial(model="thinfilm", n=n, params={"chi": 0.3, "p": p},
                             **overrides)


def parse_errors(raw):
    """parse_config's violations, checked to come without a grid-sized
    allocation."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    return exc.value.errors


class TestResourceCaps:
    def test_n_cap(self):
        errors = parse_errors(minimal_epitaxial(n=10**18))
        assert [msg.split(":")[0] for msg in errors] == ["n"]
        assert parse_errors(minimal_epitaxial(n=MAX_N + 1))[0].startswith("n:")

    def test_p_factorial_cap(self):
        assert math.isfinite(float(math.factorial(MAX_P)))
        errors = parse_errors(thinfilm(4, 200))
        assert [msg.split(":")[0] for msg in errors] == ["params.p"]
        assert parse_errors(thinfilm(4, MAX_P + 1))[0].startswith("params.p:")

    def test_power_grid_cap(self):
        # (p+1)n+1 = 171 * 24 + 1 = 4105 points per axis
        errors = parse_errors(thinfilm(24, MAX_P))
        assert len(errors) == 1
        assert errors[0].startswith("params.p: the power grid")

    def test_step_count_cap(self):
        errors = parse_errors(minimal_epitaxial(stepper={"dt": 1e-300, "t_end": 1.0}))
        assert [msg.split(":")[0] for msg in errors] == ["stepper.t_end"]
        errors = parse_errors(minimal_epitaxial(stepper={"dt": 5e-324, "t_end": 1e300}))
        assert errors[0].startswith("stepper.t_end:")
        errors = parse_errors(minimal_epitaxial(stepper={"dt": 1.0, "t_end": MAX_STEPS + 1}))
        assert errors[0].startswith("stepper.t_end:")

    def test_the_last_step_time_must_be_finite(self):
        # round(1.7e308 / 1.1e308) = 2 steps: the last ends at 2.2e308
        errors = parse_errors(minimal_epitaxial(stepper={"dt": 1.1e308, "t_end": 1.7e308}))
        assert errors == ["stepper.t_end: the time of the last step, 2 x dt, passes the float range"]
        with pytest.raises(ValueError, match=r"^t_end: the time of the last step, 2 x dt"):
            StepperConfig(dt=1.1e308, t_end=1.7e308)
        assert StepperConfig(dt=1.7e308, t_end=1.7e308).steps == 1
        # past the cap, the cap alone is reported, though t_end / dt is inf
        assert parse_errors(minimal_epitaxial(stepper={"dt": 5e-324, "t_end": 1e300})) == [
            f"stepper.t_end: t_end / dt = inf exceeds the cap of {MAX_STEPS} steps"]

    @pytest.mark.parametrize("dt, t_end, steps", [(1e-3, 1.0, 1000), (0.3, 0.45, 2), (0.3, 0.44, 1),
                                                  (1.0, MAX_STEPS + 0.4, MAX_STEPS)])
    def test_steps_is_round_t_end_over_dt(self, dt, t_end, steps):
        assert StepperConfig(dt=dt, t_end=t_end).steps == steps

    def test_configs_at_the_caps_are_accepted(self):
        assert parse_config(minimal_epitaxial(n=MAX_N)).n == MAX_N
        assert 3 * MAX_N + 1 <= MAX_GRID
        # (p+1)n+1 = 4096 exactly
        assert parse_config(thinfilm(63, 64)).params.p == 64
        assert parse_config(thinfilm(1, MAX_P)).params.p == MAX_P
        cfg = parse_config(minimal_epitaxial(stepper={"dt": 1.0, "t_end": MAX_STEPS}))
        assert round(cfg.stepper.t_end / cfg.stepper.dt) == MAX_STEPS


# Leaves for the sections of a config: values each field takes, and values
# no field takes or only some do.
VALID_LEAVES = {
    "K0": [0.0, 0.5], "K1": [0.0, 0.25], "K2": [1.0, 2], "K3": [0.0, 0.25],
    "chi": [0.3, 0.5], "p": [2, 3, MAX_P], "c_estimate": [1.0, 2],
    "scheme": ["ETD2", "IMEX1"], "dt": [1e-3, 0.01], "t_end": [0.02, 1.0, 1e5],
    "record_every": [1, 10], "blowup_threshold": [5.0, 1e300],
    # modes past the cutoff n = 4 break a row of RunConfig, not of InitialDataSpec
    "kind": list(KINDS), "modes": [[[1, 0, 0.5, 0.0], [-1, 0, 0.5, 0.0]], [[100, 0, 1, 0]]],
    "amplitude": [0.1, 1], "sigma": [0.0, 3.0], "path": ["snap.txt"], "zero_mean": [True, False],
    "norm": ["a0", "a2"], "value": [0.5, 1e-3],
    "directory": ["out"], "trace_csv": ["t.csv"], "report_json": ["r.json"],
    "snapshot_every": [0, 5], "snapshot_prefix": ["snap"],
}
HOSTILE_LEAVES = [True, False, 10**400, -(10**400), 2**64, math.inf, -math.inf, math.nan,
                  1e-300, -1.0, 0, MAX_P + 1, 2.5, "1", "", "a3", [],
                  [[1, 0]], [[1.5, 0, 1, 0]], [[1, 0, "x", 0]]]
# one draw per leaf, valid about half the time (always, in a clean section):
# draws cost most of the budget
LEAF = {name: st.sampled_from(valid * (len(HOSTILE_LEAVES) // len(valid)) + HOSTILE_LEAVES)
        for name, valid in VALID_LEAVES.items()}
VALID = {name: st.sampled_from(valid) for name, valid in VALID_LEAVES.items()}


@st.composite
def _sections(draw):
    model = draw(st.sampled_from(["epitaxial", "thinfilm"]))
    cls = EpitaxialParams if model == "epitaxial" else ThinFilmParams

    def section(names):
        leaves = VALID if draw(st.booleans()) else LEAF
        return {name: draw(leaves[name]) for name in names}

    sections = {sec: section([f.name for f in dataclasses.fields(c)])
                for sec, c in (("params", cls), ("stepper", StepperConfig), ("outputs", OutputSpec))}
    # a kind, the fields of some kind, zero_mean and perhaps a normalize block
    initial = section(("kind", *draw(st.sampled_from(list(KINDS.values()))), "zero_mean"))
    if draw(st.booleans()):
        initial["normalize"] = section(("norm", "value"))
    return model, cls, {**sections, "initial_data": initial}


def _echo(section: dict, field: str):
    """The value a library message echoes for field, which may be modes[i]."""
    name, _, index = field.partition("[")
    return section[name][int(index[:-1])] if index else section.get(name)


DECAY = InitialDataSpec(kind="random_decay", amplitude=0.1, sigma=3.0)
MODES = InitialDataSpec(kind="modes", modes=((2, 0, 0.5, 0.0), (-2, 0, 0.5, 0.0)))


class TestOneRuleTable:
    """parse_config and the dataclasses apply one table of rules."""

    @pytest.mark.parametrize("build, field", [
        (lambda: ThinFilmParams(chi=0.5, p=10**6), "p"),
        (lambda: StepperConfig(dt=1e-300, t_end=1.0), "t_end"),
        (lambda: EpitaxialParams(K0=True), "K0"),
        (lambda: StepperConfig(dt=True, t_end=2), "dt"),
        (lambda: EpitaxialParams(K2="1"), "K2"),
        # (p+1)n+1 = 171 * 24 + 1 = 4105 points per axis
        (lambda: make_rhs("thinfilm", 24, ThinFilmParams(chi=0.5, p=MAX_P)), "p"),
        (lambda: make_rhs("epitaxial", MAX_N + 1, EpitaxialParams()), "n"),
        (lambda: NormalizeSpec("a2", -1.0), "value"),
        (lambda: NormalizeSpec("a3", 1.0), "norm"),
        (lambda: OutputSpec(snapshot_every=-3), "snapshot_every"),
        (lambda: OutputSpec(trace_csv=""), "trace_csv"),
        (lambda: RunConfig(model="bogus", n=4, params=EpitaxialParams(), initial_data=DECAY), "model"),
        (lambda: InitialDataSpec(kind="random_decay", amplitude=float("nan"), sigma=3.0), "amplitude"),
        (lambda: InitialDataSpec(kind="random_decay", amplitude=0.1), "sigma"),
        (lambda: InitialDataSpec(kind="modes", modes=((1, 0, 0.5, 0.0),), path="x"), "path"),
        (lambda: InitialDataSpec(kind="modes", modes=((1, 0.5, 0.5, 0.0),)), "modes[0]"),
        (lambda: RunConfig(model="thinfilm", n=4, params=EpitaxialParams(), initial_data=DECAY),
         "params"),
        (lambda: RunConfig(model="thinfilm", n=24, params=ThinFilmParams(chi=0.5, p=MAX_P),
                           initial_data=DECAY), "params.p"),
        (lambda: RunConfig(model="epitaxial", n=1, params=EpitaxialParams(), initial_data=MODES),
         "initial_data.modes[0]"),
    ], ids=["p_cap", "step_cap", "bool_K0", "bool_dt", "string_K2", "power_grid", "n_cap",
            "normalize_sign", "normalize_norm", "snapshot_every", "empty_trace_csv",
            "unknown_model", "nan_amplitude", "kind_needs_sigma", "kind_takes_no_path",
            "mode_entry", "params_type", "run_power_grid", "mode_cutoff"])
    def test_library_path_enforces_the_caps_and_domains(self, build, field):
        with pytest.raises(ValueError, match=f"^{re.escape(field)}: .*, got "):
            build()

    def test_numpy_scalars_are_accepted_and_stored_plain(self):
        tf = ThinFilmParams(chi=np.float32(0.5), p=np.int64(3))
        stepper = StepperConfig(dt=np.float64(0.1), t_end=1, record_every=np.int32(2))
        assert (tf.chi, tf.p, stepper.record_every, stepper.t_end) == (0.5, 3, 2, 1.0)
        assert {type(v) for v in (tf.p, stepper.record_every)} == {int}
        assert {type(v) for v in (tf.chi, stepper.t_end)} == {float}

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(_sections())
    def test_parser_and_dataclasses_agree(self, drawn):
        model, cls, sections = drawn
        raw = minimal_epitaxial(model=model, **sections)
        try:
            parse_config(raw)
            errors = []
        except ConfigError as e:
            errors = e.errors
        # the cutoff of the modes at n is a row of RunConfig, checked last
        top = [msg for msg in errors if "outside cutoff" in msg]
        initial = sections["initial_data"]
        built = {}
        for sec, build, given in (("params", cls, sections["params"]),
                                  ("stepper", StepperConfig, sections["stepper"]),
                                  ("outputs", OutputSpec, sections["outputs"]),
                                  ("initial_data.normalize", NormalizeSpec, initial.get("normalize")),
                                  ("initial_data", InitialDataSpec, initial)):
            if given is None:
                continue
            lines = [msg[len(sec) + 1:] for msg in errors if msg.startswith(sec + ".")
                     and msg not in top and not msg.startswith(sec + ".normalize.")]
            if sec == "initial_data":
                given = {**given, "normalize": built.get("initial_data.normalize")}
            try:
                built[sec] = build(**given)
                raised = None
            except ValueError as e:
                raised = str(e)
            assert (raised is None) == (not lines), (sec, lines, raised)
            if lines:
                # the parser shows the value when its type is wrong or the rule is untyped
                value = _echo(given, lines[0].split(":")[0])
                assert raised in (lines[0], f"{lines[0]}, got {value!r}"), (lines[0], raised)
        if len(built) == 4 + ("normalize" in initial):  # every section built
            try:
                RunConfig(model=model, n=4, params=built["params"], stepper=built["stepper"],
                          outputs=built["outputs"], initial_data=built["initial_data"])
                raised = None
            except ValueError as e:
                raised = str(e)
            assert (raised is None) == (not top), (top, raised)
            assert raised is None or raised.startswith(top[0] + ", got ")


class TestGenerateInitial:
    def test_modes_give_cosine(self):
        spec = InitialDataSpec(kind="modes",
                               modes=((1, 0, 0.5, 0.0), (-1, 0, 0.5, 0.0)),
                               zero_mean=True)
        f = generate_initial(spec, 4, seed=0)
        want = SpectralField.from_modes(4, [((1, 0), 0.5), ((-1, 0), 0.5)])
        assert np.array_equal(f.coeff, want.coeff)

    def test_random_decay_deterministic(self):
        spec = InitialDataSpec(kind="random_decay", amplitude=0.1, sigma=3.0)
        a = generate_initial(spec, 6, seed=42)
        b = generate_initial(spec, 6, seed=42)
        assert np.array_equal(a.coeff, b.coeff)
        c = generate_initial(spec, 6, seed=43)
        assert not np.array_equal(a.coeff, c.coeff)

    def test_random_decay_zero_mean_norm_by_direct_sum(self):
        spec = InitialDataSpec(kind="random_decay", amplitude=0.1, sigma=3.0,
                               zero_mean=True)
        f = generate_initial(spec, 6, seed=5)
        assert f.coeff[6, 6] == 0.0
        direct = math.fsum(np.abs(f.coeff).ravel().tolist())
        assert wiener_norm(f, 0) == direct

    def test_random_decay_matches_the_per_mode_draw(self):
        # random_field draws and stores one mode at a time, in the same order,
        # and leaves the mean zero; it symmetrizes once, as zero_mean=False
        # does, so signed and underflowed zeros (sigma = 400, 1e6) compare too
        for n in (1, 2, 5, 8, 13, 20, 32):
            for sigma in (0.0, 0.5, 1.0, 2.0, 3.0, 3.7, 7.25, 400.0, 1e6):
                for amplitude in (1e-3, 0.1, 1.0, 1e200):
                    for seed in (0, 7, 2**64 - 1):
                        spec = InitialDataSpec(kind="random_decay", amplitude=amplitude,
                                               sigma=sigma, zero_mean=False)
                        got = generate_initial(spec, n, seed).coeff
                        want = random_field(n, seed, amplitude=amplitude, sigma=sigma).coeff
                        assert got.tobytes() == want.tobytes(), (n, sigma, amplitude, seed)

    def test_zero_mean_field_is_built_in_one_pass(self):
        # the mean of random_decay data is zero already; a second
        # symmetrization pass for zero_mean=True would turn the -0.0 parts of
        # underflowed coefficients into +0.0
        for n in (1, 2, 5, 8, 13):
            for amplitude in (1e-3, 0.1, 1.0, 1e200):
                for seed in (0, 7, 2**64 - 1):
                    spec = InitialDataSpec(kind="random_decay", amplitude=amplitude,
                                           sigma=400.0, zero_mean=True)
                    got = generate_initial(spec, n, seed).coeff
                    want = random_field(n, seed, amplitude=amplitude, sigma=400.0).coeff
                    assert got.tobytes() == want.tobytes(), (n, amplitude, seed)

    def test_random_decay_magnitude_law(self):
        spec = InitialDataSpec(kind="random_decay", amplitude=0.2, sigma=2.0)
        f = generate_initial(spec, 5, seed=9)
        k1, k2 = 3, -2
        want = 0.2 * (k1 * k1 + k2 * k2) ** -1.0
        assert abs(abs(f.coeff[k1 + 5, k2 + 5]) - want) < 1e-15

    def test_normalize_hits_target(self):
        spec = InitialDataSpec(kind="random_decay", amplitude=0.1, sigma=3.0,
                               normalize=NormalizeSpec(norm="a2", value=0.5))
        f = generate_initial(spec, 6, seed=11)
        assert wiener_norm(f, 2) == pytest.approx(0.5, rel=1e-14)

    def test_snapshot_kind_round_trip(self, tmp_path):
        f = random_field(5, seed=12)
        p = tmp_path / "snap.txt"
        write_snapshot(f, p)
        spec = InitialDataSpec(kind="snapshot", path=str(p), zero_mean=True)
        g = generate_initial(spec, 5, seed=0)
        assert np.array_equal(g.coeff, f.coeff)

    def test_snapshot_invalid_rejected(self, tmp_path):
        p = tmp_path / "snap.txt"
        p.write_text("garbage\n")
        spec = InitialDataSpec(kind="snapshot", path=str(p))
        with pytest.raises(ValueError):
            generate_initial(spec, 5, seed=0)


class TestPrepareInitial:
    def test_epitaxial_passthrough(self):
        cfg = parse_config(minimal_epitaxial())
        f, meta = prepare_initial(cfg)
        assert meta["variable"] == "u"
        assert wiener_norm(f, 0) == pytest.approx(1.0)

    def test_thinfilm_accepts_mean_one_u0(self):
        raw = {
            "model": "thinfilm", "n": 4,
            "params": {"chi": 0.1, "p": 2},
            "initial_data": {"kind": "modes",
                             "modes": [[0, 0, 1.0, 0.0], [1, 0, 0.05, 0.0], [-1, 0, 0.05, 0.0]],
                             "zero_mean": False},
        }
        v, meta = prepare_initial(parse_config(raw))
        assert meta["variable"] == "v"
        assert v.coeff[4, 4] == 0.0
        assert abs(v.coeff[5, 4] - 0.05) < 1e-15

    def test_thinfilm_accepts_zero_mean_fluctuation(self):
        raw = {
            "model": "thinfilm", "n": 4,
            "params": {"chi": 0.1, "p": 2},
            "initial_data": {"kind": "random_decay", "amplitude": 0.02, "sigma": 3.0},
        }
        v, meta = prepare_initial(parse_config(raw))
        assert v.coeff[4, 4] == 0.0

    def test_thinfilm_rejects_other_means(self):
        raw = {
            "model": "thinfilm", "n": 4,
            "params": {"chi": 0.1, "p": 2},
            "initial_data": {"kind": "modes", "modes": [[0, 0, 0.5, 0.0]],
                             "zero_mean": False},
        }
        with pytest.raises(ConfigError, match="mean 1"):
            prepare_initial(parse_config(raw))


class TestTraceCsv:
    def test_header_exact(self, tmp_path):
        p = tmp_path / "trace.csv"
        write_trace_csv(NormTrace.from_rows([]), p)
        assert p.read_text() == CSV_HEADER + "\n"

    def test_three_row_round_trip(self, tmp_path):
        rows = [
            (0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 0.01),
            (0.1, 0.9, 1.8, 2.7, 3.6, 0.5, 0.01),
            (0.2, 1 / 3, 2 / 3, 1 / 7, 4 / 7, 0.5, 0.01),
        ]
        trace = NormTrace.from_rows(rows)
        p = tmp_path / "trace.csv"
        write_trace_csv(trace, p)
        text = p.read_text().splitlines()
        assert len(text) == 4
        back = read_trace_csv(p)
        for name in ("t", "a0", "a2", "a4", "a6", "mean", "dt_used"):
            assert np.array_equal(getattr(back, name), getattr(trace, name))

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("time,a0\n0,1\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(p)


class TestReportJson:
    def test_report_round_trip(self, tmp_path):
        report = {"theorems": [{"theorem_id": "EpitaxialA2_K0zero", "satisfied": True,
                                "lambda": 0.5, "margin": 0.5, "inputs": {"K2": 1.0}}],
                  "envelope": None}
        p = tmp_path / "report.json"
        write_report_json(report, p)
        assert json.loads(p.read_text()) == report
