import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusflow import (
    EpitaxialParams,
    ModeSet,
    SpectralField,
    StepperConfig,
    ThinFilmParams,
    execute_run,
    inner,
    norm_vector,
    parse_config,
    read_snapshot,
    run_sweep,
    simulate,
    wiener_norm,
    with_cutoff,
    write_snapshot,
)
from torusflow import spectral
from torusflow.spectral import _extract, _fast_len, _pad_size, _TransformPlan
from torusflow.models import EpitaxialRhs, ThinFilmRhs, make_rhs
from _helpers import brute_bilinear, held_after, max_abs_diff, random_field, w_plain
from oracles import convolve, per_line_snapshot, row_terms, scale_modes, symbols


def cos_x1(n=4, eps=1.0):
    return SpectralField.from_modes(n, [((1, 0), eps / 2), ((-1, 0), eps / 2)])


class TestConstruction:
    def test_rejects_non_hermitian(self):
        c = np.zeros((9, 9), dtype=complex)
        c[5, 4] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralField(ModeSet(4), c)

    def test_rejects_non_finite(self):
        c = np.zeros((9, 9), dtype=complex)
        c[4, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            SpectralField(ModeSet(4), c)

    @pytest.mark.parametrize("value", [1e308, complex(1.5e308, 1.5e308)])
    def test_coefficients_near_float_max_are_kept(self, value):
        # c + flip(c) overflows here; symmetrizing must not
        f = SpectralField.from_modes(4, [((1, 0), value), ((-1, 0), np.conj(value))])
        assert f.coeff[5, 4] == value

    def test_rejects_infinite_asymmetry(self):
        # the deviation and the scale both pass the float range
        v = complex(1.5e308, 1.5e308)
        with pytest.raises(ValueError, match="Hermitian"):
            SpectralField.from_modes(4, [((1, 0), v), ((-1, 0), -v)])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="coefficient array"):
            SpectralField(ModeSet(4), np.zeros((3, 3), dtype=complex))

    def test_coefficients_read_only(self):
        f = cos_x1()
        with pytest.raises(ValueError):
            f.coeff[0, 0] = 1.0

    def test_mode_cutoff_validation(self):
        with pytest.raises(ValueError):
            ModeSet(0)
        with pytest.raises(ValueError):
            ModeSet(2.5)

    def test_from_modes_out_of_range(self):
        with pytest.raises(ValueError, match="outside cutoff"):
            SpectralField.from_modes(2, [((3, 0), 1.0)])

    @pytest.mark.parametrize("value", [5e-324, 1.5e-323, complex(5e-324, -1.5e-323)])
    def test_exactly_hermitian_subnormals_are_kept(self, value):
        # averaging an entry with its equal mirror would round an odd
        # multiple of 2^-1074 to even: 5e-324 to 0, 1.5e-323 to 2e-323
        f = SpectralField.from_modes(2, [((1, 0), value), ((-1, 0), np.conj(value))])
        assert f.coeff[3, 2] == value
        assert f.coeff[1, 2] == np.conj(value)

    def test_near_hermitian_data_is_averaged_as_before(self):
        # within the tolerance, each entry differs from its mirror and gets
        # 0.5 c + 0.5 conj(c(-k)), the bits of averaging every entry
        rng = np.random.default_rng(4)
        c = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        c = (0.5 * c + 0.5 * np.conj(c[::-1, ::-1])) * (1.0 + 1e-13 * rng.standard_normal((9, 9)))
        want = 0.5 * c + 0.5 * np.conj(c[::-1, ::-1])
        assert SpectralField(ModeSet(4), c).coeff.tobytes() == want.tobytes()

    def test_from_half_mirrors_the_half_block(self):
        n = 3
        half = random_field(n, seed=6).half.copy()
        half[n + 1, 1] = 5e-324  # kept: no symmetrization pass
        f = SpectralField._from_half(ModeSet(n), half)
        assert f.half.tobytes() == np.ascontiguousarray(half).tobytes()
        lower = np.ascontiguousarray(f.coeff[::-1, n - 1 :: -1])
        assert lower.tobytes() == np.conj(half[:, 1:]).tobytes()
        assert f.coeff[n - 1, n - 1] == 5e-324
        with pytest.raises(ValueError):
            f.coeff[0, 0] = 1.0

    def test_from_half_refuses_a_non_finite_coefficient(self):
        half = np.zeros((5, 3), dtype=complex)
        half[1, 2] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="^non-finite Fourier coefficient$"):
            SpectralField._from_half(ModeSet(2), half)


class TestHalfBlockStorage:
    """A field stores its k2 >= 0 half block; coeff is derived from it."""

    def test_from_half_allocates_the_half_block_alone(self):
        n, modes = 256, ModeSet(256)
        half = np.zeros((modes.size, n + 1), dtype=np.complex128)
        half[n + 1 :, 1:] = 1.0 + 2.0j
        tracemalloc.start()
        try:
            f = SpectralField._from_half(modes, half)
            built = tracemalloc.get_traced_memory()[1]  # 2.1 MB; the full array is 4.2 MB
            before = tracemalloc.get_traced_memory()[0]
            c = f.coeff
            first = tracemalloc.get_traced_memory()[0] - before
            again = f.coeff
            second = tracemalloc.get_traced_memory()[0] - before - first
        finally:
            tracemalloc.stop()
        assert built <= half.nbytes + 64 * 1024 < c.nbytes
        assert again is c and first >= c.nbytes and second < 1024  # built once, on first read
        for a in (f.half, c):
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
        with pytest.raises(AttributeError):
            f.coeff = c

    @pytest.mark.parametrize("model, params, initial_data", [
        ("thinfilm", {"chi": 0.3, "p": 3},
         {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0,
          "normalize": {"norm": "a0", "value": 0.05}}),
        # outside data that the constructor checks, kept with its mean
        ("epitaxial", {"K1": 0.25, "K2": 1.0, "K3": 0.25},
         {"kind": "modes", "zero_mean": False,
          "modes": [[0, 0, 0.5, 0], [1, 1, 0.05, 0], [-1, -1, 0.05, 0], [2, -1, 0, 0.03], [-2, 1, 0, -0.03]]}),
    ])
    def test_a_run_reads_no_coeff(self, tmp_path, monkeypatch, model, params, initial_data):
        # preparing, stepping, recording, the snapshot writer and the reports
        # all read half blocks
        monkeypatch.setattr(SpectralField, "coeff", property(lambda f: pytest.fail("coeff was read")))
        cfg = parse_config({"model": model, "n": 6, "params": params, "initial_data": initial_data,
                            "stepper": {"dt": 1e-3, "t_end": 0.01, "record_every": 2},
                            "outputs": {"snapshot_every": 5}})
        assert execute_run(cfg, str(tmp_path)).outcome.status == "completed"
        assert len(list(tmp_path.glob("snapshot_*.txt"))) == 3

    def test_no_command_reads_coeff(self, tmp_path, monkeypatch, capsys):
        import json
        from torusflow.cli import main

        monkeypatch.setattr(SpectralField, "coeff", property(lambda f: pytest.fail("coeff was read")))
        monkeypatch.chdir(tmp_path)
        configs = Path(__file__).resolve().parent / "configs"
        tf, axes = str(configs / "tf.json"), str(configs / "axes.json")
        restart = json.loads((configs / "tf.json").read_text())
        restart["initial_data"] = {"kind": "snapshot", "path": "o/snapshot_00000010.txt"}
        restart["stepper"]["t_end"] = 0.01
        (tmp_path / "r.json").write_text(json.dumps(restart))
        for argv in (["check", tf], ["simulate", tf, "--outdir", "o"],
                     ["sweep", tf, axes, "--outdir", "sw"],
                     ["convergence", tf, "--levels", "1"],
                     ["verify", "o/trace.csv", "--lambda", "0.5", "--norm", "a2"],
                     ["simulate", "r.json", "--outdir", "r"]):
            assert main(argv) == 0, argv
        assert (tmp_path / "r" / "snapshot_00000010.txt").read_bytes() == \
            (tmp_path / "o" / "snapshot_00000020.txt").read_bytes()

    def test_theory_and_per_term_functions_read_no_coeff(self, monkeypatch):
        from torusflow import (TimeProfile, delta_of_delta_sq, epitaxial_rhs, hessian_det2,
                               monitor_apriori_A2, power_term, thinfilm_rhs, weak_residual)

        monkeypatch.setattr(SpectralField, "coeff", property(lambda f: pytest.fail("coeff was read")))
        u, params = random_field(5, seed=7), EpitaxialParams(K1=0.25, K2=1.0, K3=0.25)
        for term in (hessian_det2(u), delta_of_delta_sq(u), epitaxial_rhs(u, params),
                     power_term(u, 3), thinfilm_rhs(u, ThinFilmParams(chi=0.3, p=3))):
            assert term.half.shape == u.half.shape
        assert all(map(math.isfinite, monitor_apriori_A2(u, params)))
        states = [random_field(5, seed=s) for s in range(3)]
        assert math.isfinite(weak_residual([0.0, 0.5, 1.0], states, cos_x1(5),
                                           TimeProfile.vanishing_at(1.0), "epitaxial", params))

    def test_weak_residual_derives_no_coeff(self):
        from torusflow import TimeProfile, weak_residual

        states, phi = [random_field(16, seed=s) for s in range(5)], cos_x1(16)
        weak_residual(np.linspace(0.0, 1.0, 5), states, phi, TimeProfile.vanishing_at(1.0),
                      "epitaxial", EpitaxialParams(K1=0.25, K2=1.0))
        assert not any("coeff" in vars(f) for f in (*states, phi))


class TestProject:
    """Galerkin truncation, which a snapshot of a larger cutoff takes
    through with_cutoff."""

    def test_truncates_high_modes(self):
        f = random_field(5, seed=3, sigma=0.0)
        g = with_cutoff(f, 3)
        assert g.n == 3
        assert np.array_equal(g.coeff, f.coeff[2:9, 2:9])

    def test_projection_contracts_a0(self):
        # direct coefficient sums on both sides
        f = random_field(8, seed=5, sigma=1.0)
        g = with_cutoff(f, 4)
        s_f = math.fsum(np.abs(f.coeff).ravel().tolist())
        s_g = math.fsum(np.abs(g.coeff).ravel().tolist())
        assert s_g <= s_f
        assert wiener_norm(g, 0) <= wiener_norm(f, 0)

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            with_cutoff(cos_x1(), 0)


class TestWienerNorm:
    def test_single_unit_mode(self):
        f = cos_x1(eps=0.7)
        for s in (0, 2, 4):
            assert wiener_norm(f, s) == pytest.approx(0.7, abs=1e-15)

    def test_zero_field(self):
        z = SpectralField.zeros(5)
        for s in (0, 1, 2, 6):
            assert wiener_norm(z, s) == 0.0

    def test_two_mode_hand_value(self):
        # cos x1 + cos 2 x2: A^2 = 1*1 + 4*1 = 5
        f = SpectralField.from_modes(
            4, [((1, 0), 0.5), ((-1, 0), 0.5), ((0, 2), 0.5), ((0, -2), 0.5)])
        assert wiener_norm(f, 2) == pytest.approx(5.0, abs=1e-14)
        assert wiener_norm(f, 0) == pytest.approx(2.0, abs=1e-15)

    def test_mean_in_a0_only(self):
        f = SpectralField.from_modes(3, [((0, 0), 0.25)])
        assert wiener_norm(f, 0) == 0.25
        assert wiener_norm(f, 2) == 0.0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            wiener_norm(cos_x1(), -1.0)

    @pytest.mark.parametrize("modes, names", [
        ([((3, 3), 1e306)], {"a4", "a6"}),  # |k|^s |uhat| overflows
        ([((1, 0), 5e307), ((2, 0), 5e307)], {"a0", "a2", "a4", "a6"}),  # the sum overflows
        ([((1, 0), complex(1.5e308, 1.5e308))], {"a0", "a2", "a4", "a6"}),  # |uhat| overflows
    ])
    def test_overflow_is_inf(self, modes, names):
        f = SpectralField.from_modes(4, modes + [((-k1, -k2), np.conj(v)) for (k1, k2), v in modes])
        nv = norm_vector(f)
        for name, s in (("a0", 0), ("a2", 2), ("a4", 4), ("a6", 6)):
            assert math.isinf(getattr(nv, name)) == (name in names)
            assert math.isinf(wiener_norm(f, s)) == (name in names)

    def test_norm_vector_matches(self):
        f = random_field(6, seed=9)
        nv = norm_vector(f)
        assert nv.a0 == wiener_norm(f, 0)
        assert nv.a2 == wiener_norm(f, 2)
        assert nv.a4 == wiener_norm(f, 4)
        assert nv.a6 == wiener_norm(f, 6)


def _full_plane_fsum(f, s):
    """Independent oracle: math.fsum of |k|^s |uhat(k)| over every mode."""
    with np.errstate(over="ignore"):
        terms = (f.modes.abs2 ** (s / 2.0) * np.abs(f.coeff)).ravel().tolist()
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


class TestHalfPlaneNorms:
    """The norms sum the k2 >= 0 half; they must equal the full-plane fsum
    bit for bit, subnormal and overflowing terms included."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 24, 64])
    def test_bit_identical_to_full_plane_fsum(self, n):
        rng = np.random.default_rng(n)
        size = 2 * n + 1
        for exponent in (-320, -310, -300, -150, -20, 0, 20, 150, 300, 305):
            # magnitudes spread over six decades around the scale
            mag = 10.0 ** (exponent + rng.uniform(-3.0, 3.0, (size, size)))
            c = mag * np.exp(2j * np.pi * rng.uniform(size=(size, size)))
            c = 0.5 * c + 0.5 * np.conj(c[::-1, ::-1])
            c[n, n] = c[n, n].real
            f = SpectralField(ModeSet(n), c)
            for s in (0, 0.5, 1, 2, 3, 4, 6):
                assert wiener_norm(f, s) == _full_plane_fsum(f, s), (exponent, s)
            nv = norm_vector(f)
            assert (nv.a0, nv.a2, nv.a4, nv.a6) == tuple(
                _full_plane_fsum(f, s) for s in (0, 2, 4, 6)), exponent


def _fsum_rows(t):
    """Independent oracle: math.fsum of each row, inf where it overflows."""
    sums = []
    for row in t.tolist():
        try:
            sums.append(math.fsum(row))
        except OverflowError:
            sums.append(math.inf)
    return sums


def _unit_sums(t):
    """spectral._row_sums of the rows of t themselves: unit weights, no doubling."""
    return spectral._row_sums(t, np.ones((1, t.shape[1])), np.ones(t.shape[1]))


@st.composite
def term_arrays(draw):
    """(R, M) arrays of terms >= 0: ordinary, subnormal, full-range and
    near-float-max magnitudes, some zeros, and inf or nan in some rows; and
    rows made to test the certified split: exact ties of the round to even
    (2^53 + 1), rows just off a tie (2^53 + 1 + 2^-60), one dominant term
    with many tiny ones, subnormal-only rows of a few units of 2^-1074, and
    rows whose M max straddles 2^1020, where _row_sums with unit weights
    hands the call to math.fsum, each scaled by its own power of 2."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from(["unit", "decades", "subnormal", "full_range", "near_max", "tie",
                                  "near_tie", "dominant", "few_units", "straddle"]))
    row_scale = np.ldexp(1.0, rng.integers(-960, 900, (shape[0], 1)))
    if scale == "unit":
        t = np.abs(rng.standard_normal(shape))
    elif scale == "decades":
        t = 10.0 ** rng.uniform(-30.0, 30.0, shape)
    elif scale == "subnormal":
        t = rng.uniform(0.0, 2.0**-1022, shape)
    elif scale == "full_range":
        t = np.ldexp(rng.uniform(1.0, 2.0, shape), rng.integers(-1074, 1024, shape))
    elif scale == "near_max":  # two such terms already pass the float range
        t = rng.uniform(0.5, 1.0, shape) * sys.float_info.max
    elif scale in ("tie", "near_tie"):  # 2^53 + 1 rounds to 2^53, 2^53 + 1 + 2^-60 up
        t = np.zeros(shape)
        t[:, :3] = [2.0**53, 1.0, 2.0**-60 if scale == "near_tie" else 0.0][: shape[1]]
        t = rng.permuted(t, axis=1) * row_scale
    elif scale == "dominant":
        t = rng.uniform(0.0, 2.0**-60, shape)
        t[:, rng.integers(shape[1])] = 1.0
        t *= row_scale
    elif scale == "few_units":  # subnormal-only: sums of a few units of 2^-1074
        t = rng.integers(0, 8, shape) * 2.0**-1074
    else:  # straddle: M max from 2^1019 to 2^1024, the largest term first
        t = rng.uniform(0.0, 1.0, shape)
        t[:, 0] = 1.0
        t *= np.ldexp(rng.uniform(0.5, 1.0, (shape[0], 1)), rng.integers(1020, 1025, (shape[0], 1))) / shape[1]
    t[rng.uniform(size=shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    special = draw(st.sampled_from([None, math.inf, math.nan]))
    if special is not None:
        t[rng.uniform(size=shape) < 1e-3] = special
    return t


class TestBinnedSums:
    """_row_sums, with unit weights, splits the terms exactly and certifies
    each row's sum or hands the row to math.fsum; every row must equal
    math.fsum of its terms bit for bit."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(term_arrays())
    def test_bit_identical_to_fsum(self, t):
        want = _fsum_rows(t)
        assert np.array(_unit_sums(t)).tobytes() == np.array(want).tobytes()

    def test_low_parts_that_round_below_a_tie(self):
        # the big term's high part is 2^53 + 2^10, where doubles are 2 apart;
        # the others are low parts, and added in order each rounds back to
        # 1 - 2^-52, while their exact sum is 1 + 2^-55: the rounded low sum
        # leaves s below the tie, the bound on its error must send the row
        # to math.fsum, which rounds up
        c = 0.45 * 2.0**-53
        row = [2.0**53 + 2.0**10, 1.0 - 2.0**-52, c, c, c, c, c]
        t = np.array([row]) * np.ldexp(1.0, np.array([[0], [-600], [600]]))
        assert _unit_sums(t) == _fsum_rows(t)
        assert _unit_sums(t)[0] == 2.0**53 + 2.0**10 + 2.0

    def test_long_rows_split_their_low_parts_again(self, monkeypatch):
        # 2^17 terms falling off like a smooth field's: the bound on the low
        # parts' rounding error passes half the gap of the sum, so each row
        # splits its low parts a second time, which certifies it
        k = np.arange(2.0**17)
        scale = np.ldexp(1.0, np.array([[0], [-900], [900]]))
        t = np.random.default_rng(3).uniform(0.5, 1.0, (3, k.size)) / (1.0 + k) ** 2 * scale
        fsum, certified, fallbacks, second = spectral._fsum, spectral._certified, [], []
        monkeypatch.setattr(spectral, "_fsum", lambda v: fallbacks.append(1) or fsum(v))
        monkeypatch.setattr(spectral, "_certified", lambda *v: second.append(len(v) == 4) or certified(*v))
        assert _unit_sums(t) == _fsum_rows(t)
        assert second == [False, True] * 3  # a block of one row each
        assert fallbacks == []

    def test_low_parts_of_low_parts_that_round_below_a_tie(self):
        # 1.5 and 2^17 - 1 parts v below 2^-69, which both splits leave
        # whole.  Each chunk of 8192 sums exactly, in any order, and the last
        # 8 chunk sums, added in turn, each lose 3/8 of a unit u = 2^-106:
        # sum v rounds to 2^-53 - 2u but is 2^-53 + u exactly, so 1.5 + sum v
        # passes the tie at 1.5 + 2^-53, and only the bound on that rounding
        # error keeps the second split from certifying 1.5
        u = 2.0**-106
        v = np.full((16, 8192), 2.0**-70)  # 2^49 u a chunk
        v[0, 0] = 1.5
        v[0, 1] = v[1, 0] = 1.5 * 2.0**-70  # the first 8 chunks sum to 2^-54
        v[8:, -1] += 3 * u / 8
        v[15, -1] -= 2 * u
        t = v.reshape(1, -1)
        assert _unit_sums(t) == _fsum_rows(t) == [1.5 + 2.0**-52]

    def test_a_full_bin(self):
        # 2^16 equal terms with all 53 mantissa bits set: each splits into a
        # high part rounded up and a low part of -2^-51 times its scale
        t = np.full((3, 2**16), np.nextafter(4.0, 0.0))
        t[1] *= 2.0**-1000
        t[2] *= 2.0**1000
        assert _unit_sums(t) == _fsum_rows(t)
        assert _unit_sums(t)[0] == 2**16 * np.nextafter(4.0, 0.0)


class TestWeightedSums:
    """The norm rows: terms w[i] |c| made chunk by chunk inside _row_sums,
    doubled where k2 > 0; every row must equal math.fsum of its terms."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(term_arrays(), st.integers(1, 40))
    def test_bit_identical_to_fsum(self, a, n):
        n = min(n, max(1, int(math.isqrt(a.shape[1] // 2))))
        M = (2 * n + 1) * (n + 1)
        a = np.resize(a, (a.shape[0], M))
        modes = ModeSet(n)
        w, twice = modes.norm_weights, modes.twice
        want = _fsum_rows(row_terms(a, w, twice))
        assert np.array(spectral._row_sums(a, w, twice)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 8, 24])
    def test_straddle_rows_scaled_by_the_largest_weight(self, monkeypatch, n):
        # term_arrays' straddle rows, divided by the largest weight (doubled)
        # and placed with their largest term on it: M max t runs from 2^1019
        # to 2^1024, across the call's overflow gate at 2^1021.  The rows
        # below it are certified near the float range, the others go to
        # math.fsum; every row must equal math.fsum bit for bit.
        modes = ModeSet(n)
        w, twice = modes.norm_weights, modes.twice
        M, top = w.shape[1], float(np.max(w * twice))
        certified, hits = spectral._certified, []

        def spy(*v):
            s = certified(*v)
            if s is not None:
                hits.append(s)
            return s

        monkeypatch.setattr(spectral, "_certified", spy)
        rng = np.random.default_rng(n)
        for e in range(1019, 1025):
            a = rng.uniform(0.0, 1.0, (3, M))
            a[:, np.argmax(w[-1] * twice)] = 1.0
            a *= np.ldexp(rng.uniform(0.5, 1.0, (3, 1)), e) / (M * top)
            want = _fsum_rows(row_terms(a, w, twice))
            assert np.array(spectral._row_sums(a, w, twice)).tobytes() == np.array(want).tobytes()
        assert max(hits) > 2.0**1010

    def test_zero_rows_need_no_certificate(self, monkeypatch):
        # a field that holds only its mean: its A^2, A^4 and A^6 rows are all
        # zero and sum to 0.0 before the second split and math.fsum
        f = SpectralField.from_modes(8, [((0, 0), 0.3)])
        want = _fsum_rows(row_terms(np.abs(f.half).reshape(1, -1), f.modes.norm_weights, f.modes.twice))
        fsum, certified, fallbacks, second = spectral._fsum, spectral._certified, [], []
        monkeypatch.setattr(spectral, "_fsum", lambda v: fallbacks.append(1) or fsum(v))
        monkeypatch.setattr(spectral, "_certified", lambda *v: second.append(len(v) == 4) or certified(*v))
        nv = norm_vector(f)
        assert np.array([nv.a0, nv.a2, nv.a4, nv.a6]).tobytes() == np.array(want).tobytes()
        assert want == [0.3, 0.0, 0.0, 0.0]
        assert fallbacks == [] and True not in second

    def test_a_norm_row_makes_no_large_temporary(self):
        # the (4, 129 * 65) terms of one n = 64 row are 268 KB; made and
        # split in chunks, the call holds the moduli (67 KB) and a few
        # chunk-sized arrays
        import tracemalloc

        f = random_field(64, 5)
        want = norm_vector(f)
        tracemalloc.start()
        try:
            assert norm_vector(f) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 384 * 1024

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("model, n, params, norm, stepper, values", [
        ("thinfilm", 24, {"chi": 0.3, "p": 3}, ("a0", 0.05), (1e-3, 0.1, 1), None),
        ("epitaxial", 32, {"K1": 0.25, "K2": 1.0, "K3": 0.25}, ("a2", 0.5), (1e-3, 0.05, 10), None),
        ("epitaxial", 8, {"K1": 0.25, "K2": 1.0, "K3": 0.25}, ("a2", 0.6), (2e-3, 0.1, 10),
         [0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4]),
    ], ids=["thinfilm_n24", "epitaxial_n32", "sweep_n8"])
    def test_rows_like_the_benchmarks_need_no_fsum(self, tmp_path, monkeypatch, seed, model, n,
                                                   params, norm, stepper, values):
        # the initial, trace and final rows of the benchmark's three configs
        # are all certified: math.fsum is never their path
        cfg = {"model": model, "n": n, "params": params, "seed": seed,
               "initial_data": {"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0,
                                "normalize": {"norm": norm[0], "value": norm[1]}},
               "stepper": dict(zip(("dt", "t_end", "record_every"), stepper))}
        fsum, row_sums = spectral._fsum, spectral._row_sums
        fallbacks, rows = [], []
        monkeypatch.setattr(spectral, "_fsum", lambda v: fallbacks.append(1) or fsum(v))
        monkeypatch.setattr(spectral, "_row_sums", lambda a, *w: rows.append(len(a)) or row_sums(a, *w))
        if values is None:
            assert execute_run(parse_config(cfg), str(tmp_path)).outcome.status == "completed"
        else:
            summary = run_sweep(cfg, [("initial_data.normalize.value", values)], str(tmp_path))
            assert [row["status"] for row in summary] == ["completed"] * len(values)
        assert sum(rows) >= round(stepper[1] / stepper[0]) // stepper[2] * len(values or [0])
        assert fallbacks == []


class TestConvolve:
    def test_constant_acts_as_delta(self):
        a = 0.37
        const = SpectralField.from_modes(5, [((0, 0), a)])
        g = random_field(5, seed=10)
        got = convolve(const, g)
        assert max_abs_diff(got.coeff, a * g.coeff) < 1e-15

    def test_unit_modes_product(self):
        # cos x1 * cos x2 has coefficients 1/4 at (+-1, +-1)
        f = cos_x1(4)
        g = SpectralField.from_modes(4, [((0, 1), 0.5), ((0, -1), 0.5)])
        got = convolve(f, g)
        want = SpectralField.from_modes(
            4, [((1, 1), 0.25), ((1, -1), 0.25), ((-1, 1), 0.25), ((-1, -1), 0.25)])
        assert max_abs_diff(got, want) < 1e-15

    @pytest.mark.parametrize("n", list(range(1, 17)))
    def test_fast_equals_direct(self, n):
        f = random_field(n, seed=20 + n, sigma=1.0)
        g = random_field(n, seed=40 + n, sigma=1.0)
        fast = convolve(f, g, method="fft")
        direct = convolve(f, g, method="direct")
        assert max_abs_diff(fast, direct) < 1e-12

    def test_direct_matches_brute_oracle(self):
        f = random_field(5, seed=1)
        g = random_field(5, seed=2)
        oracle = brute_bilinear(f, g, w_plain)
        assert max_abs_diff(convolve(f, g, method="direct").coeff, oracle) < 1e-14

    def test_commutative(self):
        f = random_field(6, seed=31)
        g = random_field(6, seed=32)
        assert max_abs_diff(convolve(f, g), convolve(g, f)) < 1e-15

    def test_mode_set_mismatch(self):
        with pytest.raises(ValueError, match="mode-set mismatch"):
            convolve(cos_x1(4), cos_x1(5))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            convolve(cos_x1(), cos_x1(), method="magic")


class TestModeMultiplier:
    """The derivative multipliers of the evaluators (their plans' stacks and
    the thin film's grad) and of the term-by-term oracles (oracles.symbols),
    on k2 >= 0 half blocks."""

    def test_laplacian_eigenfunction(self):
        f = cos_x1(eps=0.5)
        plan = EpitaxialRhs(4, EpitaxialParams()).plan
        assert not plan.mult.flags.writeable  # the plan marks its stack read-only
        u11, u22, _ = plan.mult
        assert max_abs_diff((u11 + u22) * f.half, -f.half) < 1e-16

    def test_biharmonic_hand_value(self):
        f = SpectralField.from_modes(4, [((2, 0), 0.5), ((-2, 0), 0.5)])
        _, bilap = symbols(4, "timesbilap")
        assert max_abs_diff(bilap * f.half, 16.0 * f.half) < 1e-14

    def test_derivative_of_sin(self):
        # d/dx1 sin x1 = cos x1
        f = SpectralField.from_modes(4, [((1, 0), -0.5j), ((-1, 0), 0.5j)])
        d1, _ = ThinFilmRhs(4, ThinFilmParams(chi=0.5, p=2)).grad
        assert max_abs_diff(d1 * f.half, cos_x1().half) < 1e-16


def _to_grid(half, n, N):
    """Samples of one half block through a plan of its own."""
    return _TransformPlan(n, N).to_grid(half)


def _from_grid(values, n):
    """Half block of real samples on an N x N grid through a plan of its own."""
    return _TransformPlan(n, values.shape[-1]).from_grid(values)


class TestTransforms:
    """The transform pair of the kernels: the samples u(2 pi a / N,
    2 pi b / N) of a half block, and back."""

    def test_cosine_sample_values(self):
        eps = 0.8
        f = cos_x1(3, eps=eps)
        s = _to_grid(f.half, 3, 8)
        want = eps * np.cos(2 * np.pi * np.arange(8) / 8)
        assert np.max(np.abs(s - want[:, None])) < 1e-14

    def test_round_trip(self):
        f = random_field(8, seed=77, sigma=1.0)
        back = SpectralField._from_half(f.modes, _from_grid(_to_grid(f.half, 8, 32), 8))
        assert max_abs_diff(back, f) < 1e-12

    def test_zero_field(self):
        assert np.all(_to_grid(SpectralField.zeros(3).half, 3, 10) == 0)

    def test_mean_recovered(self):
        f = random_field(4, seed=3, zero_mean=False)
        s = _to_grid(f.half, 4, 16)
        assert abs(s.mean() - f.mean) < 1e-14


class TestScaleModes:
    def test_a0_exactly_preserved(self):
        f = random_field(6, seed=50, sigma=1.0)
        g = scale_modes(f, 3)
        assert wiener_norm(g, 0) == wiener_norm(f, 0)

    def test_a2_scales_by_lambda_squared(self):
        f = cos_x1()
        g = scale_modes(f, 2)
        assert wiener_norm(g, 2) == pytest.approx(4.0 * wiener_norm(f, 2), rel=1e-15)

    def test_spectral_image_location(self):
        f = cos_x1(4)
        g = scale_modes(f, 3)
        assert g.n == 12
        assert g.coeff[12 + 3, 12] == 0.5
        assert np.count_nonzero(g.coeff) == 2

    def test_overflow_rejected(self):
        f = cos_x1(4)
        with pytest.raises(ValueError, match="overflow"):
            scale_modes(f, 3, n_out=2)

    def test_overflow_of_zero_coefficients_is_fine(self):
        f = cos_x1(4)  # only |k| = 1 populated
        g = scale_modes(f, 2, n_out=3)
        assert g.n == 3
        assert wiener_norm(g, 0) == 1.0

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            scale_modes(cos_x1(), 0)


class TestWithCutoff:
    def test_embed_and_truncate(self):
        f = random_field(4, seed=8)
        big = with_cutoff(f, 7)
        assert big.n == 7
        assert max_abs_diff(with_cutoff(big, 4), f) == 0.0


class TestInner:
    def test_parseval_cosine(self):
        # int cos^2 x1 over T^2 = 2 pi^2
        f = cos_x1()
        assert inner(f, f) == pytest.approx(2.0 * np.pi**2, rel=1e-14)

    def test_orthogonality(self):
        f = cos_x1(4)
        g = SpectralField.from_modes(4, [((0, 1), 0.5), ((0, -1), 0.5)])
        assert abs(inner(f, g)) < 1e-15

    def test_mode_set_mismatch(self):
        with pytest.raises(ValueError, match="^mode-set mismatch: n=4 vs n=5$"):
            inner(cos_x1(4), cos_x1(5))

    @pytest.mark.parametrize("n", [1, 2, 7, 16])
    def test_half_block_sum_matches_the_full_array(self, n):
        # a k2 > 0 term, doubled, stands for itself and its mirror: the full
        # sum and the half-block sum agree to roundoff
        for seed in range(5):
            f, g = random_field(n, seed=seed), random_field(n, seed=seed + 100, zero_mean=False)
            full = 4.0 * np.pi**2 * float(np.real(np.vdot(g.coeff, f.coeff)))
            scale = 4.0 * np.pi**2 * float(np.sum(np.abs(f.coeff) * np.abs(g.coeff)))
            assert abs(inner(f, g) - full) <= 1e-15 * scale


class TestSnapshot:
    def test_round_trip_exact(self, tmp_path):
        f = random_field(5, seed=60, zero_mean=False)
        p = tmp_path / "field.txt"
        write_snapshot(f, p)
        g = read_snapshot(p)
        assert np.array_equal(g.coeff, f.coeff)

    def test_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("not-a-snapshot n=3\n")
        with pytest.raises(ValueError, match="header"):
            read_snapshot(p)

    def test_hermitian_violation_rejected(self, tmp_path):
        f = SpectralField.zeros(1)
        p = tmp_path / "field.txt"
        write_snapshot(f, p)
        lines = p.read_text().splitlines()
        # corrupt uhat(1, 0) without touching uhat(-1, 0)
        lines[-2] = "1 0 0.5 0"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="Hermitian"):
            read_snapshot(p)

    def test_missing_lines_rejected(self, tmp_path):
        f = SpectralField.zeros(2)
        p = tmp_path / "field.txt"
        write_snapshot(f, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="expected"):
            read_snapshot(p)

    def test_reads_no_further_than_one_line_past_the_count(self, tmp_path):
        # a mode line too many, then a line no bounded read would end: the
        # count is refused before that line is reached
        f = SpectralField.zeros(1)
        p = tmp_path / "field.txt"
        write_snapshot(f, p)
        p.write_text(p.read_text() + "0 0 0 0\n" + "1" * 10**6)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: expected 9 mode lines, found more$"):
            read_snapshot(p)
        p.write_text(p.read_text().splitlines(True)[0] + "1" * 4097)
        with pytest.raises(ValueError, match="line 2 is longer than 4096 characters$"):
            read_snapshot(p)

    def test_duplicate_mode_rejected(self, tmp_path):
        f = SpectralField.zeros(1)
        p = tmp_path / "field.txt"
        write_snapshot(f, p)
        lines = p.read_text().splitlines()
        lines[1] = lines[2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_snapshot(p)


field_strategy = st.builds(
    random_field,
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    amplitude=st.floats(min_value=1e-3, max_value=1.0),
    sigma=st.floats(min_value=0.0, max_value=4.0),
)


class TestAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(field_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    def test_banach_algebra(self, f, seed2):
        g = random_field(f.n, seed2, amplitude=0.5, sigma=1.0)
        lhs = wiener_norm(convolve(f, g), 0)
        rhs = wiener_norm(f, 0) * wiener_norm(g, 0)
        assert lhs <= rhs + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(field_strategy)
    def test_interpolation(self, f):
        a0, a2, a4 = (wiener_norm(f, s) for s in (0, 2, 4))
        assert a2 <= math.sqrt(a0 * a4) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(field_strategy)
    def test_poincare_ordering(self, f):
        # zero-mean fields: |k| >= 1 on the support
        a0, a2, a4, a6 = (wiener_norm(f, s) for s in (0, 2, 4, 6))
        assert a0 <= a2 + 1e-12
        assert a2 <= a4 + 1e-12
        assert a4 <= a6 + 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(field_strategy, st.integers(min_value=0, max_value=2**31 - 1))
    def test_operations_preserve_hermitian_symmetry(self, f, seed2):
        # the raw half blocks of both kernels, alone and in a stack, before a
        # SpectralField symmetrizes them: each k2 = 0 column is its own
        # mirror, bit for bit (n = 1..6 gives even and odd N on both grids)
        c = np.stack([f.half, random_field(f.n, seed2).half])
        for rhs in (make_rhs("epitaxial", f.n, EpitaxialParams(K1=0.3, K3=0.2)),
                    make_rhs("thinfilm", f.n, ThinFilmParams(chi=0.3, p=3))):
            for out in (rhs.nonlinear(c), rhs.nonlinear(c[0])):
                col = out[..., 0]
                assert np.array_equal(col, np.conj(col[..., ::-1]))


class TestSnapshotBytes:
    @pytest.mark.parametrize("n", [1, 2, 8, 24, 32, 64, 200])
    def test_matches_per_line_writer(self, tmp_path, n):
        f = random_field(n, seed=61 + n, sigma=1.0, zero_mean=False)
        write_snapshot(f, tmp_path / "a.txt")
        per_line_snapshot(f, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_extreme_values_match_per_line_writer(self, tmp_path):
        f = SpectralField.from_modes(3, [
            ((1, 0), -0.0 + 5e-324j), ((-1, 0), -0.0 - 5e-324j),
            ((2, 1), -1.5e-320 + 1e-300j), ((-2, -1), -1.5e-320 - 1e-300j),
            ((0, 3), -1e308), ((0, -3), -1e308), ((0, 0), -0.0),
        ])
        write_snapshot(f, tmp_path / "a.txt")
        per_line_snapshot(f, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert "-1e+308" in (tmp_path / "a.txt").read_text()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_signed_zero_mirrors_match_per_line_writer(self, tmp_path, n):
        # data Hermitian up to signed zeros: the constructor keeps the k2 >= 0
        # half, the k2 < 0 half of coeff is its exact conjugate mirror, and
        # the field writes the bytes of the field of its half block
        rng = np.random.default_rng(n)
        size = 2 * n + 1
        c = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        for part in (c.real, c.imag):
            zero = rng.uniform(size=c.shape) < 0.3
            zero[:, n + 1] = True  # every k2 = 1 mode
            zero |= zero[::-1, ::-1]  # zero at k and at -k
            part[zero] = rng.choice([0.0, -0.0], size=c.shape)[zero]
        raw = 0.5 * c + 0.5 * np.conj(c[::-1, ::-1])  # Hermitian up to signed zeros

        def lower(a):  # the k2 < 0 half, reversed onto its k2 > 0 mirrors
            return np.ascontiguousarray(a[::-1, n - 1 :: -1]).tobytes()

        # some k2 < 0 part of the data is not bitwise the conjugate of its mirror
        assert lower(raw) != np.conj(raw[:, n + 1 :]).tobytes()
        f = SpectralField(ModeSet(n), raw)
        g = SpectralField._from_half(f.modes, f.half)
        for h, name in ((f, "f.txt"), (g, "g.txt")):
            assert lower(h.coeff) == np.conj(h.half[:, 1:]).tobytes()
            write_snapshot(h, tmp_path / name)
        per_line_snapshot(f, tmp_path / "b.txt")
        assert (tmp_path / "f.txt").read_bytes() == (tmp_path / "g.txt").read_bytes()
        assert (tmp_path / "f.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_averaged_zero_column_matches_per_line_writer(self, tmp_path, n):
        # _from_grid takes its k2 = 0 column through _extract's averaging
        samples = np.random.default_rng(n).standard_normal((2 * n + 4, 2 * n + 4))
        f = SpectralField._from_half(ModeSet(n), _from_grid(samples, n))
        write_snapshot(f, tmp_path / "a.txt")
        per_line_snapshot(f, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestTransformLayer:
    """A transform plan's pruned 1-D passes, against scipy's 2-D real
    transforms as the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 8, 24, 32, 64])
    @pytest.mark.parametrize("lead", [(), (3,), (8, 3)])
    def test_bit_identical_to_scipy(self, n, lead):
        sfft = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(n)
        stack = symbols(n, "gradlap")
        # the 3n+1 grid of the quadratic terms and the p = 3 thin-film power
        # grid; over these n each comes both even and odd
        for N in (_pad_size(n), _fast_len(4 * n + 1)):
            # no multiplier, then F = 1..4 fields of which the last F2 < F
            # (one, for F = 1) are the products, a slice of the grid
            for F in (None, 1, 2, 3, 4):
                mult = None if F is None else stack[:F]
                count = None if F is None else max(1, F - 1)
                half = rng.standard_normal(lead + (2 * n + 1, n + 1)) \
                    + 1j * rng.standard_normal(lead + (2 * n + 1, n + 1))
                fields = half if F is None else \
                    mult.reshape((F,) + (1,) * len(lead) + mult.shape[1:]) * half
                spec = np.zeros(fields.shape[:-2] + (N, N // 2 + 1), dtype=complex)
                spec[..., : n + 1, : n + 1] = fields[..., n:, :]
                spec[..., N - n :, : n + 1] = fields[..., :n, :]
                want = sfft.irfft2(spec, s=(N, N), norm="forward")
                plan = _TransformPlan(n, N, mult)
                for _ in range(2):  # a fresh plan, then the same plan reused
                    grid = plan.to_grid(half)
                    assert grid.tobytes() == want.tobytes()
                    products = grid if F is None else grid[F - count :]
                    products[...] = rng.standard_normal(products.shape)
                    back = _extract(sfft.rfft2(products, norm="forward")[..., : n + 1], n, N)
                    assert plan.from_grid(products).tobytes() == back.tobytes()

    def test_a_plan_resizes_to_each_stack(self):
        # B members, then B - 1 (members left the batch), then B again: each
        # call gives the bytes of a fresh plan, with and without multipliers
        n, N = 6, _pad_size(6)
        rng = np.random.default_rng(5)
        half = rng.standard_normal((4, 2 * n + 1, n + 1)) + 1j * rng.standard_normal((4, 2 * n + 1, n + 1))
        for mult in (None, symbols(n, "gradlap")[:3]):
            plan = _TransformPlan(n, N, mult)
            for stack in (half, half[:3], half, half[1]):
                fresh = _TransformPlan(n, N, mult)
                grid, want = plan.to_grid(stack), fresh.to_grid(stack)
                assert grid.tobytes() == want.tobytes()
                assert plan.from_grid(grid[1:]).tobytes() == fresh.from_grid(want[1:]).tobytes()

    def test_fast_len_matches_scipy(self):
        sfft = pytest.importorskip("scipy.fft")
        assert [_fast_len(t) for t in range(1, 4097)] == \
            [sfft.next_fast_len(t) for t in range(1, 4097)]

    @pytest.mark.parametrize("target, size", [
        (1, 1), (13, 14), (17, 18), (23, 24), (25, 25), (49, 49), (73, 75), (97, 98),
        (121, 121), (193, 196), (289, 294), (2311, 2352), (4096, 4096), (4097, 4116),
    ])
    def test_fast_len_table(self, target, size):
        assert _fast_len(target) == size

    def test_returned_samples_are_not_work_arrays(self):
        # each plan owns its arrays: another plan's calls leave them alone
        f, g = random_field(8, 1), random_field(8, 2)
        samples = _to_grid(f.half, 8, 26)
        kept = samples.copy()
        _to_grid(g.half, 8, 26)
        convolve(f, g)
        assert samples.tobytes() == kept.tobytes()

    def test_returned_half_blocks_are_fresh(self):
        # ETD2 holds N(u) while the same plan computes N(a)
        plan = _TransformPlan(8, 26)
        first = plan.from_grid(plan.to_grid(random_field(8, 1).half))
        kept = first.copy()
        plan.from_grid(plan.to_grid(random_field(8, 2).half))
        assert first.tobytes() == kept.tobytes()

    def test_a_finished_run_releases_its_work_arrays(self, tmp_path):
        # the run's evaluator owns its work arrays and multipliers, and its
        # snapshot writer the snapshot layout (1.7 MB at n = 64); nothing at
        # module level keeps them once the run returns or raises
        params = EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25)
        stepper = StepperConfig(dt=1e-4, t_end=2e-4)

        def run(n):
            assert simulate(random_field(n, 3), params, stepper, "epitaxial").status == "completed"

        def fail(step, t, field):
            if step:
                raise OSError("disk full")

        def run_failing(n):
            with pytest.raises(OSError):
                simulate(random_field(n, 3), params, stepper, "epitaxial", fail, 1)

        def run_with_snapshots(n):
            cfg = parse_config({
                "model": "thinfilm", "n": n, "params": {"chi": 0.3, "p": 3},
                "initial_data": {"kind": "random_decay", "amplitude": 0.05, "sigma": 3.0},
                "stepper": {"dt": 1e-4, "t_end": 2e-4}, "outputs": {"snapshot_every": 1}})
            assert execute_run(cfg, str(tmp_path / f"n{n}")).outcome.status == "completed"
            assert len(list((tmp_path / f"n{n}").glob("snapshot_*.txt"))) == 3

        for call in (run, run_failing, run_with_snapshots):
            call(48)
            assert held_after(call, 64) < 64 * 1024

    def test_a_norm_keeps_nothing_of_a_dropped_field(self):
        # the norm weights live on the field's mode set, and go with it
        def norm(n):
            norm_vector(random_field(n, 1))

        norm(80)
        assert held_after(norm, 96) < 64 * 1024

    def test_threads_do_not_share_work_arrays(self):
        # more threads than cores, switching often: shared work arrays would
        # mix the members' samples
        params = EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25)
        stepper = StepperConfig(dt=1e-3, t_end=0.3, record_every=1)
        fields = [random_field(8, 11 + i) for i in range(4)]
        alone = [simulate(u, params, stepper, "epitaxial") for u in fields]
        assert [o.status for o in alone] == ["completed"] * 4
        together = [None] * 4
        start = threading.Barrier(4)

        def run(i):
            start.wait()
            together[i] = simulate(fields[i], params, stepper, "epitaxial")

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(alone, together):
            for name in ("t", "a0", "a2", "a4", "a6", "mean"):
                assert getattr(a.trace, name).tobytes() == getattr(b.trace, name).tobytes()
            assert a.final_field.coeff.tobytes() == b.final_field.coeff.tobytes()
