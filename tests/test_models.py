import math

import numpy as np
import pytest

from torusflow import (
    EpitaxialParams,
    ModeSet,
    SpectralField,
    ThinFilmParams,
    delta_of_delta_sq,
    epitaxial_rhs,
    hermitian_asymmetry,
    hessian_det2,
    power_term,
    thinfilm_rhs,
    wiener_norm,
    with_cutoff,
)
from torusflow import models
from torusflow.models import EpitaxialRhs, ThinFilmRhs, make_rhs
from torusflow.spectral import _fast_len, _grids, _pad_size
from _helpers import (
    brute_bilinear,
    held_after,
    max_abs_diff,
    random_field,
    rel_err,
    w_ddsq,
    w_gradlap,
    w_hessian,
    w_timesbilap,
)
from oracles import (
    convolve,
    delta_of_delta_sq_pointwise,
    epitaxial_rhs_pointwise,
    grad_dot_grad_lap,
    grad_dot_grad_lap_pointwise,
    hessian_det2_pointwise,
    thinfilm_rhs_pointwise,
    times_bilap,
    times_bilap_pointwise,
)


def cos_x1(n=4, eps=1.0):
    return SpectralField.from_modes(n, [((1, 0), eps / 2), ((-1, 0), eps / 2)])


def cos_x1_cos_x2(n=4):
    q = 0.25
    return SpectralField.from_modes(
        n, [((1, 1), q), ((1, -1), q), ((-1, 1), q), ((-1, -1), q)])


class TestParams:
    def test_epitaxial_domains(self):
        with pytest.raises(ValueError, match="K2 > 0"):
            EpitaxialParams(K2=0.0)
        with pytest.raises(ValueError, match="K0 >= 0"):
            EpitaxialParams(K0=-0.1, K2=1.0)

    def test_thinfilm_domains(self):
        with pytest.raises(ValueError, match="chi"):
            ThinFilmParams(chi=1.0, p=2)
        with pytest.raises(ValueError, match="integer"):
            ThinFilmParams(chi=0.5, p=2.5)
        with pytest.raises(ValueError, match="integer"):
            ThinFilmParams(chi=0.5, p=1)
        with pytest.raises(ValueError, match="c_estimate"):
            ThinFilmParams(chi=0.5, p=2, c_estimate=0.0)


class TestHessianDet2:
    def test_rank_one_hessian_vanishes(self):
        out = hessian_det2(cos_x1())
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_product_cosines_hand_value(self):
        # 2 det D^2 (cos x1 cos x2) = cos 2x1 + cos 2x2
        out = hessian_det2(cos_x1_cos_x2())
        want = SpectralField.from_modes(
            4, [((2, 0), 0.5), ((-2, 0), 0.5), ((0, 2), 0.5), ((0, -2), 0.5)])
        assert max_abs_diff(out, want) < 1e-15

    def test_zero_mean_output(self):
        u = random_field(8, seed=21)
        out = hessian_det2(u)
        assert abs(out.coeff[8, 8]) < 1e-12

    @pytest.mark.parametrize("n", [4, 8])
    def test_matches_brute_force_sum(self, n):
        u = random_field(n, seed=100 + n)
        oracle = brute_bilinear(u, u, w_hessian)
        assert max_abs_diff(hessian_det2(u).coeff, oracle) < 1e-12

    def test_matches_pointwise_oracle(self):
        u = random_field(8, seed=23)
        assert rel_err(hessian_det2(u).coeff, hessian_det2_pointwise(u).coeff) < 1e-10


class TestDeltaOfDeltaSq:
    def test_single_cosine_hand_value(self):
        # lap (lap cos x1)^2 = lap cos^2 x1 = -2 cos 2x1
        out = delta_of_delta_sq(cos_x1())
        want = SpectralField.from_modes(4, [((2, 0), -1.0), ((-2, 0), -1.0)])
        assert max_abs_diff(out, want) < 1e-14

    def test_zero_field(self):
        out = delta_of_delta_sq(SpectralField.zeros(5))
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_two_term_assembly_equals_multiplier_route(self):
        u = random_field(8, seed=31)
        direct = delta_of_delta_sq(u)
        lap_u = SpectralField(u.modes, -u.modes.abs2 * u.coeff)
        other = SpectralField(u.modes, -u.modes.abs2 * convolve(lap_u, lap_u).coeff)
        assert max_abs_diff(direct, other) < 1e-12

    def test_matches_brute_force_sum(self):
        u = random_field(6, seed=32)
        oracle = brute_bilinear(u, u, w_ddsq)
        assert max_abs_diff(delta_of_delta_sq(u).coeff, oracle) < 1e-12

    def test_matches_pointwise_oracle(self):
        u = random_field(8, seed=33)
        assert rel_err(delta_of_delta_sq(u).coeff,
                       delta_of_delta_sq_pointwise(u).coeff) < 1e-10


class TestEpitaxialRhs:
    def test_zero_field(self):
        out = epitaxial_rhs(SpectralField.zeros(4), EpitaxialParams(K2=1.0))
        assert np.max(np.abs(out.coeff)) == 0.0

    def test_keeps_no_arrays_once_returned(self):
        def rhs(n):
            epitaxial_rhs(random_field(n, 4), EpitaxialParams(K1=0.25, K2=1.0, K3=0.25))

        rhs(32)
        assert held_after(rhs, 48) < 64 * 1024

    def test_single_mode_hand_value(self):
        # u = eps cos x1: linear part (-K0 - K2) eps cos x1; the K3 term puts
        # K3 eps^2 / 2 at (+-2, 0); K1 contributes nothing (rank-one Hessian).
        eps = 0.3
        params = EpitaxialParams(K0=0.7, K1=2.0, K2=1.1, K3=0.9)
        out = epitaxial_rhs(cos_x1(4, eps=eps), params)
        want = SpectralField.from_modes(4, [
            ((1, 0), -(params.K0 + params.K2) * eps / 2),
            ((-1, 0), -(params.K0 + params.K2) * eps / 2),
            ((2, 0), params.K3 * eps**2 / 2),
            ((-2, 0), params.K3 * eps**2 / 2),
        ])
        assert max_abs_diff(out, want) < 1e-14

    def test_k3_zero_single_mode_is_diagonal(self):
        eps = 0.25
        params = EpitaxialParams(K0=0.4, K1=3.0, K2=2.0, K3=0.0)
        out = epitaxial_rhs(cos_x1(4, eps=eps), params)
        want = SpectralField.from_modes(
            4, [((1, 0), -(0.4 + 2.0) * eps / 2), ((-1, 0), -(0.4 + 2.0) * eps / 2)])
        assert max_abs_diff(out, want) < 1e-15

    def test_matches_pointwise_oracle(self):
        # both parities of the padded grid, and the smallest grid
        params = EpitaxialParams(K0=0.2, K1=0.8, K2=1.0, K3=0.5)
        for n in (1, 2, 3, 8, 16, 32):
            u = random_field(n, seed=41)
            got = epitaxial_rhs(u, params)
            want = epitaxial_rhs_pointwise(u, params)
            assert rel_err(got.coeff, want.coeff) < 1e-10, n
            rhs = EpitaxialRhs(n, params)
            stepper = rhs.linear * u.half + rhs.nonlinear(u.half)
            assert rel_err(stepper, want.coeff[:, n:]) < 1e-10, n

    def test_mean_conserved(self):
        u = random_field(8, seed=42)
        out = epitaxial_rhs(u, EpitaxialParams(K0=0.1, K1=1.0, K2=1.0, K3=1.0))
        assert abs(out.coeff[8, 8]) < 1e-12

    def test_output_hermitian(self):
        u = random_field(6, seed=43)
        out = epitaxial_rhs(u, EpitaxialParams(K1=1.0, K2=1.0, K3=0.3))
        assert hermitian_asymmetry(out) < 1e-13

    def test_non_finite_identifies_term(self):
        big = SpectralField(ModeSet(2), np.full((5, 5), 1e200, dtype=complex))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="det D"):
            epitaxial_rhs(big, EpitaxialParams(K1=1.0, K2=1.0))

    def test_overflow_names_the_term_without_a_warning(self):
        # no errstate here: pytest turns a RuntimeWarning into an error
        big = SpectralField(ModeSet(2), np.full((5, 5), 1e300, dtype=complex))
        with pytest.raises(FloatingPointError, match="det D"):
            epitaxial_rhs(big, EpitaxialParams(K1=1.0, K2=1.0, K3=1.0))

    def test_mean_mode_pinned_exactly(self):
        # det D^2 u integrates to zero only up to roundoff on the grid
        for seed in range(40, 46):
            u = random_field(8, seed=seed, zero_mean=False)
            assert u.mean != 0.0
            out = epitaxial_rhs(u, EpitaxialParams(K0=0.1, K1=1.0, K2=1.0, K3=1.0))
            assert out.coeff[8, 8] == 0.0, seed


class TestPowerTerm:
    def test_zero_field_gives_one(self):
        out = power_term(SpectralField.zeros(3), 4)
        want = SpectralField.from_modes(3, [((0, 0), 1.0)])
        assert max_abs_diff(out, want) < 1e-15

    def test_square_of_one_plus_cos(self):
        # (1 + cos x1)^2 = 3/2 + 2 cos x1 + (1/2) cos 2x1
        out = power_term(cos_x1(4), 2)
        want = SpectralField.from_modes(4, [
            ((0, 0), 1.5), ((1, 0), 1.0), ((-1, 0), 1.0), ((2, 0), 0.25), ((-2, 0), 0.25)])
        assert max_abs_diff(out, want) < 1e-14

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_iterated_convolution_oracle(self, p):
        # binomial expansion with convolutions on a mode set so large that
        # truncation never bites, projected back at the end
        v = random_field(4, seed=50 + p, amplitude=0.2)
        big = with_cutoff(v, p * v.n)
        acc = SpectralField.from_modes(big.n, [((0, 0), 1.0)])  # q = 0 term
        pw = SpectralField.from_modes(big.n, [((0, 0), 1.0)])
        from math import comb
        total = acc.coeff.copy()
        for q in range(1, p + 1):
            pw = convolve(pw, big)
            total = total + comb(p, q) * pw.coeff
        want = with_cutoff(SpectralField(big.modes, total), v.n)
        assert max_abs_diff(power_term(v, p), want) < 1e-12

    def test_runs_the_power_plan_alone(self, monkeypatch):
        # the evaluator builds its power plan alone: neither the flux plan,
        # with its multipliers, nor grad
        made = []
        monkeypatch.setattr(models, "make_rhs", lambda *a: made.append(make_rhs(*a)) or made[-1])
        power_term(random_field(6, 3), 3)
        rhs = made[0]
        assert "flux_plan" not in vars(rhs) and "grad" not in vars(rhs)
        assert rhs.power_plan.halves == (13, 7) and rhs.power_plan.grid.shape == (rhs.grids[1],) * 2

    def test_bad_exponent(self):
        v = cos_x1()
        with pytest.raises(ValueError):
            power_term(v, 1)
        with pytest.raises(ValueError):
            power_term(v, 2.5)
        with pytest.raises(ValueError):
            power_term(v, True)
        with pytest.raises(ValueError, match=r"^p: must be an integer 2 <= p <= 170, got 171$"):
            power_term(v, 171)


class TestLibraryCaps:
    """The per-term functions refuse what make_rhs refuses, with its message,
    before any transform plan is built."""

    @pytest.fixture
    def no_plans(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a transform plan was built")
        monkeypatch.setattr(models, "_TransformPlan", fail)

    def test_power_grid_past_the_cap(self, no_plans):
        with pytest.raises(ValueError) as want:
            make_rhs("thinfilm", 24, ThinFilmParams(chi=0.5, p=170))
        with pytest.raises(ValueError, match=r"^p: the power grid \(p\+1\)n\+1 = 4105 exceeds 4096 ") as got:
            power_term(SpectralField.zeros(24), 170)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("term", [hessian_det2, delta_of_delta_sq])
    def test_cutoff_past_max_n(self, monkeypatch, no_plans, term):
        monkeypatch.setattr(models, "MAX_N", 4)  # N_RULE reads the cap when it runs
        with pytest.raises(ValueError) as want:
            make_rhs("epitaxial", 5, EpitaxialParams())
        with pytest.raises(ValueError, match=r"^n: must be an integer 1 <= n <= ") as got:
            term(SpectralField.zeros(5))
        assert str(got.value) == str(want.value)


class TestThinFilmQuadratics:
    def test_gradlap_matches_brute_force(self):
        v = random_field(6, seed=61)
        oracle = brute_bilinear(v, v, w_gradlap)
        assert max_abs_diff(grad_dot_grad_lap(v).coeff, oracle) < 1e-12

    def test_timesbilap_matches_brute_force(self):
        v = random_field(6, seed=62)
        oracle = brute_bilinear(v, v, w_timesbilap)
        assert max_abs_diff(times_bilap(v).coeff, oracle) < 1e-12

    def test_gradlap_matches_pointwise(self):
        v = random_field(8, seed=63)
        assert rel_err(grad_dot_grad_lap(v).coeff,
                       grad_dot_grad_lap_pointwise(v).coeff) < 1e-10

    def test_timesbilap_matches_pointwise(self):
        v = random_field(8, seed=64)
        assert rel_err(times_bilap(v).coeff, times_bilap_pointwise(v).coeff) < 1e-10

    def test_gradlap_bound_by_norm_products(self):
        # sum_k |coeff| <= a1 * a3 <= a0 * a4
        v = random_field(8, seed=65)
        total = float(np.sum(np.abs(grad_dot_grad_lap(v).coeff)))
        a0, a1, a3, a4 = (wiener_norm(v, s) for s in (0, 1, 3, 4))
        assert total <= a1 * a3 + 1e-12
        assert a1 * a3 <= a0 * a4 + 1e-12


class TestThinFilmRhs:
    def test_zero_field(self):
        out = thinfilm_rhs(SpectralField.zeros(4), ThinFilmParams(chi=0.5, p=3))
        assert np.max(np.abs(out.coeff)) < 1e-15

    def test_keeps_no_arrays_once_returned(self):
        # its evaluator's work arrays go with the evaluator, not at the end of
        # a simulate_batch
        def rhs(n):
            thinfilm_rhs(random_field(n, 5), ThinFilmParams(chi=0.3, p=3))

        rhs(48)
        assert held_after(rhs, 64) < 64 * 1024

    def test_linearization_coefficient(self):
        # rhs(eps cos x1) = (-1 + chi p) eps cos x1 + O(eps^2), and the O(eps^2)
        # lands on other modes for single-mode data
        chi, p = 0.3, 3
        eps = 1e-4
        out = thinfilm_rhs(cos_x1(4, eps=eps), ThinFilmParams(chi=chi, p=p))
        got = out.coeff[5, 4].real / (eps / 2)
        assert got == pytest.approx(-1.0 + chi * p, abs=10 * eps**2)

    def test_matches_pointwise_oracle(self):
        # both parities of the 3n+1 and (p+1)n+1 grids, and the smallest grid
        for n in (1, 2, 3, 8, 16, 32):
            v = random_field(n, seed=71)
            for p in (2, 3, 5):
                params = ThinFilmParams(chi=0.4, p=p)
                got = thinfilm_rhs(v, params)
                want = thinfilm_rhs_pointwise(v, params)
                assert rel_err(got.coeff, want.coeff) < 1e-10, (n, p)
                rhs = ThinFilmRhs(n, params)
                stepper = rhs.linear * v.half + rhs.nonlinear(v.half)
                assert rel_err(stepper, want.coeff[:, n:]) < 1e-10, (n, p)

    def test_mean_conserved(self):
        v = random_field(8, seed=72)
        out = thinfilm_rhs(v, ThinFilmParams(chi=0.2, p=2))
        assert abs(out.coeff[8, 8]) < 1e-12

    def test_rejects_nonzero_mean(self):
        v = SpectralField.from_modes(4, [((0, 0), 0.5), ((1, 0), 0.1), ((-1, 0), 0.1)])
        with pytest.raises(ValueError, match="zero mean"):
            thinfilm_rhs(v, ThinFilmParams(chi=0.2, p=2))

    def test_output_hermitian(self):
        v = random_field(6, seed=73)
        out = thinfilm_rhs(v, ThinFilmParams(chi=0.3, p=4))
        assert hermitian_asymmetry(out) < 1e-13

    def test_non_finite_identifies_term(self):
        c = np.full((5, 5), 1e200, dtype=complex)
        c[2, 2] = 0.0
        big = SpectralField(ModeSet(2), c)
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match=r"term -grad v \. grad lap v - v lap\^2 v$"):
            thinfilm_rhs(big, ThinFilmParams(chi=0.3, p=2))


def _inverse(half, n, N):
    """Samples on the N x N grid of k2 >= 0 half blocks: the transform
    layout of spectral, written out with unpruned numpy.fft calls."""
    emb = np.zeros(half.shape[:-2] + (N, n + 1), dtype=complex)
    emb[..., : n + 1, :] = half[..., n:, :]
    emb[..., N - n :, :] = half[..., :n, :]
    return np.fft.irfft(np.fft.ifft(emb, axis=-2, norm="forward"), n=N, axis=-1, norm="forward")


def _forward(values, n):
    """k2 >= 0 half blocks of samples, k2 = 0 column averaged with its mirror."""
    N = values.shape[-1]
    row = np.fft.rfft(values, axis=-1)[..., : n + 1]
    spec = np.fft.fft((row.view(float) * (1.0 / (N * N))).view(complex), axis=-2)
    half = np.concatenate([spec[..., N - n :, :], spec[..., : n + 1, :]], axis=-2)
    half[..., 0] = 0.5 * (half[..., 0] + np.conj(half[..., ::-1, 0]))
    return half


def _unfused_epitaxial(c, n, params):
    k1, k2, abs2 = (g[:, n:] for g in _grids(n))
    mult = -np.stack([k1 * k1, k2 * k2, k1 * k2]).astype(np.float64)
    u11, u22, u12 = np.moveaxis(_inverse(mult * c[..., None, :, :], n, _pad_size(n)), -3, 0)
    lap = u11 + u22
    hd = _forward(np.stack([2.0 * (u11 * u22 - u12 * u12), lap * lap], axis=-3), n)
    out = params.K1 * hd[..., 0, :, :]
    out += (0.5 * params.K3) * abs2 * hd[..., 1, :, :]
    out[..., n, 0] = 0.0
    return out


def _unfused_thinfilm(c, n, params):
    k1, k2, abs2 = (g[:, n:] for g in _grids(n))
    mult = np.stack([np.ones_like(abs2), -1j * k1 * abs2, -1j * k2 * abs2])
    v, g1, g2 = np.moveaxis(_inverse(mult * c[..., None, :, :], n, _pad_size(n)), -3, 0)
    flux = _forward(np.stack([v * g1, v * g2], axis=-3), n)
    out = -np.sum(np.stack([1j * k1, 1j * k2]) * flux, axis=-3)
    w = _inverse(c, n, _fast_len((params.p + 1) * n + 1))
    out += params.chi * abs2 * _forward((1.0 + w) ** params.p, n)
    out[..., n, 0] = 0.0
    return out


def _hostile_blocks(n, batch, seed):
    """(batch, 2n+1, n+1) half blocks with signed zeros, subnormal entries and
    entries near the float maximum among ordinary ones."""
    rng = np.random.default_rng(seed)
    shape = (batch, 2 * n + 1, n + 1)
    parts = []
    for _ in range(2):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 1, shape)
        kind = rng.integers(0, 6, shape)
        x[kind == 0] = 0.0
        x[kind == 1] = -0.0
        tiny = rng.choice([-1, 1], shape) * rng.integers(1, 1000, shape) * 5e-324
        x[kind == 2] = tiny[kind == 2]
        parts.append(x)
    c = parts[0] + 1j * parts[1]
    return c, rng


class TestFusedKernels:
    """nonlinear writes its products into reused work arrays and fuses the
    multipliers into the scatter; it must give the bits of the plain
    composition mult * c -> inverse transform -> form -> forward transform
    -> terms, inf and nan included."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [5, 8])
    def test_epitaxial(self, n, batch):
        for seed in range(4):
            c, rng = _hostile_blocks(n, batch, seed)
            if seed == 2:  # coefficients near the float maximum: products overflow
                c[rng.uniform(size=c.shape) < 0.05] = 1.7e308 - 1e308j
            if seed == 3:  # products near the float maximum, and still finite
                c *= 1e150
            for params in (EpitaxialParams(K1=0.25, K2=1.0, K3=0.5),
                           EpitaxialParams(K1=0.3, K2=1.0), EpitaxialParams(K2=1.0, K3=0.7)):
                rhs = EpitaxialRhs(n, params)
                with np.errstate(all="ignore"):
                    got, want = rhs.nonlinear(c.copy()), _unfused_epitaxial(c, n, params)
                assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_thinfilm(self, p, batch):
        n = 6
        for seed in range(4):
            c, rng = _hostile_blocks(n, batch, 10 + seed)
            if seed == 2:
                c[rng.uniform(size=c.shape) < 0.05] = -1.5e308 + 1.6e308j
            if seed == 3:  # the power term's samples near the float maximum
                c *= 10.0 ** (300 // p)
            params = ThinFilmParams(chi=0.3, p=p)
            rhs = ThinFilmRhs(n, params)
            with np.errstate(all="ignore"):
                got, want = rhs.nonlinear(c.copy()), _unfused_thinfilm(c, n, params)
            assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()

    def test_inputs_are_not_written(self):
        c, _ = _hostile_blocks(6, 3, 0)
        kept = c.copy()
        EpitaxialRhs(6, EpitaxialParams(K1=0.25, K2=1.0, K3=0.5)).nonlinear(c)
        ThinFilmRhs(6, ThinFilmParams(chi=0.3, p=3)).nonlinear(c)
        assert c.tobytes() == kept.tobytes()


class TestFieldsPerEvaluation:
    """The fields each plan transforms per member and evaluation: sampled by
    the inverse transform (in) and brought back by the forward one (out)."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_counts(self, batch):
        c = random_field(6, 1, amplitude=0.1).half * np.ones(batch + (1, 1))
        epi = EpitaxialRhs(6, EpitaxialParams(K1=0.25, K3=0.5))
        tf = ThinFilmRhs(6, ThinFilmParams(chi=0.3, p=3))
        epi.nonlinear(c)
        tf.nonlinear(c)

        def fields(plan):
            shapes = plan.grid.shape, plan.samples
            return tuple(math.prod(s[:-2]) // math.prod(batch) for s in shapes)

        assert fields(epi.plan) == (3, 2)
        assert fields(tf.flux_plan) == (3, 2)
        assert fields(tf.power_plan) == (1, 1)
