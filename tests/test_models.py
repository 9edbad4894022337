import numpy as np
import pytest

from torusflow import (
    EpitaxialParams,
    ModeSet,
    SpectralField,
    ThinFilmParams,
    convolve,
    delta_of_delta_sq,
    delta_of_delta_sq_pointwise,
    epitaxial_rhs,
    epitaxial_rhs_pointwise,
    grad_dot_grad_lap,
    grad_dot_grad_lap_pointwise,
    hermitian_asymmetry,
    hessian_det2,
    hessian_det2_pointwise,
    laplacian,
    mode_multiplier,
    power_term,
    project,
    thinfilm_rhs,
    thinfilm_rhs_pointwise,
    times_bilap,
    times_bilap_pointwise,
    wiener_norm,
    with_cutoff,
)
from torusflow.models import EpitaxialRhs, ThinFilmRhs
from _helpers import (
    brute_bilinear,
    max_abs_diff,
    random_field,
    rel_err,
    w_ddsq,
    w_gradlap,
    w_hessian,
    w_timesbilap,
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
        lap_u = laplacian(u)
        other = mode_multiplier(convolve(lap_u, lap_u), -u.modes.abs2)
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
            stepper = rhs.linear * u.coeff + rhs.nonlinear(u.coeff)
            assert rel_err(stepper, want.coeff) < 1e-10, n

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
        oracle = project(SpectralField(big.modes, total), v.n)
        got = with_cutoff(power_term(v, p), big.n)
        want = with_cutoff(oracle, big.n)
        assert max_abs_diff(got, want) < 1e-12

    def test_bad_exponent(self):
        v = cos_x1()
        with pytest.raises(ValueError):
            power_term(v, 1)
        with pytest.raises(ValueError):
            power_term(v, 2.5)
        with pytest.raises(ValueError):
            power_term(v, True)


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
                stepper = rhs.linear * v.coeff + rhs.nonlinear(v.coeff)
                assert rel_err(stepper, want.coeff) < 1e-10, (n, p)

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
