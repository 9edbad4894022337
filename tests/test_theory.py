import math

import numpy as np
import pytest

from torusflow import (
    EpitaxialParams,
    NormTrace,
    SpectralField,
    StepperConfig,
    ThinFilmParams,
    TimeProfile,
    check_epitaxial_A0,
    check_epitaxial_A2,
    check_thinfilm_A0,
    monitor_apriori_A2,
    simulate,
    verify_decay_envelope,
    weak_residual,
    wiener_norm,
)
from _helpers import random_field, scaled_to


def cos_x1(n=4, eps=1.0):
    return SpectralField.from_modes(n, [((1, 0), eps / 2), ((-1, 0), eps / 2)])


def synthetic_trace(lam, norm0, times):
    rows = [(t, norm0 * math.exp(-lam * t), norm0 * math.exp(-lam * t), 0, 0, 0, 0.01)
            for t in times]
    return NormTrace.from_rows(rows)


class TestEpitaxialA2Checker:
    def test_k0_zero_hand_value(self):
        r = check_epitaxial_A2(EpitaxialParams(K0=0, K1=0.25, K2=1.0, K3=0.25), 0.5)
        assert r.theorem_id == "EpitaxialA2_K0zero"
        assert r.margin == pytest.approx(0.5)
        assert r.lam == pytest.approx(0.5)
        assert r.satisfied

    def test_zero_data_gives_k2(self):
        r = check_epitaxial_A2(EpitaxialParams(K0=0, K1=0.7, K2=1.3, K3=0.7), 0.0)
        assert r.margin == pytest.approx(1.3)
        assert r.satisfied

    def test_boundary_not_satisfied(self):
        r = check_epitaxial_A2(EpitaxialParams(K0=0, K1=0.5, K2=1.0, K3=0.5), 0.5)
        assert r.margin == pytest.approx(0.0)
        assert not r.satisfied

    def test_k0_positive_branch_is_min_of_margins(self):
        params = EpitaxialParams(K0=0.6, K1=0.5, K2=1.0, K3=0.2)
        for x in np.linspace(0.0, 1.2, 13):
            r = check_epitaxial_A2(params, x)
            brute = min(params.K2 - 2 * params.K3 * x, params.K0 - 2 * params.K1 * x)
            assert r.theorem_id == "EpitaxialA2_K0pos"
            assert r.margin == pytest.approx(brute)
            assert r.satisfied == (brute > 0)

    def test_margin_monotone_in_initial_norm(self):
        params = EpitaxialParams(K0=0, K1=0.3, K2=1.0, K3=0.2)
        xs = np.linspace(0, 2, 21)
        margins = [check_epitaxial_A2(params, x).margin for x in xs]
        assert all(a > b for a, b in zip(margins, margins[1:]))  # strictly decreasing


class TestEpitaxialA0Checker:
    def test_hand_value(self):
        r = check_epitaxial_A0(EpitaxialParams(K0=0, K1=1.0, K2=1.0, K3=0.0), 0.4)
        assert r.theorem_id == "EpitaxialA0"
        assert r.margin == pytest.approx(0.2)
        assert r.satisfied

    def test_linear_case_rate_is_k2(self):
        r = check_epitaxial_A0(EpitaxialParams(K0=0, K1=0.0, K2=0.8, K3=0.0), 123.0)
        assert r.lam == pytest.approx(0.8)
        assert r.satisfied

    def test_rejects_k3(self):
        with pytest.raises(ValueError, match="K3"):
            check_epitaxial_A0(EpitaxialParams(K0=0, K1=1.0, K2=1.0, K3=0.1), 0.4)

    def test_rejects_k0_positive(self):
        with pytest.raises(ValueError, match="K0"):
            check_epitaxial_A0(EpitaxialParams(K0=0.5, K1=1.0, K2=1.0, K3=0.0), 0.4)

    def test_margin_monotone_strict_iff_coupling_positive(self):
        xs = np.linspace(0, 1, 11)
        coupled = [check_epitaxial_A0(EpitaxialParams(K0=0, K1=0.5, K2=1.0, K3=0.0), x).margin
                   for x in xs]
        assert all(a > b for a, b in zip(coupled, coupled[1:]))
        flat = [check_epitaxial_A0(EpitaxialParams(K0=0, K1=0.0, K2=1.0, K3=0.0), x).margin
                for x in xs]
        assert all(a == b for a, b in zip(flat, flat[1:]))


class TestThinFilmChecker:
    def test_zero_data(self):
        r = check_thinfilm_A0(ThinFilmParams(chi=0.3, p=4, c_estimate=2.0), 0.0)
        assert r.margin == pytest.approx(0.7)
        assert r.lam == pytest.approx(0.7)
        assert r.satisfied

    def test_hand_value(self):
        # chi=0.1, p=2, c=1, x=0.1: margin = 0.7 - 0.1*(0.1+0.2) = 0.67
        r = check_thinfilm_A0(ThinFilmParams(chi=0.1, p=2, c_estimate=1.0), 0.1)
        assert r.margin == pytest.approx(0.67)
        assert r.lam == pytest.approx(0.64)
        assert r.satisfied

    def test_large_data_not_satisfied(self):
        r = check_thinfilm_A0(ThinFilmParams(chi=0.5, p=3, c_estimate=1.0), 0.5)
        assert r.margin < 0
        assert not r.satisfied

    def test_sum_past_float_range_fails_by_any_margin(self):
        # S carries x^(p-1) = 1e1690
        r = check_thinfilm_A0(ThinFilmParams(chi=0.1, p=170), 1e10)
        assert r.margin == r.lam == -math.inf
        assert not r.satisfied

    def test_rate_below_margin_rate_relation(self):
        # lam differs from margin by the extra half of the c chi p! S term
        params = ThinFilmParams(chi=0.2, p=3, c_estimate=1.5)
        x = 0.07
        r = check_thinfilm_A0(params, x)
        s = x + 2 * (x + x**2)
        half_term = 0.5 * params.c_estimate * params.chi * math.factorial(3) * s
        assert r.margin - r.lam == pytest.approx(half_term)

    def test_margin_monotone_in_initial_norm(self):
        params = ThinFilmParams(chi=0.2, p=3, c_estimate=1.0)
        xs = np.linspace(0, 0.5, 11)
        margins = [check_thinfilm_A0(params, x).margin for x in xs]
        assert all(a > b for a, b in zip(margins, margins[1:]))


class TestEnvelope:
    def test_exact_envelope_passes_with_ratio_one(self):
        trace = synthetic_trace(0.4, 2.0, np.linspace(0, 3, 31))
        v = verify_decay_envelope(trace, "a0", 0.4, tol=1e-6)
        assert v.passed
        assert v.worst_ratio == pytest.approx(1.0, abs=1e-12)
        assert v.first_violation_t is None

    def test_single_inflated_row_fails_there(self):
        times = np.linspace(0, 3, 31)
        rows = [[t, 2.0 * math.exp(-0.4 * t), 2.0 * math.exp(-0.4 * t), 0, 0, 0, 0.01]
                for t in times]
        rows[7][1] *= 1.01
        v = verify_decay_envelope(NormTrace.from_rows(rows), "a0", 0.4, tol=1e-6)
        assert not v.passed
        assert v.first_violation_t == pytest.approx(times[7])
        assert v.worst_ratio == pytest.approx(1.01)

    def test_passing_lambda_implies_passing_smaller_lambda(self):
        trace = synthetic_trace(0.5, 1.0, np.linspace(0, 4, 41))
        assert verify_decay_envelope(trace, "a2", 0.5).passed
        for lam in (0.4, 0.25, 0.0):
            assert verify_decay_envelope(trace, "a2", lam).passed

    def test_simulated_run_passes_checker_rate(self):
        params = EpitaxialParams(K0=0, K1=0.25, K2=1.0, K3=0.25)
        u0 = scaled_to(random_field(8, seed=321), 2, 0.5)
        report = check_epitaxial_A2(params, wiener_norm(u0, 2))
        out = simulate(u0, params, StepperConfig(dt=1e-3, t_end=2.0), "epitaxial")
        v = verify_decay_envelope(out.trace, "a2", report.lam, tol=1e-6)
        assert v.passed

    def test_zero_trace_passes(self):
        trace = synthetic_trace(0.3, 0.0, np.linspace(0, 1, 5))
        v = verify_decay_envelope(trace, "a0", 0.3)
        assert v.passed
        assert v.worst_ratio == 1.0

    def test_bad_norm_index(self):
        trace = synthetic_trace(0.3, 1.0, [0.0, 1.0])
        with pytest.raises(ValueError):
            verify_decay_envelope(trace, "a4", 0.3)

    @pytest.mark.parametrize("lam, tol", [
        (math.nan, 1e-6), (math.inf, 1e-6), (-math.inf, 1e-6),
        (1e9, math.nan), (1e9, math.inf), (0.3, -5.0), (0.3, -1e-300),
    ])
    def test_non_finite_lambda_or_bad_tol_is_rejected(self, lam, tol):
        trace = synthetic_trace(0.3, 1.0, np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="lambda|tol"):
            verify_decay_envelope(trace, "a0", lam, tol)

    def test_empty_trace_is_rejected(self):
        with pytest.raises(ValueError, match="^empty trace$"):
            verify_decay_envelope(NormTrace.from_rows([]), "a0", 0.3)

    def test_zero_tol_is_accepted(self):
        trace = synthetic_trace(0.3, 1.0, [0.0])
        assert verify_decay_envelope(trace, "a0", 0.3, tol=0.0).passed

    @pytest.mark.parametrize("norm0", [1.0, 0.0])
    def test_a_large_negative_rate_overflows_without_a_warning(self, norm0):
        # exp(99890 t) passes the float range from t = 0.0072 on: the envelope
        # is inf there (nan for a zero norm, which the zero rule takes); the
        # suite turns a RuntimeWarning into an error
        trace = synthetic_trace(0.3, norm0, np.linspace(0.0, 0.02, 5))
        v = verify_decay_envelope(trace, "a0", -99890.0)
        assert v.passed
        assert v.worst_ratio == 1.0
        assert v.first_violation_t is None


class TestMonitor:
    def test_single_mode_hand_value(self):
        eps = 0.2
        params = EpitaxialParams(K0=0, K1=0.7, K2=1.3, K3=0.0)
        lhs, rhs = monitor_apriori_A2(cos_x1(eps=eps), params)
        assert lhs == pytest.approx(-params.K2 * eps, rel=1e-12)
        assert rhs == pytest.approx(-params.K2 * eps + 2 * params.K1 * eps**2, rel=1e-12)
        assert lhs <= rhs + 1e-12

    def test_zero_field(self):
        lhs, rhs = monitor_apriori_A2(SpectralField.zeros(4),
                                      EpitaxialParams(K0=0, K1=1.0, K2=1.0, K3=0.5))
        assert lhs == 0.0
        assert rhs == 0.0

    def test_random_small_field_inequality(self):
        params = EpitaxialParams(K0=0, K1=0.25, K2=1.0, K3=0.25)
        for seed in range(5):
            u = scaled_to(random_field(8, seed=400 + seed), 2, 0.3)
            lhs, rhs = monitor_apriori_A2(u, params)
            assert lhs <= rhs + 1e-10

    def test_holds_along_smallness_trajectory(self):
        params = EpitaxialParams(K0=0, K1=0.25, K2=1.0, K3=0.25)
        u0 = scaled_to(random_field(8, seed=500), 2, 0.45)
        fields = []
        simulate(u0, params, StepperConfig(dt=1e-3, t_end=0.5), "epitaxial",
                 on_record=lambda i, t, f: fields.append(f), record_fields_every=20)
        assert len(fields) > 10
        for f in fields:
            lhs, rhs = monitor_apriori_A2(f, params)
            assert lhs <= rhs + 1e-8

    def test_rejects_k0_positive(self):
        with pytest.raises(ValueError, match="K0"):
            monitor_apriori_A2(cos_x1(), EpitaxialParams(K0=0.5, K1=0, K2=1.0))


class TestNormArguments:
    @pytest.mark.parametrize("check, params, name", [
        (check_epitaxial_A2, EpitaxialParams(K2=1.0), "u0_a2"),
        (check_epitaxial_A0, EpitaxialParams(K2=1.0), "u0_a0"),
        (check_thinfilm_A0, ThinFilmParams(chi=0.1, p=2), "v0_a0"),
    ])
    @pytest.mark.parametrize("x", [-0.5, math.nan, math.inf])
    def test_a_norm_must_be_finite_and_nonnegative(self, check, params, name, x):
        with pytest.raises(ValueError, match=f"^{name} must be a finite nonnegative real, got {x!r}$"):
            check(params, x)


class TestTimeProfile:
    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="^profile needs at least one coefficient$"):
            TimeProfile(())

    def test_vanishing_profile(self):
        g = TimeProfile.vanishing_at(2.0, power=3)
        assert g.value(2.0) == pytest.approx(0.0, abs=1e-15)
        assert g.value(0.0) == pytest.approx(1.0)
        # d/dt (1 - t/2)^3 = -(3/2)(1 - t/2)^2
        assert g.slope(0.0) == pytest.approx(-1.5)

    def test_polynomial_slope(self):
        g = TimeProfile((1.0, -2.0, 3.0))
        assert g.slope(0.5) == pytest.approx(-2.0 + 6.0 * 0.5)


class TestWeakResidual:
    def test_zero_trajectory(self):
        T = 1.0
        times = np.linspace(0, T, 11)
        states = [SpectralField.zeros(4) for _ in times]
        phi = cos_x1()
        prof = TimeProfile.vanishing_at(T)
        params = EpitaxialParams(K0=0, K1=1.0, K2=1.0, K3=1.0)
        assert weak_residual(times, states, phi, prof, "epitaxial", params) == 0.0

    def test_exact_linear_solution_small_residual(self):
        K0, K2 = 0.0, 1.0
        eps, T, dt = 0.01, 1.0, 1e-3
        params = EpitaxialParams(K0=K0, K1=0.0, K2=K2, K3=0.0)
        times = np.arange(round(T / dt) + 1) * dt
        states = [cos_x1(eps=eps * math.exp(-(K0 + K2) * t)) for t in times]
        phi = cos_x1()
        prof = TimeProfile.vanishing_at(T, power=2)
        res = weak_residual(times, states, phi, prof, "epitaxial", params)
        assert res < 1e-6

    def test_residual_shrinks_quadratically_with_dt(self):
        params = EpitaxialParams(K0=0, K1=0.25, K2=1.0, K3=0.25)
        u0 = scaled_to(random_field(8, seed=600), 2, 0.4)
        T = 0.5
        phi = SpectralField.from_modes(
            8, [((1, 1), 0.25), ((1, -1), 0.25), ((-1, 1), 0.25), ((-1, -1), 0.25)])
        prof = TimeProfile.vanishing_at(T, power=2)

        def residual(dt):
            fields = []
            simulate(u0, params, StepperConfig(dt=dt, t_end=T), "epitaxial",
                     on_record=lambda i, t, f: fields.append((t, f)), record_fields_every=4)
            times = np.array([t for t, _ in fields])
            return weak_residual(times, [f for _, f in fields], phi, prof,
                                 "epitaxial", params)

        r1, r2 = residual(1e-3), residual(5e-4)
        assert r1 / r2 > 3.5

    def test_thinfilm_residual_small_on_simulated_run(self):
        params = ThinFilmParams(chi=0.1, p=2)
        v0 = random_field(6, seed=601, amplitude=0.05)
        T = 0.5
        fields = []
        simulate(v0, params, StepperConfig(dt=5e-4, t_end=T), "thinfilm",
                 on_record=lambda i, t, f: fields.append((t, f)), record_fields_every=1)
        times = np.array([t for t, _ in fields])
        phi = cos_x1(6)
        prof = TimeProfile.vanishing_at(T, power=2)
        res = weak_residual(times, [f for _, f in fields], phi, prof, "thinfilm", params)
        # scale of the integrand is ~ inner(v, phi) ~ 4 pi^2 * 0.05
        assert res < 1e-6

    def test_profile_must_vanish_at_end(self):
        times = np.linspace(0, 1, 5)
        states = [SpectralField.zeros(4) for _ in times]
        prof = TimeProfile((1.0,))  # constant 1
        with pytest.raises(ValueError, match="vanish"):
            weak_residual(times, states, cos_x1(), prof, "epitaxial",
                          EpitaxialParams(K2=1.0))

    def test_model_dispatch_errors(self):
        times = np.linspace(0, 1, 5)
        states = [SpectralField.zeros(4) for _ in times]
        prof = TimeProfile.vanishing_at(1.0)
        with pytest.raises(TypeError, match="needs EpitaxialParams, got ThinFilmParams"):
            weak_residual(times, states, cos_x1(), prof, "epitaxial",
                          ThinFilmParams(chi=0.1, p=2))
        with pytest.raises(ValueError, match=r"model must be one of \('epitaxial', 'thinfilm'\)"):
            weak_residual(times, states, cos_x1(), prof, "porous", EpitaxialParams(K2=1.0))

    @pytest.mark.parametrize("times, cutoffs, message", [
        ([0.0], [4], "need matching times/states with at least two samples"),
        ([0.0, 0.5, 1.0], [4, 4], "need matching times/states with at least two samples"),
        ([0.0, 0.5, 0.5, 1.0], [4] * 4, "sample times must be strictly increasing"),
        ([0.0, 1.0], [4, 5], "test function and states must share one mode set"),
    ], ids=["one_sample", "mismatched_lengths", "repeated_time", "mode_sets"])
    def test_malformed_samples(self, times, cutoffs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            weak_residual(times, [SpectralField.zeros(n) for n in cutoffs], cos_x1(),
                          TimeProfile.vanishing_at(1.0), "epitaxial", EpitaxialParams(K2=1.0))

    def test_must_start_at_zero(self):
        times = np.array([0.5, 1.0])
        states = [SpectralField.zeros(4)] * 2
        prof = TimeProfile.vanishing_at(1.0)
        with pytest.raises(ValueError, match="t = 0"):
            weak_residual(times, states, cos_x1(), prof, "epitaxial",
                          EpitaxialParams(K2=1.0))
