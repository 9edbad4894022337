import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusflow import (
    EpitaxialParams,
    ModeSet,
    SpectralField,
    StepperConfig,
    ThinFilmParams,
    simulate,
    simulate_batch,
    step,
    wiener_norm,
)
from torusflow import integrate, spectral
from torusflow.integrate import _phi1, _phi2
from torusflow.models import EpitaxialRhs, ThinFilmRhs
from _helpers import max_abs_diff, random_field, scaled_to


def cos_x1(n=4, eps=0.3):
    return SpectralField.from_modes(n, [((1, 0), eps / 2), ((-1, 0), eps / 2)])


LINEAR = EpitaxialParams(K0=0.5, K1=0.0, K2=1.0, K3=0.0)


class TestPhiFunctions:
    def test_values_across_branches(self):
        # the linear symbols give z <= 0; the dense grid covers -0.1 < z <=
        # -0.01, next to _phi2's series cutoff, where the direct formula
        # errs by more than 1e-14 relative
        z = np.concatenate([-np.logspace(-12, 3, 200), -np.linspace(0.01, 0.1, 400, endpoint=False)])
        import mpmath  # high-precision reference

        with mpmath.workdps(60):
            for zi, p1, p2 in zip(z, _phi1(z), _phi2(z)):
                x = mpmath.mpf(float(zi))
                want1 = float(mpmath.expm1(x) / x)
                want2 = float((mpmath.expm1(x) - x) / x**2)
                assert abs(p1 - want1) <= 1e-15 * abs(want1), zi
                assert abs(p2 - want2) <= 1e-14 * abs(want2), zi

    def test_limits_at_zero(self):
        z = np.array([0.0])
        assert _phi1(z)[0] == 1.0
        assert _phi2(z)[0] == 0.5

    def test_rates_past_the_float_range_raise_no_warning(self):
        # z^2 overflows at -1e160; z = -inf is a symbol past the float range.
        # Both phi functions tend to 0 there; pytest makes a warning an error
        z = np.array([-1e160, -1e308, -np.inf])
        assert _phi1(z).tolist() == [1e-160, 1e-308, 0.0]
        assert _phi2(z).tolist() == [1e-160, 1e-308, 0.0]

    def test_phi2_where_z_squared_overflows(self):
        # (e^z - 1 - z)/z^2 is about 1/|z| there, not 0; -1.3e154 squares
        # just inside the float range, -1.4e154 just past it
        z = np.array([-1.3e154, -1.4e154, -2e154, -1e160, -1e300, -sys.float_info.max])
        import mpmath

        with mpmath.workdps(60):
            for zi, p2 in zip(z, _phi2(z)):
                x = mpmath.mpf(float(zi))
                want2 = float((mpmath.expm1(x) - x) / x**2)
                assert abs(p2 - want2) <= 1e-14 * abs(want2), zi


class TestStepperConfig:
    def test_domains(self):
        with pytest.raises(ValueError):
            StepperConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=1.0, scheme="RK4")
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, t_end=1.0, record_every=0)


class TestStep:
    def test_etd2_exact_on_linear_problem(self):
        eps = 0.3
        u = cos_x1(eps=eps)
        for dt in (0.5, 0.05, 0.001):
            out = step(u, dt, LINEAR, "epitaxial", scheme="ETD2")
            want = (eps / 2) * math.exp(-(0.5 + 1.0) * dt)
            assert out.coeff[5, 4].real == pytest.approx(want, rel=1e-14)

    def test_imex1_formula(self):
        eps = 0.3
        dt = 0.05
        u = cos_x1(eps=eps)
        out = step(u, dt, LINEAR, "epitaxial", scheme="IMEX1")
        want = (eps / 2) / (1.0 + (0.5 + 1.0) * dt)
        assert out.coeff[5, 4].real == pytest.approx(want, rel=1e-15)

    def test_zero_state_fixed_point(self):
        z = SpectralField.zeros(4)
        for scheme in ("ETD2", "IMEX1"):
            out = step(z, 0.1, EpitaxialParams(K1=1.0, K2=1.0, K3=1.0), "epitaxial", scheme)
            assert np.max(np.abs(out.coeff)) == 0.0

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            step(cos_x1(), dt, LINEAR, "epitaxial")

    def test_model_params_mismatch(self):
        with pytest.raises(TypeError):
            step(cos_x1(), 0.1, LINEAR, "thinfilm")

    @pytest.mark.parametrize("scheme", ["ETD2", "IMEX1"])
    def test_is_one_step_of_simulate(self, scheme):
        u = random_field(6, seed=31, zero_mean=False)
        params = EpitaxialParams(K0=0.1, K1=0.5, K2=1.0, K3=0.3)
        out = simulate(u, params, StepperConfig(dt=0.01, t_end=0.01, scheme=scheme),
                       "epitaxial")
        assert np.array_equal(step(u, 0.01, params, "epitaxial", scheme).coeff,
                              out.final_field.coeff)

    def test_non_finite_step_raises(self):
        # no errstate here: pytest turns a RuntimeWarning into an error
        big = SpectralField(ModeSet(2), np.full((5, 5), 1e300, dtype=complex))
        with pytest.raises(FloatingPointError, match="non-finite"):
            step(big, 0.1, EpitaxialParams(K1=1.0, K2=1.0, K3=1.0), "epitaxial")

    def test_thinfilm_state_with_mean_rejected(self):
        v = SpectralField.from_modes(4, [((0, 0), 0.3), ((1, 0), 0.1), ((-1, 0), 0.1)])
        with pytest.raises(ValueError, match="zero mean"):
            step(v, 0.01, ThinFilmParams(chi=0.1, p=2), "thinfilm")

    def test_infinite_a0_meets_the_threshold_rule(self):
        # the rule refuses an infinite A^0, default threshold or not; a field
        # whose A^0 is infinite is refused before the rule, as a norm overflow
        u = SpectralField.from_modes(4, [((1, 0), 1e308), ((-1, 0), 1e308),
                                         ((2, 0), 1e308), ((-2, 0), 1e308)])
        assert wiener_norm(u, 0) == math.inf
        for threshold in (None, 1e300):
            stepper = StepperConfig(dt=0.01, t_end=0.01, blowup_threshold=threshold)
            with pytest.raises(ValueError, match=r"^blowup_threshold \(.*\) must exceed .* \(inf\)$"):
                integrate._blowup_threshold(stepper, wiener_norm(u, 0))
        with pytest.raises(ValueError, match="^the Wiener norm a0 of the initial field overflows "):
            step(u, 0.01, LINEAR, "epitaxial")


class TestSimulateLinear:
    def test_final_norm_matches_exact_decay(self):
        eps = 0.3
        u = cos_x1(eps=eps)
        out = simulate(u, LINEAR, StepperConfig(dt=1e-3, t_end=1.0), "epitaxial")
        want = eps * math.exp(-1.5)
        assert out.status == "completed"
        assert out.trace.a2[-1] == pytest.approx(want, rel=1e-6)

    def test_etd2_exact_per_mode_any_dt(self):
        eps = 0.3
        u = cos_x1(eps=eps)
        for dt in (0.25, 0.1, 0.05):
            out = simulate(u, LINEAR, StepperConfig(dt=dt, t_end=1.0), "epitaxial")
            want = eps * math.exp(-1.5 * out.final_time)
            assert out.trace.a2[-1] == pytest.approx(want, rel=1e-12)

    def test_zero_initial_data(self):
        out = simulate(SpectralField.zeros(4), LINEAR, StepperConfig(dt=0.01, t_end=0.1),
                       "epitaxial")
        assert out.status == "completed"
        assert np.all(out.trace.a0 == 0.0)
        assert np.max(np.abs(out.final_field.coeff)) == 0.0


class TestSelfConvergence:
    def test_imex1_first_order(self):
        u0 = scaled_to(random_field(6, seed=90), 2, 0.4)
        params = EpitaxialParams(K0=0.0, K1=0.5, K2=1.0, K3=0.25)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            out = simulate(u0, params, StepperConfig(dt=dt, t_end=0.5, scheme="IMEX1"),
                           "epitaxial")
            finals.append(out.final_field.coeff)
        errs = [np.abs(finals[i] - finals[i + 1]).sum() for i in range(2)]
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    def test_etd2_second_order(self):
        # nonlinearity subordinate to the stiff linear part (K3 = 0); with
        # K3 > 0 the six-derivative quadratic term order-reduces the scheme
        v0 = random_field(6, seed=91, amplitude=0.05)
        params = ThinFilmParams(chi=0.1, p=2)
        finals = []
        for dt in (0.02, 0.01, 0.005):
            out = simulate(v0, params, StepperConfig(dt=dt, t_end=0.5, scheme="ETD2"),
                           "thinfilm")
            finals.append(out.final_field.coeff)
        errs = [np.abs(finals[i] - finals[i + 1]).sum() for i in range(2)]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def _symmetry_images(c, a):
    """Coefficients of u(x2, x1), u(-x1, x2) and u(x + a) from those of u:
    the D4 generators k1 <-> k2 and k1 -> -k1, and uhat(k) exp(i k.a)."""
    k = np.arange(c.shape[0]) - c.shape[0] // 2
    return [c.T, c[::-1], c * np.exp(1j * (a[0] * k[:, None] + a[1] * k))]


class TestSimulateInvariants:
    # Relative tolerances per norm, about 15 times the largest drift measured
    # on 960 runs of the property below (n = 1..12, 40 seeds, both models):
    # A^0 6.7e-16, A^2 5.8e-16, A^4 3.2e-15, A^6 5.9e-14 (thin film) and
    # 1.6e-15 for the final field against its largest coefficient.
    SYMMETRY_TOL = {"a0": 1e-14, "a2": 1e-14, "a4": 5e-14, "a6": 1e-12, "field": 2e-14}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["epitaxial", "thinfilm"]), st.integers(1, 12),
           st.integers(0, 2**31 - 1), st.tuples(*[st.floats(0.0, 2 * math.pi)] * 2))
    def test_a_run_commutes_with_the_symmetries_of_the_torus(self, model, n, seed, a):
        # each image is one more member of the batch: no oracle, and the
        # half-plane layout, the batch axis and the index signs all take part
        params = {"epitaxial": EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25),
                  "thinfilm": ThinFilmParams(chi=0.3, p=3)}[model]
        u0 = random_field(n, seed, amplitude=0.05, sigma=2.0)
        members = [u0] + [SpectralField(u0.modes, c) for c in _symmetry_images(u0.coeff, a)]
        stepper = StepperConfig(dt=1e-3, t_end=0.02, record_every=5)
        base, *images = simulate_batch(members, params, [stepper] * 4, model)
        tol = self.SYMMETRY_TOL
        for out, want in zip(images, _symmetry_images(base.final_field.coeff, a)):
            assert out.status == "completed"
            for name in ("a0", "a2", "a4", "a6"):
                got, ref = getattr(out.trace, name), getattr(base.trace, name)
                assert np.max(np.abs(got - ref) / ref) < tol[name], name
            assert max_abs_diff(out.final_field, want) < tol["field"] * np.max(np.abs(want))

    def test_mean_frozen_and_hermitian_states(self):
        u0 = random_field(6, seed=95, zero_mean=False)
        params = EpitaxialParams(K0=0.0, K1=0.3, K2=1.0, K3=0.1)
        out = simulate(u0, params, StepperConfig(dt=1e-3, t_end=0.2), "epitaxial")
        assert out.status == "completed"
        assert np.max(np.abs(out.trace.mean - u0.mean)) < 1e-12
        # the raw states of the march, before a SpectralField symmetrizes
        # them: each k2 = 0 column is its own mirror, bit for bit.  n = 2 and
        # 3 give odd and even N on the quadratic and the p = 3 power grid.
        for rhs in (EpitaxialRhs(2, params), EpitaxialRhs(3, params),
                    ThinFilmRhs(2, ThinFilmParams(chi=0.3, p=3)),
                    ThinFilmRhs(3, ThinFilmParams(chi=0.3, p=3))):
            etd2 = integrate._Etd2(rhs, 1e-3)
            stack = np.stack([random_field(rhs.n, s).half for s in range(3)])
            for c in (random_field(rhs.n, 7).half, stack):
                for _ in range(5):
                    c = etd2.advance(c)
                    col = c[..., 0]
                    assert np.array_equal(col, np.conj(col[..., ::-1]))

    def test_norms_non_increasing_in_smallness_regime(self):
        u0 = scaled_to(random_field(8, seed=96), 2, 0.5)
        params = EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25)
        out = simulate(u0, params, StepperConfig(dt=1e-3, t_end=1.0), "epitaxial")
        assert np.all(np.diff(out.trace.a0) <= 1e-9)
        assert np.all(np.diff(out.trace.a2) <= 1e-9)

    def test_trace_strictly_increasing_times(self):
        u0 = random_field(4, seed=97)
        out = simulate(u0, LINEAR, StepperConfig(dt=0.01, t_end=0.3, record_every=7),
                       "epitaxial")
        assert np.all(np.diff(out.trace.t) > 0)
        assert out.trace.t[-1] == pytest.approx(out.final_time)

    def test_thinfilm_requires_zero_mean(self):
        v0 = SpectralField.from_modes(4, [((0, 0), 0.3)])
        with pytest.raises(ValueError, match="zero mean"):
            simulate(v0, ThinFilmParams(chi=0.1, p=2), StepperConfig(dt=0.01, t_end=0.1),
                     "thinfilm")

    def test_loop_carries_the_half_block(self, monkeypatch):
        n = 5
        shapes, built = [], []
        nonlinear = EpitaxialRhs.nonlinear
        from_half = SpectralField._from_half
        monkeypatch.setattr(EpitaxialRhs, "nonlinear",
                            lambda self, c: shapes.append(c.shape) or nonlinear(self, c))
        monkeypatch.setattr(SpectralField, "_from_half",
                            classmethod(lambda cls, m, h: built.append(h.shape) or from_half(m, h)))
        u0 = random_field(n, seed=93)
        out = simulate(u0, EpitaxialParams(K1=0.3, K2=1.0), StepperConfig(dt=0.01, t_end=0.2),
                       "epitaxial")
        assert out.status == "completed"
        assert shapes and set(shapes) == {(1, 2 * n + 1, n + 1)}
        assert built == [(2 * n + 1, n + 1)]  # the final field only

    def test_exact_sums_only_for_trace_rows_far_from_the_boundaries(self, monkeypatch):
        # 100 steps recorded every 10: the initial row and ten more; the
        # per-step verdict needs no exact sum far from the threshold and the
        # float range.
        u0 = scaled_to(random_field(6, seed=95), 2, 0.3)
        calls = []
        sums = spectral._wiener_sums
        monkeypatch.setattr(spectral, "_wiener_sums",
                            lambda *a: calls.append(1) or sums(*a))
        out = simulate(u0, EpitaxialParams(K1=0.25, K2=1.0, K3=0.25),
                       StepperConfig(dt=1e-3, t_end=0.1, record_every=10), "epitaxial")
        assert out.status == "completed"
        assert len(out.trace) == 11
        assert len(calls) == 11

    @pytest.mark.parametrize("model, params, norm, value", [
        ("thinfilm", ThinFilmParams(chi=0.3, p=170), 0, 1e10),
        ("epitaxial", EpitaxialParams(K1=1.0, K2=1.0, K3=1.0), 2, 1e300),
    ])
    def test_overflow_is_a_numerical_failure_without_a_warning(self, model, params, norm,
                                                               value):
        # no errstate here: pytest turns a RuntimeWarning into an error
        u0 = scaled_to(random_field(4, seed=94, sigma=2.0), norm, value)
        out = simulate(u0, params, StepperConfig(dt=1e-3, t_end=0.01), model)
        assert out.status == "numerical_failure"
        assert out.final_time == 0.0
        assert np.array_equal(out.final_field.coeff, u0.coeff)

    def test_record_fields_every_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^record_fields_every must be >= 1, got 0$"):
            simulate(cos_x1(), LINEAR, StepperConfig(dt=0.01, t_end=0.1), "epitaxial",
                     record_fields_every=0)

    def test_threshold_must_exceed_initial_norm(self):
        u0 = cos_x1(eps=1.0)
        with pytest.raises(ValueError, match="threshold"):
            simulate(u0, LINEAR,
                     StepperConfig(dt=0.01, t_end=0.1, blowup_threshold=0.5), "epitaxial")


def verdict(c, a0, threshold):
    """(failed, blew_up) by integrate._verdict of the half block c as a one-member stack."""
    thresholds = np.array([threshold])
    quiet = integrate._quiet_levels(thresholds, c.shape[-1] - 1)
    status = integrate._verdict(c[None], np.array([a0]), thresholds, quiet).get(0)
    return status == integrate.STATUS_FAILURE, status == integrate.STATUS_BLOWUP


class TestBlowup:
    def test_large_amplitude_run_reports_blowup(self):
        # smallness violated by a wide margin: quadratic growth dominates
        u0 = scaled_to(random_field(8, seed=98, sigma=2.0), 0, 4.0)
        params = EpitaxialParams(K0=0.0, K1=5.0, K2=0.05, K3=0.0)
        out = simulate(u0, params,
                       StepperConfig(dt=1e-3, t_end=2.0, record_every=5,
                                     blowup_threshold=10.0 * wiener_norm(u0, 0)),
                       "epitaxial")
        assert out.status == "blowup_detected"
        assert out.final_time < 2.0
        assert out.trace.a0[-1] > 10.0 * wiener_norm(u0, 0)

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_blowup_state_reaches_on_record(self, record_every):
        u0 = scaled_to(random_field(8, seed=98, sigma=2.0), 0, 4.0)
        params = EpitaxialParams(K0=0.0, K1=5.0, K2=0.05, K3=0.0)
        seen = []
        out = simulate(u0, params,
                       StepperConfig(dt=1e-3, t_end=2.0, record_every=record_every,
                                     blowup_threshold=10.0 * wiener_norm(u0, 0)),
                       "epitaxial", on_record=lambda i, t, f: seen.append((i, f)),
                       record_fields_every=1000)
        assert out.status == "blowup_detected"
        assert [i for i, _ in seen] == [0, round(out.final_time / 1e-3)]
        assert out.trace.t[-1] == out.final_time
        assert np.array_equal(seen[-1][1].coeff, out.final_field.coeff)

    def test_threshold_within_roundoff_of_a_step_a0(self):
        # The crossing is decided on the correctly rounded A^0: one ulp below
        # the A^0 after step 1 trips at step 1, the value itself does not.
        u0 = scaled_to(random_field(8, seed=98, sigma=2.0), 0, 4.0)
        params = EpitaxialParams(K0=0.0, K1=5.0, K2=0.05, K3=0.0)

        def run(threshold):
            return simulate(u0, params,
                            StepperConfig(dt=1e-3, t_end=4e-3, record_every=1,
                                          blowup_threshold=threshold),
                            "epitaxial")

        a1 = float(run(None).trace.a0[1])
        below = run(math.nextafter(a1, 0.0))
        assert below.status == "blowup_detected"
        assert below.final_time == 1e-3
        at = run(a1)
        assert at.status == "blowup_detected"
        assert at.final_time == 2 * 1e-3

    @staticmethod
    def plain_a0(c):
        """The plain A^0 sum the run loop hands to _verdict."""
        a = np.abs(c)
        return float(a[:, 0].sum() + 2.0 * a[:, 1:].sum())

    def test_exact_a0_decides_within_roundoff_of_the_threshold(self):
        # The plain sum rounds 1 + x + x to 1, the exact A^0 is 1 + 2^-52: at
        # a threshold of 1 the exact row, not the plain sum, decides.
        x = 0.75 * 2.0**-53
        u = SpectralField.from_modes(1, [((0, 0), 1.0), ((1, 0), x), ((-1, 0), x)])
        a0 = self.plain_a0(u.half)
        assert a0 == 1.0 and wiener_norm(u, 0) == 1.0 + 2.0**-52
        assert verdict(u.half, a0, 1.0) == (False, True)
        assert verdict(u.half, a0, 1.0 + 2.0**-52) == (False, False)

    def test_non_finite_coefficient_fails_without_a_norm(self, monkeypatch):
        def no_norms(*args):
            raise AssertionError("a norm of a non-finite block")

        monkeypatch.setattr(integrate, "_norms", no_norms)
        c = random_field(3, seed=97).half.copy()
        for bad in (np.nan, np.inf, complex(np.inf, np.nan)):
            c[4, 2] = bad
            assert verdict(c, self.plain_a0(c), 10.0) == (True, False)

    def test_failure_keeps_last_finite_state(self):
        # absurd dt on an explosive run drives coefficients to overflow
        u0 = scaled_to(random_field(6, seed=99, sigma=1.0), 0, 50.0)
        params = EpitaxialParams(K0=0.0, K1=50.0, K2=0.01, K3=0.0)
        with np.errstate(all="ignore"):
            out = simulate(u0, params,
                           StepperConfig(dt=0.5, t_end=5.0, scheme="IMEX1",
                                         blowup_threshold=1e280),
                           "epitaxial")
        assert out.status in ("numerical_failure", "blowup_detected")
        assert np.isfinite(out.final_field.coeff).all()


def corner_field(n, value):
    """value at k = +-(n, n): the largest |k|, so A^6 is (2n^2)^3 A^0."""
    return SpectralField.from_modes(n, [((n, n), value), ((-n, -n), value)])


class TestNormOverflow:
    def test_initial_norm_past_the_float_range_is_rejected_before_stepping(self):
        u0 = corner_field(8, 1e303)  # A^0 = 2e303, A^6 = inf
        seen = []
        with pytest.raises(ValueError, match="Wiener norm a6 of the initial field"):
            simulate(u0, LINEAR, StepperConfig(dt=0.01, t_end=0.1), "epitaxial",
                     on_record=lambda i, t, f: seen.append(i))
        assert seen == []

    def test_step_rejects_initial_norm_past_the_float_range(self):
        with pytest.raises(ValueError, match="Wiener norm a6 of the initial field"):
            step(corner_field(8, 1e303), 0.01, LINEAR, "epitaxial")

    @pytest.mark.parametrize("threshold", [None, 1e300])
    def test_initial_a0_past_the_float_range_is_named_before_the_threshold(self, threshold):
        u0 = corner_field(8, 1e308)  # A^0 = 2e308 = inf
        stepper = StepperConfig(dt=0.01, t_end=0.1, blowup_threshold=threshold)
        with pytest.raises(ValueError, match=r"^the Wiener norm a0 of the initial field overflows "):
            simulate(u0, LINEAR, stepper, "epitaxial")

    def test_norm_overflow_during_run_is_a_numerical_failure(self, monkeypatch):
        monkeypatch.setattr(integrate._Etd2, "advance", lambda self, c: c * 10.0)
        u0 = corner_field(8, 0.5e300)  # A^0 = 1e300; A^6 passes the float range at step 2
        out = simulate(u0, LINEAR, StepperConfig(dt=0.01, t_end=0.1, record_every=1,
                                                 blowup_threshold=1e305), "epitaxial")
        assert out.status == "numerical_failure"
        assert out.final_time == 0.01
        assert np.array_equal(out.final_field.coeff, u0.coeff * 10.0)
        assert list(out.trace.t) == [0.0, 0.01]
        for col in (out.trace.a0, out.trace.a2, out.trace.a4, out.trace.a6):
            assert np.isfinite(col).all()
        assert all(math.isfinite(wiener_norm(out.final_field, s)) for s in (0, 2, 4, 6))

    def test_step_into_norm_overflow_is_a_floating_point_error(self, monkeypatch):
        monkeypatch.setattr(integrate._Etd2, "advance", lambda self, c: c * 10.0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            step(corner_field(8, 0.5e301), 0.01, LINEAR, "epitaxial")


class TestTraceRows:
    def test_a_recorded_row_costs_at_most_64_bytes(self):
        # each member's rows go into one float64 array of 7 columns, 56 B a
        # row; a list of 7-tuples takes 336 B a row
        u0 = random_field(2, 5)

        def peak(n_steps):
            stepper = StepperConfig(dt=1e-3, t_end=n_steps * 1e-3, record_every=1)
            tracemalloc.start()
            try:
                assert len(simulate(u0, LINEAR, stepper, "epitaxial").trace) == n_steps + 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)
        assert (peak(4000) - peak(2000)) / 2000 <= 64

    def test_rows_of_another_width_are_refused(self):
        with pytest.raises(ValueError, match=r"^trace rows have shape \(3, 6\), expected \(m, 7\)$"):
            integrate.NormTrace(np.zeros((3, 6)))

    def test_the_trace_is_one_read_only_array_with_column_views(self):
        out = simulate(cos_x1(), LINEAR, StepperConfig(dt=0.01, t_end=0.1, record_every=3),
                       "epitaxial")
        data = out.trace.data
        assert data.shape == (len(out.trace), 7) and not data.flags.writeable
        assert list(out.trace.t) == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
        for i, name in enumerate(out.trace.COLUMNS):
            col = getattr(out.trace, name)
            assert np.shares_memory(col, data) and np.array_equal(col, data[:, i])
        with pytest.raises(ValueError):
            out.trace.a0[0] = 1.0


EXPLOSIVE = EpitaxialParams(K0=0.0, K1=5.0, K2=0.05, K3=0.0)


class TestSimulateBatch:
    def members(self):
        # a quiet run, two blow-ups at different steps and an overflow
        u0s = [scaled_to(random_field(6, seed=90 + i, sigma=2.0), 0, a)
               for i, a in enumerate([0.1, 3.0, 0.5, 4.0])]
        steppers = [StepperConfig(dt=1e-3, t_end=0.05, record_every=3, blowup_threshold=b)
                    for b in (20.0, 20.0, 20.0, 1e300)]
        return u0s, steppers

    def assert_same(self, got, want):
        assert got.status == want.status
        assert got.final_time == want.final_time
        for name in ("t", "a0", "a2", "a4", "a6", "mean", "dt_used"):
            np.testing.assert_allclose(getattr(got.trace, name), getattr(want.trace, name),
                                       rtol=1e-14, atol=0)
        np.testing.assert_allclose(got.final_field.coeff, want.final_field.coeff,
                                   rtol=1e-14, atol=1e-300)

    def test_members_match_solo_runs(self):
        u0s, steppers = self.members()
        seen = [[] for _ in u0s]
        outs = simulate_batch(u0s, EXPLOSIVE, steppers, "epitaxial",
                              [lambda i, t, f, s=s: s.append(i) for s in seen], 10)
        assert [o.status for o in outs] == ["completed", "blowup_detected", "blowup_detected",
                                            "numerical_failure"]
        assert outs[1].final_time < outs[2].final_time
        for u0, stepper, out, steps in zip(u0s, steppers, outs, seen):
            solo_steps = []
            solo = simulate(u0, EXPLOSIVE, stepper, "epitaxial",
                            lambda i, t, f: solo_steps.append(i), 10)
            self.assert_same(out, solo)
            assert steps == solo_steps

    def test_a_permuted_batch_gives_the_permuted_outcomes_bit_for_bit(self):
        # a member's arithmetic does not depend on its place in the stack, also
        # after the blow-ups and the overflow have left it
        u0s, steppers = self.members()
        outs = simulate_batch(u0s, EXPLOSIVE, steppers, "epitaxial")
        assert [o.status for o in outs][1:] == ["blowup_detected", "blowup_detected",
                                                "numerical_failure"]
        bits = lambda a: a.view(np.int64).tolist()
        for order in ([3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
            permuted = simulate_batch([u0s[i] for i in order], EXPLOSIVE,
                                      [steppers[i] for i in order], "epitaxial")
            for i, got in zip(order, permuted):
                want = outs[i]
                assert (got.status, got.final_time) == (want.status, want.final_time)
                for name in ("t", "a0", "a2", "a4", "a6", "mean", "dt_used"):
                    assert bits(getattr(got.trace, name)) == bits(getattr(want.trace, name)), name
                assert bits(got.final_field.coeff) == bits(want.final_field.coeff)

    @pytest.mark.parametrize("record_every", [1, 10])
    def test_one_verdict_pass_gives_each_member_its_solo_outcome(self, monkeypatch, record_every):
        # a blow-up, an overflow, a quiet run, and a member whose threshold is
        # its own exact A^0 at step k: there its plain sum is not cleared, an
        # exact norm row finds A^0 not above it, and the member blows up at
        # step k + 1
        u0s, _ = self.members()
        stepper = StepperConfig(dt=1e-3, t_end=0.05, record_every=record_every)
        probe = simulate(u0s[2], EXPLOSIVE, replace(stepper, record_every=1), "epitaxial")
        k = 36
        threshold = float(probe.trace.a0[k])
        assert probe.trace.a0[0] < threshold < probe.trace.a0[k + 1]
        members = [(u0s[1], 20.0), (u0s[3], 1e300), (u0s[2], threshold), (u0s[0], 20.0)]
        steppers = [replace(stepper, blowup_threshold=b) for _, b in members]

        exact, integrate_norms = [], integrate._norms  # the A^0 of each exact row of a lone block
        calls, integrate_verdict = [], integrate._verdict  # per step: (not cleared, rows due, rows taken)

        def norms(c, *a):
            got = integrate_norms(c, *a)
            if c.ndim == 2:
                exact.append(got[0])
            return got

        def verdict(c, a0, thresholds, quiet):
            # one exact row per member the comparison does not clear, none for
            # a non-finite block whose plain sum is non-finite
            held = np.flatnonzero(~(a0 < quiet)).tolist()
            due = sum(math.isfinite(a0[j]) or np.isfinite(c[j]).all() for j in held)
            before = len(exact)
            ended = integrate_verdict(c, a0, thresholds, quiet)
            calls.append((len(held), due, len(exact) - before))
            return ended

        monkeypatch.setattr(integrate, "_norms", norms)
        monkeypatch.setattr(integrate, "_verdict", verdict)
        seen = [[] for _ in members]
        outs = simulate_batch([u for u, _ in members], EXPLOSIVE, steppers, "epitaxial",
                              [lambda i, t, f, s=s: s.append((i, t, f.coeff.tobytes())) for s in seen])
        assert [o.status for o in outs] == ["blowup_detected", "numerical_failure",
                                            "blowup_detected", "completed"]
        assert outs[2].final_time == (k + 1) * 1e-3
        assert threshold in exact
        assert len(calls) == round(0.05 / 1e-3)
        assert all(due == taken for _, due, taken in calls)
        # the blow-up at its crossing, the overflow at its nan step (no row),
        # the razor member at steps k and k + 1; the quiet member never
        assert [c for c in calls if c[0]] == [(1, 1, 1), (1, 0, 0), (1, 1, 1), (1, 1, 1)]
        assert [i for i, c in enumerate(calls, 1) if c[0]][2:] == [k, k + 1]

        bits = lambda a: a.view(np.int64).tolist()
        for (u0, _), member_stepper, out, steps in zip(members, steppers, outs, seen):
            solo_steps = []
            solo = simulate(u0, EXPLOSIVE, member_stepper, "epitaxial",
                            lambda i, t, f: solo_steps.append((i, t, f.coeff.tobytes())))
            assert (out.status, out.final_time) == (solo.status, solo.final_time)
            assert bits(out.trace.data) == bits(solo.trace.data)
            assert bits(out.final_field.coeff) == bits(solo.final_field.coeff)
            assert steps == solo_steps

        exact.clear()
        assert simulate(u0s[0], EXPLOSIVE, stepper, "epitaxial").status == "completed"
        assert exact == []  # a quiet run takes no exact row

    def test_members_must_share_the_stepper(self):
        u0s, _ = self.members()
        with pytest.raises(ValueError, match="share n and the stepper"):
            simulate_batch(u0s[:2], EXPLOSIVE, [StepperConfig(dt=1e-3, t_end=0.05),
                                                StepperConfig(dt=2e-3, t_end=0.05)], "epitaxial")
