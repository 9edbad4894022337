"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its measured figure.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from torusflow import (
    EpitaxialParams,
    SpectralField,
    StepperConfig,
    ThinFilmParams,
    TimeProfile,
    check_epitaxial_A0,
    check_epitaxial_A2,
    check_thinfilm_A0,
    delta_of_delta_sq,
    hessian_det2,
    monitor_apriori_A2,
    power_term,
    run_sweep,
    simulate,
    verify_decay_envelope,
    weak_residual,
    wiener_norm,
)
from _helpers import max_abs_diff, random_field, rel_err, scaled_to
from oracles import (
    convolve,
    delta_of_delta_sq_pointwise,
    grad_dot_grad_lap,
    grad_dot_grad_lap_pointwise,
    hessian_det2_pointwise,
    scale_modes,
    times_bilap,
    times_bilap_pointwise,
)

RUN5_PARAMS = EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25)
RUN5_N = 16
RUN5_DT = 1e-3
RUN5_T_END = 5.0
RUN5_FIELD_CADENCE = 10


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


@pytest.fixture(scope="module")
def run5_u0():
    return scaled_to(random_field(RUN5_N, seed=1205), 2, 0.5)


def _run5(u0, dt):
    fields = []
    t0 = time.perf_counter()
    out = simulate(u0, RUN5_PARAMS,
                   StepperConfig(dt=dt, t_end=RUN5_T_END, record_every=10),
                   "epitaxial",
                   on_record=lambda i, t, f: fields.append((t, f)),
                   record_fields_every=RUN5_FIELD_CADENCE)
    elapsed = time.perf_counter() - t0
    assert out.status == "completed"
    return out, fields, elapsed


@pytest.fixture(scope="module")
def run5(run5_u0):
    return _run5(run5_u0, RUN5_DT)


@pytest.fixture(scope="module")
def run5_half(run5_u0):
    return _run5(run5_u0, RUN5_DT / 2)


def test_c01_convolution_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        for i in range(200):
            f = random_field(n, seed=10_000 + 1000 * n + i, amplitude=0.5, sigma=1.0)
            g = random_field(n, seed=20_000 + 1000 * n + i, amplitude=0.5, sigma=1.0)
            fast = convolve(f, g, method="fft")
            direct = convolve(f, g, method="direct")
            worst = max(worst, max_abs_diff(fast, direct))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 30.0
    _report(1, f"fast vs direct convolution, 200 fields at n in (4,8,16): "
               f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_c02_fourier_identity_pinning():
    t0 = time.perf_counter()
    worst = {"hessian": 0.0, "ddsq": 0.0, "gradlap": 0.0, "timesbilap": 0.0}
    for i in range(100):
        u = random_field(8, seed=30_000 + i, amplitude=0.3, sigma=2.0)
        worst["hessian"] = max(worst["hessian"],
                               rel_err(hessian_det2(u).coeff, hessian_det2_pointwise(u).coeff))
        worst["ddsq"] = max(worst["ddsq"],
                            rel_err(delta_of_delta_sq(u).coeff,
                                    delta_of_delta_sq_pointwise(u).coeff))
        worst["gradlap"] = max(worst["gradlap"],
                               rel_err(grad_dot_grad_lap(u).coeff,
                                       grad_dot_grad_lap_pointwise(u).coeff))
        worst["timesbilap"] = max(worst["timesbilap"],
                                  rel_err(times_bilap(u).coeff,
                                          times_bilap_pointwise(u).coeff))
    elapsed = time.perf_counter() - t0
    assert all(v < 1e-10 for v in worst.values()), worst
    assert elapsed < 30.0
    _report(2, "spectral identities vs padded-grid oracle, 100 fields at n=8: "
               + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
               + f", {elapsed:.1f}s")


def test_c03_closed_form_nonlinearities():
    q = 0.25
    u = SpectralField.from_modes(4, [((1, 1), q), ((1, -1), q), ((-1, 1), q), ((-1, -1), q)])
    want = SpectralField.from_modes(
        4, [((2, 0), 0.5), ((-2, 0), 0.5), ((0, 2), 0.5), ((0, -2), 0.5)])
    d_hess = max_abs_diff(hessian_det2(u), want)

    cosx1 = SpectralField.from_modes(4, [((1, 0), 0.5), ((-1, 0), 0.5)])
    want = SpectralField.from_modes(4, [((2, 0), -1.0), ((-2, 0), -1.0)])
    d_ddsq = max_abs_diff(delta_of_delta_sq(cosx1), want)

    want = SpectralField.from_modes(4, [((0, 0), 1.5), ((1, 0), 1.0), ((-1, 0), 1.0),
                                        ((2, 0), 0.25), ((-2, 0), 0.25)])
    d_pow = max_abs_diff(power_term(cosx1, 2), want)

    assert d_hess < 1e-12 and d_ddsq < 1e-12 and d_pow < 1e-12
    _report(3, f"hand trig identities: hessian {d_hess:.2e}, "
               f"lap(lap u)^2 {d_ddsq:.2e}, (1+v)^2 {d_pow:.2e}")


def test_c04_exact_linear_decay():
    eps = 0.4
    params = EpitaxialParams(K0=0.5, K1=0.0, K2=1.0, K3=0.0)
    u0 = SpectralField.from_modes(4, [((1, 0), eps / 2), ((-1, 0), eps / 2)])
    worst = 0.0
    for dt in (0.1, 0.02, 0.004):
        out = simulate(u0, params, StepperConfig(dt=dt, t_end=1.0, record_every=1),
                       "epitaxial")
        exact = eps * np.exp(-(0.5 + 1.0) * out.trace.t)
        worst = max(worst, float(np.max(np.abs(out.trace.a2 - exact) / exact)))
    assert worst < 1e-8
    _report(4, f"ETD2 on the diagonal problem, dt in (0.1, 0.02, 0.004): "
               f"worst rel err {worst:.2e}")


def test_c05_epitaxial_a2_envelope(run5, run5_u0):
    t0 = time.perf_counter()
    report = check_epitaxial_A2(RUN5_PARAMS, wiener_norm(run5_u0, 2))
    assert report.satisfied and report.lam == pytest.approx(0.5, abs=1e-12)
    out, _, sim_elapsed = run5
    verdict = verify_decay_envelope(out.trace, "a2", report.lam, tol=1e-6)
    elapsed = sim_elapsed + (time.perf_counter() - t0)
    assert verdict.passed
    assert elapsed < 120.0
    _report(5, f"A^2 envelope at lambda=0.5 to t=5 (n=16, dt=1e-3): "
               f"worst ratio {verdict.worst_ratio:.9f} ({elapsed:.0f}s incl. run)")


def test_c06_epitaxial_a0_envelope():
    params = EpitaxialParams(K0=0.0, K1=1.0, K2=1.0, K3=0.0)
    u0 = scaled_to(random_field(16, seed=1206), 0, 0.4)
    report = check_epitaxial_A0(params, wiener_norm(u0, 0))
    assert report.satisfied and report.lam == pytest.approx(0.2, abs=1e-12)
    out = simulate(u0, params, StepperConfig(dt=1e-3, t_end=5.0), "epitaxial")
    assert out.status == "completed"
    verdict = verify_decay_envelope(out.trace, "a0", report.lam, tol=1e-6)
    assert verdict.passed
    _report(6, f"A^0 envelope at lambda=0.2 to t=5: worst ratio {verdict.worst_ratio:.9f}")


def test_c07_thinfilm_a0_envelope_and_mean():
    params = ThinFilmParams(chi=0.1, p=2, c_estimate=1.0)
    v0 = scaled_to(random_field(16, seed=1207), 0, 0.1)
    report = check_thinfilm_A0(params, wiener_norm(v0, 0))
    assert report.satisfied and report.lam == pytest.approx(0.64, abs=1e-12)
    out = simulate(v0, params, StepperConfig(dt=1e-3, t_end=5.0), "thinfilm")
    assert out.status == "completed"
    verdict = verify_decay_envelope(out.trace, "a0", report.lam, tol=1e-6)
    assert verdict.passed
    mean_u_drift = float(np.max(np.abs((1.0 + out.trace.mean) - 1.0)))
    assert mean_u_drift < 1e-12
    _report(7, f"thin-film A^0 envelope at lambda=0.64 to t=5: worst ratio "
               f"{verdict.worst_ratio:.9f}; mean(u) drift {mean_u_drift:.2e}")


def test_c08_apriori_monitor_along_run5(run5):
    _, fields, _ = run5
    assert len(fields) > 500
    worst = -np.inf
    for _, f in fields:
        lhs, rhs = monitor_apriori_A2(f, RUN5_PARAMS)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-8
    _report(8, f"A^2 differential inequality at {len(fields)} recorded states: "
               f"max(lhs - rhs) = {worst:.3e}")


def test_c09_inequality_property_suite():
    worst_banach = worst_interp2 = worst_interp4 = worst_poincare = -np.inf
    for i in range(1000):
        f = random_field(5, seed=40_000 + i, amplitude=0.4, sigma=1.5)
        g = random_field(5, seed=50_000 + i, amplitude=0.4, sigma=1.5)
        a = [wiener_norm(f, s) for s in (0, 2, 4, 6)]
        worst_banach = max(worst_banach,
                           wiener_norm(convolve(f, g), 0) - wiener_norm(f, 0) * wiener_norm(g, 0))
        worst_interp2 = max(worst_interp2, a[1] - math.sqrt(a[0] * a[2]))
        worst_interp4 = max(worst_interp4, a[2] - math.sqrt(a[1] * a[3]))
        worst_poincare = max(worst_poincare, a[0] - a[1], a[1] - a[2], a[2] - a[3])
    assert worst_banach <= 1e-12
    assert worst_interp2 <= 1e-12 and worst_interp4 <= 1e-12
    assert worst_poincare <= 1e-12
    _report(9, f"1000 fields: Banach slack {worst_banach:.2e}, interpolation "
               f"{worst_interp2:.2e}/{worst_interp4:.2e}, Poincare {worst_poincare:.2e}")


def test_c10_null_lagrangian_and_mean_conservation():
    worst_k0 = 0.0
    for i in range(100):
        u = random_field(8, seed=60_000 + i, amplitude=0.3, sigma=2.0)
        worst_k0 = max(worst_k0, abs(hessian_det2(u).coeff[8, 8]))
    assert worst_k0 < 1e-12

    steps = 10_000
    u0 = random_field(8, seed=61_000, amplitude=0.05, zero_mean=False)
    out_e = simulate(u0, EpitaxialParams(K0=0.0, K1=0.25, K2=1.0, K3=0.25),
                     StepperConfig(dt=1e-4, t_end=steps * 1e-4, record_every=100),
                     "epitaxial")
    drift_e = float(np.max(np.abs(out_e.trace.mean - u0.mean)))

    v0 = random_field(8, seed=61_001, amplitude=0.02)
    out_t = simulate(v0, ThinFilmParams(chi=0.1, p=2),
                     StepperConfig(dt=1e-4, t_end=steps * 1e-4, record_every=100),
                     "thinfilm")
    drift_t = float(np.max(np.abs(out_t.trace.mean)))
    assert out_e.status == out_t.status == "completed"
    assert drift_e < 1e-12 and drift_t < 1e-12
    _report(10, f"hessian zero mode {worst_k0:.2e}; mean drift over {steps} steps: "
                f"epitaxial {drift_e:.2e}, thin film {drift_t:.2e}")


def test_c11_scaling_criticality():
    lam = 2
    params = EpitaxialParams(K0=0.0, K1=0.5, K2=1.0, K3=0.0)
    u0 = scaled_to(random_field(8, seed=1211, sigma=2.0), 0, 0.3)

    assert wiener_norm(scale_modes(u0, lam), 0) == wiener_norm(u0, 0)

    t_short = 0.03
    dt_short = RUN5_DT / lam**4
    base = simulate(u0, params,
                    StepperConfig(dt=RUN5_DT, t_end=lam**4 * t_short), "epitaxial")
    scaled = simulate(scale_modes(u0, lam), params,
                      StepperConfig(dt=dt_short, t_end=t_short), "epitaxial")
    assert base.status == scaled.status == "completed"
    diff = wiener_norm(
        SpectralField(scaled.final_field.modes,
                      scaled.final_field.coeff - scale_modes(base.final_field, lam).coeff),
        0)
    assert diff < 1e-6
    _report(11, f"solution map commutes with mode scaling (lam=2): A^0 diff {diff:.2e}; "
                "norm equality exact")


def test_c12_weak_residual_refinement(run5, run5_half):
    t0 = time.perf_counter()
    _, fields, _ = run5
    _, fields_half, _ = run5_half
    # subsample 2x so the quadrature step is 20 dt on both runs; it halves
    # with dt, and the trapezoid error then dominates the state error
    fields = fields[::2]
    fields_half = fields_half[::2]
    times = np.array([t for t, _ in fields])
    states = [f for _, f in fields]
    times_h = np.array([t for t, _ in fields_half])
    states_h = [f for _, f in fields_half]
    assert times[-1] == times_h[-1] == RUN5_T_END
    prof = TimeProfile.vanishing_at(RUN5_T_END, power=2)
    phis = [
        SpectralField.from_modes(RUN5_N, [((1, 0), 0.5), ((-1, 0), 0.5)]),
        SpectralField.from_modes(RUN5_N, [((1, 1), 0.25), ((1, -1), 0.25),
                                          ((-1, 1), 0.25), ((-1, -1), 0.25)]),
        random_field(RUN5_N, seed=1212, amplitude=0.3, sigma=1.0, support=2),
    ]
    ratios = []
    for phi in phis:
        r = weak_residual(times, states, phi, prof, "epitaxial", RUN5_PARAMS)
        r_half = weak_residual(times_h, states_h, phi, prof, "epitaxial", RUN5_PARAMS)
        ratios.append(r / r_half)
    elapsed = time.perf_counter() - t0
    assert all(r >= 3.5 for r in ratios), ratios
    _report(12, "weak residual shrink at dt -> dt/2 for three test functions: "
                + ", ".join(f"{r:.2f}x" for r in ratios) + f" ({elapsed:.0f}s)")


def test_c13_sweep_threshold_mapping(tmp_path):
    t0 = time.perf_counter()
    base = {
        "model": "epitaxial",
        "n": 8,
        "params": {"K0": 0.0, "K1": 0.25, "K2": 1.0, "K3": 0.25},
        "initial_data": {"kind": "random_decay", "amplitude": 0.1, "sigma": 3.0,
                         "normalize": {"norm": "a2", "value": 0.5}},
        "stepper": {"dt": 2e-3, "t_end": 2.5, "record_every": 10},
        "seed": 13,
    }
    # margin = K2 - 2 (K1 + K3) a2 = 1 - a2: analytic threshold at a2 = 1
    values = [round(0.05 + 0.1 * i, 2) for i in range(20)]
    rows = run_sweep(base, [("initial_data.normalize.value", values)], str(tmp_path))
    assert len(rows) == 20
    flips = []
    for v, row in zip(values, rows):
        analytic = 1.0 - v > 0
        assert row["satisfied"] == analytic, (v, row)
        flips.append(row["satisfied"])
        if row["satisfied"]:
            assert row["status"] == "completed"
            assert row["envelope_passed"] is True
    assert flips == [True] * 10 + [False] * 10  # flip between 0.95 and 1.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(13, f"20-point sweep flips satisfied at the analytic threshold a2=1; "
                f"all satisfied runs pass envelopes ({elapsed:.0f}s)")
