"""Tests for windowed spectral sensing: DFT, stencil gradient, steering signal."""

import math
import warnings

import numpy as np
import pytest

from phaseseek import (
    TWO_PI,
    DegenerateMagnitudeError,
    Field,
    QuasiSteadyWarning,
    RadialField,
    SensingConfig,
    analytic_sample,
    check_quasi_steady,
    dft_first_mode,
    field_from_bundle,
    first_mode_coeffs,
    spectral_sample,
    synth_wake,
    wrap_angle,
    wrap_phase,
)
from phaseseek.fields import UndefinedDirectionError, _twiddle
from phaseseek.sensing import _stencil_mode, lateral_signal
from traveling_wave import TravelingWaveField, TravelingWaveMode


class _ZeroField(Field):
    """Identically zero signal with the standard period."""

    @property
    def period(self):
        return TWO_PI

    def eval_windows(self, points, t0, n):
        return np.zeros((len(points), n))


def _steer(grad, theta):
    # lateral_signal at heading theta on a gradient pair or array
    return lateral_signal(float(grad[0]), float(grad[1]), math.sin(theta),
                          math.cos(theta))


def test_config_validation():
    with pytest.raises(ValueError):
        SensingConfig(n_samples=4)
    with pytest.raises(ValueError):
        SensingConfig(stencil_h=0.0)
    with pytest.raises(ValueError):
        SensingConfig(stencil_h=0.2)
    with pytest.raises(ValueError):
        SensingConfig(m_floor=0.0)


@pytest.mark.parametrize("settings", [
    {"m_floor": math.inf}, {"m_floor": math.nan}, {"m_floor": -1.0},
    {"n_samples": 64.5}, {"n_samples": 64.0}, {"n_samples": "64"}])
def test_config_takes_one_floor_rule_and_a_whole_sample_count(settings):
    # GainLaw's floor rule, 0 < m_floor < inf: an infinite floor once
    # ended a run sensing_failure; 64.5 samples once read the radial m at
    # (3, 4) as 0.461871 against the true 0.463369
    (name,) = settings
    with pytest.raises(ValueError, match=name):
        SensingConfig(**settings)


def test_config_takes_a_numpy_sample_count():
    assert SensingConfig(n_samples=np.int64(16)).n_samples == 16


def test_sample_window_values():
    field = RadialField(6.5)
    cfg = SensingConfig()
    window = field.eval_window((3.0, 0.0), 0.0, cfg.n_samples)
    assert len(window) == cfg.n_samples
    assert window[0] == pytest.approx(-1.248010650478138, abs=1e-12)
    # stationary field: shifting the window start by a period changes nothing
    again = field.eval_window((3.0, 0.0), TWO_PI, cfg.n_samples)
    assert np.allclose(window, again, atol=1e-12)


def test_dft_recovers_cos_sin_quadratures():
    # series A cos(w1 t) + B sin(w1 t) has first-mode coefficient (A - iB)/2
    rng = np.random.default_rng(10)
    n = 64
    t = np.arange(n) * (TWO_PI / n)
    for _ in range(200):
        a, b = rng.uniform(-3.0, 3.0, size=2)
        c = dft_first_mode(a * np.cos(t) + b * np.sin(t), TWO_PI)
        assert c.real == pytest.approx(a / 2.0, abs=1e-12)
        assert c.imag == pytest.approx(-b / 2.0, abs=1e-12)


def test_dft_traveling_wave_convention():
    # traveling-wave quadratures (alpha, beta) come back as (alpha + i beta)/2
    field = TravelingWaveField(
        [TravelingWaveMode(1.2, -0.7, 1.0, (0.7, -0.7))])
    cfg = SensingConfig()
    c = dft_first_mode(field.eval_window((0.0, 0.0), 0.0, cfg.n_samples),
                       field.period)
    assert c == pytest.approx((1.2 - 0.7j) / 2.0, abs=1e-12)


def test_dft_rejects_higher_harmonics():
    rng = np.random.default_rng(11)
    n = 64
    t = np.arange(n) * (TWO_PI / n)
    for k in (2, 3, 5):
        for _ in range(20):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            c = dft_first_mode(a * np.cos(k * t) + b * np.sin(k * t), TWO_PI)
            assert abs(c) < 1e-12
    # constant offsets vanish too
    assert abs(dft_first_mode(np.full(n, 2.7), TWO_PI)) < 1e-12


def test_dft_needs_enough_samples():
    with pytest.raises(ValueError):
        dft_first_mode(np.zeros(4), TWO_PI)


def test_twiddle_is_cached_and_read_only():
    twiddle = _twiddle(64, TWO_PI)
    assert _twiddle(64, TWO_PI) is twiddle
    assert not twiddle.flags.writeable
    with pytest.raises(ValueError):
        twiddle[0] = 0.0
    assert _twiddle(32, TWO_PI) is not twiddle


def test_first_mode_coeffs_rows_equal_one_window_dft():
    # the one-window DFT, written out independently, is the reference for
    # each row, also when the rows arrive as a transposed (non-contiguous)
    # view
    def one_window_dft(series, period):
        n = len(series)
        t = np.arange(n) * (period / n)
        return complex(np.mean(series * np.exp(-1j * (TWO_PI / period) * t)))

    rng = np.random.default_rng(14)
    for n, period in ((64, TWO_PI), (37, 2.9), (8, 0.5)):
        windows = rng.normal(size=(n, 6)).T
        coeffs = first_mode_coeffs(windows, period)
        assert coeffs.shape == (6,)
        for row, c in zip(windows, coeffs):
            assert complex(c) == one_window_dft(row, period)
            assert dft_first_mode(row, period) == complex(c)
    with pytest.raises(ValueError):
        first_mode_coeffs(np.zeros((3, 4)), TWO_PI)


def test_bundle_spectral_sample_equals_five_window_oracle():
    # five separate windows and DFTs, as the sensor took them one by one
    field = field_from_bundle(synth_wake())
    cfg = SensingConfig()
    h = cfg.stencil_h
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = np.array([rng.uniform(0.5, 12.0), rng.uniform(-3.0, 3.0)])
        t0 = float(rng.uniform(0.0, 30.0))
        theta = float(rng.uniform(-math.pi, math.pi))

        def coeff(p):
            return dft_first_mode(field.eval_window(p, t0, cfg.n_samples),
                                  field.period)

        centre = coeff(x)
        probes = [coeff(x + d) for d in
                  ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
        phis = [math.atan2(c.imag, c.real) for c in probes]
        grad = np.array([wrap_angle(phis[0] - phis[1]) / (2.0 * h),
                         wrap_angle(phis[2] - phis[3]) / (2.0 * h)])
        phi = wrap_phase(math.atan2(centre.imag, centre.real)
                         - TWO_PI / field.period * t0)

        got = spectral_sample(field, x, t0, theta, cfg)
        assert got.m == abs(centre)
        assert got.phi == phi
        assert np.array_equal(got.grad_phi, grad)
        assert got.s == _steer(grad, theta)


def test_spectral_sample_matches_truth():
    field = RadialField(6.5)
    cfg = SensingConfig()
    rng = np.random.default_rng(12)
    for _ in range(50):
        r = float(rng.uniform(0.5, 20.0))
        ang = float(rng.uniform(0.0, TWO_PI))
        x = (r * math.cos(ang), r * math.sin(ang))
        t0 = float(rng.uniform(0.0, 20.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        got = spectral_sample(field, x, t0, theta, cfg)
        truth = field.analytic_spectra(x)
        assert got.m == pytest.approx(truth.m, abs=1e-10)
        assert wrap_angle(got.phi - truth.phi) == pytest.approx(0.0, abs=1e-10)
        gdir = math.atan2(got.grad_phi[1], got.grad_phi[0])
        tdir = math.atan2(truth.grad_phi[1], truth.grad_phi[0])
        assert wrap_angle(gdir - tdir) == pytest.approx(0.0, abs=1e-3)


def _phase_gradient(field, x, t0, config):
    return spectral_sample(field, x, t0, 0.0, config).grad_phi


def test_phase_gradient_values():
    field = RadialField(6.5)
    cfg = SensingConfig()
    g = _phase_gradient(field, (3.0, 0.0), 0.0, cfg)
    assert g[0] == pytest.approx(-1.0, abs=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-6)
    g = _phase_gradient(field, (0.0, 5.0), 0.0, cfg)
    assert g[0] == pytest.approx(0.0, abs=1e-6)
    assert g[1] == pytest.approx(-1.0, abs=1e-6)


def test_phase_gradient_exact_for_linear_phase():
    field = TravelingWaveField(
        [TravelingWaveMode(1.0, 0.5, 1.0, (0.8, -0.3))])
    cfg = SensingConfig()
    g = _phase_gradient(field, (2.0, 1.0), 0.7, cfg)
    assert g[0] == pytest.approx(-0.8, abs=1e-9)
    assert g[1] == pytest.approx(0.3, abs=1e-9)


def test_phase_gradient_second_order_in_h():
    # direction error on curved wavefronts halves twice per halving of h
    field = RadialField(6.5)
    x = (1.3, 0.7)
    bearing = math.atan2(x[1], x[0]) + math.pi

    def direction_error(h):
        g = _phase_gradient(field, x, 0.0, SensingConfig(stencil_h=h))
        return abs(wrap_angle(math.atan2(g[1], g[0]) - bearing))

    ratio = direction_error(0.08) / direction_error(0.04)
    assert 3.5 < ratio < 4.5


class _HalfField(RadialField):
    """The radial field for x >= 1 and zero signal below."""

    def eval_windows(self, points, t0, n):
        windows = super().eval_windows(points, t0, n)
        windows[np.asarray(points)[:, 0] < 1.0] = 0.0
        return windows


def test_phase_gradient_degenerate_magnitude():
    # a healthy centre with one silent probe (at x - h e_x) still raises
    with pytest.raises(DegenerateMagnitudeError):
        _phase_gradient(_HalfField(6.5), (1.0, 1.0), 0.0, SensingConfig())
    assert spectral_sample(_HalfField(6.5), (1.5, 1.0), 0.0, 0.0,
                           SensingConfig()).m > 0
    with pytest.raises(DegenerateMagnitudeError):
        spectral_sample(_ZeroField(), (1.0, 1.0), 0.0, 0.0, SensingConfig())


def test_a_degenerate_magnitude_is_a_value_error():
    # every sensing fault is a ValueError, which both drivers end as a
    # sensing failure
    assert issubclass(DegenerateMagnitudeError, ValueError)


@pytest.mark.parametrize("nan_at", range(5))
def test_a_nan_magnitude_is_degenerate(nan_at):
    # a NaN centre or probe fails the floor like a silent one; min() would
    # drop a NaN that is not its first argument and steer a full hard turn
    coeffs = [1.0, 1.0, 1j, 1.0, 1.0]
    coeffs[nan_at] = math.nan
    with pytest.raises(DegenerateMagnitudeError, match="nan below floor"):
        _stencil_mode(coeffs, 0.01, 1e-9)
    coeffs[nan_at] = complex(math.nan, 1.0)
    with pytest.raises(DegenerateMagnitudeError):
        _stencil_mode(coeffs, 0.01, 1e-9)


def test_lateral_signal():
    grad = (-1.0, 0.0)
    # heading +y puts the gradient 90 degrees to starboard: full turn signal
    assert _steer(grad, math.pi / 2) == pytest.approx(1.0)
    assert _steer(grad, -math.pi / 2) == pytest.approx(-1.0)
    assert _steer(grad, 0.0) == pytest.approx(0.0, abs=1e-15)
    # scale invariance and clipping
    assert _steer((-9.0, 0.0), math.pi / 2) == pytest.approx(1.0)
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = rng.uniform(-2.0, 2.0, size=2)
        if math.hypot(*g) < 1e-6:
            continue
        theta = float(rng.uniform(-math.pi, math.pi))
        s = _steer(g, theta)
        assert -1.0 <= s <= 1.0
        assert _steer(3.0 * g, theta) == pytest.approx(s, abs=1e-15)
    # no direction: UndefinedDirectionError, a ValueError
    for grad in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
        with pytest.raises(UndefinedDirectionError):
            _steer(grad, 0.3)


def test_lateral_signal_clips_like_min_max():
    # the chained-comparison clip must agree with min(1, max(-1, s)) on
    # every float, NaN and signed zeros included; a gradient whose norm is
    # zero, infinite or NaN has no direction
    rng = np.random.default_rng(17)
    cases = [((-1.0, 0.0), math.pi / 2), ((0.0, 1.0), 0.0),
             ((0.0, -0.0), 0.0), ((-0.0, 3.0), math.pi / 2),
             ((math.inf, 1.0), 0.2), ((math.nan, 1.0), 0.2),
             ((1.0, 1.0), math.nan)]
    cases += [(tuple(rng.uniform(-2.0, 2.0, size=2)),
               float(rng.uniform(-10.0, 10.0))) for _ in range(2000)]
    for (gx, gy), theta in cases:
        norm = math.hypot(gx, gy)
        if not 0.0 < norm < math.inf:
            with pytest.raises(UndefinedDirectionError):
                lateral_signal(gx, gy, math.sin(theta), math.cos(theta))
            continue
        raw = (-gx * math.sin(theta) + gy * math.cos(theta)) / norm
        got = lateral_signal(gx, gy, math.sin(theta), math.cos(theta))
        want = min(1.0, max(-1.0, raw))
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_analytic_sample_matches_truth_exactly():
    field = RadialField(6.5)
    sample = analytic_sample(field, (3.0, 0.0), math.pi / 2)
    truth = field.analytic_spectra((3.0, 0.0))
    assert sample.m == truth.m
    assert sample.phi == truth.phi
    assert sample.s == _steer(truth.grad_phi, math.pi / 2)


def test_analytic_sample_names_a_field_without_spectra():
    class Plain(_ZeroField):
        def analytic_mode(self, x, y):
            raise AssertionError("the field must not be read")

    with pytest.raises(ValueError, match="^Plain has no analytic spectra$"):
        analytic_sample(Plain(), (3.0, 0.0), 0.0)


def test_quasi_steady_warning():
    # nominal radial parameters travel a full wavelength per window: warn
    with pytest.warns(QuasiSteadyWarning):
        violated = check_quasi_steady(1.0, TWO_PI, 1.0)
    assert violated
    # slow drift across a long wavelength is fine
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not check_quasi_steady(1.0, TWO_PI, 1e-4)
        assert not check_quasi_steady(1.0, TWO_PI, 0.0)
        assert not check_quasi_steady(1.0, TWO_PI, math.nan)


def test_quasi_steady_takes_no_wavelength_from_an_infinite_gradient():
    # an infinite gradient has no direction (lateral_signal raises on it),
    # so it gives no wavelength either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not check_quasi_steady(1.0, TWO_PI, math.inf)
