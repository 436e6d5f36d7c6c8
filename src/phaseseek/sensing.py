"""Onboard spectral sensing: windowed single-bin DFT estimates of m, phi
and grad phi, and the one steering formula, lateral_signal.

The sensor holds still for one signal period, samples the field uniformly,
and projects onto the first temporal mode. Phase gradients come from
repeating that estimate on a small cross-shaped stencil and differencing
the wrapped phases. spectral_sample is the reference estimator: the centre
and the four stencil probes are one batched field evaluation
(Field.eval_windows) and one single-bin DFT over its rows
(first_mode_coeffs), the same kernel the gridded spectral maps use. The
closed loop senses (m, grad phi) only: it asks the field for the five
coefficients directly (Field.window_coeffs), which is the same window DFT
by default and, for a bundle-backed field, one bilinear read of the cached
first-mode map scaled by a window factor that the field computes once per
window start time. It steers with lateral_signal once per stage. Both
paths share one floor check and one wrapped stencil difference
(_stencil_mode).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    TWO_PI,
    UndefinedDirectionError,
    _MIN_SAMPLES,
    _at_least,
    _require,
    _whole,
    first_mode_coeffs,
    wrap_angle,
    wrap_phase,
)


class DegenerateMagnitudeError(ValueError):
    """First-mode magnitude fell below the floor; phase is meaningless there."""


class QuasiSteadyWarning(UserWarning):
    """The sensor moves a non-negligible fraction of a wavelength per window."""


@dataclass(frozen=True)
class SensingConfig:
    """Estimator settings.

    Attributes
    ----------
    n_samples : int
        Samples per window, a whole number of at least 8.
    stencil_h : float
        Half-width of the gradient stencil, 0 < h <= 0.1.
    m_floor : float
        Magnitude below which the phase is treated as degenerate,
        0 < m_floor < inf (GainLaw's rule).
    """

    n_samples: int = 64
    stencil_h: float = 0.01
    m_floor: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "n_samples", _require("n_samples", _whole(
            "n_samples", self.n_samples), _at_least(_MIN_SAMPLES)))
        # Python floats, so a run's sidecar can write them
        object.__setattr__(self, "stencil_h", float(_require(
            "stencil_h", self.stencil_h,
            ("in (0, 0.1]", lambda h: 0.0 < h <= 0.1))))
        object.__setattr__(self, "m_floor", float(
            _require("m_floor", self.m_floor, "finite", "positive")))


@dataclass
class SpectralSample:
    """One onboard spectral estimate.

    m is the first-mode magnitude, phi the phase in [0, 2*pi) referenced to
    absolute time t = 0, grad_phi the stencil phase gradient and s the
    steering signal in [-1, 1].
    """

    m: float
    phi: float
    grad_phi: np.ndarray
    s: float


def dft_first_mode(series, period):
    """Single-bin DFT of one uniformly sampled period.

    The one-row case of first_mode_coeffs. For a pure tone
    2 m cos(omega1 t - phi0) this is exactly m * exp(-i phi0).
    """
    series = np.asarray(series, dtype=float)
    return complex(first_mode_coeffs(series[np.newaxis], period)[0])


# a module name, so lateral_signal's per-stage test needs no attribute lookup
_INF = math.inf

# largest share of the local wavelength the sensor may cross per window
_QUASI_STEADY_FRACTION = 0.1


def _stencil_points(x, y, h):
    """The centre (x, y) and its probes +e_x, -e_x, +e_y, -e_y at
    half-width h, as a tuple of float pairs.

    Each coordinate is x + h * offset with a unit offset. The signed zeros
    make it round exactly like x, x + (h, 0), x - (h, 0), x + (0, h) and
    x - (0, h), even for a coordinate of -0.0.
    """
    return ((x + h * -0.0, y + h * -0.0), (x + h * 1.0, y + h * 0.0),
            (x + h * -1.0, y + h * -0.0), (x + h * 0.0, y + h * 1.0),
            (x + h * -0.0, y + h * -1.0))


def _check_resolution(x, y, h):
    """ValueError unless the five _stencil_points at (x, y) are distinct."""
    if len(set(_stencil_points(x, y, h))) < 5:
        raise ValueError(
            f"stencil_h = {h} is below the float resolution of the start "
            f"({x}, {y}): a stencil probe rounds onto it")


def _stencil_mode(coeffs, h, m_floor):
    """Magnitude and phase gradient from the five stencil coefficients.

    coeffs are the first-mode coefficients of the centre and of the probes
    in _stencil_points order, as Python complex numbers. Every magnitude
    must reach m_floor, or DegenerateMagnitudeError is raised; a NaN
    magnitude does not reach it. The gradient is the centred wrapped phase
    difference of each probe pair. Returns the floats (m, gx, gy).
    """
    centre, east, west, north, south = coeffs
    # not min(): it would drop a NaN that is not its first argument
    for c in coeffs:
        if not abs(c) >= m_floor:
            raise DegenerateMagnitudeError(
                f"magnitude {abs(c):.3e} below floor {m_floor:.3e}")
    gx = wrap_angle(math.atan2(east.imag, east.real)
                    - math.atan2(west.imag, west.real)) / (2.0 * h)
    gy = wrap_angle(math.atan2(north.imag, north.real)
                    - math.atan2(south.imag, south.real)) / (2.0 * h)
    return abs(centre), gx, gy


def lateral_signal(gx, gy, sin_theta, cos_theta):
    """The steering signal s from the phase gradient (gx, gy) and the
    heading's sine and cosine.

    s = (grad phi / ||grad phi||) . (-sin theta, cos theta), clipped to
    [-1, 1] against roundoff, computed as the projection over the norm. A
    gradient whose norm is zero, infinite or NaN has no direction and
    raises UndefinedDirectionError.
    """
    norm = math.hypot(gx, gy)
    # phrased so that a NaN norm fails it
    if not 0.0 < norm < _INF:
        raise UndefinedDirectionError(
            f"phase gradient ({gx:.3g}, {gy:.3g}) has no direction")
    s = (-gx * sin_theta + gy * cos_theta) / norm
    # min(1.0, max(-1.0, s)) without two calls; NaN still maps to -1.0
    return s if -1.0 < s < 1.0 else 1.0 if s >= 1.0 else -1.0


def spectral_sample(field, x, t0, theta, config):
    """Full onboard estimate at pose (x, theta) from a window starting at t0.

    Five spectral windows are taken in one batch: the centre point for
    (m, phi) and four stencil probes at x +/- h e_x and x +/- h e_y for
    grad phi, the centred wrapped phase differences of the probes. Every
    magnitude must reach config.m_floor. The centre phase is rotated by
    exp(-i omega1 t0) so estimates are referenced to absolute time t = 0
    regardless of when the window starts; the probe phases share t0, so it
    cancels in their differences. A t0 so large that ulp(|t0| + period)
    reaches stencil_h raises ValueError: the window's times would round
    the probes together, and the gradient would read that rounding.
    """
    for name, value in (("x", x), ("t0", t0), ("theta", theta)):
        _require(name, value, "finite")
    h = config.stencil_h
    if not math.ulp(abs(t0) + field.period) < h:
        raise ValueError(f"t0 must keep ulp(|t0| + period) below stencil_h "
                         f"= {h!r} so that the probes stay apart, got {t0}")
    windows = field.eval_windows(
        _stencil_points(float(x[0]), float(x[1]), h), t0, config.n_samples)
    coeffs = first_mode_coeffs(windows, field.period).tolist()
    m, gx, gy = _stencil_mode(coeffs, h, config.m_floor)
    centre = coeffs[0]
    omega1 = TWO_PI / field.period
    phi = wrap_phase(math.atan2(centre.imag, centre.real) - omega1 * t0)
    return SpectralSample(m=m, phi=phi, grad_phi=np.array([gx, gy]),
                          s=lateral_signal(gx, gy, math.sin(theta),
                                           math.cos(theta)))


def analytic_sample(field, x, theta):
    """Idealized sample from the field's exact spectra (no windowing error).
    A field with no analytic_spectra raises ValueError."""
    for name, value in (("x", x), ("theta", theta)):
        _require(name, value, "finite")
    spectra = getattr(field, "analytic_spectra", None)
    if spectra is None:
        raise ValueError(f"{type(field).__name__} has no analytic spectra")
    truth = spectra(x)
    s = lateral_signal(float(truth.grad_phi[0]), float(truth.grad_phi[1]),
                       math.sin(theta), math.cos(theta))
    return SpectralSample(m=truth.m, phi=truth.phi, grad_phi=truth.grad_phi,
                          s=s)


def check_quasi_steady(speed, period, grad_norm):
    """Warn when the sensor crosses more than a tenth of a wavelength per
    window.

    The windowed estimator samples each window at a frozen stencil, so it
    leaves out the sensor's travel V * T during the window: a fair model
    while V * T is small against the local wavelength 2*pi/||grad phi||.
    Not an error. A grad_norm that is zero, infinite or NaN gives no
    wavelength and never warns.
    """
    if not 0.0 < grad_norm < _INF:
        return False
    wavelength = TWO_PI / grad_norm
    if speed * period > _QUASI_STEADY_FRACTION * wavelength:
        warnings.warn(
            f"sensor travels {speed * period:.3g} per window against a local "
            f"wavelength of {wavelength:.3g}; the frozen-window estimate "
            "leaves this travel out",
            QuasiSteadyWarning,
            stacklevel=2,
        )
        return True
    return False
