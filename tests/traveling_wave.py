"""A superposition of plane traveling waves: a test fixture field.

The paper's seeker meets a radial source and an airfoil's wake; this
field is neither. The tests use it as an analytic field that RadialField
is not: several modes, harmonics above the first, a linear phase whose
gradient is exact at every point, quadratures that read back through the
DFT convention, and a first mode that can vanish. It subclasses the
library's Field, so the drivers run it as they run any field.
"""

import math
from dataclasses import dataclass

import numpy as np

from phaseseek.fields import (
    TWO_PI,
    Field,
    SpectralTruth,
    UndefinedDirectionError,
    _offsets,
    wrap_phase,
)


@dataclass
class TravelingWaveMode:
    """One plane traveling-wave component.

    Contributes alpha*cos(u) + beta*sin(u) with u = k_vec . (x - x_base) - omega_n * t.
    """

    alpha: float
    beta: float
    omega_n: float
    k_vec: np.ndarray

    def __post_init__(self):
        self.k_vec = np.asarray(self.k_vec, dtype=float)
        if self.k_vec.shape != (2,):
            raise ValueError("k_vec must be a 2-vector")
        if not (0 < self.omega_n < math.inf and all(
                map(math.isfinite, (self.alpha, self.beta, *self.k_vec)))):
            raise ValueError("alpha, beta and k_vec must be finite and "
                             f"omega_n finite and positive, got {self}")


class TravelingWaveField(Field):
    """Finite superposition of plane traveling waves sharing a common period.

    Mode frequencies must be integer multiples of a common fundamental;
    the field period is 2*pi over that fundamental.
    """

    def __init__(self, modes, base_point=(0.0, 0.0)):
        if not modes:
            raise ValueError("at least one traveling-wave mode is required")
        self.modes = list(modes)
        self.base_point = np.asarray(base_point, dtype=float)
        omega1 = min(mode.omega_n for mode in self.modes)
        for mode in self.modes:
            ratio = mode.omega_n / omega1
            if abs(ratio - round(ratio)) > 1e-9:
                raise ValueError(
                    "mode frequencies must be integer multiples of the fundamental"
                )
        self.omega1 = omega1
        self.period = TWO_PI / omega1

    def eval_windows(self, points, t0, n):
        points = np.asarray(points, dtype=float)
        dx = points[:, 0] - self.base_point[0]
        dy = points[:, 1] - self.base_point[1]
        t = t0 + _offsets(n, self.period)
        total = np.zeros((len(points), n))
        for mode in self.modes:
            phase = mode.k_vec[0] * dx + mode.k_vec[1] * dy
            u = phase[:, None] - mode.omega_n * t
            total += mode.alpha * np.cos(u) + mode.beta * np.sin(u)
        return total

    def analytic_spectra(self, x):
        # Only modes at the fundamental frequency land in the first bin.
        dx = float(x[0]) - self.base_point[0]
        dy = float(x[1]) - self.base_point[1]
        c = 0.0 + 0.0j
        dc = np.zeros(2, dtype=complex)
        for mode in self.modes:
            if abs(mode.omega_n / self.omega1 - 1.0) > 1e-9:
                continue
            coeff = 0.5 * (mode.alpha + 1j * mode.beta)
            phase = mode.k_vec[0] * dx + mode.k_vec[1] * dy
            term = coeff * np.exp(-1j * phase)
            c += term
            dc += -1j * mode.k_vec * term
        m = abs(c)
        if m == 0.0:
            raise UndefinedDirectionError(
                "first-mode amplitude vanishes; phase undefined")
        phi = wrap_phase(np.angle(c))
        grad = (np.conj(c) * dc).imag / (m * m)
        return SpectralTruth(m=m, phi=float(phi), grad_phi=grad)

    def analytic_mode(self, x, y):
        """Exact magnitude and phase gradient at (x, y) as floats: (m, gx, gy).

        Reads analytic_spectra, so a subclass that overrides only
        analytic_spectra senses through it in analytic runs too.
        """
        truth = self.analytic_spectra((x, y))
        return truth.m, float(truth.grad_phi[0]), float(truth.grad_phi[1])

    def describe(self):
        return {
            "kind": "traveling_wave",
            "n_modes": len(self.modes),
            "omega1": self.omega1,
        }
