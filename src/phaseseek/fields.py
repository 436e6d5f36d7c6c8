"""Time-periodic signal fields and their spectral ground truth.

A field is any scalar signal f(x, t) that repeats with period T in time.
A field writes its signal once, in eval_windows (one period's samples at
each of k points).
For source-seeking purposes the quantity of interest is not f itself but
its first temporal Fourier mode at each point: a magnitude m(x), a phase
phi(x), and the spatial phase gradient grad phi(x) whose direction encodes
where the signal is coming from.

Every module builds on this one, so it also holds the single-bin DFT
kernel (first_mode_coeffs), the spectral-map record (SpectralGrids), the
on-disk formats (write_float_csv, write_json) and the one vocabulary of
entry rules (_require) behind the package's entry contract.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
_MIN_SAMPLES = 8  # fewest samples in a first-mode window; _twiddle checks


class OriginSingularityError(ValueError):
    """A direction is undefined at the requested point (radius zero)."""


class UndefinedDirectionError(ValueError):
    """The phase gradient has no direction: it is zero, or the first mode
    vanishes."""


def wrap_angle(a):
    """Wrap an angle (or array of angles) to (-pi, pi]; NaN or inf: NaN."""
    return math.pi - wrap_phase(math.pi - a)


def wrap_phase(a):
    """Wrap a phase (or array of phases) to [0, 2*pi); NaN or inf: NaN."""
    if type(a) is float:
        w = a % TWO_PI
    else:
        # numpy warns on an infinite remainder, which a float takes quietly
        with np.errstate(invalid="ignore"):
            w = a % TWO_PI
        if isinstance(w, np.ndarray):
            w[w == TWO_PI] = 0.0
            return w
    # a remainder that rounds up to 2*pi (a tiny negative a) is phase 0
    return 0.0 if w == TWO_PI else w


# rows spelled at a time: the block's strings are the writer's peak memory
_CSV_BLOCK_ROWS = 256


def write_float_csv(path, header, columns):
    """Write equal-length float columns as CSV under a header row.

    Every value is spelled repr(float): it round-trips exactly and spells
    nan and inf. Raises ValueError, before the file is opened, unless the
    header names each column once and the columns are 1-D and of equal
    length.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    if not columns or len(header) != len(columns):
        raise ValueError(f"need one header name per column, got "
                         f"{len(header)} names for {len(columns)} columns")
    if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
        raise ValueError("columns must be 1-D and of equal length")
    n = len(columns[0])
    _write_blocks(path, header, n, lambda i, j: [_spell(c[i:j])
                                                 for c in columns])


def _write_grid_csv(path, header, x, y, grids):
    """Write one row per node (x[i], y[j]) of (ny, nx) float grids, x
    fastest, under a header row: x, y, then each grid's value.

    The bytes are write_float_csv's of the tiled x and repeated y columns
    and the raveled grids, but each axis value is spelled once. Raises
    ValueError, before the file is opened, unless the axes are 1-D, the
    header names each column once and every grid has shape (ny, nx).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    grids = [np.asarray(g, dtype=float) for g in grids]
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("grid axes must be 1-D")
    if len(header) != 2 + len(grids):
        raise ValueError(f"need one header name per column, got "
                         f"{len(header)} names for {2 + len(grids)} columns")
    nx, ny = len(x), len(y)
    if any(g.shape != (ny, nx) for g in grids):
        raise ValueError(f"each grid must have shape (ny, nx) = {(ny, nx)}, "
                         f"got {[g.shape for g in grids]}")
    values = [g.ravel() for g in grids]
    # the rows walk both axes in order: x cycles, each y repeats nx times
    xs = itertools.cycle(_spell(x))
    ys = itertools.chain.from_iterable(
        map(itertools.repeat, _spell(y), itertools.repeat(nx)))
    _write_blocks(path, header, nx * ny, lambda i, j: [
        itertools.islice(xs, j - i), itertools.islice(ys, j - i),
        *(_spell(v[i:j]) for v in values)])


def _spell(column):
    """repr(float) of each value of a 1-D float array: a list."""
    return list(map(repr, column.tolist()))


def _write_blocks(path, header, n, spell):
    """Write a header row and n rows; spell(i, j) gives the spelled
    columns of rows i to j, each an iterable of j - i strings."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        # spelled column by column, then joined row by row in C; row
        # blocks keep memory flat on long runs
        for i in range(0, n, _CSV_BLOCK_ROWS):
            fh.write("\n".join(map(",".join, zip(
                *spell(i, min(i + _CSV_BLOCK_ROWS, n))))))
            fh.write("\n")


def _spell_inf(value):
    """value with every infinite float, at any depth, spelled "inf" or
    "-inf", the strings float() reads back."""
    if isinstance(value, dict):
        return {key: _spell_inf(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spell_inf(item) for item in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def write_json(path, payload):
    """Write a JSON record deterministically: sorted keys, indent 2.

    The record is strict JSON: an infinite float is written as the string
    "inf" or "-inf", and a NaN raises ValueError before the file is opened.
    """
    text = json.dumps(_spell_inf(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ----------------------------------------------------------------------
# Entry rules
# ----------------------------------------------------------------------
# A rule is a word of _TESTS or a (words, test) pair from a factory
# below; _require words each failure once, "{name} must be {rule} and
# {rule}, got {value}". A word's test also runs element by element.
_TESTS = {"finite": np.isfinite, "positive": lambda x: x > 0,
          "nonnegative": lambda x: x >= 0}


def _at_least(bound):
    return f"at least {bound}", lambda x: x >= bound


def _above(name, bound):
    return f"above {name} = {bound}", lambda x: x > bound


def _advances(*times):
    """The rule that dt reaches ulp of the largest |t|, so t + dt > t."""
    ulp = math.ulp(max(map(abs, times)))
    return (f"at least ulp(max |t|) = {ulp!r} so that t + dt > t",
            lambda dt: dt >= ulp)


def _require(name, value, *rules, got=True):
    """value, if it passes every rule; else a ValueError that names it. An
    array or a tuple passes a word's rule when every element does."""
    each = isinstance(value, (np.ndarray, list, tuple))
    for rule in rules:
        test = _TESTS[rule] if isinstance(rule, str) else rule[1]
        if not (np.all(test(np.asarray(value))) if each else test(value)):
            words = " and ".join(rule if isinstance(rule, str) else rule[0]
                                 for rule in rules)
            raise ValueError(f"{name} must be {words}"
                             + (f", got {value}" if got else ""))
    return value


def _whole(name, value):
    """value as a whole number (operator.index), else a named ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a whole number, got "
                         f"{value!r}") from None


@functools.lru_cache(maxsize=32)
def _offsets(n, period):
    """k * period / n for k = 0..n-1, none for n < 1: a window from t0
    samples at t0 + _offsets(n, period). Cached and shared, read-only."""
    offsets = np.arange(n) * (period / max(n, 1))
    offsets.flags.writeable = False
    return offsets


@functools.lru_cache(maxsize=32)
def _twiddle(n, period):
    """exp(-i * omega1 * t_k) for t_k = k * period / n, k = 0..n-1.

    Cached per (n, period) and shared by every caller, so it is read-only.
    """
    if n < _MIN_SAMPLES:
        raise ValueError(
            f"window must hold at least {_MIN_SAMPLES} samples, got {n}")
    _require("period", period, "finite", "positive")
    omega1 = _require("2 pi / period", TWO_PI / period, "finite")
    twiddle = np.exp(-1j * omega1 * _offsets(n, period))
    twiddle.flags.writeable = False
    return twiddle


def first_mode_coeffs(windows, period):
    """Single-bin DFT of each row of windows, shape (k, N): complex (k,).

    Row i gives (1/N) * sum_j windows[i, j] * exp(-i * omega1 * t_j) with
    t_j = j * period / N and omega1 = 2*pi / period. Rows are made
    C-contiguous first, because the order of the sum depends on the memory
    layout and every caller must round alike.
    """
    return _first_mode(_require("windows", windows, "finite", got=False),
                       period)


def _first_mode(windows, period):
    # without the finite rule: Field.window_coeffs runs this per RK4 stage
    windows = np.ascontiguousarray(windows, dtype=float)
    n = windows.shape[-1]
    # the same rounding as np.mean, without its per-call overhead
    return np.add.reduce(windows * _twiddle(n, period), axis=-1) / n


@dataclass(frozen=True)
class SpectralTruth:
    """Exact first-mode spectrum of a field at one point.

    Attributes
    ----------
    m : float
        First-mode magnitude, m >= 0.
    phi : float
        First-mode phase in [0, 2*pi).
    grad_phi : np.ndarray
        Spatial gradient of the unwrapped phase, shape (2,).
    """

    m: float
    phi: float
    grad_phi: np.ndarray


@dataclass
class SpectralGrids:
    """First-mode spectral maps over the grid nodes (x[i], y[j]), measured
    (wake.spectral_grids) or exact (RadialField.spectral_grids).

    m_grid and phi_grid have shape (ny, nx); grad_phi_grid stacks the two
    gradient components as (ny, nx, 2). delta_grid (alignment error
    against a known source) is present only when a source is known. Nodes
    with no phase gradient (a magnitude below the floor, or the source
    itself) are NaN in the gradient and delta maps.
    """

    x: np.ndarray
    y: np.ndarray
    m_grid: np.ndarray
    phi_grid: np.ndarray
    grad_phi_grid: np.ndarray
    delta_grid: np.ndarray | None = None

    def write_csv(self, path):
        """One row per node, x fastest: x,y,m,phi,gx,gy,delta."""
        delta = (self.delta_grid if self.delta_grid is not None
                 else np.full(self.m_grid.shape, math.nan))
        _write_grid_csv(path, ("x", "y", "m", "phi", "gx", "gy", "delta"),
                        self.x, self.y, (
                            self.m_grid, self.phi_grid,
                            self.grad_phi_grid[..., 0],
                            self.grad_phi_grid[..., 1], delta))


class Field(ABC):
    """Abstract time-periodic scalar field.

    A subclass implements eval_windows, the one place it writes its
    signal; eval_window and window_coeffs read it. Its domain is the
    rectangle bounds, edges included, or the whole plane when bounds is
    None. bounds is the one domain rule: agent.simulate reads it, so a
    subclass limits its domain by setting bounds.

    A field is analytic when it defines analytic_mode(x, y), its exact
    first-mode magnitude and phase gradient as floats (m, gx, gy): that
    method is the one analytic contract, which analytic sensing calls at
    every RK4 stage.
    """

    #: temporal period T > 0
    period: float
    #: the domain rectangle (x0, y0, x1, y1), or None for the whole plane
    bounds: tuple | None = None

    @abstractmethod
    def eval_windows(self, points, t0, n):
        """Sample one period at each of k points: shape (k, n).

        Row i holds f(points[i], t0 + j*T/n) for j = 0..n-1; each row
        must not depend on the other points.
        """

    def eval_window(self, x, t0, n):
        """Sample one period: f(x, t0 + k*T/n) for k = 0..n-1."""
        return self.eval_windows(np.asarray([x], dtype=float), t0, n)[0]

    def window_coeffs(self, points, t0, n):
        """First-mode coefficient of the n-sample window at each of k
        points: a list of k Python complex numbers.

        This default is the single-bin DFT of eval_windows(points, t0, n).
        A subclass may compute the same linear functional another way.
        n < 8 raises ValueError.
        """
        _twiddle(n, self.period)  # the window rule, before a subclass samples
        return _first_mode(self.eval_windows(points, t0, n),
                           self.period).tolist()

    def describe(self) -> dict:
        """Small JSON-friendly summary of the field, for run records."""
        return {"kind": type(self).__name__}


# ----------------------------------------------------------------------
# Radially symmetric source field
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialField(Field):
    """The radially symmetric source field f(r, t) = 2 exp(-r/ell) cos(r - t).

    An outgoing wave of unit angular frequency and unit wavenumber whose
    amplitude decays on the finite length scale ell > 0. Time period is 2*pi.
    """

    # a plain attribute, not a property: analytic_mode reads it per stage
    ell: float
    period = TWO_PI

    def __post_init__(self):
        ell = _require("ell", float(self.ell), "positive")
        object.__setattr__(self, "ell", _require("ell", ell, "finite"))

    def eval_windows(self, points, t0, n):
        # math.hypot and math.exp per point: their numpy twins differ by an
        # ulp, which would move windowed results
        r = [math.hypot(x[0], x[1]) for x in points]
        amp = [2.0 * math.exp(-ri / self.ell) for ri in r]
        window = np.subtract.outer(np.array(r), t0 + _offsets(n, self.period))
        np.cos(window, out=window)
        return np.multiply(np.array(amp)[:, None], window, out=window)

    def analytic_mode(self, x, y):
        # math per call: this runs at every RK4 stage of an analytic run
        r = math.hypot(x, y)
        if r == 0.0:
            raise OriginSingularityError("phase gradient undefined at the source")
        return math.exp(-r / self.ell), -x / r, -y / r

    def analytic_spectra(self, x):
        m, gx, gy = self.analytic_mode(x[0], x[1])
        phi = wrap_phase(-math.hypot(x[0], x[1]))
        return SpectralTruth(m=m, phi=phi, grad_phi=np.array([gx, gy]))

    def spectral_grids(self, xs, ys):
        """The exact maps over the nodes (xs[i], ys[j]): analytic_spectra
        at each node, with delta 0, as the gradient points at the source.
        The source node has m = 1, phi = 0 and NaN gradient and delta.
        """
        xs = _require("xs", np.asarray(xs, dtype=float), "finite")
        ys = _require("ys", np.asarray(ys, dtype=float), "finite")
        m, phi, delta = (np.zeros((len(ys), len(xs))) for _ in range(3))
        grad = np.full((len(ys), len(xs), 2), math.nan)
        for j, y in enumerate(ys.tolist()):
            for i, x in enumerate(xs.tolist()):
                try:
                    truth = self.analytic_spectra((x, y))
                except OriginSingularityError:
                    m[j, i], delta[j, i] = 1.0, math.nan
                    continue
                m[j, i], phi[j, i] = truth.m, truth.phi
                grad[j, i] = truth.grad_phi
        return SpectralGrids(x=xs, y=ys, m_grid=m, phi_grid=phi,
                             grad_phi_grid=grad, delta_grid=delta)

    def describe(self):
        return {"kind": "radial", "ell": self.ell}


# ----------------------------------------------------------------------
# Alignment error
# ----------------------------------------------------------------------

def alignment_error(x, grad_phi, source=(0.0, 0.0)):
    """Signed angle delta from the source bearing to the phase-gradient direction.

    The source bearing c1 points from x toward the source. delta is measured
    counterclockwise from c1 to grad_phi and lies in (-pi, pi]. A field whose
    phase gradient points exactly at the source gives delta = 0. A NaN or
    infinite input gives NaN, as spectral_grids' masked nodes do.
    """
    ux = float(source[0]) - float(x[0])
    uy = float(source[1]) - float(x[1])
    if ux == 0.0 and uy == 0.0:
        raise OriginSingularityError("source bearing undefined at the source itself")
    gx = float(grad_phi[0])
    gy = float(grad_phi[1])
    if gx == 0.0 and gy == 0.0:
        raise UndefinedDirectionError("zero phase gradient has no direction")
    # atan2(cross, dot) is scale invariant; no need to normalize first
    delta = math.atan2(ux * gy - uy * gx, ux * gx + uy * gy)
    if delta == -math.pi:
        delta = math.pi
    return delta
