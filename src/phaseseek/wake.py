"""Gridded time-periodic signal bundles.

Covers the WAVF1 binary container for sampled fields, a synthetic wake
generator with known spectra, per-gridpoint first-mode spectral maps
(spectral_grids, whose delta map is fields.alignment_error node by node,
in the SpectralGrids record that fields defines and this module
re-exports), and a space/time interpolating Field over a bundle that
senses from its first-mode map.

WAVF1 layout (little endian):

    offset  size  content
    0       4     magic b"WAVF"
    4       1     version byte 0x01
    5       12    u32 nx, ny, nt
    17      64    f64 x0, y0, dx, dy, dt, meta_re, meta_st, meta_a
    81      -     nt frames of ny*nx f64, row major, x fastest

Unset metadata slots are stored as NaN. Frames must be finite.
"""

from __future__ import annotations

import cmath
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .fields import (
    TWO_PI,
    Field,
    SpectralGrids,
    _at_least,
    _first_mode,
    _offsets,
    _require,
    _whole,
    alignment_error,
    wrap_angle,
    wrap_phase,
)
# dft_first_mode stays importable from this module, where perfbench's
# tracer looks it up
from .sensing import SensingConfig, dft_first_mode  # noqa: F401

MAGIC = b"WAVF"
VERSION = 1
_HEADER = struct.Struct("<III8d")
_HEADER_SIZE = 5 + _HEADER.size
# the header's fields in _HEADER order: the grid, then the provenance
# slots, which store an unset value (None) as NaN
_HEADER_FIELDS = ("nx", "ny", "nt", "x0", "y0", "dx", "dy", "dt",
                  "meta_re", "meta_st", "meta_a")
_GRID_FIELDS, _META_FIELDS = _HEADER_FIELDS[:8], _HEADER_FIELDS[8:]


class BundleFormatError(ValueError):
    """The bytes are not a well-formed WAVF1 bundle."""


def _check_axes(nx, ny, x0, y0, dx, dy):
    """The rules on a bundle's two space axes, checked before any array
    is built; the last node must stay in float range."""
    for axis, start, step, n in (("x", x0, dx, nx), ("y", y0, dy, ny)):
        _require(f"n{axis}", n, _at_least(2))
        _require(f"{axis}0", start, "finite", got=False)
        _require(f"d{axis}", step, "positive", "finite", got=False)
        last = start + step * (n - 1)
        if not math.isfinite(last):
            raise ValueError(
                f"d{axis} = {step} puts the last of n{axis} = {n} nodes at "
                f"{axis} = {last}, out of float range")


@dataclass(frozen=True)
class GridFieldBundle:
    """One period of a scalar field sampled on a regular space/time grid.

    frames has shape (nt, ny, nx); the temporal period is nt * dt and frame
    nt would repeat frame 0. meta_re, meta_st and meta_a are optional
    provenance numbers (e.g. Reynolds number, Strouhal number, forcing
    amplitude) and default to unset. Frozen: dataclasses.replace re-checks.
    It owns its frames (copied only if not C-contiguous float64), read-only.
    """

    nx: int
    ny: int
    nt: int
    x0: float
    y0: float
    dx: float
    dy: float
    dt: float
    frames: np.ndarray
    meta_re: float | None = None
    meta_st: float | None = None
    meta_a: float | None = None

    def __post_init__(self):
        for name in ("nx", "ny", "nt"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        _check_axes(self.nx, self.ny, self.x0, self.y0, self.dx, self.dy)
        _require("nt", self.nt, _at_least(8))
        _require("dt", self.dt, "positive", "finite", got=False)
        for name in _META_FIELDS:
            if getattr(self, name) is not None:
                _require(name, getattr(self, name), "finite")
        frames = np.ascontiguousarray(self.frames, dtype=np.float64)
        if frames.shape != (self.nt, self.ny, self.nx):
            raise ValueError(
                f"frames shape {frames.shape} does not match "
                f"(nt, ny, nx) = {(self.nt, self.ny, self.nx)}"
            )
        _require("frames", frames, "finite", got=False)
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def period(self):
        return self.nt * self.dt

    @property
    def x_coords(self):
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def y_coords(self):
        return self.y0 + self.dy * np.arange(self.ny)


def save_bundle(bundle, path):
    """Write a bundle to disk in WAVF1 form. Round-trips bit exactly."""
    # only a provenance slot can be None, stored as NaN
    values = [getattr(bundle, name) for name in _HEADER_FIELDS]
    header = MAGIC + bytes([VERSION]) + _HEADER.pack(
        *(math.nan if value is None else value for value in values))
    with open(path, "wb") as fh:
        fh.write(header)
        # the frames are C-contiguous float64 (GridFieldBundle makes them
        # so): their buffer is the payload, written with no copy
        fh.write(memoryview(bundle.frames).cast("B"))


def load_bundle(path):
    """Read a WAVF1 bundle, validating the header and payload size.

    Malformed bytes, the GridFieldBundle checks included, raise
    BundleFormatError.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) < 5:
            raise BundleFormatError(f"file holds {len(head)} bytes, no header")
        if head[:4] != MAGIC:
            raise BundleFormatError(
                f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        if head[4] != VERSION:
            raise BundleFormatError(
                f"unsupported version {head[4]}, expected {VERSION}")
        if len(head) < _HEADER_SIZE:
            raise BundleFormatError("truncated header")
        fields = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(head, 5)))
        shape = fields["nt"], fields["ny"], fields["nx"]
        expected = math.prod(shape) * 8
        body = os.fstat(fh.fileno()).st_size - _HEADER_SIZE
        if body != expected:
            raise BundleFormatError(
                f"payload holds {body} bytes, header promises {expected}"
            )
        # the payload is read once, straight into the frames; a byte view
        # of the flat array also serves a zero-size shape
        frames = np.empty(shape, dtype="<f8")
        got = fh.readinto(frames.reshape(-1).view(np.uint8))
    if got != expected:
        raise BundleFormatError(
            f"read {got} payload bytes, header promises {expected}")
    # NaN marks an unset provenance slot
    fields.update((name, None) for name in _META_FIELDS
                  if math.isnan(fields[name]))
    try:
        return GridFieldBundle(frames=frames, **fields)
    except ValueError as exc:
        raise BundleFormatError(str(exc)) from exc


# ----------------------------------------------------------------------
# Synthetic wake
# ----------------------------------------------------------------------

def synth_wake(a_w=2.0, k_x=1.0, omega=1.0, sigma=2.0, decay_l=10.0,
               x0=-2.0, y0=-6.0, dx=0.2, dy=0.2, nx=81, ny=61, nt=64,
               meta_re=None, meta_st=None, meta_a=None):
    """Gaussian-envelope traveling wake sampled into a bundle.

    w(x, y, t) = a_w exp(-y^2 / 2 sigma^2) exp(-x / decay_l) cos(k_x x - omega t)
    for x >= 0, zero upstream. Its first-mode spectrum is known in closed
    form inside the wake: m = (a_w / 2) exp(-y^2/2 sigma^2) exp(-x / decay_l),
    phi = (-k_x x) mod 2*pi, grad phi = (-k_x, 0).

    The frame spacing is dt = 2*pi / (omega * nt), so the nt frames tile
    one period by construction. k_x * dx must stay below pi or the sampled
    phase would alias between columns. Every input is checked before an
    array is built; an envelope factor whose exponent overflows is its
    exact limit, 0.0.
    """
    nx, ny, nt = (_whole(name, value) for name, value in
                  (("nx", nx), ("ny", ny), ("nt", nt)))
    # an infinite sigma or decay_l is a uniform envelope, its frames finite
    for name, value in (("a_w", a_w), ("omega", omega)):
        _require(name, _require(name, value, "positive"), "finite")
    _require("sigma", sigma, "positive")
    _require("decay_l", decay_l, "positive")
    dt = TWO_PI / omega / nt if nt else math.inf
    if not 0 < dt < math.inf:
        raise ValueError(
            f"omega = {omega} and nt = {nt} give a frame spacing "
            f"2 pi / (omega nt) = {dt}, not finite and positive")
    if not 2.0 * sigma * sigma > 0.0:
        raise ValueError(f"sigma = {sigma} is too small: 2 sigma^2 "
                         "underflows to 0")
    _check_axes(nx, ny, x0, y0, dx, dy)
    if not abs(k_x) * dx < math.pi:
        raise ValueError(
            f"column phase step |k_x| dx = {abs(k_x) * dx:.6g} reaches pi; "
            "the grid cannot resolve the wave"
        )
    phase_max = abs(k_x) * max(abs(x0), abs(x0 + dx * (nx - 1)))
    if not math.isfinite(phase_max):
        raise ValueError(f"k_x = {k_x} gives a wave phase k_x x of "
                         f"{phase_max} on the grid, out of float range")

    xs = x0 + dx * np.arange(nx)
    ys = y0 + dy * np.arange(ny)
    # y^2 and x / decay_l may overflow to inf, whose factor is the exact
    # limit 0.0; y^2 is capped at the largest float so that an infinite
    # sigma still gives a uniform envelope there
    with np.errstate(over="ignore"):
        envelope = (
            a_w
            * np.exp(-np.minimum(ys[:, None] ** 2, sys.float_info.max)
                     / (2.0 * sigma * sigma))
            * np.exp(-np.maximum(xs[None, :], 0.0) / decay_l)
            * (xs[None, :] >= 0.0)
        )
    frames = np.empty((nt, ny, nx))
    for k in range(nt):
        frames[k] = envelope * np.cos(k_x * xs[None, :] - omega * (k * dt))
    return GridFieldBundle(
        nx=nx, ny=ny, nt=nt, x0=x0, y0=y0, dx=dx, dy=dy, dt=dt,
        frames=frames, meta_re=meta_re, meta_st=meta_st, meta_a=meta_a,
    )


# ----------------------------------------------------------------------
# Per-gridpoint spectra
# ----------------------------------------------------------------------

def _wrapped_gradient(phi, healthy, spacing):
    """Gradient of a wrapped-phase grid along its last axis, the mask of
    the entries to trust, and whether any step nears pi.

    Adjacent one-step differences are wrapped to (-pi, pi] and averaged in
    the interior (equal to a central difference whenever no wrap occurs
    between the two steps); edges keep the single wrapped one-step
    difference. Valid while the true phase step per cell stays below pi.
    An entry is trusted only if the point and the neighbours it was
    differenced against are all healthy (magnitude above the floor); the
    flag is raised by a step above 0.95 pi between two healthy points.
    """
    steps = wrap_angle(np.diff(phi, axis=-1)) / spacing
    grad = np.empty_like(phi)
    grad[..., 1:-1] = 0.5 * (steps[..., 1:] + steps[..., :-1])
    grad[..., 0] = steps[..., 0]
    grad[..., -1] = steps[..., -1]
    ok = healthy.copy()
    ok[..., 1:-1] &= healthy[..., 2:] & healthy[..., :-2]
    ok[..., 0] &= healthy[..., 1]
    ok[..., -1] &= healthy[..., -2]
    big = np.abs(steps * spacing) > 0.95 * math.pi
    near_pi = (big & healthy[..., 1:] & healthy[..., :-1]).any()
    return grad, ok, near_pi


def _first_mode_map(bundle):
    """First-mode coefficient of every node's series: complex (ny, nx).

    The same single-bin DFT the onboard sensor uses (first_mode_coeffs,
    whose finite rule the bundle's frames have passed), one grid row per
    call, so each node agrees exactly with dft_first_mode of its series.
    """
    coeff = np.empty((bundle.ny, bundle.nx), dtype=complex)
    # row by row: a whole-grid (ny*nx, nt) temporary would raise peak memory
    for j in range(bundle.ny):
        coeff[j] = _first_mode(bundle.frames[:, j, :].T, bundle.period)
    return coeff


def spectral_grids(bundle, source=None, m_floor=SensingConfig.m_floor):
    """First-mode m, phi, grad phi (and optionally delta) over the grid.

    The coefficients are the first-mode map (_first_mode_map) that a
    BundleField over the same bundle senses from, so pointwise values
    agree exactly with sensing.dft_first_mode. Phase gradients use wrapped
    differences; points whose magnitude (or any contributing neighbour's)
    falls below m_floor are masked to NaN in the gradient and delta maps.
    """
    _require("m_floor", m_floor, "finite", "positive")
    if source is not None:
        _require("source", source, "finite")
    ny, nx = bundle.ny, bundle.nx
    coeff = _first_mode_map(bundle)
    m = np.abs(coeff)
    phi = np.where(m > 0.0, wrap_phase(np.angle(coeff)), 0.0)

    healthy = m >= m_floor
    gx, ok_x, near_x = _wrapped_gradient(phi, healthy, bundle.dx)
    gy, ok_y, near_y = _wrapped_gradient(phi.T, healthy.T, bundle.dy)
    ok = ok_x & ok_y.T
    if near_x or near_y:
        warnings.warn(
            "wrapped phase steps approach pi between healthy gridpoints; "
            "the grid is too coarse for reliable phase gradients",
            UserWarning,
            stacklevel=2,
        )

    grad = np.stack([gx, gy.T], axis=-1)
    grad[~ok] = np.nan

    delta = None
    if source is not None:
        # alignment_error per node (NaN for a NaN gradient); NaN where it
        # raises, at the source node or on a zero gradient
        delta = np.full((ny, nx), np.nan)
        xs, ys, g = (bundle.x_coords.tolist(), bundle.y_coords.tolist(),
                     grad.tolist())
        for j, i in np.ndindex(ny, nx):
            try:
                delta[j, i] = alignment_error((xs[i], ys[j]), g[j][i], source)
            except ValueError:
                pass

    return SpectralGrids(
        x=bundle.x_coords, y=bundle.y_coords, m_grid=m, phi_grid=phi,
        grad_phi_grid=grad, delta_grid=delta,
    )


# ----------------------------------------------------------------------
# Interpolating field over a bundle
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BundleField(Field):
    """Bilinear-in-space, periodic-linear-in-time view of a bundle.

    Its bounds are the grid's rectangle, edges included: outside it the
    signal is zero, and agent.simulate ends a run whose stencil leaves it
    as left_domain, not an error. Queries landing exactly on a node and
    frame return the stored value. Space is read by one bilinear rule
    (_bilinear) and time by one frame rule (_frame). The bilinear rule
    takes points as float pairs: window_coeffs gets them so from
    sensing._stencil_points, and eval_windows converts its points once.
    Each corner term is written entry * weight, complex-first on the
    first-mode map, and has the bits of weight * entry. The first
    window_coeffs call caches the bundle's first-mode map. The
    window factor B(t0, n) is computed once per distinct window start
    time and size, the last one kept, and applied inside the bilinear
    read of the map. Frozen like RadialField, so nothing it derives from
    its immutable bundle can go stale; eq=False: frames compare by element.
    """

    bundle: GridFieldBundle

    def __post_init__(self):
        b, put = self.bundle, object.__setattr__
        put(self, "period", b.period)
        put(self, "bounds", (b.x0, b.y0, b.x0 + b.dx * (b.nx - 1),
                             b.y0 + b.dy * (b.ny - 1)))
        # what _bilinear reads, unpacked once: it runs per stencil point
        put(self, "_cell_grid", (*self.bounds, b.dx, b.dy, b.nx, b.nx - 2,
                                 b.ny - 2))
        # exp(i omega dt), the turn of one frame, for _window_factor
        put(self, "_frame_turn", cmath.exp(1j * (TWO_PI / b.period) * b.dt))
        # first-mode map as a flat list, x fastest, set on first use
        put(self, "_map", None)
        # the last window factor [(t0, n), B(t0, n)]; window_coeffs sets it
        put(self, "_last_factor", [None, None])

    def _bilinear(self, table, points, outside, scale=None):
        """Bilinear read of a per-node table at each point: a list.

        table[j * nx + i] holds node (i, j)'s entry (a number or a numpy
        row); points are pairs of floats (or of ints), and a point outside
        the grid reads `outside`. Cells clamp at the last row and column,
        so the far edges read their own nodes. At a point at cell
        fractions (fu, fv) of corner node k the read is
        table[k] * ((1 - fu) * (1 - fv)) + table[k + 1] * (fu * (1 - fv))
        + table[k + nx] * ((1 - fu) * fv) + table[k + nx + 1] * (fu * fv),
        summed in that order, and then multiplied as scale * read when a
        scale is given; `outside` is never scaled. Each product has the
        bits of weight * entry: for a complex entry both orders run
        CPython's complex product on the same operands swapped, and IEEE
        * and + commute, signed zeros included (bundle frames are finite,
        so no NaN payload arises).
        """
        # per stencil point: no call but floor, the bounds test inline
        x0, y0, x1, y1, dx, dy, nx, i_max, j_max = self._cell_grid
        floor = math.floor
        values = []
        append = values.append
        for px, py in points:
            if not (x0 <= px <= x1 and y0 <= py <= y1):
                append(outside)
                continue
            u = (px - x0) / dx
            v = (py - y0) / dy
            i0 = floor(u)
            if i0 > i_max:
                i0 = i_max
            j0 = floor(v)
            if j0 > j_max:
                j0 = j_max
            fu, fv = u - i0, v - j0
            gu, gv = 1.0 - fu, 1.0 - fv
            k = j0 * nx + i0
            # entry first: a float * complex product first calls the
            # float slot, which gives up, then the complex one
            read = (table[k] * (gu * gv) + table[k + 1] * (fu * gv)
                    + table[k + nx] * (gu * fv)
                    + table[k + nx + 1] * (fu * fv))
            append(read if scale is None else scale * read)
        return values

    def _frame(self, t):
        """Frame index k (a whole number, 0 <= k < nt) and fraction w of
        time t, a float or an array: t falls at frame k + w of the period.
        """
        s = (t % self.period) / self.bundle.dt
        w = s % 1.0
        return (s - w) % self.bundle.nt, w

    def eval_windows(self, points, t0, n):
        """Windows at k points: the bilinear read of the node series, then
        one periodic-linear time interpolation.

        Rows of points outside the grid are zero.
        """
        b = self.bundle
        series = np.array(self._bilinear(
            b.frames.reshape(b.nt, -1).T,
            np.asarray(points, dtype=float).tolist(), np.zeros(b.nt)))
        k, w = self._frame(t0 + _offsets(n, self.period))
        k0 = k.astype(int)
        return ((1.0 - w) * np.take(series, k0, axis=1)
                + w * np.take(series, (k0 + 1) % b.nt, axis=1))

    def window_coeffs(self, points, t0, n):
        """First-mode coefficients of the windows at k points, read from
        the bundle's first-mode map C instead of from windows.

        Both window steps are linear. When n is a multiple of nt, sample
        j + n/nt lies exactly one frame after sample j, so the window DFT
        at p factors as B(t0, n) * bilinear(C)(p), with
        B = (nt/n) sum_{r < n/nt} exp(-i w r T/n) exp(i w k_r dt)
        ((1 - w_r) + w_r exp(i w dt)), where k_r and w_r are the frame
        index and fraction of sample r and w = 2 pi / T. This equals the
        window DFT up to rounding. Points outside the grid give 0. Other n
        take the window DFT.
        """
        b = self.bundle
        # the base class rejects n < 8
        if n < 8 or n % b.nt:
            return super().window_coeffs(points, t0, n)
        if self._map is None:
            object.__setattr__(self, "_map",
                               _first_mode_map(b).ravel().tolist())
        # RK4 stages 2 and 3 share a start time, and stage 4's is the next
        # step's stage 1, so the last factor is kept. Keys compare by ==:
        # -0.0 and 0.0 give one factor, as t0 enters B only as
        # t0 + r * step with r * step >= +0.0
        last = self._last_factor
        key = (t0, n)
        if key != last[0]:
            last[0], last[1] = key, self._window_factor(t0, n)
        return self._bilinear(self._map, points, 0j, last[1])

    def _window_factor(self, t0, n):
        """B(t0, n) of window_coeffs, with k_r and w_r from _frame."""
        b = self.bundle
        period, dt, turn = self.period, b.dt, self._frame_turn
        omega = TWO_PI / period
        step = period / n
        total = 0j
        for r in range(n // b.nt):
            k, w = self._frame(t0 + r * step)
            total += (cmath.exp(1j * omega * (k * dt - r * step))
                      * ((1.0 - w) + w * turn))
        return total * (b.nt / n)

    def describe(self):
        return {"kind": "bundle", **{name: getattr(self.bundle, name)
                                     for name in _GRID_FIELDS}}


def field_from_bundle(bundle):
    """Field view over a bundle (bilinear space, periodic linear time)."""
    return BundleField(bundle)
