"""Tests for gridded field bundles: binary format, synthetic wake, spectral
maps, and time/space interpolation."""

import dataclasses
import hashlib
import inspect
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import phaseseek.wake
from phaseseek import (
    TWO_PI,
    BundleFormatError,
    GridFieldBundle,
    alignment_error,
    dft_first_mode,
    field_from_bundle,
    first_mode_coeffs,
    load_bundle,
    save_bundle,
    spectral_grids,
    synth_wake,
    wrap_angle,
    wrap_phase,
)
from phaseseek.wake import MAGIC, VERSION, _HEADER

from oracles import bilinear_ref


def _random_bundle(rng):
    nx, ny, nt = (int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                  int(rng.integers(8, 17)))
    metas = [None if rng.random() < 0.5 else float(rng.normal())
             for _ in range(3)]
    return GridFieldBundle(
        nx=nx, ny=ny, nt=nt,
        x0=float(rng.normal()), y0=float(rng.normal()),
        dx=float(rng.uniform(0.05, 0.5)), dy=float(rng.uniform(0.05, 0.5)),
        dt=float(rng.uniform(0.01, 0.3)),
        frames=rng.normal(size=(nt, ny, nx)),
        meta_re=metas[0], meta_st=metas[1], meta_a=metas[2],
    )


def _header_bytes(nx=4, ny=4, nt=8, dx=0.2):
    return MAGIC + bytes([VERSION]) + _HEADER.pack(
        nx, ny, nt, 0.0, 0.0, dx, 0.2, 0.1,
        math.nan, math.nan, math.nan)


# ----------------------------------------------------------------------
# Binary format
# ----------------------------------------------------------------------

def test_bundle_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    for i in range(5):
        bundle = _random_bundle(rng)
        path = tmp_path / f"b{i}.wavf"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.frames.tobytes() == bundle.frames.tobytes()
        assert (back.nx, back.ny, back.nt) == (bundle.nx, bundle.ny, bundle.nt)
        assert (back.x0, back.y0, back.dx, back.dy, back.dt) == (
            bundle.x0, bundle.y0, bundle.dx, bundle.dy, bundle.dt)
        assert back.meta_re == bundle.meta_re
        assert back.meta_st == bundle.meta_st
        assert back.meta_a == bundle.meta_a
        # a second write of the loaded bundle is byte-identical on disk
        path2 = tmp_path / f"b{i}_again.wavf"
        save_bundle(back, path2)
        assert hashlib.sha256(path.read_bytes()).digest() == (
            hashlib.sha256(path2.read_bytes()).digest())


def test_load_holds_the_payload_once(tmp_path):
    # the payload is read straight into the frames and held once, not
    # copied out of the file's bytes
    bundle = synth_wake()
    path = tmp_path / "wake.wavf"
    save_bundle(bundle, path)
    tracemalloc.start()
    try:
        back = load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * bundle.frames.nbytes
    assert back.frames.dtype == np.float64
    # the bundle owns the loaded array and holds it read-only
    assert back.frames.flags.c_contiguous and not back.frames.flags.writeable


def test_save_writes_the_frames_buffer_without_a_copy(tmp_path):
    # the payload is the frames' own buffer: a save holds no second copy
    bundle = synth_wake()
    path = tmp_path / "wake.wavf"
    tracemalloc.start()
    try:
        save_bundle(bundle, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * bundle.frames.nbytes
    assert load_bundle(path).frames.tobytes() == bundle.frames.tobytes()


def test_save_writes_frames_given_in_any_layout_bit_exactly(tmp_path):
    # Fortran-ordered float32 frames are made C-contiguous float64 on
    # construction, and that is what the file holds
    frames = np.asfortranarray(
        np.random.default_rng(7).normal(size=(8, 3, 5)).astype(np.float32))
    bundle = GridFieldBundle(nx=5, ny=3, nt=8, x0=0.0, y0=0.0, dx=0.2,
                             dy=0.2, dt=0.1, frames=frames)
    path = tmp_path / "b.wavf"
    save_bundle(bundle, path)
    payload = np.asarray(frames, dtype=np.float64).tobytes(order="C")
    assert path.read_bytes().endswith(payload)
    assert load_bundle(path).frames.tobytes() == payload


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wavf"
    good = _header_bytes() + b"\0" * (8 * 4 * 4 * 8)
    path.write_bytes(b"WAVG" + good[4:])
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.wavf"
    good = _header_bytes() + b"\0" * (8 * 4 * 4 * 8)
    path.write_bytes(MAGIC + bytes([2]) + good[5:])
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_load_rejects_bad_sizes(tmp_path):
    path = tmp_path / "bad.wavf"
    good = _header_bytes() + b"\0" * (8 * 4 * 4 * 8)
    # empty, torn header, torn payload, trailing junk
    for payload in (b"", good[:3], good[:40], good[:-8], good + b"\0" * 8):
        path.write_bytes(payload)
        with pytest.raises(BundleFormatError):
            load_bundle(path)


def test_load_rejects_non_finite_header(tmp_path):
    path = tmp_path / "bad.wavf"
    header = MAGIC + bytes([VERSION]) + _HEADER.pack(
        4, 4, 8, 0.0, 0.0, math.inf, 0.2, 0.1, math.nan, math.nan, math.nan)
    path.write_bytes(header + b"\0" * (8 * 4 * 4 * 8))
    with pytest.raises(BundleFormatError):
        load_bundle(path)
    # infinite metadata is rejected too (NaN just means unset)
    header = MAGIC + bytes([VERSION]) + _HEADER.pack(
        4, 4, 8, 0.0, 0.0, 0.2, 0.2, 0.1, math.inf, math.nan, math.nan)
    path.write_bytes(header + b"\0" * (8 * 4 * 4 * 8))
    with pytest.raises(BundleFormatError):
        load_bundle(path)


@pytest.mark.parametrize("header, frame", [
    ({"nx": 1}, 0.0),
    ({"dx": -0.2}, 0.0),
    ({}, math.nan),
])
def test_load_rejects_what_the_bundle_rejects(tmp_path, header, frame):
    # the GridFieldBundle checks surface as BundleFormatError, not ValueError
    nx = header.get("nx", 4)
    path = tmp_path / "bad.wavf"
    path.write_bytes(_header_bytes(**header) + np.full(
        8 * 4 * nx, frame).astype("<f8").tobytes())
    with pytest.raises(BundleFormatError):
        load_bundle(path)


def test_bundle_validation():
    frames = np.zeros((8, 4, 4))
    with pytest.raises(ValueError):
        GridFieldBundle(nx=1, ny=4, nt=8, x0=0, y0=0, dx=0.2, dy=0.2,
                        dt=0.1, frames=np.zeros((8, 4, 1)))
    with pytest.raises(ValueError):
        GridFieldBundle(nx=4, ny=4, nt=4, x0=0, y0=0, dx=0.2, dy=0.2,
                        dt=0.1, frames=np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        GridFieldBundle(nx=4, ny=4, nt=8, x0=0, y0=0, dx=0.2, dy=0.2,
                        dt=0.1, frames=np.zeros((8, 4, 3)))
    bad = frames.copy()
    bad[0, 0, 0] = math.nan
    with pytest.raises(ValueError):
        GridFieldBundle(nx=4, ny=4, nt=8, x0=0, y0=0, dx=0.2, dy=0.2,
                        dt=0.1, frames=bad)
    for name in ("x0", "y0"):
        for value in (math.nan, math.inf, -math.inf):
            origin = {"x0": 0.0, "y0": 0.0, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                GridFieldBundle(nx=4, ny=4, nt=8, dx=0.2, dy=0.2, dt=0.1,
                                frames=frames, **origin)


def _small_bundle(**counts):
    # frames of the shape the counts name once made whole
    counts = {"nx": 4, "ny": 4, "nt": 8, **counts}
    shape = tuple(int(counts[name]) for name in ("nt", "ny", "nx"))
    return GridFieldBundle(**counts, x0=0.0, y0=0.0, dx=0.2, dy=0.2, dt=0.1,
                           frames=np.ones(shape))


@pytest.mark.parametrize("slot", ["nx", "ny", "nt"])
@pytest.mark.parametrize("value", [16.0, np.float64(16), "16"],
                         ids=["float", "numpy-float", "str"])
def test_bundle_counts_must_be_whole_numbers(slot, value):
    # a float count once passed, as the frames shape compares equal, and
    # save_bundle then died on a bare struct.error
    with pytest.raises(ValueError, match=f"^{slot} must be a whole number"):
        _small_bundle(**{slot: value})


def test_bundle_counts_are_stored_as_ints():
    bundle = _small_bundle(nx=np.int64(5), ny=np.uint8(3), nt=np.int32(9))
    assert [type(n) for n in (bundle.nx, bundle.ny, bundle.nt)] == [int] * 3
    assert (bundle.nx, bundle.ny, bundle.nt) == (5, 3, 9)


@pytest.mark.parametrize("slot, value", [
    ("nx", 8), ("frames", "reversed"), ("meta_re", math.nan),
])
def test_a_bundle_cannot_be_changed_after_its_checks(tmp_path, slot, value):
    # an assignment once skipped every check: nx = 8 made save_bundle write
    # a file that load_bundle refuses
    bundle = synth_wake(nx=16, ny=9, nt=16)
    if value == "reversed":
        value = bundle.frames[:, :, ::-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(bundle, slot, value)
    path = tmp_path / "b.wavf"
    save_bundle(bundle, path)
    assert load_bundle(path).frames.tobytes() == bundle.frames.tobytes()


def test_a_bundle_varies_through_replace_which_rechecks():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    with pytest.raises(ValueError, match="does not match"):
        dataclasses.replace(bundle, nx=8)
    moved = dataclasses.replace(bundle, x0=1.0)
    # the frames pass on with no copy, still read-only
    assert moved.frames is bundle.frames and moved.x0 == 1.0
    assert not moved.frames.flags.writeable


def test_a_bundle_owns_its_frames_read_only():
    frames = np.zeros((8, 4, 4))
    bundle = GridFieldBundle(nx=4, ny=4, nt=8, x0=0.0, y0=0.0, dx=0.2,
                             dy=0.2, dt=0.1, frames=frames)
    # no defensive copy: the caller's array is taken over
    assert bundle.frames is frames
    assert not frames.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        bundle.frames[0, 0, 0] = math.nan
    assert np.isfinite(bundle.frames).all()


def test_a_live_bundle_field_has_one_answer():
    # an in-place write under a live field once split it in two: the
    # cached first-mode map kept the old frames (n = nt), the window DFT
    # read the new ones (n = 24)
    bundle = synth_wake()
    field = field_from_bundle(bundle)
    point = [(0.55, -5.1)]
    from_map = field.window_coeffs(point, 0.0, bundle.nt)[0]
    with pytest.raises(ValueError, match="read-only"):
        bundle.frames[:] *= 2.0
    assert field.window_coeffs(point, 0.0, bundle.nt)[0] == from_map
    assert field.window_coeffs(point, 0.0, 24)[0] == pytest.approx(
        from_map, rel=2e-3)


def test_a_bundle_field_cannot_be_rebound():
    # rebinding the bundle once left the cached first-mode map answering
    # for the old one: n = nt read the old coefficient, n = 24 the new
    field = field_from_bundle(synth_wake(nx=16, ny=9, nt=16))
    point = [(0.55, -5.1)]
    before = field.window_coeffs(point, 0.0, 16)
    other = synth_wake(nx=16, ny=9, nt=16, a_w=4.0)
    for slot, value in (("bundle", other), ("period", 3.0),
                        ("bounds", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(field, slot, value)
    # nor can anything it derives from its bundle, caches included
    for slot in vars(field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(field, slot, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(field, slot)
    # both paths still read the first wake: at nt = 16 the window DFT
    # differs from the map by the frame rule's error, not by twice a_w
    assert field.window_coeffs(point, 0.0, 16) == before
    assert field.window_coeffs(point, 0.0, 24)[0] == pytest.approx(
        before[0], rel=0.05)


# ----------------------------------------------------------------------
# Synthetic wake
# ----------------------------------------------------------------------

def test_synth_wake_shape_and_period():
    bundle = synth_wake()
    assert bundle.frames.shape == (64, 61, 81)
    assert bundle.period == pytest.approx(TWO_PI)
    assert bundle.x_coords[0] == -2.0
    assert bundle.y_coords[30] == pytest.approx(0.0)


def test_synth_wake_values():
    bundle = synth_wake()
    # node at (5, 0): indices from x0 = -2, y0 = -6, spacing 0.2
    i, j = 35, 30
    assert bundle.x_coords[i] == pytest.approx(5.0)
    assert bundle.frames[0, j, i] == pytest.approx(
        2.0 * math.exp(-0.5) * math.cos(5.0), abs=1e-12)
    # upstream of the obstacle the field vanishes
    assert np.all(bundle.frames[:, :, bundle.x_coords < 0.0] == 0.0)


def test_synth_wake_derives_its_frame_spacing():
    # dt is no setting: the nt frames tile one period 2 pi / omega
    assert "dt" not in inspect.signature(synth_wake).parameters
    for omega, nt in ((1.0, 64), (2.5, 8), (0.3, 17)):
        bundle = synth_wake(omega=omega, nx=4, ny=3, nt=nt)
        assert bundle.dt == TWO_PI / omega / nt
        assert bundle.period == pytest.approx(TWO_PI / omega, rel=1e-15)


class _NoArrays:
    """Stands in for numpy in phaseseek.wake: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"synth_wake built an array (np.{name})")


@pytest.mark.parametrize("kwargs, text", [
    ({"omega": math.inf}, "omega must be finite, got inf"),
    ({"a_w": math.inf}, "a_w must be finite, got inf"),
    ({"omega": 1e-320}, "omega = 1e-320 and nt = 64 give a frame spacing "
     "2 pi / (omega nt) = inf, not finite and positive"),
    ({"nt": 0}, "omega = 1.0 and nt = 0 give a frame spacing "
     "2 pi / (omega nt) = inf, not finite and positive"),
    ({"x0": math.inf}, "x0 must be finite"),
    ({"dy": math.inf}, "dy must be positive and finite"),
    ({"dy": 1e308}, "dy = 1e+308 puts the last of ny = 61 nodes at y = inf, "
     "out of float range"),
    ({"sigma": 1e-310}, "sigma = 1e-310 is too small: 2 sigma^2 underflows "
     "to 0"),
    ({"nt": 2.5}, "nt must be a whole number, got 2.5"),
    ({"nx": 2.5}, "nx must be a whole number, got 2.5"),
    ({"x0": 1e300, "k_x": 1e10, "dx": 1e-10}, "k_x = 10000000000.0 gives a "
     "wave phase k_x x of inf on the grid, out of float range"),
])
def test_synth_wake_names_its_own_inputs(monkeypatch, kwargs, text):
    # omega = inf and 1e-320 named dt, which synth_wake does not take;
    # a_w = inf first warned from numpy, and nt = 0 divided by zero.
    # x0 = inf and dy = inf warned "invalid value" from numpy, dy = 1e308
    # "overflow" and sigma = 1e-310 "divide by zero", and nt = 2.5 raised
    # a TypeError from range. With numpy stubbed out, each error is shown
    # to come before any array is built
    monkeypatch.setattr(phaseseek.wake, "np", _NoArrays())
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        synth_wake(**kwargs)


def test_synth_wake_far_out_reads_the_exact_limit():
    # y0 = 1e308 warned "overflow encountered in square"; every y^2 there
    # is out of float range, so the Gaussian factor is 0.0 on every row
    bundle = synth_wake(y0=1e308, nx=4, ny=3, nt=8)
    assert bundle.y0 == 1e308
    assert not bundle.frames.any()
    # an infinite sigma keeps its uniform envelope out there
    far = synth_wake(y0=1e308, sigma=math.inf, nx=4, ny=3, nt=8)
    near = synth_wake(y0=0.0, sigma=math.inf, nx=4, ny=3, nt=8)
    assert np.array_equal(far.frames, near.frames)


def test_synth_wake_allows_a_uniform_envelope():
    # an infinite sigma or decay_l gives finite frames
    bundle = synth_wake(sigma=math.inf, decay_l=math.inf, nx=4, ny=3, nt=8)
    assert np.all(np.abs(bundle.frames) <= 2.0)


def test_synth_wake_rejects_bad_sampling():
    with pytest.raises(ValueError):
        synth_wake(k_x=16.0)  # phase step per column reaches pi
    with pytest.raises(ValueError):
        synth_wake(a_w=0.0)


# ----------------------------------------------------------------------
# Spectral maps
# ----------------------------------------------------------------------

def test_spectral_grids_match_generator():
    bundle = synth_wake()
    grids = spectral_grids(bundle, source=(0.0, 0.0))
    xs, ys = grids.x, grids.y
    inside = xs >= bundle.dx  # one column in from the leading edge
    m_true = (np.exp(-ys[:, None] ** 2 / 8.0)
              * np.exp(-xs[None, :] / 10.0))[:, inside]
    phi_true = (-xs[inside]) % TWO_PI
    assert np.max(np.abs(grids.m_grid[:, inside] - m_true)) < 1e-6
    dphi = wrap_angle(grids.phi_grid[:, inside] - phi_true[None, :])
    assert np.max(np.abs(dphi)) < 1e-6


def test_spectral_grids_agree_with_single_point_dft():
    # the map maker and the single-point estimator share one code path,
    # so their outputs must match bit for bit
    bundle = synth_wake(nx=12, ny=9, nt=16)
    grids = spectral_grids(bundle)
    for (i, j) in ((3, 4), (7, 2), (11, 8)):
        c = dft_first_mode(bundle.frames[:, j, i], bundle.period)
        m, phi = abs(c), wrap_phase(math.atan2(c.imag, c.real))
        assert grids.m_grid[j, i] == m
        assert grids.phi_grid[j, i] == phi


def test_spectral_grids_gradient_and_delta():
    bundle = synth_wake()
    grids = spectral_grids(bundle, source=(0.0, 0.0))
    xs, ys = grids.x, grids.y
    # interior wake columns carry grad phi = (-k_x, 0)
    inside = (xs >= bundle.dx) & (xs <= xs[-2])
    gx = grids.grad_phi_grid[1:-1, inside, 0]
    gy = grids.grad_phi_grid[1:-1, inside, 1]
    assert np.nanmax(np.abs(gx + 1.0)) < 1e-6
    assert np.nanmax(np.abs(gy)) < 1e-6
    # alignment error flips sign across the centerline
    j0 = 30
    assert ys[j0] == pytest.approx(0.0)
    row_hi = grids.delta_grid[j0 + 5, inside]
    row_lo = grids.delta_grid[j0 - 5, inside]
    good = ~(np.isnan(row_hi) | np.isnan(row_lo))
    assert good.any()
    assert np.max(np.abs(row_hi[good] + row_lo[good])) < 1e-9
    # and vanishes on the centerline x axis toward the source
    center = grids.delta_grid[j0, inside]
    center = center[~np.isnan(center)]
    assert np.max(np.abs(center)) < 1e-9


@pytest.mark.parametrize("pick_source", [
    lambda grids: (0.0, 0.0),
    # a source on a grid node, where delta is undefined
    lambda grids: (float(grids.x[40]), float(grids.y[30])),
    lambda grids: (3.1, -1.7),
])
def test_delta_grid_equals_per_node_alignment_error(pick_source):
    bundle = synth_wake()
    source = pick_source(spectral_grids(bundle))
    grids = spectral_grids(bundle, source=source)
    want = np.full((bundle.ny, bundle.nx), np.nan)
    for j, i in np.ndindex(want.shape):
        try:
            want[j, i] = alignment_error((grids.x[i], grids.y[j]),
                                         grids.grad_phi_grid[j, i], source)
        except ValueError:
            pass
    assert np.array_equal(grids.delta_grid, want, equal_nan=True)
    assert np.isfinite(want).sum() > 1000


def test_spectral_grids_nan_outside_support():
    bundle = synth_wake()
    grids = spectral_grids(bundle, source=(0.0, 0.0))
    dead = grids.x < -bundle.dx / 2
    assert np.all(grids.m_grid[:, dead] == 0.0)
    assert np.isnan(grids.grad_phi_grid[:, dead, :]).all()
    assert np.isnan(grids.delta_grid[:, dead]).all()


@pytest.mark.parametrize("source", [
    (math.nan, 0.0), (0.0, math.inf), np.array([-math.inf, 1.0])])
def test_spectral_grids_reject_a_non_finite_source(source):
    # a NaN source once gave an all-NaN delta map with no complaint
    with pytest.raises(ValueError, match="^source must be finite"):
        spectral_grids(synth_wake(nx=16, ny=9, nt=16), source=source)


def test_spectral_grids_warn_near_wrap_limit():
    bundle = synth_wake(nx=24, ny=9, nt=16, k_x=15.0, dx=0.2)
    with pytest.warns(UserWarning):
        spectral_grids(bundle)


@pytest.mark.parametrize("transpose", [False, True])
def test_spectral_grids_trust_and_warn_only_on_healthy_stencils(transpose):
    # node signals a_i cos(w t + p_i) along one axis: nodes with a_i = 0
    # fall below the floor, and the last node is half a period out of step
    nt = 8
    t = np.arange(nt) * (TWO_PI / nt)
    phases = np.array([0.0, 0.0, 0.0, 0.0, math.pi])

    def grids(amps):
        frames = np.repeat(
            np.array(amps) * np.cos(t[:, None, None] + phases), 2, axis=1)
        if transpose:
            frames = frames.transpose(0, 2, 1)
        _, ny, nx = frames.shape
        return spectral_grids(GridFieldBundle(
            nx=nx, ny=ny, nt=nt, x0=0.0, y0=0.0, dx=1.0, dy=1.0,
            dt=TWO_PI / nt, frames=frames))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every node, edges included, differences against a dead one, and
        # the step of pi has a dead end
        assert np.isnan(grids([1, 0, 1, 0, 1]).grad_phi_grid).all()
    with pytest.warns(UserWarning, match="approach pi"):
        assert np.isfinite(grids([1, 1, 1, 1, 1]).grad_phi_grid).all()


def test_spectral_grids_csv(tmp_path):
    bundle = synth_wake(nx=8, ny=5, nt=16)
    grids = spectral_grids(bundle, source=(0.0, 0.0))
    path = tmp_path / "grids.csv"
    grids.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,m,phi,gx,gy,delta"
    assert len(lines) == 1 + 8 * 5
    cells = lines[1].split(",")
    assert float(cells[0]) == pytest.approx(-2.0)


@pytest.mark.parametrize("source", [None, (0.0, 0.0)])
def test_spectral_grids_csv_bytes(tmp_path, source):
    # x from -2 to 1: the nodes left of x = 0 have no signal, so their
    # gradient (and delta) cells are NaN
    grids = spectral_grids(synth_wake(nx=7, ny=4, nt=16, dx=0.5),
                           source=source)
    assert np.isnan(grids.grad_phi_grid).any()
    assert not np.isnan(grids.grad_phi_grid).all()
    lines = ["x,y,m,phi,gx,gy,delta"]
    for j in range(4):
        for i in range(7):
            delta = (math.nan if grids.delta_grid is None
                     else grids.delta_grid[j, i])
            cells = (grids.x[i], grids.y[j], grids.m_grid[j, i],
                     grids.phi_grid[j, i], grids.grad_phi_grid[j, i, 0],
                     grids.grad_phi_grid[j, i, 1], delta)
            lines.append(",".join(repr(float(c)) for c in cells))
    path = tmp_path / "grids.csv"
    grids.write_csv(path)
    assert path.read_text() == "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Bundle-backed field
# ----------------------------------------------------------------------

def test_bundle_field_exact_on_nodes():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    field = field_from_bundle(bundle)
    rng = np.random.default_rng(41)
    for _ in range(100):
        i = int(rng.integers(0, bundle.nx))
        j = int(rng.integers(0, bundle.ny))
        k = int(rng.integers(0, bundle.nt))
        x = (bundle.x0 + i * bundle.dx, bundle.y0 + j * bundle.dy)
        t = k * bundle.dt
        assert field.eval_windows([x], t, 1)[0, 0] == pytest.approx(
            bundle.frames[k, j, i], abs=1e-12)


def test_bundle_field_bilinear_between_nodes():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    field = field_from_bundle(bundle)
    # cell-center value is the average of the four corner nodes
    i, j = 6, 3
    x = (bundle.x0 + (i + 0.5) * bundle.dx, bundle.y0 + (j + 0.5) * bundle.dy)
    corners = bundle.frames[0, j:j + 2, i:i + 2]
    assert field.eval_windows([x], 0.0, 1)[0, 0] == pytest.approx(
        corners.mean(), abs=1e-12)


def test_bundle_field_linear_in_time():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    field = field_from_bundle(bundle)
    x = (bundle.x0 + 5 * bundle.dx, bundle.y0 + 4 * bundle.dy)
    v0 = field.eval_windows([x], 0.0, 1)[0, 0]
    v1 = field.eval_windows([x], bundle.dt, 1)[0, 0]
    mid = field.eval_windows([x], 0.5 * bundle.dt, 1)[0, 0]
    assert mid == pytest.approx(0.5 * (v0 + v1), abs=1e-12)
    # periodic wrap: one full period later the value repeats
    later = field.eval_windows([x], 0.3 + bundle.period, 1)[0, 0]
    assert later == pytest.approx(field.eval_windows([x], 0.3, 1)[0, 0],
                                  abs=1e-9)


def test_bundle_field_domain():
    bundle = synth_wake()
    field = field_from_bundle(bundle)
    # the rectangle of the grid's nodes, x0 + dx (nx - 1) and so on
    assert field.bounds == (-2.0, -6.0, 14.0, 6.0)
    assert field.eval_windows([(50.0, 50.0)], 0.0, 1)[0, 0] == 0.0


def test_bundle_field_window_matches_eval():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    field = field_from_bundle(bundle)
    x = (1.03, 0.41)
    window = field.eval_window(x, 0.2, 16)
    ts = 0.2 + np.arange(16) * (field.period / 16)
    for k in range(16):
        assert window[k] == pytest.approx(
            field.eval_windows([x], float(ts[k]), 1)[0, 0], abs=1e-12)


def _per_point_bundle_window(field, x, t0, n):
    # the per-point window of a bundle field, written out independently:
    # bilinear in space over every frame, then periodic-linear in time
    b = field.bundle
    x_max = b.x0 + b.dx * (b.nx - 1)
    y_max = b.y0 + b.dy * (b.ny - 1)
    if not (b.x0 <= x[0] <= x_max and b.y0 <= x[1] <= y_max):
        return np.zeros(n)
    u = (float(x[0]) - b.x0) / b.dx
    v = (float(x[1]) - b.y0) / b.dy
    i0 = min(max(int(math.floor(u)), 0), b.nx - 2)
    j0 = min(max(int(math.floor(v)), 0), b.ny - 2)
    fu, fv = u - i0, v - j0
    f = b.frames
    series = ((1 - fu) * (1 - fv) * f[:, j0, i0]
              + fu * (1 - fv) * f[:, j0, i0 + 1]
              + (1 - fu) * fv * f[:, j0 + 1, i0]
              + fu * fv * f[:, j0 + 1, i0 + 1])
    t = t0 + np.arange(n) * (field.period / n)
    s = (t % field.period) / b.dt
    k0 = np.floor(s).astype(int) % b.nt
    k1 = (k0 + 1) % b.nt
    w = s - np.floor(s)
    return (1.0 - w) * series[k0] + w * series[k1]


def test_bundle_eval_windows_rows_equal_single_point_windows():
    bundle = synth_wake(nx=16, ny=9, nt=16)
    field = field_from_bundle(bundle)
    x_max = bundle.x0 + bundle.dx * 15
    y_max = bundle.y0 + bundle.dy * 8
    rng = np.random.default_rng(22)
    points = np.vstack([
        # inside the wake, where the signal is not zero
        np.column_stack([rng.uniform(0.05, x_max, 6),
                         rng.uniform(bundle.y0, y_max, 6)]),
        # last column, last row and the far corner inside the wake, and a
        # node upstream of it
        [[x_max, -5.13], [0.37, y_max], [x_max, y_max],
         [bundle.x0 + 3 * bundle.dx, bundle.y0 + 2 * bundle.dy]],
        # off the grid, including non-finite points: zero rows
        [[x_max + 1e-9, 0.0], [0.0, bundle.y0 - 5.0], [50.0, 50.0],
         [math.nan, 0.0], [math.inf, -math.inf]],
    ])
    for n, t0 in ((16, 0.2), (64, 7.9), (13, -3.3)):
        windows = field.eval_windows(points, t0, n)
        assert windows.shape == (len(points), n)
        for x, row in zip(points, windows):
            assert np.array_equal(row, field.eval_window(x, t0, n))
            assert np.array_equal(row, _per_point_bundle_window(field, x, t0, n))
        assert not windows[-5:].any()
        assert (np.abs(windows[:9]).max(axis=1) > 0).all()


def _noisy_wake(rng):
    # noise on every frame, so the windows are not band-limited
    wake = synth_wake(nx=16, ny=9, nt=64)
    return GridFieldBundle(
        nx=wake.nx, ny=wake.ny, nt=64, x0=wake.x0, y0=wake.y0, dx=wake.dx,
        dy=wake.dy, dt=wake.dt,
        frames=wake.frames + 0.1 * rng.normal(size=wake.frames.shape))


def test_bundle_window_coeffs_equal_window_dft():
    rng = np.random.default_rng(23)
    bundle = _noisy_wake(rng)
    field = field_from_bundle(bundle)
    x_max = bundle.x0 + bundle.dx * 15
    y_max = bundle.y0 + bundle.dy * 8
    edges = np.array([
        # last column, last row, the far corner, and a node
        [x_max, -5.13], [0.37, y_max], [x_max, y_max],
        [bundle.x0 + 3 * bundle.dx, bundle.y0 + 2 * bundle.dy],
        # off the grid, including non-finite points: zero coefficients
        [x_max + 1e-9, 0.0], [0.0, bundle.y0 - 5.0], [50.0, 50.0],
        [math.nan, 0.0], [math.inf, -math.inf]])
    # before the start, a window start well past the README seek's t_end
    # of 40, and starts exactly on a frame
    starts = (-3.3, 0.0, 0.1, 123.4, 5 * bundle.dt, 1234 * bundle.dt)
    for n in (64, 128, 256, 96, 13):
        for t0 in starts:
            for _ in range(10):
                points = np.vstack([
                    np.column_stack([rng.uniform(bundle.x0, x_max, 5),
                                     rng.uniform(bundle.y0, y_max, 5)]),
                    edges])
                got = np.array(field.window_coeffs(points, t0, n))
                want = first_mode_coeffs(field.eval_windows(points, t0, n),
                                         field.period)
                if n % bundle.nt:
                    # n is not a multiple of nt: the window DFT itself
                    assert np.array_equal(got, want)
                else:
                    assert np.abs(got - want).max() < 1e-14
                assert not got[-5:].any()
                assert (np.abs(got[:9]) > 0).all()


def test_bundle_window_coeffs_far_from_t0_zero():
    # eval_windows rounds its sample times at the ulp of t0, which the
    # map read does not, so their gap grows with t0 (about 1e-13 at
    # t0 = 1e4). Against the window started a whole number of periods
    # earlier the map read still agrees to rounding.
    rng = np.random.default_rng(24)
    bundle = _noisy_wake(rng)
    field = field_from_bundle(bundle)
    points = np.column_stack([
        rng.uniform(bundle.x0, bundle.x0 + bundle.dx * 15, 20),
        rng.uniform(bundle.y0, bundle.y0 + bundle.dy * 8, 20)])
    t0 = 1e4
    want = first_mode_coeffs(
        field.eval_windows(points, t0 % field.period, 64), field.period)
    got = np.array(field.window_coeffs(points, t0, 64))
    assert np.abs(got - want).max() < 1e-14


def test_bundle_window_coeffs_reject_short_windows():
    field = field_from_bundle(synth_wake(nx=16, ny=9, nt=8))
    for n in (0, 4, 7, -8):
        with pytest.raises(ValueError):
            field.window_coeffs([(1.0, 0.0)], 0.0, n)


def _bits(z):
    # equal bits: both parts and their signs, so -0.0 differs from 0.0
    z = complex(z)
    return z.real, z.imag, bool(np.signbit(z.real)), bool(np.signbit(z.imag))


def _edge_points(rng, bundle):
    # random points, nodes, the far edges (where the cell clamps), the
    # next float outside each edge and -0.0 coordinates
    x_last = bundle.x0 + bundle.dx * (bundle.nx - 1)
    y_last = bundle.y0 + bundle.dy * (bundle.ny - 1)
    xs = rng.uniform(bundle.x0, x_last, 8).tolist()
    ys = rng.uniform(bundle.y0, y_last, 8).tolist()
    points = list(zip(xs, ys))
    points += [(bundle.x0 + int(rng.integers(bundle.nx)) * bundle.dx,
                bundle.y0 + int(rng.integers(bundle.ny)) * bundle.dy)
               for _ in range(4)]
    points += [(x_last, ys[0]), (xs[1], y_last), (x_last, y_last),
               (bundle.x0, bundle.y0)]
    points += [(math.nextafter(bundle.x0, -math.inf), ys[2]),
               (math.nextafter(x_last, math.inf), ys[3]),
               (xs[4], math.nextafter(bundle.y0, -math.inf)),
               (xs[5], math.nextafter(y_last, math.inf))]
    points += [(-0.0, ys[6]), (xs[7], -0.0), (-0.0, -0.0)]
    return points


def _edge_bundles(rng):
    # random grids, and grids whose x0 or y0 is 0.0 or straddles 0, so
    # that -0.0 lands on an edge or inside
    yield from (_random_bundle(rng) for _ in range(6))
    for x0, y0 in ((0.0, 0.0), (-0.35, 0.0), (0.0, -0.2), (-0.3, -0.45)):
        nx, ny, nt = 5, 4, 8
        yield GridFieldBundle(nx=nx, ny=ny, nt=nt, x0=x0, y0=y0, dx=0.1,
                              dy=0.15, dt=0.25,
                              frames=rng.normal(size=(nt, ny, nx)))


def test_bundle_bilinear_read_equals_oracle_bit_for_bit():
    rng = np.random.default_rng(31)
    for bundle in _edge_bundles(rng):
        field = field_from_bundle(bundle)
        # a complex table with signed zeros in both parts
        parts = rng.normal(size=(2, bundle.ny, bundle.nx))
        parts[rng.random(parts.shape) < 0.3] = 0.0
        parts[rng.random(parts.shape) < 0.3] = -0.0
        # cells whose four corners share a -0.0 part read -0.0 there
        parts[0, :2], parts[1, :, :2] = -0.0, -0.0
        table = [list(map(complex, re, im))
                 for re, im in zip(*parts.tolist())]
        flat = [c for row in table for c in row]
        for _ in range(5):
            points = _edge_points(rng, bundle)
            got = field._bilinear(flat, points, None)
            want = [bilinear_ref(bundle, table, p, None) for p in points]
            assert [c is None for c in got] == [c is None for c in want]
            assert ([_bits(c) for c in got if c is not None]
                    == [_bits(c) for c in want if c is not None])


def test_bundle_window_coeffs_equal_oracle_bit_for_bit():
    # window_coeffs is B(t0, n) times the bilinear read of the first-mode
    # map, each node's coefficient being dft_first_mode of its series
    rng = np.random.default_rng(32)
    for bundle in _edge_bundles(rng):
        field = field_from_bundle(bundle)
        table = [[dft_first_mode(bundle.frames[:, j, i], bundle.period)
                  for i in range(bundle.nx)] for j in range(bundle.ny)]
        for t0 in (0.0, -0.0, 0.37, 3 * bundle.dt, -7.9, 1234.5):
            for n in (bundle.nt, 2 * bundle.nt):
                points = _edge_points(rng, bundle)
                factor = field._window_factor(t0, n)
                want = [0j if c is None else factor * c for c in
                        (bilinear_ref(bundle, table, p, None)
                         for p in points)]
                got = field.window_coeffs(points, t0, n)
                assert [_bits(c) for c in got] == [_bits(c) for c in want]


def _raw_bits(coeffs):
    # the bytes of both parts: signs, zeros and NaN payloads included
    return [struct.pack("<dd", c.real, c.imag) for c in coeffs]


def test_bundle_window_factor_memo_is_invisible():
    # a field that has served other (t0, n) keeps the last window factor;
    # its coefficients must equal a fresh field's bit for bit
    rng = np.random.default_rng(33)
    nan = math.nan
    for bundle in _edge_bundles(rng):
        served = field_from_bundle(bundle)
        nt, frame = bundle.nt, bundle.dt

        def check(t0, n):
            points = _edge_points(rng, bundle)
            fresh = field_from_bundle(bundle).window_coeffs(points, t0, n)
            assert (_raw_bits(served.window_coeffs(points, t0, n))
                    == _raw_bits(fresh))

        # 0.0 then -0.0 share one key, NaN is read both as the same object
        # and as another NaN, and a start time one ulp on must not reuse
        # the factor before it
        starts = (0.0, -0.0, 0.0, nan, nan, float("nan"), -0.0, 3 * frame,
                  nt * frame, 3 * nt * frame, 1234.5,
                  math.nextafter(1234.5, math.inf), -7 * frame)
        for n in (nt, 2 * nt):
            for t0 in starts:
                check(t0, n)
            for t0 in starts:
                # then each start time with the other window size between
                check(t0, n)
                check(t0, 3 * nt - n)
            # the RK4 order over a few steps: t, t + dt/2, t + dt/2, t + dt
            t, dt = 0.0, 0.37 * frame
            for _ in range(4):
                half = 0.5 * dt
                for stage_t in (t, t + half, t + half, t + dt):
                    check(stage_t, n)
                t += dt


def test_bundle_field_describe():
    bundle = synth_wake(meta_re=150.0, meta_st=0.2)
    desc = field_from_bundle(bundle).describe()
    assert desc["kind"] == "bundle"
    assert desc["nx"] == 81


def test_wrap_robust_gradient():
    # phase decreases linearly through several 0 / 2 pi seams across the
    # wake; the wrapped differences must not corrupt the gradient there
    bundle = synth_wake()
    grids = spectral_grids(bundle)
    n_wraps = (grids.x[-1] - grids.x[0]) / TWO_PI
    assert n_wraps > 2.0
    xs = grids.x
    inside = (xs >= bundle.dx) & (xs <= xs[-2])
    gx = grids.grad_phi_grid[1:-1, inside, 0]
    assert np.nanmax(np.abs(gx + 1.0)) < 1e-6
