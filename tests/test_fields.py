"""Tests for the signal fields and their exact spectral descriptions."""

import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

from oracles import float_csv_ref, grid_csv_ref
from phaseseek import (
    TWO_PI,
    Field,
    OriginSingularityError,
    PortraitGrid,
    RadialField,
    SensingConfig,
    alignment_error,
    dft_first_mode,
    field_from_bundle,
    first_mode_coeffs,
    portrait,
    spectral_sample,
    spectral_grids,
    synth_wake,
    wrap_angle,
    wrap_phase,
)
from phaseseek.fields import (
    _CSV_BLOCK_ROWS,
    _write_grid_csv,
    write_float_csv,
    write_json,
)
from traveling_wave import TravelingWaveField, TravelingWaveMode


def test_wrap_phase_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(-50.0, 50.0))
        w = wrap_phase(a)
        assert 0.0 <= w < TWO_PI
        # same angle modulo a full turn
        assert abs(math.remainder(w - a, TWO_PI)) < 1e-9


def test_wrap_angle_range_and_branch():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = float(rng.uniform(-50.0, 50.0))
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - a, TWO_PI)) < 1e-9
    # the branch cut lands on +pi, not -pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(TWO_PI) == pytest.approx(0.0, abs=1e-15)


def test_wrap_helpers_accept_arrays():
    a = np.array([-math.pi, 0.0, math.pi, 4.0 * math.pi])
    w = wrap_angle(a)
    assert w.shape == a.shape
    assert np.all(w > -math.pi) and np.all(w <= math.pi)
    p = wrap_phase(a)
    assert np.all(p >= 0.0) and np.all(p < TWO_PI)


def test_radial_params_validation():
    with pytest.raises(ValueError):
        RadialField(ell=0.0)
    with pytest.raises(ValueError):
        RadialField(ell=-2.0)


def test_a_radial_field_rejects_an_infinite_ell():
    # analysis rejects an infinite ell, so simulate never hands it one: a
    # static RadialField(inf) once ran with m = 1, and an inverse one
    # wrote Q = 0 on every row, a q_drift of 0.0
    with pytest.raises(ValueError, match=r"^ell must be finite, got inf$"):
        RadialField(math.inf)
    with pytest.raises(ValueError, match=r"^ell must be positive, got -inf$"):
        RadialField(-math.inf)


@pytest.mark.parametrize("ell", [0.0, -2.0])
def test_a_radial_field_cannot_be_changed_after_its_checks(ell):
    # ell = 0 set after construction once made simulate die on a bare
    # ZeroDivisionError, and ell = -2 ran to t_end reading m > 1
    field = RadialField(6.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.ell = ell
    with pytest.raises(ValueError, match="ell must be positive"):
        dataclasses.replace(field, ell=ell)
    assert field.ell == 6.5 and field.period == TWO_PI


def test_radial_eval_value():
    # frozen spot value at r = 5
    got = RadialField(ell=6.5).eval_windows([(3.0, 4.0)], 1.2, 1)[0, 0]
    assert got == pytest.approx(-0.7330204195040186, abs=1e-12)
    assert got == pytest.approx(2.0 * math.exp(-5.0 / 6.5) * math.cos(5.0 - 1.2))


def test_radial_eval_periodicity():
    field = RadialField(6.5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.uniform(-8.0, 8.0, size=2)
        t = float(rng.uniform(0.0, 40.0))
        later = field.eval_windows([x], t + field.period, 1)[0, 0]
        assert later == pytest.approx(field.eval_windows([x], t, 1)[0, 0],
                                      abs=1e-12)
    assert field.period == pytest.approx(TWO_PI)


def test_radial_eval_window_matches_scalar_eval():
    field = RadialField(6.5)
    x = (1.7, -2.2)
    window = field.eval_window(x, 0.3, 16)
    ts = 0.3 + np.arange(16) * (field.period / 16)
    for k in range(16):
        assert window[k] == pytest.approx(
            field.eval_windows([x], float(ts[k]), 1)[0, 0], abs=1e-12)


def _per_point_radial_window(field, x, t0, n):
    # the per-point window of the radial field, written out independently
    r = math.hypot(x[0], x[1])
    t = t0 + np.arange(n) * (field.period / n)
    return 2.0 * math.exp(-r / field.ell) * np.cos(r - t)


def _per_point_traveling_window(field, x, t0, n):
    dx = float(x[0]) - field.base_point[0]
    dy = float(x[1]) - field.base_point[1]
    t = t0 + np.arange(n) * (field.period / n)
    total = np.zeros(n)
    for mode in field.modes:
        u = mode.k_vec[0] * dx + mode.k_vec[1] * dy - mode.omega_n * t
        total += mode.alpha * np.cos(u) + mode.beta * np.sin(u)
    return total


@pytest.mark.parametrize("field, oracle", [
    (RadialField(6.5), _per_point_radial_window),
    (TravelingWaveField([
        TravelingWaveMode(0.9, 0.4, 1.0, (1.0, 0.0)),
        TravelingWaveMode(0.5, -0.3, 2.0, (0.3, 0.8)),
    ], base_point=(0.4, -0.2)), _per_point_traveling_window),
])
def test_eval_windows_rows_equal_single_point_windows(field, oracle):
    # batching changes no bit: every row equals the point's own window
    rng = np.random.default_rng(21)
    points = rng.uniform(-9.0, 9.0, size=(7, 2))
    for n, t0 in ((64, 0.0), (16, 3.7), (13, 41.2)):
        windows = field.eval_windows(points, t0, n)
        assert windows.shape == (7, n)
        for x, row in zip(points, windows):
            assert np.array_equal(row, field.eval_window(x, t0, n))
            assert np.array_equal(row, oracle(field, x, t0, n))


@pytest.mark.parametrize("field", [
    RadialField(6.5),
    TravelingWaveField([
        TravelingWaveMode(0.9, 0.4, 1.0, (1.0, 0.0)),
        TravelingWaveMode(0.5, -0.3, 2.0, (0.3, 0.8)),
    ], base_point=(0.4, -0.2)),
])
def test_window_coeffs_are_the_window_dft(field):
    rng = np.random.default_rng(25)
    points = [tuple(p) for p in rng.uniform(-9.0, 9.0, size=(5, 2))]
    for n, t0 in ((64, 0.0), (16, 3.7), (13, -41.2)):
        got = field.window_coeffs(points, t0, n)
        assert all(type(c) is complex for c in got)
        want = first_mode_coeffs(field.eval_windows(points, t0, n),
                                 field.period)
        assert np.array_equal(got, want)
    for n in (0, 7):
        with pytest.raises(ValueError):
            field.window_coeffs(points, 0.0, n)


class _SplitPeriod(Field):
    # a user field whose own window divides the period by n
    period = 2.5

    def eval_windows(self, points, t0, n):
        t = t0 + np.arange(n) * (2.5 / n)
        return np.cos(np.asarray(points, dtype=float)[:, :1] - t)


_BUNDLE_FIELD = field_from_bundle(synth_wake(nx=9, ny=7, nt=8))
_POINTS = [(1.0, 0.5), (1.2, 0.5)]
# every entry that reads a first-mode window of n samples
_WINDOW_ENTRIES = {
    "first_mode_coeffs": lambda n: first_mode_coeffs(np.ones((2, n)), 6.0),
    "dft_first_mode": lambda n: dft_first_mode(np.ones(n), 6.0),
    "spectral_sample": lambda n: spectral_sample(
        RadialField(6.5), (3.0, 4.0), 0.0, 1.0, types.SimpleNamespace(
            n_samples=n, stencil_h=0.01, m_floor=1e-9)),
    "SensingConfig": lambda n: SensingConfig(n_samples=n),
    "RadialField.window_coeffs": lambda n: RadialField(6.5).window_coeffs(
        _POINTS, 0.0, n),
    # n = 0 is a multiple of nt, so it reaches the map path's guard
    "BundleField.window_coeffs": lambda n: _BUNDLE_FIELD.window_coeffs(
        _POINTS, 0.0, n),
    "BundleField.window_coeffs[dft]": lambda n: Field.window_coeffs(
        _BUNDLE_FIELD, _POINTS, 0.0, n),
    "Field.window_coeffs[subclass]": lambda n: _SplitPeriod().window_coeffs(
        _POINTS, 0.0, n),
}


@pytest.mark.parametrize("n", [0, 7])
@pytest.mark.parametrize("entry", list(_WINDOW_ENTRIES))
def test_every_window_entry_keeps_the_one_window_rule(entry, n):
    # the one rule, in the words of the window or of SensingConfig's slot
    with pytest.raises(ValueError,
                       match=rf"^(window must hold|n_samples must be) at "
                             rf"least 8( samples)?, got {n}$"):
        _WINDOW_ENTRIES[entry](n)


def test_a_field_writes_its_signal_in_eval_windows_only():
    class Ripple(Field):
        period = 2.5

        def eval_windows(self, points, t0, n):
            points = np.asarray(points, dtype=float)
            t = t0 + np.arange(n) * (2.5 / n)
            return np.sin(points[:, :1] - 2.0 * points[:, 1:]
                          + 2.0 * math.pi * t / 2.5)

    field = Ripple()
    points = np.array([[0.3, -1.0], [2.0, 0.5]])
    windows = field.eval_windows(points, 0.7, 8)
    for x, row in zip(points, windows):
        assert np.array_equal(row, field.eval_window(x, 0.7, 8))
        samples = [field.eval_windows([x], 0.7 + k * (2.5 / 8), 1)[0, 0]
                   for k in range(8)]
        assert samples == list(row)

    class EvalOnly(Field):
        period = 2.5

        def eval(self, x, t):
            return 0.0

    with pytest.raises(TypeError):
        EvalOnly()


def test_radial_spectral_truth():
    truth = RadialField(ell=6.5).analytic_spectra((3.0, 0.0))
    assert truth.m == pytest.approx(math.exp(-3.0 / 6.5), abs=1e-15)
    assert truth.phi == pytest.approx(TWO_PI - 3.0, abs=1e-12)
    assert truth.grad_phi[0] == pytest.approx(-1.0)
    assert truth.grad_phi[1] == pytest.approx(0.0)
    # gradient always points at the source with unit magnitude
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.uniform(-9.0, 9.0, size=2)
        r = math.hypot(*x)
        if r < 1e-6:
            continue
        truth = RadialField(ell=6.5).analytic_spectra(x)
        assert math.hypot(*truth.grad_phi) == pytest.approx(1.0, abs=1e-12)
        assert truth.grad_phi[0] == pytest.approx(-x[0] / r, abs=1e-12)
        assert truth.grad_phi[1] == pytest.approx(-x[1] / r, abs=1e-12)


def test_radial_truth_rejects_origin():
    with pytest.raises(OriginSingularityError):
        RadialField(ell=6.5).analytic_spectra((0.0, 0.0))


@pytest.mark.parametrize("xs, ys, name", [
    ([math.nan, 1.0], [0.0], "xs"), ([1.0], [0.0, math.inf], "ys"),
    ([-math.inf], [2.0], "xs")])
def test_radial_maps_reject_a_non_finite_node(xs, ys, name):
    # a NaN node once read m = nan with no complaint
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        RadialField(6.5).spectral_grids(xs, ys)


def test_radial_field_is_analytic():
    # analytic because it defines analytic_mode, the one analytic
    # contract; analytic_spectra reads the same magnitude and gradient
    field = RadialField(6.5)
    assert "analytic_mode" in vars(RadialField)
    truth = field.analytic_spectra((0.0, -4.0))
    assert field.analytic_mode(0.0, -4.0) == (truth.m, *truth.grad_phi)
    assert truth.m == pytest.approx(math.exp(-4.0 / 6.5))
    assert truth.grad_phi[1] == pytest.approx(1.0)
    assert field.describe()["kind"] == "radial"
    assert field.describe()["ell"] == 6.5


def test_traveling_wave_first_mode_spectrum():
    field = TravelingWaveField(
        [TravelingWaveMode(alpha=1.2, beta=-0.7, omega_n=1.0, k_vec=(0.7, -0.7))])
    truth = field.analytic_spectra((0.0, 0.0))
    assert truth.m == pytest.approx(abs(1.2 - 0.7j) / 2.0, abs=1e-12)
    assert truth.phi == pytest.approx(
        wrap_phase(math.atan2(-0.7, 1.2)), abs=1e-12)
    truth = field.analytic_spectra((1.3, -2.1))
    # linear phase: gradient is -k everywhere
    assert truth.grad_phi[0] == pytest.approx(-0.7, abs=1e-12)
    assert truth.grad_phi[1] == pytest.approx(0.7, abs=1e-12)


def test_traveling_wave_higher_modes_do_not_shift_first_mode():
    base = TravelingWaveField(
        [TravelingWaveMode(0.9, 0.4, 1.0, (1.0, 0.0))])
    rich = TravelingWaveField([
        TravelingWaveMode(0.9, 0.4, 1.0, (1.0, 0.0)),
        TravelingWaveMode(0.5, -0.3, 2.0, (0.3, 0.8)),
        TravelingWaveMode(0.2, 0.1, 3.0, (-0.4, 0.4)),
    ])
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-5.0, 5.0, size=2)
        a, b = base.analytic_spectra(x), rich.analytic_spectra(x)
        assert b.m == pytest.approx(a.m, abs=1e-12)
        assert wrap_angle(b.phi - a.phi) == pytest.approx(0.0, abs=1e-12)


def test_traveling_wave_rejects_bad_modes():
    with pytest.raises(ValueError):
        TravelingWaveField([
            TravelingWaveMode(1.0, 0.0, 1.0, (1.0, 0.0)),
            TravelingWaveMode(0.5, 0.0, 1.5, (1.0, 0.0)),  # not a harmonic
        ])
    with pytest.raises(ValueError):
        TravelingWaveField([])
    field = TravelingWaveField(
        [TravelingWaveMode(0.0, 0.0, 1.0, (1.0, 0.0))])
    with pytest.raises(ValueError):
        field.analytic_spectra((1.0, 1.0))  # zero first-mode amplitude


@pytest.mark.parametrize("slot", ["alpha", "beta", "omega_n", "k_x", "k_y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_traveling_wave_mode_rejects_non_finite(slot, bad):
    # a non-finite mode would sense a NaN phase gradient, which steers as
    # s = -1.0 and ends a run t_end with NaN poses
    mode = {"alpha": 1.0, "beta": 0.0, "omega_n": 1.0, "k_x": 1.0,
            "k_y": 0.0}
    mode[slot] = bad
    with pytest.raises(ValueError):
        TravelingWaveMode(mode["alpha"], mode["beta"], mode["omega_n"],
                          (mode["k_x"], mode["k_y"]))


def test_alignment_error_examples():
    # gradient pointing at the source: zero error
    assert alignment_error((5.0, 0.0), (-1.0, 0.0)) == pytest.approx(0.0)
    # gradient rotated against the bearing: signed angle, CCW positive
    assert alignment_error((5.0, 0.0), (0.0, 1.0)) == pytest.approx(-math.pi / 2)
    assert alignment_error((5.0, 0.0), (0.0, -1.0)) == pytest.approx(math.pi / 2)
    assert alignment_error((5.0, 0.0), (1.0, 0.0)) == pytest.approx(math.pi)
    # magnitude of the gradient does not matter
    assert alignment_error((5.0, 0.0), (-7.3, 0.0)) == pytest.approx(0.0)


def test_alignment_error_recovers_rotation():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-8.0, 8.0, size=2)
        if math.hypot(*x) < 1e-3:
            continue
        delta = float(rng.uniform(-math.pi + 1e-6, math.pi))
        bearing = -x / math.hypot(*x)
        c, s = math.cos(delta), math.sin(delta)
        grad = (c * bearing[0] - s * bearing[1],
                s * bearing[0] + c * bearing[1])
        assert alignment_error(x, grad, source=(0.0, 0.0)) == pytest.approx(
            delta, abs=1e-12)


def test_alignment_error_offset_source():
    got = alignment_error((3.0, 4.0), (-1.0, 0.0), source=(2.0, 4.0))
    assert got == pytest.approx(0.0, abs=1e-12)


def test_alignment_error_rejects_degenerate_inputs():
    with pytest.raises(OriginSingularityError):
        alignment_error((0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        alignment_error((1.0, 0.0), (0.0, 0.0))


def _refuse(name):
    raise ValueError(f"bare {name} in strict JSON")


def test_write_json_spells_infinities_and_refuses_nan(tmp_path):
    path = tmp_path / "record.json"
    write_json(path, {"b": [math.inf, (-math.inf, 1.5)],
                      "a": {"r_escape": np.float64(math.inf), "n": 3}})
    assert path.read_text() == (
        '{\n  "a": {\n    "n": 3,\n    "r_escape": "inf"\n  },\n'
        '  "b": [\n    "inf",\n    [\n      "-inf",\n      1.5\n    ]\n'
        '  ]\n}\n')
    assert json.loads(path.read_text(), parse_constant=_refuse)
    # a NaN raises before the file is opened, so nothing is written
    with pytest.raises(ValueError):
        write_json(tmp_path / "nan.json", {"q": [1.0, math.nan]})
    assert not (tmp_path / "nan.json").exists()


# ----------------------------------------------------------------------
# Float CSV
# ----------------------------------------------------------------------

# values a column repeats: 0.0 beside -0.0, NaNs of three bit patterns,
# the infinities, subnormals and plain numbers
_CSV_POOL = np.concatenate([
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1.5e-310, 0.1,
     1 / 3, 2.5, 1e16],
    np.array([0x7FF8000000000001, -(1 << 51)], dtype=np.int64).view(float),
])


def _csv_columns(rng, rows):
    """Random columns of each kind a row block meets: all distinct, drawn
    from the pool, half and half, one value, and signed zeros only."""
    distinct = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows)
    pooled = rng.choice(_CSV_POOL, rows)
    mixed = np.where(rng.random(rows) < 0.5, rng.choice(_CSV_POOL, rows),
                     rng.normal(size=rows))
    return ("distinct", "pooled", "mixed", "constant", "zeros"), (
        distinct, pooled, mixed, np.full(rows, -0.0),
        list(rng.choice([0.0, -0.0], rows)))


_B = _CSV_BLOCK_ROWS


@pytest.mark.parametrize("rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B + 1])
def test_write_float_csv_matches_the_row_by_row_oracle(tmp_path, rows):
    header, columns = _csv_columns(np.random.default_rng(rows), rows)
    path = tmp_path / "table.csv"
    write_float_csv(path, header, columns)
    assert path.read_bytes() == float_csv_ref(header, columns).encode()


@pytest.mark.parametrize("header, columns", [
    (("a", "b"), ([1.0, 2.0, 3.0], [4.0, 5.0])),
    (("a", "b"), ([1.0, 2.0], [[0.0, 1.0], [2.0, 3.0]])),
    (("a",), ([1.0, 2.0], [3.0, 4.0])),
], ids=["unequal-lengths", "not-1-d", "header-length"])
def test_write_float_csv_rejects_malformed_columns(tmp_path, header, columns):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_float_csv(path, header, columns)
    assert not path.exists()


def test_write_float_csv_memory_stays_flat(tmp_path):
    # the writer spells a row block at a time, so four times the rows
    # must not take four times the memory
    n = 2 * _CSV_BLOCK_ROWS
    columns = np.random.default_rng(5).normal(size=(12, 4 * n))
    header = [f"c{k}" for k in range(12)]

    def peak(rows):
        tracemalloc.start()
        try:
            write_float_csv(tmp_path / "t.csv", header, columns[:, :rows])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * n) <= 1.25 * peak(n)


# grid CSVs spell each axis value once; their rows cross the writer's
# row blocks at every phase of the x axis when nx does not divide them

@pytest.mark.parametrize("source", [None, (0.0, 0.0)],
                         ids=["no-source", "source"])
def test_spectral_grids_csv_matches_the_row_by_row_oracle(tmp_path, source):
    grids = spectral_grids(synth_wake(), source=source)
    assert grids.m_grid.shape == (61, 81) and _B % 81
    nan = np.full(grids.m_grid.shape, math.nan)
    columns = (grids.m_grid, grids.phi_grid, grids.grad_phi_grid[..., 0],
               grids.grad_phi_grid[..., 1],
               nan if grids.delta_grid is None else grids.delta_grid)
    path = tmp_path / "maps.csv"
    grids.write_csv(path)
    text = path.read_text()
    assert text.count("\n") == 1 + 4941
    assert text == grid_csv_ref(("x", "y", "m", "phi", "gx", "gy", "delta"),
                                grids.x, grids.y, columns)


@pytest.mark.parametrize("grid", [PortraitGrid(), PortraitGrid(nu=3, nw=300)],
                         ids=["121x121", "3x300"])
def test_portrait_grid_csv_matches_the_row_by_row_oracle(tmp_path, grid):
    report = portrait("proportional", 2.0, 6.5, grid=grid)
    path = tmp_path / "q_grid.csv"
    report.write_grid_csv(path)
    text = path.read_text()
    assert text.count("\n") == 1 + grid.nu * grid.nw
    assert text == grid_csv_ref(("r_cos_psi", "r_sin_psi", "Q"),
                                report.u_axis, report.w_axis,
                                (report.q_grid,))


def test_grid_csv_writers_reject_a_grid_of_another_shape(tmp_path):
    grids = spectral_grids(synth_wake(nx=9, ny=7, nt=16))
    report = portrait("static", 2.0, grid=PortraitGrid(nu=4, nw=5))
    for record, write in (
            (dataclasses.replace(grids, m_grid=grids.m_grid.T), "write_csv"),
            (dataclasses.replace(grids, delta_grid=np.zeros((9, 7))),
             "write_csv"),
            (dataclasses.replace(report, q_grid=report.q_grid.T),
             "write_grid_csv"),
            (dataclasses.replace(report, q_grid=report.q_grid.ravel()),
             "write_grid_csv")):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            getattr(record, write)(path)
        assert not path.exists()


@pytest.mark.parametrize("header, x, named", [
    (("x", "y", "v"), np.zeros((2, 2)), "grid axes must be 1-D"),
    (("x", "y"), np.zeros(2), "need one header name per column, got 2 "
                              "names for 3 columns"),
], ids=["2-D-axis", "short-header"])
def test_grid_csv_rejects_bad_axes_and_headers_before_opening(tmp_path,
                                                              header, x,
                                                              named):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"^{named}$"):
        _write_grid_csv(path, header, x, np.zeros(2), [np.zeros((2, 2))])
    assert not path.exists()
