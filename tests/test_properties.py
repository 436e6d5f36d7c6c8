"""Property tests over random inputs: wrap ranges, the polar round trip,
rotational equivariance and Q conservation of the closed loop, the
turning radii of trapped orbits, fixed-point eigenvalues against an
mpmath oracle, the rebuilt time axis, named ends of runs into a NaN disc,
WAVF bundle loading, the bits of the bundle field's complex-first
bilinear products, and the entry contract of every public entry.

Skipped when hypothesis is not installed.
"""

import dataclasses
import inspect
import math
import re
import struct
import sys
import types
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
import phaseseek as ps  # noqa: E402
from phaseseek import (  # noqa: E402
    TWO_PI, AgentState, BundleFormatError, GainKind, GainLaw, GridFieldBundle,
    PolarState, RadialField, classify_convergence, conserved_quantity,
    critical_q, field_from_bundle, fixed_points, from_polar, load_bundle,
    radial_bounds, radial_envelope, radial_m_field, simulate, simulate_polar,
    synth_wake, to_polar, wrap_angle, wrap_phase)
from phaseseek.agent import _time_axis  # noqa: E402
from phaseseek.wake import MAGIC, VERSION, _HEADER  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
moderate = st.floats(min_value=-1e4, max_value=1e4)


@given(finite)
@example(math.nextafter(math.pi, 4.0))  # remainder rounds up to 2*pi
def test_wrap_angle_range(a):
    assert -math.pi < wrap_angle(a) <= math.pi


@given(moderate)
def test_wrap_angle_keeps_the_angle(a):
    assert abs(math.remainder(wrap_angle(a) - a, TWO_PI)) < 1e-9


@given(finite)
@example(-1e-300)  # remainder rounds up to 2*pi
def test_wrap_phase_range(a):
    for w in (wrap_phase(a), wrap_phase(np.array([a]))[0]):
        assert 0.0 <= w < TWO_PI


@given(moderate)
def test_wrap_phase_keeps_the_angle(a):
    assert abs(math.remainder(wrap_phase(a) - a, TWO_PI)) < 1e-9


coord = st.floats(min_value=-1e3, max_value=1e3)


@given(coord, coord, st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=1e3))
def test_polar_round_trip(x, y, theta, t):
    hypothesis.assume(math.hypot(x, y) > 1e-6)
    state = AgentState(x, y, theta, t)
    back = from_polar(to_polar(state), t=t)
    scale = max(1.0, math.hypot(x, y))
    assert back.x == pytest.approx(x, abs=1e-12 * scale)
    assert back.y == pytest.approx(y, abs=1e-12 * scale)
    assert abs(math.remainder(back.theta - theta, TWO_PI)) < 1e-12
    assert back.t == t


# ----------------------------------------------------------------------
# Closed-loop invariants on the radial field
# ----------------------------------------------------------------------

kinds = st.sampled_from(list(GainKind))
radius = st.floats(min_value=0.5, max_value=12.0)
angle = st.floats(min_value=-math.pi, max_value=math.pi)


@settings(max_examples=40, deadline=None)
@given(kinds, radius, angle, angle, angle)
# aimed straight at the source, r falls by dt a step and meets r_stop at a
# sample: rounding decides r < r_stop there, and the runs had 46 and 47 rows
@example(GainKind.STATIC, 0.5, 0.0, math.pi, 1.0)
def test_simulate_is_rotationally_equivariant(kind, r0, eta0, theta0, alpha):
    # the radial field is symmetric about the source, so a start rotated
    # by alpha gives the trajectory rotated by alpha
    field, law = RadialField(6.5), GainLaw(kind, 0.5)
    x0, y0 = r0 * math.cos(eta0), r0 * math.sin(eta0)
    c, s = math.cos(alpha), math.sin(alpha)
    r_stop = 0.05

    def run(x, y, theta):
        return simulate(AgentState(x, y, theta), field, law, dt=1e-2,
                        t_end=5.0, r_stop=r_stop)

    base = run(x0, y0, theta0)
    turned = run(c * x0 - s * y0, s * x0 + c * y0, theta0 + alpha)
    # the rotated start carries about 1e-15 of rounding, which the flow may
    # amplify: on the outward ray (psi = pi, unstable) the inverse law grows
    # it about 6e4-fold by t = 5. A start nudged by 1e-12 in heading measures
    # that growth, and a hundredth of its spread bounds what 1e-15 can become
    # (150 starts, half on the outward ray, needed at most 7e-4 of it).
    nudged = run(x0, y0, theta0 + 1e-12)
    k = min(len(nudged), len(base))
    tol = 1e-12 + 1e-2 * max(np.max(np.abs(nudged.x[:k] - base.x[:k])),
                             np.max(np.abs(nudged.y[:k] - base.y[:k])))
    assert turned.termination == base.termination
    n = min(len(turned), len(base))
    if len(turned) != len(base):
        # a tie at the stop: the shorter run ended on a sample within tol
        # of r_stop, where the other run's rounding left r at or above it
        # for one more step
        shorter = base if len(base) == n else turned
        assert abs(len(turned) - len(base)) == 1
        assert abs(shorter.r[-1] - r_stop) <= tol
    bx, by, br = base.x[:n], base.y[:n], base.r[:n]
    assert np.max(np.abs(turned.x[:n] - (c * bx - s * by))) <= tol
    assert np.max(np.abs(turned.y[:n] - (s * bx + c * by))) <= tol
    assert np.max(np.abs(turned.r[:n] - br)) <= tol


@settings(max_examples=60, deadline=None)
@given(kinds, radius, angle)
def test_q_is_conserved_along_oracle_orbits(kind, r0, psi0):
    # the orbit comes from the oracle's own reduced loop; Q from the
    # library, over the whole orbit in one array call
    ell, law = 6.5, GainLaw(kind, 0.5)
    _, rows = oracles.polar_ref(
        r0, 0.0, psi0, None, law, lambda r, eta: math.exp(-r / ell), 1e-2,
        20.0, r_floor=0.5, r_escape=100.0)
    _, r, _, psi = (np.array(c) for c in zip(*rows))
    q = conserved_quantity(kind, r, psi, law.rho(), ell)
    assert q[0] == conserved_quantity(kind, r0, psi0, law.rho(), ell)
    # the level is at most the envelope at the start, |sin psi| = 1
    scale = float(radial_envelope(kind, r0, law.rho(), ell))
    assert np.max(np.abs(q - q[0])) <= 1e-7 * scale


unit = st.floats(min_value=0.0, max_value=1.0)


def _radial_period(kind, q, bounds, rho, ell, n=400):
    """The time from r_min to r_max and back at level q with V = 1: twice
    the integral of dr / |cos psi|, |cos psi| = sqrt(1 - (q / h(r))^2), by
    the midpoint rule in phi, r = r_min + half (1 - cos phi), which takes
    away the square-root singularity at each turn. inf for an orbit too
    close to a circle to resolve."""
    phi = (np.arange(n) + 0.5) * (math.pi / n)
    half = 0.5 * (bounds.r_max - bounds.r_min)
    r = bounds.r_min + half * (1.0 - np.cos(phi))
    ratio = np.abs(q / radial_envelope(kind, r, rho, ell))
    # between its turns the envelope h(r) stays above the orbit's |q|
    assert np.all(ratio <= 1.0 + 1e-9)
    cos_psi = np.sqrt(np.maximum(1.0 - ratio * ratio, 0.0))
    if not cos_psi.all():
        return math.inf
    return 2.0 * float(np.sum(half * np.sin(phi) / cos_psi)) * (math.pi / n)


@settings(max_examples=100, deadline=None)
@given(kinds, st.floats(min_value=0.5, max_value=3.0), unit,
       st.floats(min_value=0.3, max_value=3.0), angle)
@example(GainKind.PROPORTIONAL, 0.5, 0.1015625, 0.3125, 0.5)
def test_trapped_orbits_turn_at_the_radial_bounds(kind, rho, u, r0_rho,
                                                  psi0):
    # ell in [1, 9], or [rho e + 0.5, rho e + 8] for proportional gain,
    # whose orbits are then trapped when classify_convergence says so
    if kind is GainKind.PROPORTIONAL:
        ell = rho * math.e + 0.5 + 7.5 * u
    else:
        ell = 1.0 + 8.0 * u
    r0 = r0_rho * rho
    start = PolarState(r0, 0.0, psi0)
    hypothesis.assume(kind is not GainKind.PROPORTIONAL or classify_convergence(
        kind, rho, ell, start) == "conditional_bounded")
    q = conserved_quantity(kind, r0, psi0, rho, ell)
    bounds = radial_bounds(kind, q, rho, ell)
    hypothesis.assume(bounds.r_min > 0.05)
    # the horizon covers one radial period, in which r meets both turns;
    # the period grows without bound near the proportional separatrix
    period = _radial_period(kind, q, bounds, rho, ell)
    hypothesis.assume(period < 100.0)
    # the tolerance below budgets only the sampling miss, so the step must
    # resolve the closest approach, where psi turns at up to V / r_min:
    # RK4's error there grows as (dt / r_min)^4 and carries to the next
    # turn. At dt = 1e-2 and r_min = 0.063 it moved r_max by 1.2e-6
    # relative (proportional, rho 0.5, u 0.1015625, r0_rho 0.3125, psi0 0.5)
    law, dt = GainLaw(kind, 1.0 / rho), min(1e-2, 0.05 * bounds.r_min)
    r = simulate_polar(start, None, law, radial_m_field(ell), dt,
                       1.1 * period + 1.0).r
    assert bounds.r_min * (1 - 1e-6) <= r.min()
    assert r.max() <= bounds.r_max * (1 + 1e-6)
    # a sample falls within dt/2 of each turn, where r'' = V/r - G(r) with
    # V = 1: a parabola misses its vertex by at most |r''| dt^2 / 8
    gain = law.closure()
    for turn, sampled in ((bounds.r_min, r.min()), (bounds.r_max, r.max())):
        curvature = abs(1.0 / turn - gain(math.exp(-turn / ell)))
        assert abs(sampled - turn) <= curvature * dt * dt / 8 + 1e-6 * turn


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8.0, max_value=6.0),
       st.floats(min_value=-3.0, max_value=2.0))
@example(-8.0, -3.0)
@example(6.0, 2.0)
def test_the_saddle_bounds_the_trapped_levels(log_rho, log_ell):
    # rho log-uniform over [1e-8, 1e6], ell 1e-3 to 1e2 (relative) above
    # rho e: the envelope at the saddle is the critical level, and a level
    # just above it turns inside the saddle radius. The envelope's peak,
    # about exp(ell / rho), overflows beyond ell / rho = 709, where
    # radial_bounds then warns
    rho = 10.0 ** log_rho
    ell = rho * math.e * (1.0 + 10.0 ** log_ell)
    q_cr = critical_q(rho, ell)
    saddle = fixed_points("proportional", rho, ell)[-1]
    assert saddle.kind == "saddle"
    h = float(radial_envelope("proportional", saddle.r_star, rho, ell))
    assert abs(h - q_cr) <= 1e-12 * q_cr
    bounds = radial_bounds("proportional", q_cr * (1.0 + 1e-9), rho, ell)
    assert bounds.status == "conditional"
    assert bounds.r_min < bounds.r_max < saddle.r_star


@settings(max_examples=100, deadline=None)
@given(kinds, st.floats(min_value=-8.0, max_value=6.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_fixed_point_eigenvalues_match_the_mpmath_oracle(kind, log_rho, v,
                                                         log_ell):
    pytest.importorskip("mpmath")
    # rho log-uniform over [1e-8, 1e6]; ell at least 1e-3 clear of rho e
    # (relative) for proportional gain, so the pair is well conditioned
    rho = 10.0 ** log_rho
    ell = {GainKind.STATIC: None,
           GainKind.PROPORTIONAL: rho * math.e * (1.0 + 10.0 ** log_ell),
           GainKind.INVERSE: rho * 10.0 ** log_ell}[kind]
    points = fixed_points(kind, rho, ell, v)
    assert len(points) == (4 if kind is GainKind.PROPORTIONAL else 2)
    for fp in points:
        ref = oracles.eigenvalues_ref(kind.value, fp.r_star, fp.psi_star, rho,
                                      ell, v)
        for ev, ev_ref in zip(fp.eigenvalues, ref):
            assert abs(ev - ev_ref) <= 1e-9 * abs(ev_ref), (fp, ref)


# ----------------------------------------------------------------------
# Time axis and non-finite states
# ----------------------------------------------------------------------

@given(st.one_of(finite, st.sampled_from([0.0, -0.0])),
       st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       st.integers(min_value=0, max_value=300))
def test_time_axis_is_the_running_sum(t0, dt, n):
    want, t = [], t0
    for _ in range(n):
        want.append(t)
        t = t + dt
    got = _time_axis(t0, dt, n)
    # compared as bit patterns: signed zeros and infinities included
    assert got.view(np.int64).tolist() == (
        np.array(want, dtype=float).view(np.int64).tolist())


@settings(max_examples=60, deadline=None)
@given(kinds, st.floats(min_value=1.0, max_value=6.0), angle,
       st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=0.2, max_value=2.0),
       st.sampled_from(["delta", "m"]))
def test_a_run_into_a_nan_disc_ends_by_name(kind, r0, psi0, cx, cy, size,
                                            slot):
    # the alignment error or the magnitude is NaN inside a disc; elsewhere
    # both are constant, so a NaN state is not caught through the gain
    def inside(r, eta):
        return math.hypot(r * math.cos(eta) - cx,
                          r * math.sin(eta) - cy) < size

    def delta(r, eta):
        return math.nan if slot == "delta" and inside(r, eta) else 0.1

    def m(r, eta):
        return math.nan if slot == "m" and inside(r, eta) else 1.0

    hypothesis.assume(not inside(r0, 0.0))
    tr = simulate_polar(PolarState(r0, 0.0, psi0), delta, GainLaw(kind, 0.5),
                        m, 1e-2, 10.0)
    state = np.array([tr.r, tr.eta, tr.psi])
    assert np.isfinite(state[:, :-1]).all()
    if tr.termination == "t_end":
        assert np.isfinite(state).all()
        assert not any(map(inside, tr.r, tr.eta))
    elif tr.termination == "non_finite_state":
        # a NaN alignment error leaves a NaN state, the last row
        assert slot == "delta"
        assert np.isnan(state[:, -1]).any()
    else:
        # a NaN magnitude raises in the gain before any state is NaN
        assert tr.termination in ("sensing_failure", "origin_singularity")
        assert slot == "m" or tr.termination == "origin_singularity"
        assert np.isfinite(state).all()


# ----------------------------------------------------------------------
# WAVF loading
# ----------------------------------------------------------------------

def _wavf(nx, ny, nt, header_floats, bad_index, bad_value, size_error):
    n = nx * ny * nt
    frames = np.arange(n, dtype="<f8") * 0.25
    if bad_index < n:
        frames[bad_index] = bad_value
    data = (MAGIC + bytes([VERSION]) + _HEADER.pack(nx, ny, nt, *header_floats)
            + frames.tobytes())
    return data[:len(data) + size_error] if size_error < 0 else (
        data + b"\0" * size_error)


header_float = st.one_of(st.floats(), st.sampled_from([0.0, 0.2, -0.2]))
wavf_bytes = st.one_of(
    st.builds(_wavf, st.integers(0, 9), st.integers(0, 9),
              st.integers(0, 10), st.tuples(*[header_float] * 8),
              st.integers(0, 900),
              st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
              st.sampled_from([0, 0, 0, -1, -8, 8, -90])),
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda b: MAGIC + bytes([VERSION]) + b),
)


@pytest.fixture(scope="module")
def wavf_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.wavf"


@settings(max_examples=300, deadline=None)
@given(wavf_bytes)
@example(_wavf(1, 4, 8, (0.0, 0.0, 0.2, 0.2, 0.1) + (math.nan,) * 3,
               900, 0.0, 0))  # nx = 1
@example(_wavf(4, 4, 8, (0.0, 0.0, -0.2, 0.2, 0.1) + (math.nan,) * 3,
               900, 0.0, 0))  # negative dx
@example(_wavf(4, 4, 8, (0.0, 0.0, 0.2, 0.2, 0.1) + (math.nan,) * 3,
               5, math.nan, 0))  # a NaN frame value
def test_load_bundle_loads_or_raises_bundle_format_error(wavf_path, data):
    wavf_path.write_bytes(data)
    try:
        bundle = load_bundle(wavf_path)
    except BundleFormatError:
        return
    assert isinstance(bundle, GridFieldBundle)
    assert np.isfinite(bundle.frames).all()


def _bits(z):
    """The bits of a complex's two parts, a NaN part matched as NaN."""
    return tuple("nan" if math.isnan(part) else struct.pack("<d", part)
                 for part in (z.real, z.imag))


# finite values, signed zeros, subnormals and the infinities
product_part = st.one_of(
    finite,
    st.floats(min_value=-2.2250738585072009e-308,
              max_value=2.2250738585072009e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf]))


@given(product_part, product_part, product_part)
@example(-0.0, 0.0, -0.0)
@example(math.inf, 0.0, 1.0)  # inf * 0 in both orders
def test_complex_first_products_keep_their_bits(w, re, im):
    # the bundle's bilinear read multiplies entry * weight, not
    # weight * entry: both orders must give the same bits
    c = complex(re, im)
    assert _bits(c * w) == _bits(w * c)


_WAKE = synth_wake(nx=9, ny=7, nt=16, dx=1.0, dy=1.0)
# the grid spans x in [-2, 6] and y in [-6, 0]; whole-number points both
# inside it, on its edges and outside it
whole_point = st.tuples(st.integers(-4, 8), st.integers(-8, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(whole_point, min_size=1, max_size=6),
       st.sampled_from([0.0, -0.0, 0.3, 7.25, -3.0]),
       st.sampled_from([16, 32, 24]))
def test_bundle_reads_are_the_same_for_every_point_form(points, t0, n):
    field = field_from_bundle(_WAKE)
    forms = (tuple((float(x), float(y)) for x, y in points),
             np.array(points, dtype=float), list(points))
    coeffs = [field.window_coeffs(form, t0, n) for form in forms]
    assert all(type(c) is complex for form in coeffs for c in form)
    assert len({np.array(c, dtype=complex).tobytes() for c in coeffs}) == 1
    windows = {field.eval_windows(form, t0, n).tobytes() for form in forms}
    assert len(windows) == 1


# ----------------------------------------------------------------------
# The entry contract
# ----------------------------------------------------------------------
# Every public entry either raises a ValueError (or a named subclass) for
# a bad input, or returns with no numpy warning, NaN appearing only where
# its docstring says so. Each numeric argument of each entry below meets
# the extremes one at a time, and hypothesis draws more; a new public
# entry joins _CONTRACT or _NOT_NUMERIC (test_the_contract_names_...).

_EXTREMES = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310,
             1e-300, 1e308, -1e308, 1e-12, 1e12, "float32", "int64")


@dataclasses.dataclass(frozen=True, eq=False)
class _Countdown(ps.RadialField):
    """RadialField whose sensor fails after 40 stages, so that a run of
    simulate ends within 10 steps whatever its dt and t_end."""

    left: list = dataclasses.field(default_factory=lambda: [40])

    def analytic_mode(self, x, y):
        self.left[0] -= 1
        if self.left[0] < 0:
            raise ValueError("countdown")
        return super().analytic_mode(x, y)


def _countdown_m(ell=6.5):
    """radial_m_field(ell), failing after 40 stages as _Countdown does."""
    left, m = [40], ps.radial_m_field(ell)

    def m_field(r, eta):
        left[0] -= 1
        if left[0] < 0:
            raise ValueError("countdown")
        return m(r, eta)
    return m_field


_WAKE_BUNDLE = ps.synth_wake(nx=9, ny=7, nt=8, x0=-0.4, y0=-0.6)
_KINDS = ("static", "proportional", "inverse")


def _per_kind(name, make):
    """{name[kind]: make(kind)} for each gain law."""
    return {f"{name}[{kind}]": make(kind) for kind in _KINDS}


# each entry as a call whose keyword defaults are a valid input; a name
# with a [kind] suffix is the entry under that gain law, one with [array]
# the entry on an array
_CONTRACT = {
    "AgentState": lambda x=4.0, y=0.0, theta=1.5, t=0.0:
        ps.AgentState(x, y, theta, t),
    "PolarState": lambda r=4.0, eta=0.0, psi=1.5: ps.PolarState(r, eta, psi),
    "to_polar": lambda x=4.0, y=0.0, theta=1.5:
        ps.to_polar(ps.AgentState(x, y, theta)),
    "from_polar": lambda r=4.0, eta=0.0, psi=1.5, t=0.0:
        ps.from_polar(ps.PolarState(r, eta, psi), t),
    "wrap_angle": lambda a=1.0: ps.wrap_angle(a),
    "wrap_angle[array]": lambda a=1.0: ps.wrap_angle(np.array([a, 1.0])),
    "wrap_phase": lambda a=1.0: ps.wrap_phase(a),
    "wrap_phase[array]": lambda a=1.0: ps.wrap_phase(np.array([a, 1.0])),
    "alignment_error": lambda x=3.0, y=4.0, gx=-0.6, gy=-0.8, sx=0.0,
        sy=0.0: ps.alignment_error((x, y), (gx, gy), (sx, sy)),
    "RadialField": lambda ell=6.5: ps.RadialField(ell),
    "radial_m_field": lambda ell=6.5: ps.radial_m_field(ell),
    "first_mode_coeffs": lambda w=1.0, period=6.0:
        ps.first_mode_coeffs(np.full((2, 8), w), period),
    "dft_first_mode": lambda w=1.0, period=6.0:
        ps.dft_first_mode(np.full(8, w), period),
    "SensingConfig": lambda n_samples=16, stencil_h=0.01, m_floor=1e-9:
        ps.SensingConfig(n_samples, stencil_h, m_floor),
    "spectral_sample": lambda x=3.0, y=4.0, t0=0.0, theta=1.0:
        ps.spectral_sample(ps.RadialField(6.5), (x, y), t0, theta,
                           ps.SensingConfig(16)),
    "analytic_sample": lambda x=3.0, y=4.0, theta=1.0:
        ps.analytic_sample(ps.RadialField(6.5), (x, y), theta),
    "check_quasi_steady": lambda speed=1.0, period=6.0, grad_norm=0.01:
        ps.check_quasi_steady(speed, period, grad_norm),
    "GainLaw": lambda g0=0.5, m_floor=1e-6: ps.GainLaw("inverse", g0, m_floor),
    "lambert_w": lambda z=0.5: ps.lambert_w(0, z),
    "critical_q": lambda rho=2.0, ell=6.5: ps.critical_q(rho, ell),
    "bifurcation_scan": lambda rho=2.0, ell_min=4.0, ell_max=7.0:
        ps.bifurcation_scan(rho, ell_min, ell_max),
    "PortraitGrid": lambda u_min=-1.0, u_max=1.0, w_min=-1.0, w_max=1.0,
        nu=3, nw=3: ps.PortraitGrid(u_min, u_max, w_min, w_max, nu, nw),
    **_per_kind("conserved_quantity", lambda kind: lambda r=3.0, psi=1.0,
                rho=2.0, ell=6.5: ps.conserved_quantity(kind, r, psi, rho,
                                                        ell)),
    **_per_kind("radial_envelope", lambda kind: lambda r=3.0, rho=2.0,
                ell=6.5: ps.radial_envelope(kind, r, rho, ell)),
    **_per_kind("radial_bounds", lambda kind: lambda q=0.01, rho=2.0,
                ell=6.5: ps.radial_bounds(kind, q, rho, ell)),
    **_per_kind("fixed_points", lambda kind: lambda rho=2.0, ell=6.5, v=1.0:
                ps.fixed_points(kind, rho, ell, v)),
    **_per_kind("closed_form_eigenvalues", lambda kind: lambda r_star=3.0,
                rho=2.0, ell=6.5, v=1.0: ps.closed_form_eigenvalues(
                    kind, r_star, rho, ell, v)),
    **_per_kind("jacobian_eigenvalues", lambda kind: lambda r_star=3.0,
                psi_star=math.pi / 2, rho=2.0, ell=6.5, v=1.0:
                ps.jacobian_eigenvalues(kind, ps.FixedPoint(
                    r_star, psi_star, "center", None), rho, ell, v)),
    **_per_kind("classify_convergence", lambda kind: lambda rho=2.0, ell=6.5,
                r=4.0, psi=1.5: ps.classify_convergence(
                    kind, rho, ell, types.SimpleNamespace(r=r, psi=psi))),
    **_per_kind("portrait", lambda kind: lambda rho=2.0, ell=6.5, v=1.0:
                ps.portrait(kind, rho, ell, v, ps.PortraitGrid(nu=5, nw=5))),
    "GridFieldBundle": lambda nx=4, ny=3, nt=8, x0=0.0, y0=0.0, dx=0.2,
        dy=0.2, dt=0.1, meta_re=1.0: ps.GridFieldBundle(
            nx, ny, nt, x0, y0, dx, dy, dt, np.ones((8, 3, 4)), meta_re),
    "synth_wake": lambda a_w=2.0, k_x=1.0, omega=1.0, sigma=2.0,
        decay_l=10.0, x0=-0.4, y0=-0.6, dx=0.2, dy=0.2, nx=9, ny=7, nt=8,
        meta_re=1.0: ps.synth_wake(a_w, k_x, omega, sigma, decay_l, x0, y0,
                                   dx, dy, nx, ny, nt, meta_re),
    "spectral_grids": lambda sx=0.0, sy=0.0, m_floor=1e-9:
        ps.spectral_grids(_WAKE_BUNDLE, (sx, sy), m_floor),
    "simulate": lambda x=4.0, y=0.0, theta=1.5, t=0.0, dt=0.1, t_end=1.0,
        r_stop=0.05, r_escape=50.0, v=1.0: ps.simulate(
            ps.AgentState(x, y, theta, t), _Countdown(6.5),
            ps.GainLaw("static", 0.5), dt=dt, t_end=t_end, r_stop=r_stop,
            r_escape=r_escape, v=v),
    "simulate_polar": lambda r=4.0, eta=0.0, psi=1.5, dt=0.1, t_end=1.0,
        v=1.0, r_floor=1e-9, r_escape=50.0: ps.simulate_polar(
            ps.PolarState(r, eta, psi), None, ps.GainLaw("static", 0.5),
            _countdown_m(), dt, t_end, v, r_floor, r_escape),
}

# the public names that take no number of their own: errors, warnings,
# enums, a constant, result records the library fills in, and entries
# that take a bundle or a path
_NOT_NUMERIC = {
    "BundleFormatError", "DegenerateMagnitudeError", "LambertDomainError",
    "NoSaddleError", "NoTransitionError", "OriginSingularityError",
    "QOutOfRangeError", "UndefinedDirectionError", "QuasiSteadyWarning",
    "GainKind", "LambertBranch", "TWO_PI", "Field", "FixedPoint",
    "PolarTrajectory", "PortraitReport", "RadialBounds", "SpectralGrids",
    "SpectralSample", "SpectralTruth", "Trajectory", "BundleField",
    "field_from_bundle", "load_bundle", "save_bundle",
}


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


# where a docstring documents NaN: entry -> (what of a result must hold
# no NaN, given the call's keywords, and the docstring's words)
_DOCUMENTED_NAN = {
    "AgentState": (lambda kw, res: [],
                   "AgentState: a record, it holds its fields as given"),
    "PolarState": (lambda kw, res: res.r,
                   "PolarState: eta and psi are held as given"),
    "wrap_angle": (lambda kw, res: res if _finite(*kw.values()) else [],
                   "wrap_angle: a NaN or infinite angle gives NaN"),
    "wrap_phase": (lambda kw, res: res if _finite(*kw.values()) else [],
                   "wrap_phase: a NaN or infinite phase gives NaN"),
    "alignment_error": (lambda kw, res: res if _finite(*kw.values()) else [],
                        "alignment_error: a NaN or infinite input gives NaN"),
    "spectral_grids": (lambda kw, res: [res.m_grid, res.phi_grid],
                       "spectral_grids: masked nodes are NaN in the "
                       "gradient and delta maps"),
    "simulate": (lambda kw, res: [getattr(res, column)[:-1] for column in (
        "t", "x", "y", "theta", "r", "eta", "psi", "m", "s", "gain", "omega",
        *["q"] * _finite(kw["v"] / 0.5))],
        "simulate: the last row reads NaN where it could not sense, and Q "
        "with no finite turning radius V / g0"),
    "simulate_polar": (lambda kw, res: [res.r[:-1], res.eta[:-1],
                                        res.psi[:-1]],
                       "simulate_polar: the NaN state is the last row"),
}


# the word by which an entry's message names a slot of its _CONTRACT
# call, where the two differ: v is a speed, r a radius and w the windows'
# values; the point (x, y) of a sample is its argument x, and the source
# (sx, sy) of a map its argument source
_SLOT_ALIASES = {"v": "speed", "r": "radius", "w": "windows",
                 "sx": "source", "sy": "source", "spectral_sample.y": "x",
                 "analytic_sample.y": "x"}


def _domain_answer(entry, slot, exc):
    """Whether exc answers for the domain that the input reached, not for
    the input itself: a level no orbit reaches, a magnitude below the
    floor far from the source, a clock that a huge t_end stalls at the
    given dt, or the polar radius at the source."""
    return (isinstance(exc, (ps.QOutOfRangeError,
                             ps.DegenerateMagnitudeError))
            or (slot == "t_end" and str(exc).startswith(
                "dt must be at least ulp(max |t|)"))
            or (entry == "to_polar" and str(exc).startswith(
                "radius must be positive")))


def _names_its_slot(name, kw, exc):
    """Whether exc names the one slot that kw varies, by its own name or
    its alias, or is a domain answer."""
    if len(kw) != 1:
        return True
    entry, (slot,) = name.partition("[")[0], kw
    word = _SLOT_ALIASES.get(f"{entry}.{slot}",
                             _SLOT_ALIASES.get(slot, slot))
    return (re.search(rf"\b({re.escape(slot)}|{re.escape(word)})\b",
                      str(exc)) is not None
            or _domain_answer(entry, slot, exc))


def _has_nan(value):
    if isinstance(value, (float, complex, np.generic)):
        return bool(np.isnan(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fc" and bool(np.isnan(value).any())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(_has_nan(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return any(map(_has_nan, value))
    if isinstance(value, dict):
        return any(map(_has_nan, value.values()))
    return False


# ROADMAP item 11: where the gain integral's exponential or r / rho
# overflows, the level is inf or NaN and numpy warns. Listed here, each
# family with a strict xfail below, until the log form of item 11 lands
_LOG_MAX = math.log(sys.float_info.max)


def _level_overflows(kind, radii, rho, ell):
    """Whether the level of a law overflows at any of radii, for valid
    (finite, positive) inputs: r / rho, r / ell or the exponent of the
    gain integral leaves the float range."""
    values = (*radii, rho, ell)
    if not all(isinstance(x, (int, float, np.floating)) and _finite(x)
               and x >= 0 for x in values) or not rho > 0 < ell:
        return False
    with np.errstate(over="ignore", divide="ignore"):
        r, rho, ell = np.array(radii, dtype=float), float(rho), float(ell)
        if not np.isfinite(r / rho).all():
            return True
        if kind == "proportional":
            return not (np.isfinite(r / ell).all()
                        and ((ell / rho) * np.exp(-r / ell) < _LOG_MAX).all())
        return kind == "inverse" and not (r / ell < _LOG_MAX).all()


def _in_item_11(name, kw):
    entry, _, kind = name.partition("[")
    kind = kind.rstrip("]")
    if entry in ("conserved_quantity", "radial_envelope"):
        return _level_overflows(kind, [kw["r"]], kw["rho"], kw["ell"])
    if entry == "classify_convergence":
        # only a conditional law evaluates the start's level
        return kind == "proportional" and _level_overflows(
            kind, [kw["r"]], kw["rho"], kw["ell"])
    if entry == "portrait":
        # the grid's radii run from 0, where the proportional factor
        # peaks, to 12 sqrt(2)
        return _level_overflows(kind, [0.0, 17.0], kw["rho"], kw["ell"])
    if entry == "simulate":
        return _level_overflows("static", [60.0], kw["v"] / 0.5, 6.5)
    return False


def _keeps_the_contract(name, call, kw):
    """call(**kw) raises a ValueError that names the slot kw varies, or
    returns with no warning and NaN only where its docstring says so."""
    full = {key: p.default for key, p in
            inspect.signature(call).parameters.items()} | kw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kw)
        except ValueError as exc:
            # the entry named the input, not the math module
            assert str(exc) not in ("math domain error", "math range error")
            assert _names_its_slot(name, kw, exc), (name, kw, exc)
            return
        except (ps.NoTransitionError, ps.QuasiSteadyWarning):
            # bifurcation_scan's and check_quasi_steady's documented answers
            return
    keep = _DOCUMENTED_NAN.get(name.partition("[")[0],
                               (lambda kw, res: res,))[0]
    assert not _has_nan(keep(full, result)), (name, kw, result)


def _slots(name):
    return inspect.signature(_CONTRACT[name]).parameters


def _extreme(value, base):
    if value == "float32":
        return np.float32(base)
    if value == "int64":
        return np.int64(round(base))
    return value


def test_the_contract_names_every_numeric_entry():
    entries = {name.partition("[")[0] for name in _CONTRACT}
    assert entries.isdisjoint(_NOT_NUMERIC)
    assert entries | _NOT_NUMERIC == set(ps.__all__)
    assert set(_DOCUMENTED_NAN) <= entries


@pytest.mark.parametrize("name", list(_CONTRACT))
def test_every_entry_keeps_the_contract_at_the_extremes(name):
    call = _CONTRACT[name]
    for slot, parameter in _slots(name).items():
        for value in _EXTREMES:
            kw = {slot: _extreme(value, parameter.default)}
            full = {key: p.default for key, p in _slots(name).items()} | kw
            if not _in_item_11(name, full):
                _keeps_the_contract(name, call, kw)


_NAMED_SLOTS = [(name, slot) for name in _CONTRACT for slot in _slots(name)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_NAMED_SLOTS),
       st.one_of(st.floats(), st.integers(-10 ** 6, 10 ** 6)))
def test_every_entry_keeps_the_contract_on_drawn_inputs(named_slot, value):
    name, slot = named_slot
    full = {key: p.default for key, p in _slots(name).items()} | {slot: value}
    hypothesis.assume(not _in_item_11(name, full))
    _keeps_the_contract(name, _CONTRACT[name], {slot: value})


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the level overflows")
@pytest.mark.parametrize("name, kw", [
    ("conserved_quantity[static]", {"rho": 1e-310}),
    ("radial_envelope[static]", {"rho": 1e-310}),
    ("classify_convergence[proportional]", {"rho": 1e-12}),
    ("classify_convergence[proportional]", {"ell": 1e12}),
    ("portrait[proportional]", {"rho": 1e-12}),
    ("portrait[proportional]", {"ell": 1e12}),
    ("conserved_quantity[inverse]", {"r": 1e12}),
    ("simulate", {"v": 1e-310}),
])
def test_item_11_overflows_still_break_the_contract(name, kw):
    full = {key: p.default for key, p in _slots(name).items()} | kw
    assert _in_item_11(name, full)
    _keeps_the_contract(name, _CONTRACT[name], kw)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11: the level overflows")
@pytest.mark.parametrize("case", ["proportional-envelope-peak",
                                  "subnormal-rho-run"])
def test_item_11_found_reproducers_still_break_the_contract(case):
    # the two FOUND lines of CHANGES.md that item 11 covers
    if case == "proportional-envelope-peak":
        ell = 1001 * math.e

        def call():
            return ps.radial_bounds("proportional",
                                    ps.critical_q(1.0, ell) * (1 + 1e-9),
                                    1.0, ell)
    else:
        def call():
            return ps.simulate(
                ps.from_polar(ps.PolarState(2.0, 0.0, math.pi / 2)),
                ps.RadialField(6.5), ps.GainLaw("static", 1e10), dt=1e-2,
                t_end=0.05, v=1e-300)
    _keeps_the_contract("simulate" if case == "subnormal-rho-run" else
                        "radial_bounds", call, {})
