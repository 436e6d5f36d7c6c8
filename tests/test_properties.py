"""Property tests over random inputs: wrap ranges, the polar round trip,
rotational equivariance and Q conservation of the closed loop, the
turning radii of trapped orbits, fixed-point eigenvalues against an
mpmath oracle, the rebuilt time axis, named ends of runs into a NaN disc,
and WAVF bundle loading.

Skipped when hypothesis is not installed.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from phaseseek import (  # noqa: E402
    TWO_PI, AgentState, BundleFormatError, GainKind, GainLaw, GridFieldBundle,
    PolarState, RadialField, classify_convergence, conserved_quantity,
    fixed_points, from_polar, load_bundle, radial_bounds, radial_envelope,
    radial_m_field, simulate, simulate_polar, to_polar, wrap_angle,
    wrap_phase)
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
