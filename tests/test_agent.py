"""Tests for the closed-loop agent: gain laws, polar reduction, RK4 loop."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import phaseseek
from phaseseek import (
    TWO_PI,
    AgentState,
    DegenerateMagnitudeError,
    Field,
    GainKind,
    GainLaw,
    OriginSingularityError,
    PolarState,
    QuasiSteadyWarning,
    RadialField,
    SensingConfig,
    conserved_quantity,
    field_from_bundle,
    from_polar,
    radial_bounds,
    radial_m_field,
    simulate,
    simulate_polar,
    synth_wake,
    to_polar,
)
from phaseseek.agent import TRAJECTORY_COLUMNS, Trajectory
from phaseseek.fields import UndefinedDirectionError

from oracles import closed_loop_ref, polar_ref, windowed_loop_ref
from traveling_wave import TravelingWaveField, TravelingWaveMode

FIELD = RadialField(6.5)
STATIC = GainLaw("static", 0.5)


def _quiet_simulate(*args, **kwargs):
    # windowed runs over the nominal field violate the quasi-steady bound
    # by design; that warning is tested on its own in test_sensing
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuasiSteadyWarning)
        return simulate(*args, **kwargs)


# ----------------------------------------------------------------------
# Gain laws and steering
# ----------------------------------------------------------------------

def test_gain_law_validation():
    with pytest.raises(ValueError):
        GainLaw("static", -0.5)
    with pytest.raises(ValueError):
        GainLaw("bogus", 0.5)
    with pytest.raises(ValueError):
        GainLaw("static", 0.5, m_floor=0.0)
    law = GainLaw(GainKind.PROPORTIONAL, 0.5)
    assert law.kind is GainKind.PROPORTIONAL
    assert GainLaw("inverse", 0.5).kind is GainKind.INVERSE


def test_gain_law_rho():
    assert GainLaw("static", 0.5).rho() == 2.0
    assert GainLaw("static", 0.5).rho(v=3.0) == 6.0
    assert GainLaw("static", 0.0).rho() == math.inf


def test_gain_value():
    m = 0.6303131865967198  # radial magnitude at r = 3
    assert STATIC.closure()(m) == 0.5
    assert GainLaw("proportional", 0.5).closure()(m) == 0.5 * m
    inverse = GainLaw("inverse", 0.5).closure()
    assert inverse(m) == 0.5 / m
    # magnitude floor guards the inverse law near zero signal
    assert inverse(1e-9) == inverse(0.0) == 0.5 / 1e-6
    with pytest.raises(ValueError):
        inverse(-1e-9)


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
def test_gain_closure_edges(kind):
    gain = GainLaw(kind, 0.5).closure()
    # every kind rejects a negative magnitude, however small, and a NaN
    # one, which static gain would otherwise ignore and the others carry
    for m in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="magnitude must be nonnegative"):
            gain(m)
    # -0.0 is not negative
    assert gain(-0.0) == gain(0.0)


def test_inverse_gain_at_its_floor():
    floor = 1e-6
    gain = GainLaw("inverse", 0.5, m_floor=floor).closure()
    assert gain(floor) == 0.5 / floor
    assert gain(math.nextafter(floor, 0.0)) == 0.5 / floor
    above = math.nextafter(floor, 1.0)
    assert gain(above) == 0.5 / above != 0.5 / floor


def test_heading_rate():
    # the recorded steering command is Omega = G * s, row by row
    tr = simulate(AgentState(4.0, 0.0, 0.3), FIELD, STATIC, dt=1e-2,
                  t_end=1.0)
    assert np.array_equal(tr.omega, tr.gain * tr.s)
    assert tr.omega[0] == 0.5 * tr.s[0]


# ----------------------------------------------------------------------
# Polar reduction
# ----------------------------------------------------------------------

def test_to_polar_examples():
    p = to_polar(AgentState(4.0, 0.0, math.pi / 2))
    assert p.r == pytest.approx(4.0)
    assert p.eta == pytest.approx(0.0)
    assert p.psi == pytest.approx(math.pi / 2)
    # heading straight at the source means psi = 0
    p = to_polar(AgentState(-2.0, 0.0, 0.0))
    assert p.psi == pytest.approx(0.0, abs=1e-15)
    p = to_polar(AgentState(0.0, 3.0, math.pi))
    assert p.eta == pytest.approx(math.pi / 2)
    assert p.psi == pytest.approx(math.pi / 2)


def test_polar_roundtrip():
    rng = np.random.default_rng(30)
    for _ in range(200):
        state = AgentState(
            x=float(rng.uniform(-8.0, 8.0)),
            y=float(rng.uniform(-8.0, 8.0)),
            theta=float(rng.uniform(-10.0, 10.0)),
            t=float(rng.uniform(0.0, 5.0)),
        )
        if math.hypot(state.x, state.y) < 1e-3:
            continue
        back = from_polar(to_polar(state), t=state.t)
        assert back.x == pytest.approx(state.x, abs=1e-12)
        assert back.y == pytest.approx(state.y, abs=1e-12)
        # headings agree modulo full turns
        assert math.remainder(back.theta - state.theta, 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-12))
        assert back.t == state.t


def test_polar_state_validation():
    with pytest.raises(ValueError):
        PolarState(r=0.0, eta=0.0, psi=0.0)
    with pytest.raises(ValueError):
        to_polar(AgentState(0.0, 0.0, 0.0))


@pytest.mark.parametrize("x", [0.0, -0.0])
def test_to_polar_names_a_pose_at_the_source(x):
    with pytest.raises(OriginSingularityError, match=(
            rf"^state.x = {x} and state.y = 0.0 put the pose at the source")):
        to_polar(AgentState(x, 0.0, 1.5))


# ----------------------------------------------------------------------
# Single steps: short simulate runs, read at the last row
# ----------------------------------------------------------------------

def test_step_down_gradient_ray_goes_straight():
    # psi = 0: zero steering signal, the agent just drives at the source
    tr = simulate(AgentState(4.0, 0.0, math.pi), FIELD, STATIC, SensingConfig(),
                  dt=1e-2, t_end=10 * 1e-2)
    assert tr.x[-1] == pytest.approx(4.0 - 0.1, abs=1e-10)
    assert tr.y[-1] == pytest.approx(0.0, abs=1e-10)
    assert tr.theta[-1] == pytest.approx(math.pi, abs=1e-10)
    assert tr.t[-1] == pytest.approx(0.1)


def test_step_conserves_q():
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    q0 = conserved_quantity("static", 4.0, math.pi / 2, 2.0)
    tr = simulate(init, FIELD, STATIC, SensingConfig(), dt=1e-3,
                  t_end=20 * 1e-3)
    p = to_polar(AgentState(tr.x[-1], tr.y[-1], tr.theta[-1]))
    q = conserved_quantity("static", p.r, p.psi, 2.0)
    assert q == pytest.approx(q0, abs=1e-12)


def test_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        simulate(AgentState(4.0, 0.0, 0.0), FIELD, STATIC, SensingConfig(),
                 dt=0.0, t_end=1.0)


def test_rk4_is_fourth_order():
    # halving dt should cut the endpoint error by about 2^4
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    law = GainLaw("static", 0.5)

    def endpoint(dt):
        tr = simulate(init, FIELD, law, dt=dt, t_end=20.0)
        return np.array([tr.x[-1], tr.y[-1]])

    ref = endpoint(1e-4)
    e1 = np.linalg.norm(endpoint(0.08) - ref)
    e2 = np.linalg.norm(endpoint(0.04) - ref)
    assert 12.0 < e1 / e2 < 20.0


# ----------------------------------------------------------------------
# Full runs
# ----------------------------------------------------------------------

def test_simulate_static_orbit_bounds_and_q():
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    tr = simulate(init, FIELD, STATIC, dt=1e-3, t_end=30.0)
    assert tr.termination == "t_end"
    assert tr.q_drift() < 1e-8
    b = radial_bounds("static", tr.q[0], 2.0)
    assert tr.r.min() == pytest.approx(b.r_min, abs=1e-3)
    assert tr.r.max() == pytest.approx(b.r_max, abs=1e-3)
    # the orbit annulus never leaks
    assert tr.r.min() > b.r_min - 1e-6
    assert tr.r.max() < b.r_max + 1e-6


def test_simulate_reaches_source():
    init = from_polar(PolarState(r=1.0, eta=0.0, psi=0.05))
    tr = simulate(init, FIELD, STATIC, dt=1e-3, t_end=10.0, r_stop=0.05)
    assert tr.termination == "reached_source"
    assert tr.r[-1] < 0.06
    assert tr.t[-1] < 2.0


def test_simulate_escapes():
    # below the saddle-node threshold the proportional loop cannot trap
    field = RadialField(5.4)
    law = GainLaw("proportional", 0.5)
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=0.4))
    tr = simulate(init, field, law, dt=2e-3, t_end=100.0, r_escape=12.0)
    assert tr.termination == "escaped"
    assert tr.r[-1] >= 12.0


def test_simulate_records_trajectory_columns():
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    tr = simulate(init, FIELD, STATIC, dt=1e-2, t_end=1.0)
    n = len(tr)
    assert n == 101
    for name in TRAJECTORY_COLUMNS:
        key = {"G": "gain", "Omega": "omega", "Q": "q"}.get(name, name)
        assert len(getattr(tr, key)) == n
    assert tr.t[0] == 0.0 and tr.t[-1] == pytest.approx(1.0)
    assert tr.r[0] == pytest.approx(4.0)
    assert tr.psi[0] == pytest.approx(math.pi / 2)
    # static gain is constant, s starts saturated at the orbit tangent
    assert np.all(tr.gain == 0.5)
    assert tr.s[0] == pytest.approx(1.0)
    assert tr.m[0] == pytest.approx(math.exp(-4.0 / 6.5))


def test_simulate_rotational_equivariance():
    chi = 1.1
    law = GainLaw("proportional", 0.5)
    base = _quiet_simulate(
        AgentState(4.0, 0.0, math.pi / 2), FIELD, law, dt=1e-3, t_end=5.0)
    rot = _quiet_simulate(
        AgentState(4.0 * math.cos(chi), 4.0 * math.sin(chi),
                   math.pi / 2 + chi),
        FIELD, law, dt=1e-3, t_end=5.0)
    c, s = math.cos(chi), math.sin(chi)
    dev = np.hypot(rot.x - (c * base.x - s * base.y),
                   rot.y - (s * base.x + c * base.y))
    assert dev.max() < 1e-9


def test_simulate_speed_scaling():
    # doubling V and halving time covers the same path when rho is held
    # fixed by doubling g0
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    slow = simulate(init, FIELD, GainLaw("static", 0.5),
                    dt=1e-3, t_end=10.0, v=1.0)
    fast = simulate(init, FIELD, GainLaw("static", 1.0),
                    dt=5e-4, t_end=5.0, v=2.0)
    dev = math.hypot(slow.x[-1] - fast.x[-1], slow.y[-1] - fast.y[-1])
    assert dev < 1e-6


def test_polar_matches_cartesian():
    init = PolarState(r=4.0, eta=0.0, psi=math.pi / 2)
    cart = simulate(from_polar(init), FIELD, STATIC, dt=1e-3, t_end=50.0)
    pol = simulate_polar(init, None, STATIC, radial_m_field(6.5),
                         1e-3, 50.0)
    n = min(len(cart.r), len(pol.r))
    assert np.max(np.abs(cart.r[:n] - pol.r[:n])) < 1e-6


def test_simulate_polar_holds_fixed_point():
    law = GainLaw("proportional", 0.5)
    r_star = 3.347040263380559
    tr = simulate_polar(PolarState(r=r_star, eta=0.0, psi=math.pi / 2),
                        None, law, radial_m_field(6.5), 1e-3, 10.0)
    assert np.max(np.abs(tr.r - r_star)) < 1e-6
    assert np.max(np.abs(np.abs(tr.psi) - math.pi / 2)) < 1e-6


def test_simulate_polar_down_gradient_ray():
    tr = simulate_polar(PolarState(r=2.0, eta=0.3, psi=0.0),
                        None, STATIC, radial_m_field(6.5), 1e-3, 10.0)
    assert tr.termination == "origin_singularity"
    assert np.max(np.abs(tr.psi)) == 0.0
    assert np.max(np.abs(tr.eta - 0.3)) == 0.0
    # r shrinks at exactly V until the origin
    k = min(1500, len(tr.r) - 1)
    assert tr.r[k] == pytest.approx(2.0 - tr.t[k], abs=1e-9)


def test_simulate_started_at_the_origin_has_no_q():
    tr = simulate(AgentState(0.0, 0.0, 0.0), FIELD, STATIC, dt=1e-2,
                  t_end=1.0, r_stop=0.0)
    assert tr.termination == "origin_singularity"
    assert len(tr) == 1 and tr.r[0] == 0.0
    assert np.isnan([tr.psi[0], tr.m[0], tr.q[0]]).all()


def test_simulate_polar_escape():
    law = GainLaw("proportional", 0.5)
    tr = simulate_polar(PolarState(r=4.0, eta=0.0, psi=0.4),
                        None, law, radial_m_field(5.4), 1e-2, 200.0,
                        r_escape=30.0)
    assert tr.termination == "escaped"
    assert tr.r[-1] >= 30.0


def test_simulate_polar_ends_a_degenerate_magnitude_as_sensing_failure():
    # the error was a RuntimeError, which left simulate_polar as a traceback
    def m_field(r, eta):
        raise DegenerateMagnitudeError("magnitude 0.000e+00 below floor")
    tr = simulate_polar(PolarState(r=4.0, eta=0.0, psi=0.4), None, STATIC,
                        m_field, 1e-2, 1.0)
    assert tr.termination == "sensing_failure"
    assert len(tr.r) == 1


def test_a_subnormal_rho_still_ends_t_end():
    # rho = v / g0 = 1e-310: conserved_quantity, which simulate calls
    # after the loop, takes no speed, so the parameter gate checks no
    # v / rho there (1 / rho would be inf). r / rho overflows, so Q is NaN
    law = GainLaw("static", 1e10)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = simulate(AgentState(2.0, 0.0, math.pi / 2), FIELD, law,
                      dt=1e-3, t_end=0.01, v=1e-300)
    assert tr.termination == "t_end"
    assert tr.params["rho"] == 1e-310
    assert np.isnan(tr.q).all()


def _tilt(r, eta):
    return 0.3 * math.sin(eta) + 0.1 * math.exp(-r)


@pytest.mark.parametrize("init, delta, law, ell, dt, t_end, kwargs, want", [
    ((4.0, 0.0, 1.5), None, GainLaw("static", 0.5), 6.5, 1e-2, 40.0, {},
     "t_end"),
    ((3.5, 0.2, 1.2), None, GainLaw("proportional", 0.5), 6.5, 1e-2, 40.0,
     {}, "t_end"),
    # m = exp(-r / 0.5) stays below m_floor: the clamped inverse gain
    ((6.0, 0.0, 1.5), None, GainLaw("inverse", 0.5, m_floor=1e-3), 0.5,
     1e-2, 40.0, {}, "t_end"),
    ((4.0, 0.5, 1.0), _tilt, GainLaw("proportional", 0.5), 6.5, 1e-2, 30.0,
     {}, "t_end"),
    ((4.0, 0.0, 0.4), None, GainLaw("proportional", 0.5), 5.4, 1e-2, 200.0,
     {"r_escape": 30.0}, "escaped"),
    ((2.0, 0.3, 0.0), None, STATIC, 6.5, 1e-2, 10.0, {"r_floor": 0.5},
     "origin_singularity"),
    # r = 0.01 heading in: the second stage lands at r = -0.04
    ((0.01, 0.0, 0.0), None, STATIC, 6.5, 0.1, 10.0, {},
     "origin_singularity"),
    # 1024 steps: a long run, ended by t_end at a power-of-two step count
    ((4.0, 0.0, 1.5), None, STATIC, 6.5, 1e-2, 10.24, {}, "t_end"),
])
def test_simulate_polar_matches_oracle(init, delta, law, ell, dt, t_end,
                                       kwargs, want):
    tr = simulate_polar(PolarState(*init), delta, law, radial_m_field(ell),
                        dt, t_end, **kwargs)
    termination, rows = polar_ref(*init, delta, law, radial_m_field(ell),
                                  dt, t_end, **kwargs)
    assert tr.termination == termination == want
    for name, column in zip(("t", "r", "eta", "psi"), zip(*rows)):
        assert np.array_equal(getattr(tr, name), np.array(column)), name


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
@pytest.mark.parametrize("init, dt, t_end, want", [
    ((3.0, 0.4, 1.2), 1e-2, 20.0, "t_end"),
    ((4.0, 0.0, -1.5), 1e-2, 20.0, "t_end"),
    # psi = -0.0 heads straight in and stays -0.0; the third step's last
    # stage lands at r = -0.05, past the source
    ((0.55, 0.0, -0.0), 0.2, 10.0, "origin_singularity"),
])
def test_simulate_polar_no_delta_matches_zero_delta(kind, init, dt, t_end,
                                                    want):
    # delta_field None must give the bits of a delta_field that returns 0.0
    law = GainLaw(kind, 0.5)
    runs = [simulate_polar(PolarState(*init), delta, law,
                           radial_m_field(6.5), dt, t_end)
            for delta in (None, lambda r, eta: 0.0)]
    assert runs[0].termination == runs[1].termination == want
    for name in ("t", "r", "eta", "psi"):
        a, b = (getattr(run, name) for run in runs)
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    if init[2] == 0.0:
        assert np.signbit(runs[0].psi).all()


# ----------------------------------------------------------------------
# Sensing modes and domain handling
# ----------------------------------------------------------------------

def test_windowed_tracks_analytic():
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    exact = _quiet_simulate(init, FIELD, STATIC, dt=1e-2, t_end=2.0,
                            sensing="analytic")
    windowed = _quiet_simulate(init, FIELD, STATIC, dt=1e-2, t_end=2.0,
                               sensing="windowed")
    dev = math.hypot(exact.x[-1] - windowed.x[-1],
                     exact.y[-1] - windowed.y[-1])
    assert dev < 1e-5


@pytest.mark.parametrize("pose, h", [
    ((6.0, 0.0, 2.0), 1e-20), ((0.0, 6.0, 2.0), 1e-20),
    # 1 - 2**-53 is a float, 1 + 2**-53 rounds onto 1: one probe only
    ((1.0, 0.5, 2.0), 2.0 ** -53), ((-1.0, 0.5, 2.0), 2.0 ** -53),
    ((0.5, 1.0, 2.0), 2.0 ** -53)])
def test_a_windowed_start_below_the_stencil_resolution_is_rejected(pose, h):
    # from (6, 0) a stencil of 1e-20 once read a zero x gradient and ended
    # sensing_failure after one row
    config = SensingConfig(stencil_h=h)
    with pytest.raises(ValueError, match=(
            rf"^stencil_h = {h} is below the float resolution of the start "
            rf"\({pose[0]}, {pose[1]}\)")):
        simulate(AgentState(*pose), FIELD, STATIC, config, dt=1e-2,
                 t_end=2.0, sensing="windowed")
    # analytic sensing has no stencil
    tr = simulate(AgentState(*pose), FIELD, STATIC, config, dt=1e-2,
                  t_end=0.1)
    assert tr.termination == "t_end"


def test_simulate_checks_the_sensing_mode_first():
    # before the settings, as the CLI, which runs the same gate, does
    with pytest.raises(ValueError, match="^unknown sensing mode 'bogus'"):
        simulate(AgentState(4, 0, 1), RadialField(6.5),
                 GainLaw("static", 0.5), sensing="bogus", dt=-1.0)


def test_simulate_rejects_unknown_sensing():
    init = AgentState(4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        simulate(init, FIELD, STATIC, dt=1e-2, t_end=1.0, sensing="psychic")
    # gridded bundles carry no analytic spectra
    field = field_from_bundle(synth_wake())
    with pytest.raises(ValueError):
        simulate(AgentState(8.0, 0.0, math.pi), field, STATIC,
                 dt=1e-2, t_end=0.1, sensing="analytic")


def test_a_field_that_defines_analytic_mode_runs_analytic():
    # analytic_mode alone makes a field analytic: auto senses through it,
    # bit for bit the radial field's analytic run
    class Beacon(phaseseek.Field):
        period = FIELD.period

        def eval_windows(self, points, t0, n):
            return FIELD.eval_windows(points, t0, n)

        def analytic_mode(self, x, y):
            return FIELD.analytic_mode(x, y)

    assert phaseseek.agent._resolve_sensing(Beacon(), "auto") == "analytic"
    init = AgentState(4.0, 0.0, math.pi / 2)
    got = simulate(init, Beacon(), STATIC, dt=1e-2, t_end=2.0)
    want = simulate(init, FIELD, STATIC, dt=1e-2, t_end=2.0,
                    sensing="analytic")
    for column in ("x", "y", "theta", "m"):
        assert np.array_equal(getattr(got, column), getattr(want, column))


def test_simulate_leaves_domain():
    field = field_from_bundle(synth_wake())
    init = AgentState(12.0, 0.0, 0.0)  # driving toward the +x edge at 14
    tr = _quiet_simulate(init, field, GainLaw("proportional", 0.5),
                         dt=5e-3, t_end=10.0, r_escape=100.0)
    assert tr.termination == "left_domain"
    assert tr.x[-1] > 11.0


# a wake with signal up to every edge: it starts at x0 = 0.0
EDGE_WAKE = synth_wake(x0=0.0, y0=-3.0, nx=41, ny=31)
EDGE_PAD = SensingConfig().stencil_h + 1.0 * 5e-3


def _box_inside(x, y):
    # the four corners x +/- pad, y +/- pad lie on the grid, edges included
    b = EDGE_WAKE
    x_last, y_last = b.x0 + b.dx * (b.nx - 1), b.y0 + b.dy * (b.ny - 1)
    return all(b.x0 <= x + a * EDGE_PAD <= x_last
               and b.y0 <= y + c * EDGE_PAD <= y_last
               for a in (-1.0, 1.0) for c in (-1.0, 1.0))


@pytest.mark.parametrize("edge, heading", [
    ("west", 0.0), ("east", math.pi), ("south", math.pi / 2),
    ("north", -math.pi / 2)])
def test_windowed_start_on_the_domain_edge(edge, heading):
    # the outermost start whose stencil box lies on the grid steps, and the
    # next float outward ends left_domain at step 0, as the oracle's
    # four-corner rule says
    b = EDGE_WAKE
    x_last, y_last = b.x0 + b.dx * (b.nx - 1), b.y0 + b.dy * (b.ny - 1)
    start = {"west": b.x0 + EDGE_PAD, "east": x_last - EDGE_PAD,
             "south": b.y0 + EDGE_PAD, "north": y_last - EDGE_PAD}[edge]
    outward = -math.inf if edge in ("west", "south") else math.inf

    def pose(c):
        return (c, 1.0, heading) if edge in ("west", "east") else (
            4.0, c, heading)

    while not _box_inside(*pose(start)[:2]):
        start = math.nextafter(start, -outward)
    while _box_inside(*pose(math.nextafter(start, outward))[:2]):
        start = math.nextafter(start, outward)
    if edge == "west":
        # x0 is 0.0, so the box touches it exactly
        assert start - EDGE_PAD == b.x0
    field = field_from_bundle(b)
    law = GainLaw("proportional", 0.5)
    for c, want, rows in ((start, "t_end", 5),
                          (math.nextafter(start, outward), "left_domain", 1)):
        tr, termination, ref_rows = _windowed_run_and_oracle(
            field, law, pose(c), 5e-3, 0.02, r_escape=math.inf)
        assert tr.termination == termination == want
        assert len(tr) == len(ref_rows) == rows


def test_unbounded_field_is_everywhere_in_domain():
    # bounds None is the whole plane: a run far from anything steps on
    assert FIELD.bounds is None
    for x, y in ((1e6, -1e6), (-1e300, 1e300)):
        tr = simulate(AgentState(x, y, 0.3), FIELD, STATIC, dt=1e-2,
                      t_end=0.05, r_escape=math.inf)
        assert tr.termination == "t_end"
        assert len(tr) == 6


class _BoxedRadial(RadialField):
    # a plain subclass that limits its domain the one way: it sets bounds
    bounds = (3.9, -1.0, 4.1, 1.0)


def test_simulate_ends_left_domain_at_a_subclass_bounds():
    init = AgentState(4.0, 0.0, math.pi / 2)
    boxed = _BoxedRadial(6.5)
    tr = simulate(init, boxed, STATIC, dt=1e-2, t_end=5.0)
    assert tr.termination == "left_domain"
    x0, y0, x1, y1 = boxed.bounds
    inside = [x0 <= x <= x1 and y0 <= y <= y1 for x, y in zip(tr.x, tr.y)]
    assert all(inside[:-1]) and not inside[-1]
    # inside the box the run has the unbounded field's bits
    ref = simulate(init, FIELD, STATIC, dt=1e-2, t_end=5.0)
    n = len(tr)
    assert np.array_equal(tr.x, ref.x[:n]) and np.array_equal(tr.y, ref.y[:n])


def test_simulate_sensing_failure_in_dead_zone():
    # upstream of the wake the signal is identically zero but in-domain
    field = field_from_bundle(synth_wake())
    init = AgentState(-1.0, -3.0, math.pi / 2)
    tr = _quiet_simulate(init, field, GainLaw("proportional", 0.5),
                         dt=5e-3, t_end=2.0)
    assert tr.termination == "sensing_failure"
    assert len(tr) >= 1
    assert tr.failure.startswith("magnitude 0.000e+00 below floor")


def test_only_a_sensing_failure_keeps_its_message():
    # the message of the ValueError that ended the run, which the CLI
    # prints; a run that ends any other way has none
    field = TravelingWaveField(
        [TravelingWaveMode(0.0, 0.0, 1.0, (1.0, 0.0))])
    tr = simulate(AgentState(1.0, 1.0, 0.0), field, STATIC, dt=1e-2,
                  t_end=1.0, sensing="analytic")
    with pytest.raises(ValueError) as exc:
        field.analytic_mode(1.0, 1.0)
    assert tr.failure == str(exc.value)
    assert simulate(AgentState(4.0, 0.0, 1.5), FIELD, STATIC, dt=1e-2,
                    t_end=0.1).failure is None
    overflow = simulate(AgentState(4.0, 0.0, 1.5), FIELD,
                        GainLaw("static", 1e308), dt=1e-2, t_end=0.05)
    assert overflow.termination == "non_finite_state"
    assert overflow.failure is None


def test_simulate_sensing_failure_on_vanishing_first_mode():
    # the analytic phase is undefined everywhere: a named termination, not
    # an exception out of the driver
    field = TravelingWaveField(
        [TravelingWaveMode(0.0, 0.0, 1.0, (1.0, 0.0))])
    tr = simulate(AgentState(1.0, 1.0, 0.0), field, STATIC, dt=1e-2,
                  t_end=1.0, sensing="analytic")
    assert tr.termination == "sensing_failure"
    assert len(tr) == 1


def test_trajectory_csv_and_sidecar(tmp_path):
    init = from_polar(PolarState(r=4.0, eta=0.0, psi=math.pi / 2))
    tr = simulate(init, FIELD, STATIC, dt=1e-2, t_end=0.5)
    csv_path = tmp_path / "run.csv"
    tr.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,y,theta,r,eta,psi,m,s,G,Omega,Q"
    assert len(lines) == 1 + len(tr)
    first = [float(tok) for tok in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[4] == pytest.approx(4.0)
    assert first[11] == pytest.approx(tr.q[0])
    side_path = tmp_path / "run.json"
    tr.write_sidecar(side_path)
    payload = json.loads(side_path.read_text())
    assert payload["columns"] == list(TRAJECTORY_COLUMNS)
    assert payload["termination"] == "t_end"
    assert payload["n_samples"] == len(tr)
    assert payload["params"]["field"]["kind"] == "radial"
    assert payload["params"]["law"]["kind"] == "static"


def test_q_drift_nan_without_conserved_level(tmp_path):
    field = field_from_bundle(synth_wake())
    init = AgentState(8.0, 0.5, math.pi)
    tr = _quiet_simulate(init, field, GainLaw("proportional", 0.5),
                         dt=1e-2, t_end=0.3)
    assert math.isnan(tr.q_drift())
    assert np.isnan(tr.q).all()


# ----------------------------------------------------------------------
# The scalar loop against the per-stage oracle
# ----------------------------------------------------------------------

TRAJ_ATTRS = ("t", "x", "y", "theta", "r", "eta", "psi", "m", "s", "gain",
              "omega", "q")

@pytest.mark.parametrize("field, pose, v, sensing, warns", [
    (FIELD, (6.5, 0.0, math.pi / 2), 1.0, "windowed", 1),
    (FIELD, (6.5, 0.0, math.pi / 2), 1.0, "analytic", 0),
    (FIELD, (6.5, 0.0, math.pi / 2), 0.05, "windowed", 0),
    # the synthetic wake's all-zero upstream region: no gradient to judge
    (field_from_bundle(synth_wake()), (-1.0, 0.0, 0.0), 1.0, "windowed", 0),
])
def test_quasi_steady_check_once_at_the_start_pose(field, pose, v, sensing,
                                                   warns):
    # V T against the local wavelength 2 pi / |grad phi| is judged once, at
    # the start pose, and only when the run senses windows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr = simulate(AgentState(*pose), field, STATIC, dt=1e-2, t_end=1.0,
                      v=v, sensing=sensing)
    assert [w.category for w in caught] == [QuasiSteadyWarning] * warns
    if field is FIELD:
        assert tr.termination == "t_end"
    else:
        assert tr.termination == "sensing_failure"
        assert len(tr) == 1


class _SteepField(Field):
    """Fixed stencil coefficients a quarter turn apart along x: over a
    subnormal stencil their phase gradient overflows to inf."""

    period = TWO_PI

    def eval_windows(self, points, t0, n):
        return np.zeros((len(points), n))

    def window_coeffs(self, points, t0, n):
        return [1 + 0j, 1j, 1 + 0j, 1 + 0j, 1 + 0j]


def test_an_infinite_start_gradient_gives_no_quasi_steady_warning():
    # a gradient with no direction gives no wavelength to judge; the run
    # ends a sensing failure on its first step. The start is subnormal, so
    # the subnormal stencil's probes resolve from it
    config = SensingConfig(stencil_h=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = simulate(AgentState(1e-308, 0.0, 0.0), _SteepField(), STATIC,
                      config, dt=1e-2, t_end=1.0, r_stop=0.0,
                      sensing="windowed")
    assert tr.termination == "sensing_failure" and len(tr) == 1
    assert math.isnan(tr.m[0])


WAVE_MODES = [(1.0, 0.3, 1.0, (0.8, 0.1)), (0.4, -0.2, 1.0, (-0.3, 0.9)),
              (0.2, 0.1, 2.0, (0.5, 0.5))]


def _wave(modes):
    return TravelingWaveField([TravelingWaveMode(*mode) for mode in modes])


class _HoledWave(TravelingWaveField):
    """A traveling wave whose phase is undefined at a few exact points and
    everywhere left of x_dead."""

    def __init__(self, modes, holes=(), x_dead=-math.inf):
        super().__init__([TravelingWaveMode(*mode) for mode in modes])
        self.holes = set(holes)
        self.x_dead = x_dead

    def analytic_spectra(self, x):
        point = (float(x[0]), float(x[1]))
        if point in self.holes or point[0] < self.x_dead:
            raise UndefinedDirectionError("phase undefined here")
        return super().analytic_spectra(x)


def _assert_matches_oracle(field, law, pose, dt, t_end, r_stop=0.05,
                           r_escape=50.0):
    tr = simulate(AgentState(*pose), field, law, dt=dt, t_end=t_end,
                  r_stop=r_stop, r_escape=r_escape)
    q_of = None
    if isinstance(field, RadialField) and law.g0 > 0:
        def q_of(r, psi):
            return conserved_quantity(law.kind, r, psi, law.rho(), field.ell)
    termination, rows = closed_loop_ref(field, law, pose, dt, t_end, r_stop,
                                        r_escape, q_of=q_of)
    assert tr.termination == termination
    for name, want in zip(TRAJ_ATTRS, zip(*rows)):
        assert np.array_equal(getattr(tr, name), np.array(want, dtype=float),
                              equal_nan=True), name
    return tr


@pytest.mark.parametrize("law, ell, pose", [
    (GainLaw("static", 0.5), 6.5, (4.0, 0.0, 1.3)),
    (GainLaw("proportional", 0.5), 6.5, (3.0, 1.0, 2.0)),
    (GainLaw("inverse", 0.5), 5.8, (-3.0, 0.4, -1.9)),
    (GainLaw("inverse", 0.05, m_floor=1e-3), 0.5, (6.0, 0.0, 1.5)),
    (GainLaw("static", 0.0), 6.5, (2.0, -1.0, 0.4)),
])
def test_radial_loop_matches_oracle(law, ell, pose):
    tr = _assert_matches_oracle(RadialField(ell), law, pose, 1e-2, 5.0)
    assert tr.termination == "t_end"


def test_radial_loop_matches_oracle_to_the_source():
    tr = _assert_matches_oracle(RadialField(6.5), STATIC,
                                (1.0, 0.0, math.pi - 0.05), 1e-3, 10.0)
    assert tr.termination == "reached_source"


def test_radial_loop_matches_oracle_on_escape():
    tr = _assert_matches_oracle(RadialField(5.4), GainLaw("proportional", 0.5),
                                (4.0, 0.0, 2.74), 2e-2, 100.0, r_escape=12.0)
    assert tr.termination == "escaped"


def test_traveling_wave_loop_matches_oracle():
    field = _wave(WAVE_MODES)
    tr = _assert_matches_oracle(field, GainLaw("proportional", 0.7),
                                (1.0, 2.0, 0.3), 1e-2, 5.0)
    assert tr.termination == "t_end"
    assert np.isnan(tr.q).all()


def test_sensing_failure_matches_oracle_with_nan_final_row():
    law = GainLaw("static", 0.7)
    healthy = simulate(AgentState(1.0, 2.0, 0.3),
                       _wave(WAVE_MODES), law, dt=1e-2,
                       t_end=5.0)
    hole = (float(healthy.x[40]), float(healthy.y[40]))
    field = _HoledWave(WAVE_MODES, holes=[hole])
    tr = _assert_matches_oracle(field, law, (1.0, 2.0, 0.3), 1e-2, 5.0)
    assert tr.termination == "sensing_failure"
    assert len(tr) == 41
    assert (tr.x[-1], tr.y[-1]) == hole
    for col in (tr.m, tr.s, tr.gain, tr.omega):
        assert math.isnan(col[-1]) and np.isfinite(col[:-1]).all()


def test_sensing_failure_mid_step_matches_oracle():
    # a later RK4 stage enters the dead zone: the last pose still senses
    field = _HoledWave([(1.0, 0.0, 1.0, (1.0, 0.0))], x_dead=0.5)
    tr = _assert_matches_oracle(field, STATIC, (2.0, 0.0, math.pi), 1e-2,
                                5.0)
    assert tr.termination == "sensing_failure"
    assert np.isfinite(tr.m).all()
    assert tr.x[-1] >= 0.5


class _FaultyRadial(RadialField):
    """The radial field, whose analytic_mode raises a plain ValueError
    left of x = 2."""

    def analytic_mode(self, x, y):
        if x < 2.0:
            raise ValueError("no model left of x = 2")
        return super().analytic_mode(x, y)


def test_any_value_error_while_sensing_is_a_sensing_failure():
    # a ValueError of the field's own ends the run by name, like the
    # origin singularity; it does not escape the driver mid-run
    tr = _assert_matches_oracle(_FaultyRadial(6.5), STATIC,
                                (4.0, 0.0, math.pi), 1e-2, 5.0)
    assert tr.termination == "sensing_failure"
    assert len(tr) == 201
    for col in (tr.x, tr.y, tr.theta, tr.r, tr.q):
        assert np.isfinite(col).all()
    for col in (tr.m, tr.s, tr.gain, tr.omega):
        assert np.isfinite(col[:-1]).all()


class _NanRadial(RadialField):
    """The radial field, whose analytic_mode reads NaN left of x = 2."""

    def analytic_mode(self, x, y):
        if x < 2.0:
            return math.nan, math.nan, math.nan
        return super().analytic_mode(x, y)


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
def test_a_nan_phase_gradient_is_a_sensing_failure(kind):
    # a NaN gradient once steered a full hard turn, or carried NaN into
    # the pose, and the run ended t_end
    tr = simulate(AgentState(4.0, 0.0, math.pi), _NanRadial(6.5),
                  GainLaw(kind, 0.5), dt=1e-2, t_end=20.0)
    assert tr.termination == "sensing_failure"
    assert len(tr) == 201
    for col in (tr.x, tr.y, tr.theta, tr.m, tr.s, tr.gain):
        assert np.isfinite(col[:-1]).all()


class _NanMagnitude(RadialField):
    """The radial field, whose analytic_mode reads a NaN magnitude and its
    finite gradient left of x = 2."""

    def analytic_mode(self, x, y):
        m, gx, gy = super().analytic_mode(x, y)
        return (math.nan if x < 2.0 else m), gx, gy


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
def test_a_nan_magnitude_is_a_sensing_failure(kind):
    # static gain once ignored a NaN magnitude and reached the source with
    # NaN m on 196 rows; the others carried it into the next stage's pose
    tr = simulate(AgentState(4.0, 0.0, math.pi), _NanMagnitude(6.5),
                  GainLaw(kind, 0.5), dt=1e-2)
    assert tr.termination == "sensing_failure"
    assert len(tr) == 201
    for col in (tr.x, tr.y, tr.theta, tr.r):
        assert np.isfinite(col).all()
    for col in (tr.m, tr.s, tr.gain):
        assert np.isfinite(col[:-1]).all()


def _nan_m_inside_2(r, eta):
    return math.nan if r < 2.0 else math.exp(-r / 6.5)


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
def test_simulate_polar_ends_a_nan_magnitude_as_a_sensing_failure(kind):
    # proportional and inverse gain once ran on to t_end = 20 with NaN r
    # on about 1790 of 2001 rows, and static gain ignored the NaN
    tr = simulate_polar(PolarState(4.0, 0.0, 0.3), None, GainLaw(kind, 0.5),
                        _nan_m_inside_2, 1e-2, 20.0)
    assert tr.termination == "sensing_failure"
    assert tr.t[-1] < 2.5
    for col in (tr.t, tr.r, tr.eta, tr.psi):
        assert np.isfinite(col).all()


def _nan_delta_inside_2(r, eta):
    return math.nan if r < 2.0 else 0.0


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
def test_simulate_polar_ends_a_nan_state_as_non_finite(kind):
    # a NaN alignment error inside r = 2 once ran on to t_end = 20 with
    # NaN r on 1794 of 2001 rows; the run now stops at its first NaN row
    tr = simulate_polar(PolarState(4.0, 0.0, 0.3), _nan_delta_inside_2,
                        GainLaw(kind, 0.5), lambda r, eta: 1.0, 1e-2, 20.0)
    assert tr.termination == "non_finite_state"
    assert tr.t[-1] < 2.5
    for col in (tr.r, tr.eta, tr.psi):
        assert np.isfinite(col[:-1]).all()
    assert math.isnan(tr.r[-1])


def test_simulate_ends_an_overflowed_heading_as_non_finite():
    # the heading overflows to inf in the first step; the next step's
    # math.sin(inf) ended the run sensing_failure, and wrapping the inf
    # heading warned "invalid value encountered in remainder"
    tr = simulate(AgentState(4.0, 0.0, 1.5), RadialField(6.5),
                  GainLaw("static", 1e308), dt=1e-2, t_end=0.05)
    assert tr.termination == "non_finite_state"
    assert len(tr) == 2
    assert np.isfinite([tr.x, tr.y, tr.r, tr.eta]).all()
    assert np.isfinite([tr.theta[0], tr.psi[0], tr.m[0], tr.s[0]]).all()
    for col in (tr.theta, tr.psi, tr.m, tr.s, tr.gain, tr.omega):
        assert math.isnan(col[-1])


class _InfiniteProbe(RadialField):
    """The radial field, whose +x stencil probe reads a coefficient of
    infinite magnitude and NaN phase, so the magnitudes pass the floor
    and the gradient's x part is NaN."""

    def window_coeffs(self, points, t0, n):
        return [1, complex(math.inf, math.nan), 1j, 1, 1]


def test_a_non_finite_windowed_gradient_is_a_sensing_failure():
    tr = _quiet_simulate(AgentState(4.0, 0.0, math.pi), _InfiniteProbe(6.5),
                         STATIC, dt=1e-2, t_end=1.0, sensing="windowed")
    assert tr.termination == "sensing_failure"
    assert len(tr) == 1
    assert math.isnan(tr.s[0])


def _windowed_run_and_oracle(field, law, pose, dt, t_end, r_stop=0.05,
                             r_escape=50.0):
    tr = _quiet_simulate(AgentState(*pose), field, law, dt=dt, t_end=t_end,
                         r_stop=r_stop, r_escape=r_escape, sensing="windowed")
    q_of = None
    if isinstance(field, RadialField) and law.g0 > 0:
        def q_of(r, psi):
            return conserved_quantity(law.kind, r, psi, law.rho(), field.ell)
    termination, rows = windowed_loop_ref(field, law, pose, dt, t_end,
                                          r_stop, r_escape, q_of=q_of)
    return tr, termination, rows


@pytest.mark.parametrize("field, law, pose", [
    (RadialField(6.5), STATIC, (4.0, 0.0, 1.3)),
    (RadialField(5.8), GainLaw("inverse", 0.5), (-3.0, 0.4, -1.9)),
    (_wave(WAVE_MODES), GainLaw("proportional", 0.7), (1.0, 2.0, 0.3)),
])
def test_windowed_loop_matches_five_window_oracle(field, law, pose):
    # the sensor's window_coeffs path changes no bit against one
    # spectral_sample per stage on fields that take the window DFT
    tr, termination, rows = _windowed_run_and_oracle(field, law, pose, 1e-2,
                                                     5.0)
    assert tr.termination == termination == "t_end"
    for name, want in zip(TRAJ_ATTRS, zip(*rows)):
        assert np.array_equal(getattr(tr, name), np.array(want, dtype=float),
                              equal_nan=True), name


def test_windowed_bundle_loop_tracks_five_window_oracle():
    # the bundle reads its first-mode map, equal to the windows up to
    # rounding, so the wake seek follows the oracle to rounding level
    field = field_from_bundle(synth_wake())
    tr, termination, rows = _windowed_run_and_oracle(
        field, GainLaw("proportional", 0.5), (8.0, 0.0, math.pi), 5e-3, 2.0,
        r_stop=0.5, r_escape=math.inf)
    assert tr.termination == termination == "t_end"
    want = dict(zip(TRAJ_ATTRS, map(np.array, zip(*rows))))
    assert np.array_equal(tr.t, want["t"])
    for name in ("x", "y", "theta", "m", "s"):
        assert np.abs(getattr(tr, name) - want[name]).max() < 1e-12, name


# ----------------------------------------------------------------------
# Non-finite input is rejected at entry
# ----------------------------------------------------------------------

@pytest.mark.parametrize("g0, m_floor", [
    (math.nan, 1e-6), (math.inf, 1e-6), (0.5, math.nan), (0.5, math.inf),
])
def test_gain_law_rejects_non_finite(g0, m_floor):
    with pytest.raises(ValueError):
        GainLaw("static", g0, m_floor=m_floor)


@pytest.mark.parametrize("pose", [
    (math.nan, 0.0, 0.0, 0.0), (4.0, math.inf, 0.0, 0.0),
    (4.0, 0.0, math.nan, 0.0), (4.0, 0.0, -math.inf, 0.0),
    (4.0, 0.0, 0.0, math.nan), (4.0, 0.0, 0.0, math.inf),
])
def test_simulate_rejects_non_finite_start(pose):
    with pytest.raises(ValueError):
        simulate(AgentState(*pose), FIELD, STATIC, dt=1e-2, t_end=1.0)


@pytest.mark.parametrize("kwargs", [
    {"dt": math.nan}, {"dt": math.inf}, {"t_end": math.nan},
    {"t_end": math.inf}, {"r_stop": math.nan}, {"r_stop": math.inf},
    {"r_stop": -1.0}, {"r_escape": math.nan}, {"r_escape": 0.0},
    {"v": math.nan}, {"v": math.inf}, {"v": 0.0}, {"v": -1.0},
])
def test_simulate_rejects_bad_settings(kwargs):
    settings = {"dt": 1e-2, "t_end": 1.0, **kwargs}
    with pytest.raises(ValueError):
        simulate(AgentState(4.0, 0.0, 0.0), FIELD, STATIC, **settings)


@pytest.mark.parametrize("start, dt, t_end", [
    (PolarState(4.0, math.nan, 0.3), 1e-2, 1.0),
    (PolarState(4.0, 0.0, math.inf), 1e-2, 1.0),
    (PolarState(math.inf, 0.0, 0.3), 1e-2, 1.0),
    (PolarState(4.0, 0.0, 0.3), math.nan, 1.0),
    (PolarState(4.0, 0.0, 0.3), math.inf, 1.0),
    (PolarState(4.0, 0.0, 0.3), 1e-2, math.nan),
    (PolarState(4.0, 0.0, 0.3), 1e-2, math.inf),
])
def test_simulate_polar_rejects_non_finite(start, dt, t_end):
    with pytest.raises(ValueError):
        simulate_polar(start, None, STATIC, radial_m_field(6.5), dt, t_end,
                       r_escape=50.0)


@pytest.mark.parametrize("kwargs", [
    {"v": math.nan}, {"v": math.inf}, {"v": 0.0}, {"v": -1.0},
    {"r_floor": math.nan}, {"r_floor": -1.0}, {"r_floor": math.inf},
    {"r_escape": math.nan}, {"r_escape": 0.0}, {"r_escape": -1.0},
])
def test_simulate_polar_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError):
        simulate_polar(PolarState(4.0, 0.0, 0.3), None, STATIC,
                       radial_m_field(6.5), 1e-2, 1.0, **kwargs)


# from t = 1e16 the floats are 2.0 apart, so t + 1.0 rounds back to t
_STALLED = ("dt must be at least ulp(max |t|) = 2.0 so that t + dt > t, "
            "got 1.0")


def test_simulate_rejects_a_step_that_stalls_the_clock():
    # this run once stepped 225 035 times with its t column at 1e16
    start = from_polar(PolarState(2.0, 0.0, math.pi / 2), t=1e16)
    with pytest.raises(ValueError, match=f"^{re.escape(_STALLED)}$"):
        simulate(start, FIELD, STATIC, dt=1.0, t_end=1e16 + 100)


def test_simulate_polar_rejects_a_step_that_stalls_the_clock():
    # t0 is 0 here, so t_end sets the spacing; the start lies past
    # r_escape, where the run once returned at once
    with pytest.raises(ValueError, match=f"^{re.escape(_STALLED)}$"):
        simulate_polar(PolarState(4.0, 0.0, 0.3), None, STATIC,
                       radial_m_field(6.5), 1.0, 1e16 + 100, r_escape=1.0)


def test_a_step_of_one_ulp_advances_the_clock():
    start = from_polar(PolarState(2.0, 0.0, math.pi / 2), t=1e16)
    tr = simulate(start, FIELD, STATIC, dt=2.0, t_end=1e16 + 10)
    assert len(tr) > 2 and (np.diff(tr.t) == 2.0).all()


# ----------------------------------------------------------------------
# Numbers enter as Python numbers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config, law, dt", [
    (SensingConfig(n_samples=np.int64(64)), STATIC, 1e-2),
    (SensingConfig(), GainLaw("static", np.int64(1)), 1e-2),
    (SensingConfig(), STATIC, np.float32(0.01)),
], ids=["n_samples", "g0", "dt"])
def test_numpy_numbers_still_write_a_sidecar(tmp_path, config, law, dt):
    # each once ran and then failed in json: int64 and float32 are not
    # JSON serializable
    tr = _quiet_simulate(AgentState(6.0, 1.0, 2.0), FIELD, law, config,
                         dt=dt, t_end=0.1, sensing="windowed")
    tr.write_sidecar(tmp_path / "run.json")
    params = json.loads((tmp_path / "run.json").read_text())["params"]
    assert type(params["sensing"]["n_samples"]) is int
    assert type(params["law"]["g0"]) is float
    assert params["dt"] == float(dt) and type(tr.dt) is float


def test_records_store_python_numbers():
    law = GainLaw("inverse", np.float32(0.5), m_floor=np.float32(1e-6))
    config = SensingConfig(np.uint16(32), np.float32(0.01),
                           np.float32(1e-9))
    assert [type(value) for value in (law.g0, law.m_floor)] == [float] * 2
    assert ([type(value) for value in (config.n_samples, config.stencil_h,
                                       config.m_floor)]
            == [int, float, float])
    assert law.g0 == 0.5 and config.stencil_h == float(np.float32(0.01))
    # a string still fails the checks, as before
    with pytest.raises(TypeError):
        GainLaw("static", "0.5")
    with pytest.raises(TypeError):
        simulate(AgentState(6.0, 0.0, 2.0), FIELD, STATIC, dt="0.01")


def _float32_inputs(slot):
    """simulate's and simulate_polar's settings from (6, 0, 2), one of
    them a numpy float32, and the same settings with it as float()."""
    value = {"g0": np.float32(0.5), "dt": np.float32(1e-2),
             "start": np.float32(6.0), "v": np.float32(1.0)}[slot]
    exact = float(value)
    return [{"g0": 0.5, "dt": 1e-2, "start": 6.0, "v": 1.0, slot: number}
            for number in (value, exact)]


@pytest.mark.parametrize("slot", ["g0", "dt", "start", "v"])
def test_a_float32_input_runs_in_float64(slot):
    # numpy 2 keeps float32 + float in float32: a float32 g0 once drifted
    # Q by 1.06e-5 over 20 s, against 7.37e-11 with 0.5
    runs = []
    for s in _float32_inputs(slot):
        runs.append(simulate(AgentState(s["start"], 0.0, 2.0), FIELD,
                             GainLaw("static", s["g0"]), dt=s["dt"],
                             t_end=5.0, v=s["v"]))
    given, exact = runs
    for name in ("x", "y", "theta", "m", "s", "gain", "q"):
        assert getattr(given, name).tobytes() == getattr(exact, name).tobytes()
    assert given.params == exact.params
    assert given.q_drift() < 1e-9


@pytest.mark.parametrize("slot", ["g0", "dt", "start", "v"])
def test_a_float32_input_runs_in_float64_in_the_polar_driver(slot):
    runs = []
    for s in _float32_inputs(slot):
        runs.append(simulate_polar(PolarState(s["start"], 0.0, 2.0), None,
                                   GainLaw("static", s["g0"]),
                                   radial_m_field(6.5), s["dt"], 5.0,
                                   v=s["v"]))
    given, exact = runs
    for name in ("r", "eta", "psi"):
        assert getattr(given, name).tobytes() == getattr(exact, name).tobytes()
    assert type(given.dt) is float and given.dt == exact.dt


def test_simulate_polar_infinite_escape_means_no_bound():
    bounded = simulate_polar(PolarState(4.0, 0.0, 0.3), None, STATIC,
                             radial_m_field(6.5), 1e-2, 1.0,
                             r_escape=math.inf)
    default = simulate_polar(PolarState(4.0, 0.0, 0.3), None, STATIC,
                             radial_m_field(6.5), 1e-2, 1.0)
    assert bounded.termination == default.termination == "t_end"
    assert np.array_equal(bounded.r, default.r)


# ----------------------------------------------------------------------
# Memory held by a recorded run
# ----------------------------------------------------------------------

def _traced(run):
    """run()'s result, the bytes tracemalloc saw held once it returned,
    and the peak bytes it saw while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def _bytes_per_sample(run, held=False):
    # the peaks (or the bytes held after return) of an n-step and a
    # 2n-step run differ by what each further sample costs: fixed costs,
    # such as the one step's record list, cancel
    n = 2048
    (short, *low), (long, *high) = (_traced(lambda: run(k * n))
                                    for k in (1, 2))
    assert short.termination == long.termination == "t_end"
    assert (len(short.r), len(long.r)) == (n + 1, 2 * n + 1)
    index = 0 if held else 1
    return (high[index] - low[index]) / n


def _assert_float_columns(columns):
    for column in columns:
        assert column.dtype == np.float64
        assert column.flags.c_contiguous and column.flags.writeable


def _polar_run(steps):
    return simulate_polar(PolarState(3.0, 0.0, 1.2), None, STATIC,
                          radial_m_field(6.5), 1e-2, steps * 1e-2)


def test_simulate_polar_holds_a_sample_in_under_52_bytes():
    # three doubles per sample in the buffer, which grows by a sixteenth,
    # and their returned copy: about 50.5 bytes; t is not recorded. A float
    # object alone is 24 bytes and its list slot 8 more
    assert _bytes_per_sample(_polar_run) <= 52
    tr = _polar_run(3)
    _assert_float_columns((tr.t, tr.r, tr.eta, tr.psi))


def test_a_polar_trajectory_holds_only_its_state():
    # r, eta and psi, 24 bytes a sample; t is rebuilt on each read
    assert _bytes_per_sample(_polar_run, held=True) <= 25
    tr = _polar_run(3)
    assert tr.t is not tr.t
    assert np.array_equal(tr.t, [0.0, 0.01, 0.02, 0.03])


def test_simulate_holds_a_row_in_under_250_bytes():
    # the buffer's seven doubles per row, twelve returned columns and the
    # build of t, eta, psi and Q: about 184 bytes. A buffer kept alive
    # through that build (a bound record = buf.fromlist) reads about 240,
    # so the bound sits between the two (both measured on CPython 3.11)
    def run(steps):
        return simulate(AgentState(4.0, 0.0, 1.0), FIELD, STATIC, dt=1e-2,
                        t_end=steps * 1e-2, r_stop=0.0)
    assert _bytes_per_sample(run) <= 210
    tr = run(3)
    _assert_float_columns(getattr(tr, name) for name in TRAJ_ATTRS)


# ----------------------------------------------------------------------
# Per-stage arithmetic stays on the interpreter's float fast path
# ----------------------------------------------------------------------

# Run in a fresh interpreter, so that no other test's arguments reach these
# sites first. It warms simulate_polar up for each gain kind and prints
# every site that did not specialize to a float-only instruction: a `*` or
# `+` in _rk4_step, a comparison in a closure() gain.
_FAST_PATH_PROBE = """
import dis, json
from phaseseek import GainLaw, PolarState, radial_m_field, simulate_polar
from phaseseek.agent import _rk4_step

def slow_sites(fn, keep):
    return [f"{fn.__qualname__} line {ins.positions.lineno}: {ins.opname}"
            for ins in dis.get_instructions(fn, adaptive=True)
            if keep(ins) and "FLOAT" not in ins.opname]

slow = []
for kind in ("static", "proportional", "inverse"):
    law = GainLaw(kind, 0.5)
    simulate_polar(PolarState(3.0, 0.0, 1.2), None, law, radial_m_field(6.5),
                   1e-2, 10.0)
    slow += slow_sites(law.closure(),
                       lambda ins: ins.opname.startswith("COMPARE_OP"))
slow += slow_sites(_rk4_step,
                   lambda ins: (ins.opname.startswith("BINARY_OP")
                                and ins.argrepr in ("*", "+")))
print(json.dumps(slow))
"""


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the adaptive interpreter arrived in CPython 3.11")
def test_rk4_stage_arithmetic_specializes_to_float():
    # an int literal next to a float (2 * da2, m >= 0) never specializes,
    # so that operation takes the generic path on every RK4 stage
    src = str(Path(phaseseek.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _FAST_PATH_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    slow = json.loads(out)
    assert slow == [], "\n".join(slow)


# ----------------------------------------------------------------------
# CSV bytes
# ----------------------------------------------------------------------

def test_trajectory_csv_bytes_are_pinned(tmp_path):
    rows = [
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1 / 3, 2.5,
         1e300, -7.0, 123456789.125, np.float64(0.2)],
        [0.0, 1e-7, -2.0, 3.0, 1e16, -1.5e-310, 0.5, 7, 0.0, 4.0, -0.25,
         np.float64(math.nan)],
    ]
    cols = [list(c) for c in zip(*rows)]
    tr = Trajectory(*(np.array(c, dtype=float) for c in cols[:11]),
                    q=cols[11], dt=0.1, termination="t_end", params={})
    path = tmp_path / "pinned.csv"
    tr.write_csv(path)
    assert path.read_bytes() == (
        b"t,x,y,theta,r,eta,psi,m,s,G,Omega,Q\n"
        b"nan,inf,-inf,-0.0,5e-324,0.1,0.3333333333333333,2.5,1e+300,-7.0,"
        b"123456789.125,0.2\n"
        b"0.0,1e-07,-2.0,3.0,1e+16,-1.5e-310,0.5,7.0,0.0,4.0,-0.25,nan\n")


def test_trajectory_csv_bytes_across_row_blocks(tmp_path):
    # longer than one block of rows: every row written exactly once, in order
    rng = np.random.default_rng(23)
    cols = rng.normal(size=(12, 9000)) * 10.0 ** rng.integers(-5, 5, (12, 1))
    tr = Trajectory(*cols, dt=0.1, termination="t_end", params={})
    path = tmp_path / "long.csv"
    tr.write_csv(path)
    want = [",".join(TRAJECTORY_COLUMNS)]
    want += [",".join(repr(float(v)) for v in row) for row in cols.T]
    assert path.read_text() == "\n".join(want) + "\n"
