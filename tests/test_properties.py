"""Property tests over random inputs: wrap ranges and the polar round trip.

Skipped when hypothesis is not installed.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from phaseseek import (  # noqa: E402
    TWO_PI, AgentState, from_polar, to_polar, wrap_angle, wrap_phase)

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
