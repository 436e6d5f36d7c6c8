"""Nonholonomic seeking agent: gain laws, closed-loop integration, records.

The vehicle moves at constant speed V and is steered only through its
heading rate, Omega = G(m) * s, where s is the spectral steering signal
and G a magnitude-dependent gain. Integration is fixed-step RK4 with the
sensor re-evaluated at every stage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import analysis
from .fields import (
    OriginSingularityError,
    RadialField,
    UndefinedDirectionError,
    wrap_angle,
)
from .sensing import (
    DegenerateMagnitudeError,
    SensingConfig,
    analytic_sample,
    check_quasi_steady,
    spectral_sample,
)

# sensing modes
AUTO = "auto"
ANALYTIC = "analytic"
WINDOWED = "windowed"
SENSING_MODES = (AUTO, ANALYTIC, WINDOWED)

# termination reasons
TERM_T_END = "t_end"
TERM_REACHED = "reached_source"
TERM_ESCAPED = "escaped"
TERM_SENSING = "sensing_failure"
TERM_LEFT_DOMAIN = "left_domain"
TERM_ORIGIN = "origin_singularity"

TRAJECTORY_COLUMNS = (
    "t", "x", "y", "theta", "r", "eta", "psi", "m", "s", "G", "Omega", "Q"
)


class GainKind(str, Enum):
    STATIC = "static"
    PROPORTIONAL = "proportional"
    INVERSE = "inverse"


@dataclass(frozen=True)
class GainLaw:
    """Steering gain as a function of the sensed magnitude m.

    static:        G = g0
    proportional:  G = g0 * m
    inverse:       G = g0 / max(m, m_floor)

    g0 = 0 is allowed as an open-loop setting (no steering feedback).
    """

    kind: GainKind
    g0: float
    m_floor: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "kind", GainKind(self.kind))
        if self.g0 < 0:
            raise ValueError(f"g0 must be nonnegative, got {self.g0}")
        if not self.m_floor > 0:
            raise ValueError(f"m_floor must be positive, got {self.m_floor}")

    def rho(self, v=1.0):
        """Turning radius scale V / g0."""
        return v / self.g0 if self.g0 > 0 else math.inf


def gain_value(law, m):
    """Gain at sensed magnitude m. Returns (G, saturated).

    saturated is True only for the inverse law when m fell below the floor
    and the gain was clamped to g0 / m_floor.
    """
    if m < 0:
        raise ValueError(f"magnitude must be nonnegative, got {m}")
    if law.kind is GainKind.STATIC:
        return law.g0, False
    if law.kind is GainKind.PROPORTIONAL:
        return law.g0 * m, False
    if m < law.m_floor:
        return law.g0 / law.m_floor, True
    return law.g0 / m, False


def heading_rate(g, s):
    """Steering command Omega = G * s."""
    return g * s


# ----------------------------------------------------------------------
# State and coordinate changes
# ----------------------------------------------------------------------

@dataclass
class AgentState:
    """Planar pose (x, y, theta) at time t. theta is kept unwrapped."""

    x: float
    y: float
    theta: float
    t: float = 0.0

    @property
    def theta_wrapped(self):
        return wrap_angle(self.theta)


@dataclass(frozen=True)
class PolarState:
    """Source-centred coordinates: radius r, bearing eta, approach angle psi.

    psi is the angle between the body axis and the inbound ray; psi = 0
    points straight at the source.
    """

    r: float
    eta: float
    psi: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"radius must be positive, got {self.r}")


def to_polar(state):
    """Cartesian pose to source-centred PolarState; undefined at the origin."""
    r = math.hypot(state.x, state.y)
    if r == 0.0:
        raise OriginSingularityError("polar coordinates undefined at the source")
    eta = math.atan2(state.y, state.x)
    psi = wrap_angle(math.pi - (state.theta - eta))
    return PolarState(r=r, eta=eta, psi=psi)


def from_polar(polar, t=0.0):
    """Inverse of to_polar: theta = pi + eta - psi."""
    x = polar.r * math.cos(polar.eta)
    y = polar.r * math.sin(polar.eta)
    theta = wrap_angle(math.pi + polar.eta - polar.psi)
    return AgentState(x=x, y=y, theta=theta, t=t)


# ----------------------------------------------------------------------
# Closed-loop stepping
# ----------------------------------------------------------------------

def _resolve_sensing(field, mode):
    if mode not in SENSING_MODES:
        raise ValueError(f"unknown sensing mode {mode!r}, expected {SENSING_MODES}")
    if mode == AUTO:
        return ANALYTIC if field.has_analytic_spectra else WINDOWED
    if mode == ANALYTIC and not field.has_analytic_spectra:
        raise ValueError(f"{type(field).__name__} has no analytic spectra")
    return mode


def _sense(field, x, y, theta, t, config, mode):
    if mode == ANALYTIC:
        return analytic_sample(field, (x, y), theta)
    return spectral_sample(field, (x, y), t, theta, config)


def _deriv(field, law, config, v, mode, x, y, theta, t):
    sample = _sense(field, x, y, theta, t, config, mode)
    g, saturated = gain_value(law, sample.m)
    sample.saturated = saturated
    omega = heading_rate(g, sample.s)
    return (v * math.cos(theta), v * math.sin(theta), omega, sample, g)


def _step_with_diag(state, field, law, config, dt, v, mode):
    x, y, th, t = state.x, state.y, state.theta, state.t
    dx1, dy1, dh1, sample1, g1 = _deriv(field, law, config, v, mode, x, y, th, t)
    half = 0.5 * dt
    dx2, dy2, dh2, _, _ = _deriv(
        field, law, config, v, mode, x + half * dx1, y + half * dy1,
        th + half * dh1, t + half)
    dx3, dy3, dh3, _, _ = _deriv(
        field, law, config, v, mode, x + half * dx2, y + half * dy2,
        th + half * dh2, t + half)
    dx4, dy4, dh4, _, _ = _deriv(
        field, law, config, v, mode, x + dt * dx3, y + dt * dy3,
        th + dt * dh3, t + dt)
    sixth = dt / 6.0
    new = AgentState(
        x=x + sixth * (dx1 + 2 * dx2 + 2 * dx3 + dx4),
        y=y + sixth * (dy1 + 2 * dy2 + 2 * dy3 + dy4),
        theta=th + sixth * (dh1 + 2 * dh2 + 2 * dh3 + dh4),
        t=t + dt,
    )
    return new, (sample1, g1, heading_rate(g1, sample1.s))


def step(state, field, law, config, dt, v=1.0, sensing=AUTO):
    """One RK4 step of the closed loop, re-sensing at every stage."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    mode = _resolve_sensing(field, sensing)
    new_state, _ = _step_with_diag(state, field, law, config, dt, v, mode)
    return new_state


# ----------------------------------------------------------------------
# Trajectory records
# ----------------------------------------------------------------------

def _fmt(value):
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


@dataclass
class Trajectory:
    """Sampled closed-loop run plus its provenance.

    Columns follow TRAJECTORY_COLUMNS; Q is NaN when no conserved level is
    defined for the field/law combination.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    m: np.ndarray
    s: np.ndarray
    gain: np.ndarray
    omega: np.ndarray
    q: np.ndarray
    dt: float
    termination: str
    params: dict
    integrator: str = "rk4"

    def __len__(self):
        return len(self.t)

    def q_drift(self):
        """max |Q - Q0| / |Q0| over the run; NaN when Q is undefined."""
        if len(self.q) == 0 or not np.isfinite(self.q).all():
            return math.nan
        q0 = self.q[0]
        scale = max(abs(q0), 1e-300)
        return float(np.max(np.abs(self.q - q0)) / scale)

    def write_csv(self, path):
        cols = (self.t, self.x, self.y, self.theta, self.r, self.eta,
                self.psi, self.m, self.s, self.gain, self.omega, self.q)
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for row in zip(*cols):
            lines.append(",".join(_fmt(v) for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_sidecar(self, path):
        payload = {
            "columns": list(TRAJECTORY_COLUMNS),
            "dt": self.dt,
            "integrator": self.integrator,
            "n_samples": len(self.t),
            "termination": self.termination,
            "params": self.params,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ----------------------------------------------------------------------
# Full simulation drivers
# ----------------------------------------------------------------------

def _default_r_escape(r0, rho, ell):
    scales = [r0]
    if rho is not None and math.isfinite(rho):
        scales.append(rho)
    if ell is not None:
        scales.append(ell)
    return 10.0 * max(scales)


def simulate(init, field, law, config=None, dt=1e-3, t_end=100.0,
             r_stop=0.05, r_escape=None, v=1.0, sensing=AUTO,
             extra_params=None):
    """Integrate the closed loop from an AgentState until a stop condition.

    Stops at t_end, on source proximity (r < r_stop), escape (r > r_escape,
    default 10x the largest of r0, rho, ell), leaving a gridded field's
    domain, or a sensing failure (a magnitude below the floor, the origin
    singularity, or a phase gradient with no direction). Returns a
    Trajectory sampled every dt.

    Q is recorded per sample when the field is radial and the law has a
    finite turning radius; it is NaN otherwise.
    """
    if config is None:
        config = SensingConfig()
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    mode = _resolve_sensing(field, sensing)

    rho = law.rho(v)
    ell = getattr(field, "ell", None)
    r0 = math.hypot(init.x, init.y)
    if r_escape is None:
        r_escape = _default_r_escape(r0, rho, ell)

    q_of = None
    if isinstance(field, RadialField) and math.isfinite(rho):
        kind = law.kind.value

        def q_of(r, psi):
            return analysis.conserved_quantity(kind, r, psi, rho, ell)

    # one-shot quasi-steady check at the initial point
    if mode == WINDOWED:
        try:
            grad = spectral_sample(field, (init.x, init.y), init.t,
                                   init.theta, config).grad_phi
            check_quasi_steady(v, field.period, math.hypot(*grad))
        except (DegenerateMagnitudeError, UndefinedDirectionError):
            pass

    rows = []

    def record(state, sample, g):
        r = math.hypot(state.x, state.y)
        eta = math.atan2(state.y, state.x)
        psi = wrap_angle(math.pi - (state.theta - eta)) if r > 0 else math.nan
        if sample is None:
            m = s = gain = omega = math.nan
        else:
            m, s = sample.m, sample.s
            gain, omega = g, heading_rate(g, sample.s)
        q = math.nan
        if q_of is not None and r > 0:
            q = q_of(r, psi)
        rows.append((state.t, state.x, state.y, wrap_angle(state.theta),
                     r, eta, psi, m, s, gain, omega, q))

    def guarded_sense(state):
        try:
            sample = _sense(field, state.x, state.y, state.theta, state.t,
                            config, mode)
            g, saturated = gain_value(law, sample.m)
            sample.saturated = saturated
            return sample, g
        except (DegenerateMagnitudeError, OriginSingularityError, ValueError):
            return None, math.nan

    # windowed sensing needs the whole stencil (plus one step of travel)
    # inside the domain, not just the vehicle position
    if mode == WINDOWED:
        pad = config.stencil_h + v * dt
        offsets = [(-pad, -pad), (-pad, pad), (pad, -pad), (pad, pad)]
    else:
        offsets = [(0.0, 0.0)]

    def footprint_in_domain(state):
        return all(field.in_domain((state.x + ox, state.y + oy))
                   for ox, oy in offsets)

    state = init
    termination = TERM_T_END
    while True:
        r = math.hypot(state.x, state.y)
        if r == 0.0:
            termination = TERM_ORIGIN
            break
        if r < r_stop:
            termination = TERM_REACHED
            break
        if r > r_escape:
            termination = TERM_ESCAPED
            break
        if not footprint_in_domain(state):
            termination = TERM_LEFT_DOMAIN
            break
        if state.t >= t_end - 0.5 * dt:
            termination = TERM_T_END
            break
        try:
            new_state, (sample, g, _) = _step_with_diag(
                state, field, law, config, dt, v, mode)
        except (DegenerateMagnitudeError, OriginSingularityError,
                UndefinedDirectionError):
            termination = TERM_SENSING
            break
        record(state, sample, g)
        state = new_state

    final_sample, final_g = guarded_sense(state)
    record(state, final_sample, final_g)

    arrays = [np.array(col, dtype=float) for col in zip(*rows)]
    params = {
        "field": field.describe(),
        "law": {"kind": law.kind.value, "g0": law.g0, "m_floor": law.m_floor},
        "sensing": {
            "mode": mode,
            "n_samples": config.n_samples,
            "stencil_h": config.stencil_h,
            "m_floor": config.m_floor,
        },
        "v": v,
        "dt": dt,
        "t_end": t_end,
        "r_stop": r_stop,
        "r_escape": r_escape,
        "init": [init.x, init.y, init.theta],
        "rho": rho if math.isfinite(rho) else None,
    }
    if extra_params:
        params.update(extra_params)
    return Trajectory(
        t=arrays[0], x=arrays[1], y=arrays[2], theta=arrays[3], r=arrays[4],
        eta=arrays[5], psi=arrays[6], m=arrays[7], s=arrays[8],
        gain=arrays[9], omega=arrays[10], q=arrays[11],
        dt=dt, termination=termination, params=params,
    )


# ----------------------------------------------------------------------
# Reduced polar simulation
# ----------------------------------------------------------------------

@dataclass
class PolarTrajectory:
    """Sampled run of the reduced (r, eta, psi) dynamics."""

    t: np.ndarray
    r: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    dt: float
    termination: str


class _OriginCrossing(Exception):
    pass


def radial_m_field(ell):
    """Magnitude profile m(r, eta) of the radial field, for simulate_polar."""
    def m_field(r, eta):
        return math.exp(-r / ell)
    return m_field


def simulate_polar(init, delta_field, law, m_field, dt, t_end, v=1.0,
                   r_floor=1e-9, r_escape=None):
    """Integrate the reduced dynamics in source-centred coordinates.

    dr/dt   = -V cos(psi)
    deta/dt =  V sin(psi) / r
    dpsi/dt =  V sin(psi) / r - G(m) [cos(delta) sin(psi) + sin(delta) cos(psi)]

    delta_field(r, eta) supplies the alignment error (None means zero) and
    m_field(r, eta) the sensed magnitude. Terminates at t_end, when r falls
    to r_floor (the coordinates degenerate), or when r exceeds r_escape.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if delta_field is None:
        def delta_field(r, eta):
            return 0.0
    if r_escape is None:
        r_escape = math.inf

    def deriv(r, eta, psi):
        if r <= 0.0:
            raise _OriginCrossing
        m = m_field(r, eta)
        g, _ = gain_value(law, m)
        d = delta_field(r, eta)
        sp, cp = math.sin(psi), math.cos(psi)
        steer = g * (math.cos(d) * sp + math.sin(d) * cp)
        return (-v * cp, v * sp / r, v * sp / r - steer)

    t = 0.0
    r, eta, psi = init.r, init.eta, init.psi
    ts, rs, etas, psis = [t], [r], [eta], [psi]
    termination = TERM_T_END
    half = 0.5 * dt
    sixth = dt / 6.0
    while True:
        if r <= r_floor:
            termination = TERM_ORIGIN
            break
        if r >= r_escape:
            termination = TERM_ESCAPED
            break
        if t >= t_end - 0.5 * dt:
            termination = TERM_T_END
            break
        try:
            dr1, de1, dp1 = deriv(r, eta, psi)
            dr2, de2, dp2 = deriv(r + half * dr1, eta + half * de1,
                                  psi + half * dp1)
            dr3, de3, dp3 = deriv(r + half * dr2, eta + half * de2,
                                  psi + half * dp2)
            dr4, de4, dp4 = deriv(r + dt * dr3, eta + dt * de3, psi + dt * dp3)
        except _OriginCrossing:
            termination = TERM_ORIGIN
            break
        r = r + sixth * (dr1 + 2 * dr2 + 2 * dr3 + dr4)
        eta = eta + sixth * (de1 + 2 * de2 + 2 * de3 + de4)
        psi = psi + sixth * (dp1 + 2 * dp2 + 2 * dp3 + dp4)
        t = t + dt
        ts.append(t)
        rs.append(r)
        etas.append(eta)
        psis.append(psi)

    return PolarTrajectory(
        t=np.array(ts), r=np.array(rs), eta=np.array(etas),
        psi=np.array(psis), dt=dt, termination=termination,
    )
