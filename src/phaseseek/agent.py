"""Nonholonomic seeking agent: closed-loop integration and its records.

The vehicle moves at constant speed V and is steered only through its
heading rate, Omega = G(m) * s, where s is the spectral steering signal
and G a magnitude-dependent gain. Integration is fixed-step RK4 with the
sensor re-evaluated at every stage.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import asdict, dataclass

import numpy as np

from . import analysis
# GainKind and GainLaw live in analysis, the lower module; agent re-exports
# them
from .analysis import GainKind, GainLaw  # noqa: F401
from .fields import (
    OriginSingularityError,
    RadialField,
    wrap_angle,
    write_float_csv,
    write_json,
)
from .sensing import (
    DegenerateMagnitudeError,
    SensingConfig,
    _stencil_mode,
    _stencil_points,
    check_quasi_steady,
    lateral_signal,
)
# tracer-only imports: perfbench's tracer looks these two up in this
# module; simulate calls neither
from .sensing import analytic_sample, spectral_sample  # noqa: F401

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
TERM_NON_FINITE = "non_finite_state"

# a sensing fault, in the stage loop and at the last row: a magnitude
# below the floor, or any ValueError raised while sensing
_SENSING_FAULTS = (DegenerateMagnitudeError, ValueError)

# steps recorded per flat list chunk before it moves into the run's
# array('d') buffer: a recorded value is then held as 8 bytes, not as a
# Python float
_CHUNK_STEPS = 256

TRAJECTORY_COLUMNS = (
    "t", "x", "y", "theta", "r", "eta", "psi", "m", "s", "G", "Omega", "Q"
)


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

def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _check_run(start, dt, t_end, r_stop, r_escape, v, stop_name="r_stop"):
    """Entry checks of simulate and simulate_polar: ValueError on bad input.

    start is an AgentState or a PolarState. r_stop (r_floor for
    simulate_polar) must be finite and nonnegative and r_escape None or
    positive; r_escape = inf means no escape bound. Returns the start and
    the settings as Python floats: a numpy float32 would carry its
    precision into every RK4 stage.
    """
    _require(all(map(math.isfinite, vars(start).values())),
             f"start must be finite, got {start}")
    _require(0 < dt < math.inf, f"dt must be finite and positive, got {dt}")
    _require(math.isfinite(t_end), f"t_end must be finite, got {t_end}")
    _require(0 <= r_stop < math.inf,
             f"{stop_name} must be finite and nonnegative, got {r_stop}")
    _require(r_escape is None or r_escape > 0,
             f"r_escape must be positive, got {r_escape}")
    _require(0 < v < math.inf, f"v must be finite and positive, got {v}")
    return (tuple(map(float, vars(start).values())), float(dt), float(t_end),
            float(r_stop), None if r_escape is None else float(r_escape),
            float(v))


def _resolve_sensing(field, mode):
    if mode not in SENSING_MODES:
        raise ValueError(f"unknown sensing mode {mode!r}, expected {SENSING_MODES}")
    analytic = hasattr(field, "analytic_mode")
    if mode == AUTO:
        return ANALYTIC if analytic else WINDOWED
    if mode == ANALYTIC and not analytic:
        raise ValueError(f"{type(field).__name__} has no analytic spectra")
    return mode


def _sensor(field, config, mode):
    """sense(x, y, t) -> (m, gx, gy), the sensed magnitude and phase
    gradient as floats, resolved once per run.

    An analytic stage is one field.analytic_mode call. A windowed stage is
    one field.window_coeffs call on the five stencil points and the
    stencil difference of their coefficients.
    """
    if mode == WINDOWED:
        coeffs_at = field.window_coeffs
        n, h, m_floor = config.n_samples, config.stencil_h, config.m_floor

        def sense(x, y, t):
            return _stencil_mode(coeffs_at(_stencil_points(x, y, h), t, n),
                                 h, m_floor)
        return sense
    mode_at = field.analytic_mode

    def sense(x, y, t):
        return mode_at(x, y)
    return sense


def _rk4_step(deriv, dt, t, a, b, c):
    """One classic RK4 step of a three-state system on plain floats.

    deriv(t, a, b, c) returns the three rates and a diagnostic. Returns
    the new (a, b, c, t) and the first stage's diagnostic, which belongs
    to the starting state. simulate and simulate_polar both step here.
    """
    da1, db1, dc1, diag = deriv(t, a, b, c)
    half = 0.5 * dt
    t_half = t + half
    da2, db2, dc2, _ = deriv(t_half, a + half * da1, b + half * db1,
                             c + half * dc1)
    da3, db3, dc3, _ = deriv(t_half, a + half * da2, b + half * db2,
                             c + half * dc2)
    da4, db4, dc4, _ = deriv(t + dt, a + dt * da3, b + dt * db3,
                             c + dt * dc3)
    sixth = dt / 6.0
    return (a + sixth * (da1 + 2.0 * da2 + 2.0 * da3 + da4),
            b + sixth * (db1 + 2.0 * db2 + 2.0 * db3 + db4),
            c + sixth * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4),
            t + dt, diag)


def _columns(buf, k):
    """The k columns of a buffer of k-value records, one C-contiguous
    float64 row each; simulate and simulate_polar both return these."""
    return np.frombuffer(buf, dtype=float).reshape(-1, k).T.copy()


def _time_axis(t0, dt, n):
    """The n sample times t0, t0 + dt, ... of a run, bit for bit the
    running sum t = t + dt that _rk4_step steps: np.cumsum adds in order,
    and overflows to inf as quietly as a float does. Neither driver
    records t per step; both rebuild it here."""
    t = np.full(n, dt, dtype=float)
    if n:
        t[0] = t0
    with np.errstate(over="ignore"):
        return np.cumsum(t, out=t)


# ----------------------------------------------------------------------
# Trajectory records
# ----------------------------------------------------------------------

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
        write_float_csv(path, TRAJECTORY_COLUMNS, (
            self.t, self.x, self.y, self.theta, self.r, self.eta, self.psi,
            self.m, self.s, self.gain, self.omega, self.q))

    def write_sidecar(self, path):
        write_json(path, {
            "columns": list(TRAJECTORY_COLUMNS),
            "dt": self.dt,
            "integrator": "rk4",
            "n_samples": len(self.t),
            "termination": self.termination,
            "params": self.params,
        })


# ----------------------------------------------------------------------
# Full simulation drivers
# ----------------------------------------------------------------------

def simulate(init, field, law, config=None, dt=1e-3, t_end=100.0,
             r_stop=0.05, r_escape=None, v=1.0, sensing=AUTO):
    """Integrate the closed loop from an AgentState until a stop condition.

    Stops at t_end, on source proximity (r < r_stop), escape (r > r_escape,
    default 10x the largest of r0, rho, ell), leaving a gridded field's
    domain, or a sensing failure (a magnitude below the floor, or any
    ValueError raised while sensing: the origin singularity, a phase
    gradient with no direction (zero, infinite or NaN), the gain's on a
    NaN magnitude, or the field's own). Returns a Trajectory sampled
    every dt.

    Q is recorded per sample when the field is radial and the law has a
    finite turning radius; it is NaN otherwise. Non-finite or out-of-range
    start poses and settings raise ValueError before the first step.
    """
    if config is None:
        config = SensingConfig()
    start, dt, t_end, r_stop, r_escape, v = _check_run(
        init, dt, t_end, r_stop, r_escape, v)
    x, y, th, t = start
    mode = _resolve_sensing(field, sensing)
    sense = _sensor(field, config, mode)
    gain = law.closure()

    def deriv(t, x, y, th):
        # the heading's trig, once per stage, serves kinematics and steering
        sth, cth = math.sin(th), math.cos(th)
        m, gx, gy = sense(x, y, t)
        s = lateral_signal(gx, gy, sth, cth)
        g = gain(m)
        return v * cth, v * sth, g * s, (m, s, g)

    rho = law.rho(v)
    ell = getattr(field, "ell", None)
    if r_escape is None:
        # 10x the largest of r0 and, where the run has them, rho and ell
        r_escape = 10.0 * max(math.hypot(x, y),
                              rho if math.isfinite(rho) else 0.0, ell or 0.0)

    # the pose steps only while the box x +/- pad, y +/- pad lies in the
    # field's bounds, edges included; a whole-plane field skips the test
    bounds = field.bounds
    pad = 0.0
    if mode == WINDOWED:
        # one-shot quasi-steady check at the initial point
        try:
            grad_norm = math.hypot(*sense(x, y, t)[1:])
        except _SENSING_FAULTS:
            grad_norm = math.nan
        check_quasi_steady(v, field.period, grad_norm)
        # windowed sensing needs the whole stencil (plus one step of
        # travel) inside the domain, not just the vehicle position
        pad = config.stencil_h + v * dt
    if bounds is not None:
        bx0, by0, bx1, by1 = bounds

    # kept per step: x, y, unwrapped theta, r, m, s, G; t and the rest
    # are built after the loop
    buf = array("d")
    t_last = t_end - 0.5 * dt
    termination = None
    while termination is None:
        flat = []
        for _ in range(_CHUNK_STEPS):
            r = math.hypot(x, y)
            if r == 0.0:
                termination = TERM_ORIGIN
                break
            if r < r_stop:
                termination = TERM_REACHED
                break
            if r > r_escape:
                termination = TERM_ESCAPED
                break
            if bounds is not None and not (
                    bx0 <= x - pad and x + pad <= bx1
                    and by0 <= y - pad and y + pad <= by1):
                termination = TERM_LEFT_DOMAIN
                break
            if t >= t_last:
                termination = TERM_T_END
                break
            try:
                x1, y1, th1, t1, (m, s, g) = _rk4_step(deriv, dt, t, x, y, th)
            except _SENSING_FAULTS:
                termination = TERM_SENSING
                break
            flat += (x, y, th, r, m, s, g)
            x, y, th, t = x1, y1, th1, t1
        buf.fromlist(flat)

    # the last row senses and steers as a stage does there
    try:
        m, s, g = deriv(t, x, y, th)[3]
    except _SENSING_FAULTS:
        m = s = g = math.nan
    buf.fromlist([x, y, th, math.hypot(x, y), m, s, g])

    x, y, th, r, m, s, g = _columns(buf, 7)
    del buf  # freed before t, eta, psi and Q are built
    t = _time_axis(start[3], dt, len(x))
    # math.atan2 and math.sin per element: numpy's round differently
    eta = np.fromiter(map(math.atan2, memoryview(y), memoryview(x)),
                      dtype=float, count=len(y))
    psi = np.where(r > 0, wrap_angle(math.pi - (th - eta)), math.nan)
    q = np.full(len(t), math.nan)
    if isinstance(field, RadialField) and math.isfinite(rho):
        # a run that ends at the origin has no Q on its last row
        defined = r > 0
        q[defined] = analysis.conserved_quantity(
            law.kind, r[defined], psi[defined], rho, ell)
    params = {
        "field": field.describe(),
        "law": {**asdict(law), "kind": law.kind.value},
        "sensing": {**asdict(config), "mode": mode},
        "v": v,
        "dt": dt,
        "t_end": t_end,
        "r_stop": r_stop,
        "r_escape": r_escape,
        "init": list(start[:3]),
        "rho": rho,
    }
    return Trajectory(
        t=t, x=x, y=y, theta=wrap_angle(th), r=r, eta=eta, psi=psi, m=m,
        s=s, gain=g, omega=g * s, q=q, dt=dt, termination=termination,
        params=params,
    )


# ----------------------------------------------------------------------
# Reduced polar simulation
# ----------------------------------------------------------------------

@dataclass
class PolarTrajectory:
    """Sampled run of the reduced (r, eta, psi) dynamics.

    Only the state is held: t is rebuilt from dt on each read, so a loop
    over samples should bind it once.
    """

    r: np.ndarray
    eta: np.ndarray
    psi: np.ndarray
    dt: float
    termination: str

    @property
    def t(self):
        """The sample times 0, dt, 2 dt, ..., as the run stepped them."""
        return _time_axis(0.0, self.dt, len(self.r))


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

    delta_field(r, eta) supplies the alignment error and m_field(r, eta)
    the sensed magnitude. delta_field None means zero error: the bracket
    is then sin(psi) + 0.0 * cos(psi), the same bits, signed zeros
    included, as cos(0) sin(psi) + sin(0) cos(psi). Terminates at t_end,
    when r falls to r_floor (the coordinates degenerate), when r exceeds
    r_escape (default: no bound), when r or psi turns NaN (such as under
    a NaN delta_field; the NaN state is the last row), or on a sensing
    failure: any other ValueError raised in a stage, such as the gain's
    on a negative or NaN magnitude. Non-finite or out-of-range starts and
    settings raise ValueError before the first step, as in simulate.
    """
    (r, eta, psi), dt, t_end, r_floor, r_escape, v = _check_run(
        init, dt, t_end, r_floor, r_escape, v, stop_name="r_floor")
    if r_escape is None:
        r_escape = math.inf
    gain = law.closure()

    def deriv(t, r, eta, psi):
        if r <= 0.0:
            raise OriginSingularityError("a stage crossed the source")
        g = gain(m_field(r, eta))
        sp, cp = math.sin(psi), math.cos(psi)
        if delta_field is None:
            steer = g * (sp + 0.0 * cp)
        else:
            d = delta_field(r, eta)
            steer = g * (math.cos(d) * sp + math.sin(d) * cp)
        turn = v * sp / r
        return -v * cp, turn, turn - steer, None

    # kept per step: r, eta, psi; t is rebuilt from dt on each read
    t = 0.0
    t_last = t_end - 0.5 * dt
    buf = array("d", (r, eta, psi))
    termination = None
    while termination is None:
        flat = []
        for _ in range(_CHUNK_STEPS):
            # a NaN r or psi fails this test too; NaN eta comes only with
            # NaN r
            if not r > r_floor or psi != psi:
                termination = TERM_ORIGIN if r <= r_floor else TERM_NON_FINITE
                break
            if r >= r_escape:
                termination = TERM_ESCAPED
                break
            if t >= t_last:
                termination = TERM_T_END
                break
            try:
                r, eta, psi, t, _ = _rk4_step(deriv, dt, t, r, eta, psi)
            except OriginSingularityError:
                termination = TERM_ORIGIN
                break
            except ValueError:
                termination = TERM_SENSING
                break
            flat += (r, eta, psi)
        buf.fromlist(flat)

    r, eta, psi = _columns(buf, 3)
    return PolarTrajectory(r=r, eta=eta, psi=psi, dt=dt,
                           termination=termination)
