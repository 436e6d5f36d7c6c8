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
# GainKind, GainLaw and radial_m_field live in analysis, the lower module;
# agent re-exports them
from .analysis import GainKind, GainLaw, radial_m_field  # noqa: F401
from .fields import (
    OriginSingularityError,
    RadialField,
    _advances,
    _require,
    wrap_angle,
    write_float_csv,
    write_json,
)
from .sensing import (
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

TRAJECTORY_COLUMNS = (
    "t", "x", "y", "theta", "r", "eta", "psi", "m", "s", "G", "Omega", "Q"
)


# ----------------------------------------------------------------------
# State and coordinate changes
# ----------------------------------------------------------------------

@dataclass
class AgentState:
    """Planar pose (x, y, theta) at time t, held as given (simulate checks
    a start). theta is kept unwrapped."""

    x: float
    y: float
    theta: float
    t: float = 0.0


@dataclass(frozen=True)
class PolarState:
    """Source-centred coordinates: radius r, bearing eta, approach angle psi.

    psi is the angle between the body axis and the inbound ray; psi = 0
    points straight at the source. It holds eta and psi as given.
    """

    r: float
    eta: float
    psi: float

    def __post_init__(self):
        _require("radius", self.r, "positive")


def to_polar(state):
    """Cartesian pose to source-centred PolarState; undefined at the source."""
    x, y, theta = (_require(f"state.{name}", getattr(state, name), "finite")
                   for name in ("x", "y", "theta"))
    eta = math.atan2(y, x)
    return PolarState(r=math.hypot(x, y), eta=eta,
                      psi=wrap_angle(math.pi - (theta - eta)))


def from_polar(polar, t=0.0):
    """Inverse of to_polar: theta = pi + eta - psi."""
    r, eta, psi = (_require(f"polar.{name}", value, "finite")
                   for name, value in vars(polar).items())
    return AgentState(x=r * math.cos(eta), y=r * math.sin(eta),
                      theta=wrap_angle(math.pi + eta - psi),
                      t=_require("t", t, "finite"))


# ----------------------------------------------------------------------
# Closed-loop stepping
# ----------------------------------------------------------------------

def _check_run(start, dt, t_end, r_stop, r_escape, v, stop_name="r_stop"):
    """Entry checks of simulate and simulate_polar, whose start is an
    AgentState or a PolarState (time 0). Returns the start and the settings
    as Python floats: a numpy float32 would carry its precision into every
    RK4 stage."""
    start = {name: float(_require(f"start.{name}", value, "finite"))
             for name, value in vars(start).items()}
    dt = float(_require("dt", dt, "finite", "positive"))
    t_end = float(_require("t_end", t_end, "finite"))
    _require("dt", dt, _advances(start.get("t", 0.0), t_end))
    _require(stop_name, r_stop, "finite", "nonnegative")
    if r_escape is not None:
        r_escape = float(_require("r_escape", r_escape, "positive"))
    return (tuple(start.values()), dt, t_end, float(r_stop), r_escape,
            float(_require("v", v, "finite", "positive")))


def _resolve_sensing(field, mode):
    if mode not in SENSING_MODES:
        raise ValueError(f"unknown sensing mode {mode!r}, expected {SENSING_MODES}")
    analytic = hasattr(field, "analytic_mode")
    if mode == AUTO:
        return ANALYTIC if analytic else WINDOWED
    if mode == ANALYTIC and not analytic:
        raise ValueError(f"{type(field).__name__} has no analytic spectra")
    return mode


def _check_simulate(init, field, config, sensing, dt, t_end, r_stop,
                    r_escape, v):
    """simulate's entry checks, which the CLI runs on each start: the
    sensing mode, _check_run's rules, then that a windowed start moves
    under each stencil probe. Returns _check_run's values and the mode."""
    mode = _resolve_sensing(field, sensing)
    checked = _check_run(init, dt, t_end, r_stop, r_escape, v)
    (x, y, *_), h = checked[0], config.stencil_h
    if mode == WINDOWED and not (
            x + h != x and x - h != x and y + h != y and y - h != y):
        raise ValueError(
            f"stencil_h = {h} is below the float resolution of the start "
            f"({x}, {y}): a stencil probe rounds onto it")
    return (*checked, mode)


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
    domain, or a sensing failure (any ValueError raised while sensing: a
    magnitude below the floor, the origin singularity, a phase gradient
    with no direction (zero, infinite or NaN), the gain's on a NaN
    magnitude, or the field's own). A step that starts from a pose with
    a non-finite coordinate, such as a heading that overflowed under a
    huge gain, ends non_finite_state instead. The last row senses as a
    stage does there, and reads NaN where it could not sense or a derived
    column has no value. Returns a Trajectory sampled every dt.

    Q is recorded per sample when the field is radial and the law has a
    finite turning radius; it is NaN otherwise. dt must reach
    ulp(max(|t0|, |t_end|)), so that every step advances t.
    """
    if config is None:
        config = SensingConfig()
    start, dt, t_end, r_stop, r_escape, v, mode = _check_simulate(
        init, field, config, sensing, dt, t_end, r_stop, r_escape, v)
    x, y, th, t = start
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
        except ValueError:
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
    record = buf.fromlist
    t_last = t_end - 0.5 * dt
    while True:
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
        except ValueError:
            # a step from a pose that the last step overflowed fails in
            # its trig or its sensing: the pose is the fault
            termination = (TERM_SENSING
                           if all(map(math.isfinite, (x, y, th)))
                           else TERM_NON_FINITE)
            break
        record([x, y, th, r, m, s, g])
        x, y, th, t = x1, y1, th1, t1

    # the last row senses and steers as a stage does there
    try:
        m, s, g = deriv(t, x, y, th)[3]
    except ValueError:
        m = s = g = math.nan
    record([x, y, th, math.hypot(x, y), m, s, g])

    x, y, th, r, m, s, g = _columns(buf, 7)
    del buf, record  # freed before t, eta, psi and Q are built
    t = _time_axis(start[3], dt, len(x))
    # math.atan2 and math.sin per element: numpy's round differently
    eta = np.fromiter(map(math.atan2, memoryview(y), memoryview(x)),
                      dtype=float, count=len(y))
    # a non-finite pose's angles, G s and Q, and a Q whose r / rho
    # overflows, read NaN, as quietly as a float does
    with np.errstate(over="ignore", invalid="ignore"):
        theta = wrap_angle(th)
        psi = np.where(r > 0, wrap_angle(math.pi - (th - eta)), math.nan)
        omega = g * s
        q = np.full(len(t), math.nan)
        if isinstance(field, RadialField) and math.isfinite(rho):
            # a row with no pose (at the origin, or overflowed) has no Q
            defined = np.isfinite(psi) & (r < math.inf)
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
        t=t, x=x, y=y, theta=theta, r=r, eta=eta, psi=psi, m=m,
        s=s, gain=g, omega=omega, q=q, dt=dt, termination=termination,
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


def simulate_polar(init, delta_field, law, m_field, dt, t_end, v=1.0,
                   r_floor=1e-9, r_escape=None):
    """Integrate the reduced dynamics in source-centred coordinates, the
    flow analysis._reduced_rates, which jacobian_eigenvalues differentiates.

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
    on a negative or NaN magnitude. Its inputs obey simulate's rules.
    """
    (r, eta, psi), dt, t_end, r_floor, r_escape, v = _check_run(
        init, dt, t_end, r_floor, r_escape, v, stop_name="r_floor")
    if r_escape is None:
        r_escape = math.inf
    deriv = analysis._reduced_rates(law, m_field, delta_field, v)

    # kept per step: r, eta, psi; t is rebuilt from dt on each read
    t = 0.0
    t_last = t_end - 0.5 * dt
    buf = array("d", (r, eta, psi))
    record = buf.fromlist
    while True:
        # a NaN r or psi fails this test too; NaN eta comes only with NaN r
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
        record([r, eta, psi])

    r, eta, psi = _columns(buf, 3)
    return PolarTrajectory(r=r, eta=eta, psi=psi, dt=dt,
                           termination=termination)
