"""Closed-form analysis of the zero-alignment-error seeking loop.

With the steering gain written as a function of radius alone, the planar
closed loop reduces to

    dr/dt   = -V cos(psi)
    dpsi/dt = (V / r - G(r)) sin(psi)

and carries an integral of motion Q = (r / rho) sin(psi) exp(-int G/V dr),
rho = V / G0. Everything here (fixed points, eigenvalues, radial bounds,
the saddle-node scan, convergence classification, phase portraits) is a
consequence of that structure. A hand-rolled two-branch Lambert W supplies
the closed-form radii. The gain law itself (GainKind, GainLaw and its one
G(m) closure) lives here too, and so does the reduced (r, eta, psi) flow
with an alignment error, _reduced_rates: agent.simulate_polar integrates
it and jacobian_eigenvalues differentiates it, so the eigenvalue check
vouches for the rates the polar runs step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .fields import (OriginSingularityError, _above, _at_least, _require,
                     _whole, _write_grid_csv, write_json)

# ----------------------------------------------------------------------
# Gain-law kinds and classification labels
# ----------------------------------------------------------------------

class GainKind(str, Enum):
    """The three gain laws. Every entry taking a kind coerces it with
    GainKind(kind), so the plain strings work too."""

    STATIC = "static"
    PROPORTIONAL = "proportional"
    INVERSE = "inverse"


def _negative_magnitude(m):
    # the error path of every GainLaw.closure() function, for a negative
    # or NaN m
    raise ValueError(f"magnitude must be nonnegative, got {m}")


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
        # Python floats: a float32 g0 would make every G(m) a float32
        object.__setattr__(self, "g0", float(
            _require("g0", self.g0, "finite", "nonnegative")))
        object.__setattr__(self, "m_floor", float(
            _require("m_floor", self.m_floor, "finite", "positive")))

    def rho(self, v=1.0):
        """Turning radius scale V / g0."""
        return v / self.g0 if self.g0 > 0 else math.inf

    def closure(self):
        """G(m) as a plain function, the kind resolved once: the drivers
        and the analysis vector field call it per stage.

        The function raises ValueError for a negative or NaN magnitude,
        which both drivers end as a sensing failure. Each kind gets its own
        function, so one G(m) is one call.
        """
        g0, m_floor = self.g0, self.m_floor
        if self.kind is GainKind.STATIC:
            def gain(m):
                if not m >= 0.0:
                    _negative_magnitude(m)
                return g0
        elif self.kind is GainKind.PROPORTIONAL:
            def gain(m):
                if not m >= 0.0:
                    _negative_magnitude(m)
                return g0 * m
        else:
            def gain(m):
                if not m >= 0.0:
                    _negative_magnitude(m)
                return g0 / m_floor if m < m_floor else g0 / m
        return gain


CENTER = "center"
SADDLE = "saddle"
DEGENERATE = "degenerate"

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
CONDITIONAL = "conditional"

UNCONDITIONAL = "unconditional"
CONDITIONAL_BOUNDED = "conditional_bounded"
CONDITIONAL_UNBOUNDED = "conditional_unbounded"
DIVERGENT = "divergent"
INDETERMINATE = "indeterminate"

_INV_E = math.exp(-1.0)
# half-width of the band around |Q| = Q_cr, and around ell = rho e scaled
# by min(1, rho e), where fixed points are "degenerate" and orbits
# "indeterminate"
_BOUNDARY_TOL = 1e-9
# iteration bound of the Lambert W solvers
_LAMBERT_MAX_ITER = 50


class LambertDomainError(ValueError):
    """Argument outside the requested Lambert branch's real domain."""


class NoSaddleError(ValueError):
    """The parameter regime has no saddle point (and so no critical level)."""


class NoTransitionError(RuntimeError):
    """A parameter scan found no change in fixed-point count."""


class QOutOfRangeError(ValueError):
    """No orbit exists at this value of the conserved quantity."""


def _params(kind, rho, ell, v=None):
    """The one parameter gate every public entry passes first; an entry
    with a speed passes v, whose v / rho (g0) must be finite too."""
    kind = GainKind(kind)
    _require("rho", rho, "positive")
    if v is not None:
        _require("speed", v, "positive")
    if kind is not GainKind.STATIC and (ell is None or not ell > 0):
        raise ValueError(
            f"{kind.value} gain needs a positive decay length ell")
    for name, value in (("rho", rho), ("ell", ell), ("v", v),
                        ("v / rho", None if v is None else v / rho)):
        if value is not None:
            _require(name, value, "finite")
    return kind


# ----------------------------------------------------------------------
# Lambert W, both real branches
# ----------------------------------------------------------------------

class LambertBranch(Enum):
    W0 = "W0"
    WM1 = "Wm1"


def _branch_point_series(b, z):
    """W about the branch point z = -1/e, to third order in
    p = sqrt(2 (e z + 1)), with p negated on the Wm1 branch."""
    p = math.sqrt(2.0 * (math.e * z + 1.0))
    if b is LambertBranch.WM1:
        p = -p
    return -1.0 + p - p * p / 3.0 + (11.0 / 72.0) * p ** 3


def _lambert_guess(b, z):
    if z < -0.25:
        return _branch_point_series(b, z)
    if b is LambertBranch.WM1:
        # asymptotic form near 0-
        l1 = math.log(-z)
        l2 = math.log(-l1)
        return l1 - l2 + l2 / l1
    if z < 0.0:
        return z * (1.0 - z + 1.5 * z * z)
    return math.log1p(z)


def _lambert_w_log(b, z):
    """W where w e^w leaves the normal float range (W0 above 1e300, Wm1
    above -1e-300): Newton on w + log|w| = log|z| from the asymptotic guess.
    """
    lz = math.log(abs(z))
    w = lz - math.log(abs(lz))
    for _ in range(_LAMBERT_MAX_ITER):
        step = (w + math.log(abs(w)) - lz) * w / (w + 1.0)
        w -= step
        if abs(step) <= 4.5e-16 * abs(w):
            return w
    raise RuntimeError(f"Lambert W failed to converge for branch {b}, z = {z}")


def lambert_w(branch, z):
    """Real Lambert W on the principal (W0) or lower (Wm1) branch.

    Solves w * exp(w) = z by Halley iteration from a branch-specific initial
    guess, stopping when |w e^w - z| <= 4e-16 |z| (the float resolution of
    z) or when the step falls to rounding level. Within 1e-9 of the branch
    point the series is used instead. Where w e^w leaves the normal float
    range (W0 above z = 1e300, Wm1 above -1e-300), Newton on
    w + log|w| = log|z| takes over. W0 is defined on [-1/e, inf), Wm1 on
    [-1/e, 0). Arguments within 1e-12 below -1/e are snapped to the branch
    point. A NaN or infinite z raises LambertDomainError.

    branch is a LambertBranch, "W0", "Wm1", 0 or -1; returns a float.
    """
    if isinstance(branch, LambertBranch):
        b = branch
    elif branch in ("W0", 0):
        b = LambertBranch.W0
    elif branch in ("Wm1", -1):
        b = LambertBranch.WM1
    else:
        raise ValueError(f"unknown Lambert branch {branch!r}")

    z = float(z)
    if not math.isfinite(z):
        raise LambertDomainError(f"z must be finite, got {z}")
    if z < -_INV_E:
        if z > -_INV_E - 1e-12:
            z = -_INV_E
        else:
            raise LambertDomainError(f"z = {z} below the branch point -1/e")
    if b is LambertBranch.WM1 and z >= 0.0:
        raise LambertDomainError(f"Wm1 needs z in [-1/e, 0), got {z}")
    if z == -_INV_E:
        return -1.0
    if z == 0.0:
        return 0.0

    # The iteration loses its footing right at the branch point where
    # W' blows up; the series is already past machine accuracy there.
    if abs(z + _INV_E) < 1e-9:
        return _branch_point_series(b, z)

    if z > 1e300 or (b is LambertBranch.WM1 and z > -1e-300):
        return _lambert_w_log(b, z)

    floor = 4e-16 * abs(z)
    w = _lambert_guess(b, z)
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= floor:
            return w
        w1 = w + 1.0
        denom = ew * w1 - (w + 2.0) * f / (2.0 * w1)
        step = f / denom
        w -= step
        # steps at rounding level mean w is as good as float64 allows; a
        # step of up to two ulps ends the swing between neighbouring floats
        if abs(step) <= max(1e-16 * (1.0 + abs(w)), 4.5e-16 * abs(w)):
            return w
    raise RuntimeError(f"Lambert W failed to converge for branch {b}, z = {z}")


# ----------------------------------------------------------------------
# Conserved quantity and the radial envelope
# ----------------------------------------------------------------------

def _gain_integral_factor(kind, r, rho, ell=None):
    """exp(-int_0^r G(u)/V du), the integrating factor of the closed loop.

    static:        exp(-r / rho)
    proportional:  exp((ell / rho) exp(-r / ell))
    inverse:       exp(-(ell / rho) exp(r / ell))

    Works elementwise on arrays.
    """
    if kind is GainKind.STATIC:
        return np.exp(-np.asarray(r) / rho)
    if kind is GainKind.PROPORTIONAL:
        return np.exp((ell / rho) * np.exp(-np.asarray(r) / ell))
    return np.exp(-(ell / rho) * np.exp(np.asarray(r) / ell))


def conserved_quantity(kind, r, psi, rho, ell=None):
    """Integral of motion Q = (r / rho) sin(psi) exp(-int G/V dr).

    Constant along closed-loop trajectories for every gain law. r and psi
    are floats (Q is a float) or equal-shape arrays (Q is an array); sin is
    math.sin per element, because np.sin may round differently.
    """
    kind = _params(kind, rho, ell)
    r = np.asarray(_require("radius", r, "finite", "positive"), dtype=float)
    sin_psi = np.array(list(map(math.sin, np.ravel(
        _require("psi", psi, "finite")).tolist())))
    sin_psi = sin_psi.reshape(r.shape)
    q = (r / rho) * sin_psi * _gain_integral_factor(kind, r, rho, ell)
    return float(q) if q.ndim == 0 else q


def radial_envelope(kind, r, rho, ell=None):
    """h(r) = (r / rho) exp(-int G/V dr): the largest |Q| reachable at radius r.

    Orbits with conserved level Q satisfy |Q| <= h(r) wherever they go, with
    equality exactly at radial turning points.
    """
    kind = _params(kind, rho, ell)
    r = np.asarray(_require("r", r, "finite", "nonnegative"), dtype=float)
    return (r / rho) * _gain_integral_factor(kind, r, rho, ell)


# ----------------------------------------------------------------------
# Closed-loop vector field, fixed points, eigenvalues
# ----------------------------------------------------------------------

def radial_m_field(ell):
    """Magnitude m(r, eta) of the radial field, for the reduced flow. An
    ell that is not positive raises ValueError; ell = inf gives m = 1."""
    _require("ell", ell, "positive")

    def m_field(r, eta):
        return math.exp(-r / ell)
    return m_field


def _reduced_rates(law, m_field, delta_field=None, v=1.0):
    """rates(t, r, eta, psi) -> (dr/dt, deta/dt, dpsi/dt, None): the one
    reduced flow, integrated by simulate_polar and differentiated by
    jacobian_eigenvalues. A stage at r <= 0 raises OriginSingularityError."""
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
    return deriv


@dataclass
class FixedPoint:
    """Equilibrium of the reduced (r, psi) flow.

    kind is "center", "saddle" or "degenerate"; eigenvalues holds the
    linearization pair from closed_form_eigenvalues.
    """

    r_star: float
    psi_star: float
    kind: str
    eigenvalues: np.ndarray


def jacobian_eigenvalues(kind, fixed_point, rho, ell=None, v=1.0):
    """Eigenvalues of the central-difference Jacobian of the reduced flow
    at a fixed point: the finite-difference cross-check of
    closed_form_eigenvalues, which fixed_points reports.

    The flow is _reduced_rates at zero alignment error on the radial
    field, m = exp(-r / ell) (1 when ell is None), with the GainLaw of
    g0 = V / rho; its floor is the smallest normal float, so it never
    binds where exp(r / ell) is finite. The steps are 1e-5 r* in r and
    1e-5 in psi; the pair is returned sorted by (real, imag).
    """
    kind = _params(kind, rho, ell, v)
    r = _require("r_star", fixed_point.r_star, "finite", "positive")
    psi = _require("psi_star", fixed_point.psi_star, "finite")
    rates = _reduced_rates(
        GainLaw(kind, v / rho, m_floor=sys.float_info.min),
        radial_m_field(math.inf if ell is None else ell), v=v)

    h_r, h_psi = _require("1e-5 r_star", 1e-5 * r, "positive"), 1e-5
    # (dr/dt, dpsi/dt) at r +/- h_r and at psi +/- h_psi
    fr_p, fr_m = (rates(0.0, r + h, 0.0, psi)[::2] for h in (h_r, -h_r))
    fp_p, fp_m = (rates(0.0, r, 0.0, psi + h)[::2] for h in (h_psi, -h_psi))
    jac = np.array([
        [(fr_p[0] - fr_m[0]) / (2 * h_r), (fp_p[0] - fp_m[0]) / (2 * h_psi)],
        [(fr_p[1] - fr_m[1]) / (2 * h_r), (fp_p[1] - fp_m[1]) / (2 * h_psi)],
    ])
    # near r = 0 the rates overflow, and their differences with them
    _require(f"the Jacobian at r_star = {r!r}", jac, "finite", got=False)
    values = np.linalg.eigvals(jac).astype(complex)
    return values[np.lexsort((values.imag, values.real))]


def closed_form_eigenvalues(kind, r_star, rho, ell=None, v=1.0):
    """Linearization eigenvalues -lambda, lambda at a fixed point.

    At sin psi = +/-1 the Jacobian of the reduced flow is antidiagonal, so
    lambda^2 = -V^2/r^2 - V G'(r) is exact:

    Static:        lambda^2 = -(V / rho)^2
    Proportional:  lambda^2 = V^2 (r - ell) / (ell r^2)
    Inverse:       lambda^2 = -V^2 (ell + r) / (ell r^2)

    |lambda| is computed as V / rho, (V / r) sqrt(|r - ell| / ell) and
    (V / r) sqrt((ell + r) / ell), so it is finite wherever lambda is.
    The pair comes in (real, imag) order: a center's real parts and a
    saddle's imaginary parts are +0.0, and the degenerate pair is 0.
    r_star must lie in (0, inf) for every law: static gain does not read
    it, but a static fixed point has one too.
    """
    kind = _params(kind, rho, ell, v)
    _require("r_star", r_star, "finite", "positive")
    if kind is GainKind.STATIC:
        s, center = v / rho, True
    elif kind is GainKind.PROPORTIONAL:
        s = (v / r_star) * math.sqrt(abs(r_star - ell) / ell)
        center = r_star < ell
    else:
        s, center = (v / r_star) * math.sqrt((ell + r_star) / ell), True
    # 0.0 - s rather than -s, so that s = 0 gives +0.0
    if center:
        return np.array([complex(0.0, 0.0 - s), complex(0.0, s)])
    return np.array([complex(0.0 - s, 0.0), complex(s, 0.0)])


def _orbits(kind, rho, ell):
    """(regime, centre, saddle, q_cr) of a gain law, each computed here only
    and None where the law lacks it; ell is the degenerate pair's centre. A
    rho / ell out of float range raises ValueError."""
    regime = _regime(kind, rho, ell)
    if kind is GainKind.STATIC:
        return regime, rho, None, None
    if regime == INDETERMINATE:
        return regime, ell, None, None
    if regime == DIVERGENT:
        return regime, None, None, None
    if not 0.0 < rho / ell < math.inf:
        raise ValueError(
            f"rho = {rho} and ell = {ell} give rho / ell = {rho / ell}, "
            "out of float range for a fixed-point radius")
    if kind is GainKind.INVERSE:
        return regime, ell * lambert_w(LambertBranch.W0, rho / ell), None, None
    z = -rho / ell
    w = lambert_w(LambertBranch.WM1, z)
    return (regime, -ell * lambert_w(LambertBranch.W0, z), -ell * w,
            (ell / rho) * abs(w) * math.exp(-1.0 / w))


def fixed_points(kind, rho, ell=None, v=1.0):
    """All equilibria of the reduced flow, sorted by radius then psi.

    Equilibria sit at sin-psi = +/-1 and radii solving V/r = G(r):

    static:        r* = rho (centers)
    proportional:  r* = -ell Wm1(-rho/ell) (saddles) and
                   r** = -ell W0(-rho/ell) (centers), for ell > rho e;
                   none for ell < rho e; one degenerate pair within
                   1e-9 min(1, rho e) of ell = rho e
    inverse:       r* = ell W0(rho/ell) (centers)

    A rho / ell or a radius out of float range raises ValueError.
    """
    kind = _params(kind, rho, ell, v)
    regime, centre, saddle, _ = _orbits(kind, rho, ell)
    centre_kind = DEGENERATE if regime == INDETERMINATE else CENTER
    points = []
    for r_star, label in ((centre, centre_kind), (saddle, SADDLE)):
        if r_star is None:
            continue
        if not 0.0 < r_star < math.inf:
            raise ValueError(
                f"rho = {rho} and ell = {ell} give a fixed-point radius of "
                f"{r_star}, not a finite positive one")
        eigs = closed_form_eigenvalues(kind, r_star, rho, ell, v)
        eigs.flags.writeable = False  # shared by both headings
        points += [FixedPoint(r_star=r_star, psi_star=psi_star, kind=label,
                              eigenvalues=eigs)
                   for psi_star in (math.pi / 2, -math.pi / 2)]
    return points


# ----------------------------------------------------------------------
# Critical level, radial bounds, bifurcation scan
# ----------------------------------------------------------------------

def critical_q(rho, ell):
    """Envelope value at the proportional-gain saddle.

    |Q_cr| = (ell / rho) |Wm1(-rho/ell)| exp(-1 / Wm1(-rho/ell)); orbits with
    |Q| above this level (inside the saddle radius) are trapped. Requires the
    saddle to exist: ell above rho e and outside the 1e-9 min(1, rho e)
    band around it, where fixed_points finds the degenerate pair.
    """
    regime, _, _, q_cr = _orbits(
        _params(GainKind.PROPORTIONAL, rho, ell), rho, ell)
    if regime != CONDITIONAL:
        raise NoSaddleError(
            f"no saddle for ell = {ell}: not above rho e = {rho * math.e:.6g}"
            " by more than 1e-9 min(1, rho e)"
        )
    return q_cr


def _bisect(fn, lo, hi, iters=200):
    """Plain bisection; assumes fn(lo) and fn(hi) bracket a sign change."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-14 * abs(hi):
            break
    return 0.5 * (lo + hi)


def _turning_radius(envelope, aq, r_peak, step):
    """The radius on one side of the envelope's peak r_peak where it falls
    to aq: step out from r_peak by the factor step (0.5 inward, 2.0
    outward) until the envelope is no longer above aq, then bisect over
    the last step, whose near end is still above aq. With no step taken
    the radius is r_peak."""
    r = last = r_peak
    while envelope(r) > aq:
        last, r = r, r * step
    bracket = (r, last) if step < 1.0 else (last, r)
    return _bisect(lambda x: envelope(x) - aq, *bracket)


@dataclass
class RadialBounds:
    """Turning-point radii of the orbit at conserved level q.

    status is "bounded" (r stays in [r_min, r_max] unconditionally),
    "unbounded" (r grows without bound), or "conditional" (bounded within
    [r_min, r_max] only for orbits starting inside the trapped region).
    """

    status: str
    r_min: float | None = None
    r_max: float | None = None


def radial_bounds(kind, q, rho, ell=None):
    """Solve h(r) = |q| for the turning radii of the level-q orbit.

    Static gain inverts the envelope through both Lambert branches:
    r/rho in [-W0(-|q|), -Wm1(-|q|)], demanding |q| <= 1/e. Inverse gain
    brackets the two roots around its single center. Proportional gain
    is unbounded below the critical level and conditionally bounded above
    it (up to the envelope's local maximum at the center radius).
    """
    kind = _params(kind, rho, ell)
    aq = abs(float(_require("q", q, ("a number", lambda q: q == q))))

    def envelope(r):
        # radial_envelope's arithmetic, without its parameter gate per step
        return float((r / rho) * _gain_integral_factor(kind, r, rho, ell))

    if aq == 0.0 and kind is not GainKind.PROPORTIONAL:
        return RadialBounds(BOUNDED, 0.0, math.inf)
    regime, centre, saddle, q_cr = _orbits(kind, rho, ell)
    if kind is GainKind.STATIC:
        if aq > _INV_E + 1e-12:
            raise QOutOfRangeError(
                f"static envelope peaks at 1/e; no orbit with |Q| = {aq:.6g}"
            )
        aq = min(aq, _INV_E)
        return RadialBounds(BOUNDED, -rho * lambert_w(LambertBranch.W0, -aq),
                            -rho * lambert_w(LambertBranch.WM1, -aq))

    if kind is GainKind.INVERSE:
        q_max = envelope(centre)
        if aq > q_max * (1.0 + 1e-12):
            raise QOutOfRangeError(
                f"inverse envelope peaks at {q_max:.6g}; no orbit with |Q| = {aq:.6g}"
            )
        if aq >= q_max:
            return RadialBounds(BOUNDED, centre, centre)
        return RadialBounds(BOUNDED,
                            _turning_radius(envelope, aq, centre, 0.5),
                            _turning_radius(envelope, aq, centre, 2.0))

    if regime != CONDITIONAL or aq <= q_cr:
        return RadialBounds(UNBOUNDED)
    q_max = envelope(centre)
    if aq > q_max * (1.0 + 1e-12):
        return RadialBounds(UNBOUNDED)
    aq = min(aq, q_max)
    r_min = _turning_radius(envelope, aq, centre, 0.5)
    if aq >= q_max:
        r_max = centre
    else:
        r_max = _bisect(lambda r: envelope(r) - aq, centre, saddle)
    return RadialBounds(CONDITIONAL, r_min, r_max)


def bifurcation_scan(rho, ell_min, ell_max):
    """The ell at which proportional-gain fixed points appear, rho e.

    The convergence ladder decides the fixed-point count in closed form,
    and it is monotone in ell, so the count changes over [ell_min, ell_max]
    exactly when the ladder reads "divergent" at ell_min and not at
    ell_max. Returns rho * e then; raises NoTransitionError otherwise.
    """
    kind = _params(GainKind.PROPORTIONAL, rho, ell_min)
    _require("ell_max", ell_max, "finite", _above("ell_min", ell_min))
    if not (_regime(kind, rho, ell_min) == DIVERGENT
            and _regime(kind, rho, ell_max) != DIVERGENT):
        raise NoTransitionError(
            f"fixed-point count is constant over [{ell_min}, {ell_max}]"
        )
    return rho * math.e


# ----------------------------------------------------------------------
# Convergence classification
# ----------------------------------------------------------------------

def _regime(kind, rho, ell):
    """The convergence class a gain law gives every orbit alike, and the
    one place ell is compared with rho e: _orbits, classify_convergence
    and bifurcation_scan read it.

    "unconditional" for static and inverse gain; for proportional gain
    "indeterminate" within 1e-9 min(1, rho e) of ell = rho e (where
    fixed_points finds the degenerate pair), "divergent" below it and
    "conditional" above it, where the start decides. The band is absolute
    at rho e >= 1 and relative below, so it scales with ell there.
    """
    if kind is not GainKind.PROPORTIONAL:
        return UNCONDITIONAL
    ell_c = rho * math.e
    if abs(ell - ell_c) < _BOUNDARY_TOL * min(1.0, ell_c):
        return INDETERMINATE
    return DIVERGENT if ell < ell_c else CONDITIONAL


def classify_convergence(kind, rho, ell, init):
    """Classify the long-run radial behaviour of the orbit through `init`.

    init needs only .r and .psi attributes. Static and inverse gain trap
    every orbit ("unconditional"). Proportional gain below ell = rho e traps
    none ("divergent"); above it, orbits are "conditional_bounded" when
    |Q| exceeds the critical level and the start radius lies inside the
    saddle, "conditional_unbounded" otherwise. Inits within 1e-9 of a
    separating level, and ell within 1e-9 min(1, rho e) of rho e, come
    back "indeterminate".
    """
    kind = _params(kind, rho, ell)
    _require("init.r", init.r, "finite", "positive")
    _require("init.psi", init.psi, "finite")
    regime = _regime(kind, rho, ell)
    if regime != CONDITIONAL:
        return regime
    _, _, saddle, q_cr = _orbits(kind, rho, ell)
    q = conserved_quantity(kind, init.r, init.psi, rho, ell)
    if abs(abs(q) - q_cr) < _BOUNDARY_TOL:
        return INDETERMINATE
    if abs(q) > q_cr and init.r < saddle:
        return CONDITIONAL_BOUNDED
    return CONDITIONAL_UNBOUNDED


# ----------------------------------------------------------------------
# Phase portraits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PortraitGrid:
    """Frozen Cartesian grid in (u, w) = (r cos psi, r sin psi) for Q maps."""

    u_min: float = -12.0
    u_max: float = 12.0
    w_min: float = -12.0
    w_max: float = 12.0
    nu: int = 121
    nw: int = 121

    def __post_init__(self):
        for axis in ("u", "w"):
            low, high, count = f"{axis}_min", f"{axis}_max", f"n{axis}"
            _require(high, getattr(self, high), "finite",
                     _above(low, _require(low, getattr(self, low), "finite")))
            object.__setattr__(self, count, _require(
                count, _whole(count, getattr(self, count)), _at_least(2)))


@dataclass
class PortraitReport:
    """Summary of the reduced flow for one gain law and parameter set."""

    kind: str
    rho: float
    ell: float | None
    v: float
    fixed_points: list
    q_critical: float | None
    separatrix_q: tuple | None
    classification: str
    relative_equilibria: str
    grid: PortraitGrid
    u_axis: np.ndarray
    w_axis: np.ndarray
    q_grid: np.ndarray

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "rho": self.rho,
            "ell": self.ell,
            "v": self.v,
            "fixed_points": [
                {
                    "r": fp.r_star,
                    "psi": fp.psi_star,
                    "kind": fp.kind,
                    "eigenvalues": [
                        [ev.real, ev.imag] for ev in fp.eigenvalues
                    ],
                }
                for fp in self.fixed_points
            ],
            "q_critical": self.q_critical,
            "separatrix_q": (
                list(self.separatrix_q) if self.separatrix_q is not None else None
            ),
            "classification": self.classification,
            "relative_equilibria": self.relative_equilibria,
            "grid": asdict(self.grid),
        }

    def write_json(self, path):
        write_json(path, self.to_json_dict())

    def write_grid_csv(self, path):
        """One row per grid node, u fastest: r_cos_psi,r_sin_psi,Q."""
        _write_grid_csv(path, ("r_cos_psi", "r_sin_psi", "Q"),
                        self.u_axis, self.w_axis, (self.q_grid,))


def portrait(kind, rho, ell=None, v=1.0, grid=PortraitGrid()):
    """Build a PortraitReport: fixed points, critical level, and a Q map.

    The Q map is evaluated on the (r cos psi, r sin psi) plane; plotting the
    contour of Q at the separatrix levels reproduces the trapped region's
    boundary. Every grid value is finite (the envelope factor decays in all
    regimes, and Q -> 0 at the origin).
    """
    kind = _params(kind, rho, ell, v)

    fps = fixed_points(kind, rho, ell, v)
    regime, _, _, q_critical = _orbits(kind, rho, ell)
    separatrix = None if q_critical is None else (-q_critical, q_critical)

    u_axis = np.linspace(grid.u_min, grid.u_max, grid.nu)
    w_axis = np.linspace(grid.w_min, grid.w_max, grid.nw)
    uu, ww = np.meshgrid(u_axis, w_axis)
    rr = np.hypot(uu, ww)
    q_grid = (ww / rho) * _gain_integral_factor(kind, rr, rho, ell)

    note = (
        "sin(psi) = 0 is a line of degenerate relative equilibria: "
        "psi = 0 heads straight down-gradient at dr/dt = -V"
    )
    return PortraitReport(
        kind=kind.value,
        rho=rho,
        ell=ell,
        v=v,
        fixed_points=fps,
        q_critical=q_critical,
        separatrix_q=separatrix,
        classification=regime,
        relative_equilibria=note,
        grid=grid,
        u_axis=u_axis,
        w_axis=w_axis,
        q_grid=q_grid,
    )
