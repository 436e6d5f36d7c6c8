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
G(m) closure) lives here too, so the agent's drivers and this module's
vector field share it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .fields import _write_grid_csv, write_json

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
        if not 0 <= self.g0 < math.inf:
            raise ValueError(
                f"g0 must be finite and nonnegative, got {self.g0}")
        if not 0 < self.m_floor < math.inf:
            raise ValueError(
                f"m_floor must be finite and positive, got {self.m_floor}")
        # Python floats: a float32 g0 would make every G(m) a float32
        object.__setattr__(self, "g0", float(self.g0))
        object.__setattr__(self, "m_floor", float(self.m_floor))

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


def _params(kind, rho, ell, v=1.0):
    """The one parameter gate every public entry passes first: coerces the
    kind and rejects rho <= 0, v <= 0 (NaN included) and, for proportional
    and inverse gain, a missing or nonpositive decay length ell.
    """
    kind = GainKind(kind)
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not v > 0:
        raise ValueError(f"speed must be positive, got {v}")
    if kind is not GainKind.STATIC and (ell is None or not ell > 0):
        raise ValueError(
            f"{kind.value} gain needs a positive decay length ell")
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
    r = np.asarray(r, dtype=float)
    if not (r > 0).all():
        raise ValueError(f"radius must be positive, got {r}")
    sin_psi = np.array(list(map(math.sin, np.ravel(psi).tolist())))
    sin_psi = sin_psi.reshape(r.shape)
    q = (r / rho) * sin_psi * _gain_integral_factor(kind, r, rho, ell)
    return float(q) if q.ndim == 0 else q


def radial_envelope(kind, r, rho, ell=None):
    """h(r) = (r / rho) exp(-int G/V dr): the largest |Q| reachable at radius r.

    Orbits with conserved level Q satisfy |Q| <= h(r) wherever they go, with
    equality exactly at radial turning points.
    """
    kind = _params(kind, rho, ell)
    return (np.asarray(r) / rho) * _gain_integral_factor(kind, r, rho, ell)


# ----------------------------------------------------------------------
# Closed-loop vector field, fixed points, eigenvalues
# ----------------------------------------------------------------------

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

    The flow runs on the radial field, m = exp(-r / ell), with the GainLaw
    of g0 = V / rho; its floor is the smallest normal float, so it never
    binds where exp(r / ell) is finite. The steps are 1e-5 r* in r and
    1e-5 in psi; the pair is returned sorted by (real, imag).
    """
    kind = _params(kind, rho, ell, v)
    gain = GainLaw(kind, v / rho, m_floor=sys.float_info.min).closure()

    def f(r, psi):
        m = 1.0 if ell is None else math.exp(-r / ell)
        return (-v * math.cos(psi), (v / r - gain(m)) * math.sin(psi))

    r, psi = fixed_point.r_star, fixed_point.psi_star
    h_r, h_psi = 1e-5 * r, 1e-5
    fr_p, fr_m = f(r + h_r, psi), f(r - h_r, psi)
    fp_p, fp_m = f(r, psi + h_psi), f(r, psi - h_psi)
    jac = np.array([
        [(fr_p[0] - fr_m[0]) / (2 * h_r), (fp_p[0] - fp_m[0]) / (2 * h_psi)],
        [(fr_p[1] - fr_m[1]) / (2 * h_r), (fp_p[1] - fp_m[1]) / (2 * h_psi)],
    ])
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
    """
    kind = _params(kind, rho, ell, v)
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


def _proportional_radii(rho, ell):
    """(center, saddle) radii of proportional gain, -ell W0(-rho/ell) and
    -ell Wm1(-rho/ell); defined for ell >= rho e."""
    z = -rho / ell
    return (-ell * lambert_w(LambertBranch.W0, z),
            -ell * lambert_w(LambertBranch.WM1, z))


def fixed_points(kind, rho, ell=None, v=1.0):
    """All equilibria of the reduced flow, sorted by radius then psi.

    Equilibria sit at sin-psi = +/-1 and radii solving V/r = G(r):

    static:        r* = rho (centers)
    proportional:  r* = -ell Wm1(-rho/ell) (saddles) and
                   r** = -ell W0(-rho/ell) (centers), for ell > rho e;
                   none for ell < rho e; one degenerate pair within
                   1e-9 min(1, rho e) of ell = rho e
    inverse:       r* = ell W0(rho/ell) (centers)

    Raises ValueError for a non-finite rho, ell, v or v / rho, and for a
    rho and ell whose ratio or radius leaves the float range.
    """
    kind = _params(kind, rho, ell, v)
    # v / rho is the gain scale g0 of the vector field
    for name, value in (("rho", rho), ("ell", ell), ("v", v),
                        ("v / rho", v / rho)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    regime = _regime(kind, rho, ell)
    if kind is GainKind.INVERSE or regime == CONDITIONAL:
        # these radii are ell W(+/-rho / ell), out of reach when the ratio
        # overflows or underflows
        if not 0.0 < rho / ell < math.inf:
            raise ValueError(
                f"rho = {rho} and ell = {ell} give rho / ell = {rho / ell}, "
                "out of float range for a fixed-point radius")
    radii = []
    if kind is GainKind.STATIC:
        radii.append((rho, CENTER))
    elif kind is GainKind.INVERSE:
        radii.append((ell * lambert_w(LambertBranch.W0, rho / ell), CENTER))
    elif regime == INDETERMINATE:
        radii.append((ell, DEGENERATE))
    elif regime == CONDITIONAL:
        r_center, r_saddle = _proportional_radii(rho, ell)
        radii += [(r_center, CENTER), (r_saddle, SADDLE)]

    points = []
    for r_star, label in sorted(radii):
        if not 0.0 < r_star < math.inf:
            raise ValueError(
                f"rho = {rho} and ell = {ell} give a fixed-point radius of "
                f"{r_star}, not a finite positive one")
        for psi_star in (math.pi / 2, -math.pi / 2):
            eigs = closed_form_eigenvalues(kind, r_star, rho, ell, v)
            points.append(
                FixedPoint(r_star=r_star, psi_star=psi_star, kind=label,
                           eigenvalues=eigs)
            )
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
    kind = _params(GainKind.PROPORTIONAL, rho, ell)
    if _regime(kind, rho, ell) != CONDITIONAL:
        raise NoSaddleError(
            f"no saddle for ell = {ell}: not above rho e = {rho * math.e:.6g}"
            " by more than 1e-9 min(1, rho e)"
        )
    w = lambert_w(LambertBranch.WM1, -rho / ell)
    return (ell / rho) * abs(w) * math.exp(-1.0 / w)


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
    it (up to the envelope's local maximum at the center radius). A NaN q
    raises ValueError.
    """
    kind = _params(kind, rho, ell)
    aq = abs(float(q))
    if math.isnan(aq):
        raise ValueError(f"q must be a number, got {q}")

    def envelope(r):
        return float(radial_envelope(kind, r, rho, ell))

    if kind is GainKind.STATIC:
        if aq == 0.0:
            return RadialBounds(BOUNDED, 0.0, math.inf)
        if aq > _INV_E + 1e-12:
            raise QOutOfRangeError(
                f"static envelope peaks at 1/e; no orbit with |Q| = {aq:.6g}"
            )
        aq = min(aq, _INV_E)
        return RadialBounds(BOUNDED, -rho * lambert_w(LambertBranch.W0, -aq),
                            -rho * lambert_w(LambertBranch.WM1, -aq))

    if kind is GainKind.INVERSE:
        if aq == 0.0:
            return RadialBounds(BOUNDED, 0.0, math.inf)
        r_fp = ell * lambert_w(LambertBranch.W0, rho / ell)
        q_max = envelope(r_fp)
        if aq > q_max * (1.0 + 1e-12):
            raise QOutOfRangeError(
                f"inverse envelope peaks at {q_max:.6g}; no orbit with |Q| = {aq:.6g}"
            )
        if aq >= q_max:
            return RadialBounds(BOUNDED, r_fp, r_fp)
        return RadialBounds(BOUNDED, _turning_radius(envelope, aq, r_fp, 0.5),
                            _turning_radius(envelope, aq, r_fp, 2.0))

    # proportional
    if _regime(kind, rho, ell) != CONDITIONAL:
        return RadialBounds(UNBOUNDED)
    q_cr = critical_q(rho, ell)
    if aq <= q_cr:
        return RadialBounds(UNBOUNDED)
    r_center, r_saddle = _proportional_radii(rho, ell)
    q_max = envelope(r_center)
    if aq > q_max * (1.0 + 1e-12):
        return RadialBounds(UNBOUNDED)
    aq = min(aq, q_max)
    r_min = _turning_radius(envelope, aq, r_center, 0.5)
    if aq >= q_max:
        r_max = r_center
    else:
        r_max = _bisect(lambda r: envelope(r) - aq, r_center, r_saddle)
    return RadialBounds(CONDITIONAL, r_min, r_max)


def bifurcation_scan(rho, ell_min, ell_max):
    """The ell at which proportional-gain fixed points appear, rho e.

    The convergence ladder decides the fixed-point count in closed form,
    and it is monotone in ell, so the count changes over [ell_min, ell_max]
    exactly when the ladder reads "divergent" at ell_min and not at
    ell_max. Returns rho * e then; raises NoTransitionError otherwise,
    and ValueError on a non-finite rho, ell_min or ell_max.
    """
    if not ell_min < ell_max:
        raise ValueError("need ell_min < ell_max")
    kind = _params(GainKind.PROPORTIONAL, rho, ell_min)
    for name, value in (("rho", rho), ("ell_min", ell_min),
                        ("ell_max", ell_max)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    one place ell is compared with rho e: fixed_points, critical_q,
    radial_bounds and bifurcation_scan read it.

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
    back "indeterminate". A non-finite init.r or init.psi raises
    ValueError.
    """
    kind = _params(kind, rho, ell)
    for name, value in (("r", init.r), ("psi", init.psi)):
        if not math.isfinite(value):
            raise ValueError(f"init.{name} must be finite, got {value}")
    regime = _regime(kind, rho, ell)
    if regime != CONDITIONAL:
        return regime
    q_cr = critical_q(rho, ell)
    q = conserved_quantity(kind, init.r, init.psi, rho, ell)
    if abs(abs(q) - q_cr) < _BOUNDARY_TOL:
        return INDETERMINATE
    _, r_saddle = _proportional_radii(rho, ell)
    if abs(q) > q_cr and init.r < r_saddle:
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
        extents = (self.u_min, self.u_max, self.w_min, self.w_max)
        if not (all(map(math.isfinite, extents)) and self.u_max > self.u_min
                and self.w_max > self.w_min):
            raise ValueError("portrait grid extents must be finite and "
                             "increasing")
        for name in ("nu", "nw"):
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"portrait grid {name} must be a whole "
                                 f"number, got {getattr(self, name)!r}") from None
        if self.nu < 2 or self.nw < 2:
            raise ValueError("portrait grid needs at least 2 points per axis")


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
    q_critical = None
    separatrix = None
    if any(fp.kind == SADDLE for fp in fps):
        q_critical = critical_q(rho, ell)
        separatrix = (-q_critical, q_critical)

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
        classification=_regime(kind, rho, ell),
        relative_equilibria=note,
        grid=grid,
        u_axis=u_axis,
        w_axis=w_axis,
        q_grid=q_grid,
    )
