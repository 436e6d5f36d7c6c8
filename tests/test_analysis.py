"""Tests for the reduced-model analysis: Lambert W, conserved level, fixed
points, turning radii, bifurcation threshold, and convergence taxonomy."""

import json
import dataclasses
import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from phaseseek import (
    FixedPoint,
    GainKind,
    GainLaw,
    LambertBranch,
    LambertDomainError,
    NoSaddleError,
    NoTransitionError,
    PolarState,
    PortraitGrid,
    QOutOfRangeError,
    bifurcation_scan,
    classify_convergence,
    closed_form_eigenvalues,
    conserved_quantity,
    critical_q,
    fixed_points,
    jacobian_eigenvalues,
    lambert_w,
    portrait,
    radial_bounds,
    radial_envelope,
    radial_m_field,
)

INV_E = math.exp(-1.0)
EPS = sys.float_info.epsilon


# ----------------------------------------------------------------------
# Lambert W
# ----------------------------------------------------------------------

def test_lambert_known_values():
    assert lambert_w("W0", 0.0) == 0.0
    assert lambert_w("W0", 1.0) == pytest.approx(0.5671432904097838, abs=1e-13)
    assert lambert_w("W0", math.e) == pytest.approx(1.0, abs=1e-13)
    assert lambert_w("Wm1", -INV_E) == pytest.approx(-1.0, abs=1e-8)
    assert lambert_w("W0", -INV_E) == pytest.approx(-1.0, abs=1e-8)
    # within 1e-12 below -1/e is rounding, read as the branch point
    for branch in ("W0", "Wm1"):
        assert lambert_w(branch, -INV_E - 5e-13) == -1.0


def test_lambert_matches_bisection_oracle():
    for z in (-0.3, -0.2, -0.05, 0.3, 2.0, 40.0):
        if z < 0:
            assert lambert_w("Wm1", z) == pytest.approx(
                oracles.lambert_wm1_ref(z), abs=1e-10)
        assert lambert_w("W0", z) == pytest.approx(
            oracles.lambert_w0_ref(z), abs=1e-10)


def test_lambert_residuals_principal_branch():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(5000):
        z = float(rng.uniform(-INV_E, 10.0))
        w = lambert_w("W0", z)
        assert w >= -1.0 - 1e-12
        worst = max(worst, abs(w * math.exp(w) - z))
    assert worst < 1e-12


def test_lambert_residuals_lower_branch():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(5000):
        z = float(rng.uniform(-INV_E, -1e-12))
        w = lambert_w("Wm1", z)
        assert w <= -1.0 + 1e-12
        worst = max(worst, abs(w * math.exp(w) - z))
    assert worst < 1e-12


def test_lambert_huge_argument():
    # relative residual is what survives at the top of the range
    z = 1e300
    w = lambert_w("W0", z)
    assert w + math.log(w) == pytest.approx(math.log(z), abs=1e-12)


def test_lambert_domain_errors():
    with pytest.raises(LambertDomainError):
        lambert_w("W0", -0.4)
    with pytest.raises(LambertDomainError, match="below the branch point"):
        lambert_w("Wm1", -INV_E - 2e-12)
    with pytest.raises(LambertDomainError):
        lambert_w("Wm1", 0.1)
    with pytest.raises(LambertDomainError):
        lambert_w("Wm1", -0.5)
    with pytest.raises(LambertDomainError):
        lambert_w("Wm1", 0.0)
    with pytest.raises(ValueError):
        lambert_w("bogus", 0.5)


@pytest.mark.parametrize("branch", ["W0", "Wm1"])
@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_lambert_rejects_a_non_finite_argument(branch, z):
    # a NaN or +inf once ran 50 Halley steps and raised "failed to converge"
    with pytest.raises(LambertDomainError, match="finite"):
        lambert_w(branch, z)


def test_lambert_branch_dispatch():
    assert lambert_w(LambertBranch.W0, 1.0) == lambert_w(0, 1.0) == (
        lambert_w("W0", 1.0))
    assert lambert_w(LambertBranch.WM1, -0.2) == lambert_w(-1, -0.2) == (
        lambert_w("Wm1", -0.2))


def _lambert_error_bound(w, z):
    """How far lambert_w may sit from the true W(z) = w.

    Its residual target, 4e-16 |z|, carried through W'(z) = 1 / (e^W (1 + W)),
    plus the rounding of z carried through z W'(z) = W / (1 + W), plus an
    ulp of W. The branch-point series lambert_w returns within 1e-9 of -1/e
    meets it too, because the bound widens as 1 + W goes to 0.
    """
    target = 4e-16 * abs(z)
    return (2.0 * target / abs(math.exp(w) * (1.0 + w))
            + 8.0 * EPS * abs(w / (1.0 + w)) + 2.0 * EPS * abs(w))


_NEAR_BRANCH = [-INV_E + d for d in np.logspace(-15, -1, 57)]


@pytest.mark.parametrize("branch, k, zs", [
    ("W0", 0, _NEAR_BRANCH),
    ("Wm1", -1, _NEAR_BRANCH),
    ("W0", 0, list(np.linspace(-INV_E, 20.0, 101)[1:])),
    ("Wm1", -1, list(np.linspace(-INV_E, -1e-3, 101)[1:])),
    # around 0- for Wm1, down to the smallest normal float
    ("Wm1", -1, list(-np.logspace(-1, -307, 121)) + [-sys.float_info.min]),
    # around 0 for W0, both signs
    ("W0", 0, list(np.logspace(-300, -1, 61)) + list(-np.logspace(-300, -1, 61))),
    # large z for W0, up to the largest float
    ("W0", 0, list(np.logspace(0, 308, 155)) + [sys.float_info.max]),
])
def test_lambert_matches_scipy(branch, k, zs):
    if zs is _NEAR_BRANCH:
        # scipy's Wm1 is off by up to 1e-4 within 2e-9 of -1/e (it returns
        # -1.0000000082 at -1/e + 1e-9, against -1.0000737348695), so the
        # near-branch rows are judged against mpmath at 40 digits
        mpmath = pytest.importorskip("mpmath")

        def reference(z):
            with mpmath.workdps(40):
                return float(mpmath.lambertw(z, k).real)
    else:
        special = pytest.importorskip("scipy.special")

        def reference(z):
            return float(special.lambertw(z, k).real)
    for z in zs:
        z = float(z)
        ref = reference(z)
        assert abs(lambert_w(branch, z) - ref) <= _lambert_error_bound(ref, z), z


def test_lambert_extreme_arguments():
    # where w e^w leaves the normal float range: w + log|w| = log|z|, and
    # on subnormal z (scipy returns -inf at -5e-324)
    for z in (1e306, 1.7e308, sys.float_info.max):
        w = lambert_w("W0", z)
        assert w + math.log(w) == pytest.approx(math.log(z), abs=1e-12)
    for z in (-1e-301, -1e-310, -5e-324):
        w = lambert_w("Wm1", z)
        assert w + math.log(-w) == pytest.approx(math.log(-z), abs=1e-12)


# ----------------------------------------------------------------------
# Conserved level and radial envelope
# ----------------------------------------------------------------------

def test_conserved_quantity_values():
    assert conserved_quantity("static", 4.0, math.pi / 2, 2.0) == pytest.approx(
        2.0 * math.exp(-2.0), abs=1e-15)
    assert conserved_quantity("static", 4.0, math.pi / 2, 2.0) == pytest.approx(
        0.2706705664732254, abs=1e-15)
    assert conserved_quantity(
        "proportional", 4.0, math.pi / 2, 2.0, 6.5) == pytest.approx(
        11.583184323957616, abs=1e-12)
    assert conserved_quantity(
        "inverse", 3.0, math.pi / 2, 2.0, 5.8) == pytest.approx(
        0.011574193029998785, abs=1e-15)
    # sin(psi) factor: odd in psi, zero on the down-gradient ray
    assert conserved_quantity("static", 4.0, 0.0, 2.0) == 0.0
    assert conserved_quantity("static", 4.0, -math.pi / 2, 2.0) == pytest.approx(
        -0.2706705664732254)


def test_conserved_quantity_validation():
    with pytest.raises(ValueError):
        conserved_quantity("static", -1.0, 0.3, 2.0)
    with pytest.raises(ValueError):
        conserved_quantity("static", 1.0, 0.3, 0.0)
    with pytest.raises(ValueError):
        conserved_quantity("proportional", 1.0, 0.3, 2.0)  # ell required


def test_radial_envelope_validates_kind_and_ell():
    with pytest.raises(ValueError):
        radial_envelope("bogus", 3.0, 2.0, 6.5)
    with pytest.raises(ValueError):
        radial_envelope("proportional", 3.0, 2.0, None)
    with pytest.raises(ValueError):
        radial_envelope("inverse", 3.0, 2.0, -1.0)
    assert radial_envelope(GainKind.PROPORTIONAL, 3.0, 2.0, 6.5) == (
        radial_envelope("proportional", 3.0, 2.0, 6.5))


@pytest.mark.parametrize("call", [
    lambda kind: conserved_quantity(kind, 3.0, 0.4, 2.0, 6.5),
    lambda kind: radial_envelope(kind, 3.0, 2.0, 6.5),
    lambda kind: GainLaw(kind, 0.5).closure()(0.3),
    lambda kind: radial_bounds(kind, 0.01, 2.0, 6.5),
    lambda kind: fixed_points(kind, 2.0, 6.5),
    lambda kind: closed_form_eigenvalues(kind, 3.0, 2.0, 6.5),
    lambda kind: classify_convergence(kind, 2.0, 6.5,
                                      SimpleNamespace(r=4.0, psi=1.0)),
    lambda kind: portrait(kind, 2.0, 6.5, grid=PortraitGrid(nu=3, nw=3)),
])
def test_every_entry_takes_one_gain_vocabulary(call):
    # strings and GainKind members give the same answer; unknown kinds are
    # rejected, never read as another law
    for kind in GainKind:
        a, b = call(kind.value), call(kind)
        if hasattr(a, "to_json_dict"):
            a, b = a.to_json_dict(), b.to_json_dict()
        assert repr(a) == repr(b)
    with pytest.raises(ValueError):
        call("bogus")


# every public entry with (kind, rho, v); v is passed only where it applies
_GATED_ENTRIES = {
    "conserved_quantity": lambda kind, rho, v: conserved_quantity(
        kind, 3.0, 0.4, rho, 6.5),
    "radial_envelope": lambda kind, rho, v: radial_envelope(
        kind, 3.0, rho, 6.5),
    "jacobian_eigenvalues": lambda kind, rho, v: jacobian_eigenvalues(
        kind, SimpleNamespace(r_star=3.0, psi_star=math.pi / 2), rho, 6.5,
        v=v),
    "closed_form_eigenvalues": lambda kind, rho, v: closed_form_eigenvalues(
        kind, 3.0, rho, 6.5, v=v),
    "fixed_points": lambda kind, rho, v: fixed_points(kind, rho, 6.5, v=v),
    "critical_q": lambda kind, rho, v: critical_q(rho, 6.5),
    "radial_bounds": lambda kind, rho, v: radial_bounds(
        kind, 0.01, rho, 6.5),
    "bifurcation_scan": lambda kind, rho, v: bifurcation_scan(rho, 4.0, 7.0),
    "classify_convergence": lambda kind, rho, v: classify_convergence(
        kind, rho, 6.5, SimpleNamespace(r=4.0, psi=1.0)),
    "portrait": lambda kind, rho, v: portrait(
        kind, rho, 6.5, v=v, grid=PortraitGrid(nu=3, nw=3)),
}
_TAKES_V = ("jacobian_eigenvalues", "closed_form_eigenvalues", "fixed_points",
            "portrait")


@pytest.mark.parametrize("name, rho, v", [
    *[(name, rho, 1.0) for name in _GATED_ENTRIES
      for rho in (0.0, -2.0, math.nan)],
    *[(name, 2.0, -1.0) for name in _TAKES_V],
])
def test_every_entry_rejects_nonpositive_rho_and_speed(name, rho, v):
    what = "rho" if v > 0 else "speed"
    for kind in GainKind:
        with pytest.raises(ValueError, match=f"^{what} must be positive"):
            _GATED_ENTRIES[name](kind, rho, v)


# every analysis entry that reads rho and ell, as a call on (kind, rho,
# ell, v); critical_q is proportional whatever the kind
_SCALED_ENTRIES = {
    "classify_convergence": lambda kind, rho, ell, v: classify_convergence(
        kind, rho, ell, SimpleNamespace(r=4.0, psi=1.0)),
    "radial_bounds": lambda kind, rho, ell, v: radial_bounds(
        kind, 0.01, rho, ell),
    "conserved_quantity": lambda kind, rho, ell, v: conserved_quantity(
        kind, 3.0, 0.4, rho, ell),
    "radial_envelope": lambda kind, rho, ell, v: radial_envelope(
        kind, 3.0, rho, ell),
    "critical_q": lambda kind, rho, ell, v: critical_q(rho, ell),
    "closed_form_eigenvalues": lambda kind, rho, ell, v:
        closed_form_eigenvalues(kind, 3.0, rho, ell, v=v),
    "jacobian_eigenvalues": lambda kind, rho, ell, v: jacobian_eigenvalues(
        kind, SimpleNamespace(r_star=3.0, psi_star=math.pi / 2), rho, ell,
        v=v),
    "fixed_points": lambda kind, rho, ell, v: fixed_points(
        kind, rho, ell, v=v),
    "portrait": lambda kind, rho, ell, v: portrait(
        kind, rho, ell, v=v, grid=PortraitGrid(nu=3, nw=3)),
}


@pytest.mark.parametrize("name, rho, ell, v, text", [
    *[(name, math.inf, 6.5, 1.0, "rho must be finite, got inf")
      for name in _SCALED_ENTRIES],
    *[(name, 2.0, math.inf, 1.0, "ell must be finite, got inf")
      for name in _SCALED_ENTRIES],
    *[(name, 2.0, 6.5, math.inf, "v must be finite, got inf")
      for name in _TAKES_V],
    *[(name, 1e-300, 6.5, 1e300, "v / rho must be finite, got inf")
      for name in _TAKES_V],
])
def test_every_entry_applies_the_finite_rule(name, rho, ell, v, text):
    # the rule lived in fixed_points alone: static rho = inf classified
    # "unconditional", closed_form_eigenvalues gave [0j, 0j] there, and
    # critical_q(inf, 6.5) raised NoSaddleError
    for kind in GainKind:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            _SCALED_ENTRIES[name](kind, rho, ell, v)


def test_gain_kind_errors_name_the_plain_kind():
    with pytest.raises(ValueError, match=r"^proportional gain needs"):
        conserved_quantity(GainKind.PROPORTIONAL, 3.0, 0.4, 2.0)
    assert portrait(GainKind.STATIC, 2.0).kind == "static"


def test_envelope_bounds_conserved_level():
    # |Q| <= h(r) with equality only when |sin psi| = 1
    rng = np.random.default_rng(22)
    for kind, ell in (("static", None), ("proportional", 6.5), ("inverse", 5.8)):
        for _ in range(100):
            r = float(rng.uniform(0.1, 12.0))
            psi = float(rng.uniform(-math.pi, math.pi))
            q = conserved_quantity(kind, r, psi, 2.0, ell)
            h = float(radial_envelope(kind, r, 2.0, ell))
            assert abs(q) <= h + 1e-12


# ----------------------------------------------------------------------
# Fixed points and eigenvalues
# ----------------------------------------------------------------------

def test_static_fixed_points():
    fps = fixed_points("static", 2.0)
    assert len(fps) == 2
    for fp in fps:
        assert fp.r_star == pytest.approx(2.0, abs=1e-12)
        assert fp.kind == "center"
        assert abs(fp.psi_star) == pytest.approx(math.pi / 2)
        for ev in fp.eigenvalues:
            assert ev.real == pytest.approx(0.0, abs=1e-10)
            assert abs(ev.imag) == pytest.approx(0.5, abs=1e-10)
    assert {fp.psi_star > 0 for fp in fps} == {True, False}


def test_proportional_fixed_points_against_oracle():
    fps = fixed_points("proportional", 2.0, 6.5)
    radii = sorted(set(fp.r_star for fp in fps))
    r_center = oracles.center_radius_ref("proportional", 2.0, 6.5)
    r_saddle = oracles.saddle_radius_ref(2.0, 6.5)
    assert radii[0] == pytest.approx(r_center, abs=1e-8)
    assert radii[1] == pytest.approx(r_saddle, abs=1e-8)
    assert radii[0] == pytest.approx(3.347040263380559, abs=1e-10)
    assert radii[1] == pytest.approx(11.19519183088112, abs=1e-10)
    kinds = {round(fp.r_star, 6): fp.kind for fp in fps}
    assert kinds[round(r_center, 6)] == "center"
    assert kinds[round(r_saddle, 6)] == "saddle"
    for fp in fps:
        if fp.kind == "center":
            assert all(abs(ev.real) < 1e-8 for ev in fp.eigenvalues)
        else:
            assert all(abs(ev.imag) < 1e-8 for ev in fp.eigenvalues)
            assert max(ev.real for ev in fp.eigenvalues) > 0  # unstable pair


def test_proportional_below_threshold_has_no_fixed_points():
    assert fixed_points("proportional", 2.0, 5.4) == []


@pytest.mark.parametrize("kind, rho, ell, v, text", [
    ("static", math.inf, None, 1.0, "rho must be finite, got inf"),
    ("static", 2.0, math.inf, 1.0, "ell must be finite, got inf"),
    ("inverse", 2.0, 5.8, math.inf, "v must be finite, got inf"),
    ("static", 1e-300, None, 1e300, "v / rho must be finite, got inf"),
    ("inverse", 1e300, 1e-300, 1.0,
     "rho = 1e+300 and ell = 1e-300 give rho / ell = inf"),
    ("proportional", 1e-300, 1e300, 1.0,
     "rho = 1e-300 and ell = 1e+300 give rho / ell = 0.0"),
    # the saddle radius -ell Wm1(-1e-308) overflows
    ("proportional", 1.0, 1e308, 1.0,
     "rho = 1.0 and ell = 1e+308 give a fixed-point radius of inf"),
])
def test_fixed_points_name_an_out_of_range_parameter(kind, rho, ell, v, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        fixed_points(kind, rho, ell, v)


@pytest.mark.parametrize("call", [
    lambda rho, ell: critical_q(rho, ell),
    lambda rho, ell: radial_bounds("proportional", 11.0, rho, ell),
    lambda rho, ell: radial_bounds("inverse", 0.01, rho, ell),
    lambda rho, ell: classify_convergence(
        "proportional", rho, ell, SimpleNamespace(r=4.0, psi=1.0)),
    lambda rho, ell: fixed_points("proportional", rho, ell),
], ids=["critical_q", "radial_bounds-proportional", "radial_bounds-inverse",
        "classify_convergence", "fixed_points"])
def test_every_orbit_entry_applies_the_float_range_rule(call):
    # rho / ell underflows to 0: critical_q, radial_bounds and
    # classify_convergence once raised a Wm1 domain error, and inverse
    # radial_bounds "inverse envelope peaks at 0"
    text = ("rho = 1e-300 and ell = 1e+300 give rho / ell = 0.0, out of "
            "float range for a fixed-point radius")
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(1e-300, 1e300)


def test_proportional_at_threshold_is_degenerate():
    fps = fixed_points("proportional", 2.0, 2.0 * math.e)
    assert len(fps) == 2
    for fp in fps:
        assert fp.kind == "degenerate"
        assert fp.r_star == pytest.approx(2.0 * math.e, rel=1e-9)


def test_inverse_fixed_point_against_oracle():
    fps = fixed_points("inverse", 2.0, 5.8)
    assert len(fps) == 2
    r_ref = oracles.center_radius_ref("inverse", 2.0, 5.8)
    for fp in fps:
        assert fp.r_star == pytest.approx(r_ref, abs=1e-8)
        assert fp.r_star == pytest.approx(1.5349534247078291, abs=1e-10)
        assert fp.kind == "center"


def test_closed_form_eigenvalue_magnitudes():
    evs = closed_form_eigenvalues("static", 2.0, 2.0)
    assert sorted(ev.imag for ev in evs) == pytest.approx([-0.5, 0.5])
    evs = closed_form_eigenvalues("proportional", 3.347040263380559, 2.0, 6.5)
    assert abs(evs[0].imag) == pytest.approx(0.20808539, abs=1e-6)
    evs = closed_form_eigenvalues("proportional", 11.19519183088112, 2.0, 6.5)
    assert max(ev.real for ev in evs) == pytest.approx(0.0759169, abs=1e-6)
    evs = closed_form_eigenvalues("inverse", 1.5349534247078291, 2.0, 5.8)
    assert abs(evs[0].imag) == pytest.approx(0.73263807, abs=1e-6)


def test_eigenvalues_scale_with_speed():
    for v in (0.5, 2.0, 3.7):
        base = closed_form_eigenvalues("proportional", 3.347040263380559, 2.0, 6.5)
        fast = closed_form_eigenvalues(
            "proportional", 3.347040263380559, 2.0, 6.5, v=v)
        for b, f in zip(base, fast):
            assert f == pytest.approx(v * b, abs=1e-12)


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
@pytest.mark.parametrize("r_star", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_closed_form_eigenvalues_need_a_fixed_point_radius(kind, r_star):
    # r_star = 0 once divided by zero, and NaN or inf gave NaN eigenvalues
    # (static gain ignored r_star); every law now asks for r* in (0, inf)
    with pytest.raises(ValueError, match=(
            f"^r_star must be finite and positive, got {r_star}$")):
        closed_form_eigenvalues(kind, r_star, 2.0, 6.5)


@pytest.mark.parametrize("ell", [0.0, -0.0, -1.0, math.nan])
def test_radial_m_field_needs_a_positive_ell(ell):
    # ell = 0 once passed here and made simulate_polar's first stage
    # divide by zero
    with pytest.raises(ValueError, match=f"^ell must be positive, got {ell}$"):
        radial_m_field(ell)
    assert radial_m_field(math.inf)(3.0, 0.0) == 1.0


def test_closed_form_matches_numerical_jacobian():
    rng = np.random.default_rng(23)
    for _ in range(15):
        rho = float(rng.uniform(0.5, 3.0))
        kind = ["static", "proportional", "inverse"][int(rng.integers(3))]
        if kind == "proportional":
            ell = float(rng.uniform(rho * math.e + 0.3, rho * math.e + 6.0))
        else:
            ell = float(rng.uniform(2.0, 9.0))
        for fp in fixed_points(kind, rho, ell):
            closed = closed_form_eigenvalues(kind, fp.r_star, rho, ell)
            numerical = jacobian_eigenvalues(kind, fp, rho, ell)
            for c, n in zip(closed, numerical):
                assert abs(c) == pytest.approx(abs(n), abs=1e-6)


@pytest.mark.parametrize("kind, rho, ell", [
    ("static", 2.0, None), ("proportional", 2.0, 6.5),
    ("proportional", 2.0, 2.0 * math.e), ("inverse", 2.0, 5.8),
    ("proportional", 1e-6, 4e-6), ("inverse", 1e-9, 3e-8)])
def test_fixed_points_carry_the_closed_form_eigenvalues(kind, rho, ell):
    for fp in fixed_points(kind, rho, ell):
        closed = closed_form_eigenvalues(kind, fp.r_star, rho, ell)
        assert np.array_equal(fp.eigenvalues, closed)
        # a center's real parts, a saddle's imaginary parts and both parts
        # of the degenerate pair are +0.0
        zeros = {"center": closed.real, "saddle": closed.imag,
                 "degenerate": np.concatenate([closed.real, closed.imag])}
        assert [math.copysign(1.0, x) for x in zeros[fp.kind]] == (
            [1.0] * len(zeros[fp.kind]))
        assert not zeros[fp.kind].any()


@pytest.mark.parametrize("rho", [1e-4, 1e-5, 1e-200])
def test_static_eigenvalues_hold_below_unit_scale(rho):
    # the differenced Jacobian read 10050i at 1e-4, divided by zero at
    # 1e-5 and read 0 at 1e-200
    for fp in fixed_points("static", rho):
        assert fp.eigenvalues.tolist() == [complex(0.0, -1.0 / rho),
                                           complex(0.0, 1.0 / rho)]


@pytest.mark.parametrize("kind, rho, ell", [
    ("static", 1e-4, None), ("static", 1e6, None),
    ("proportional", 1e-4, 4e-4), ("inverse", 1e-4, 3e-4)])
def test_jacobian_cross_check_holds_at_any_scale(kind, rho, ell):
    # steps of 1e-5 r* in r and 1e-5 in psi
    for fp in fixed_points(kind, rho, ell):
        closed = closed_form_eigenvalues(kind, fp.r_star, rho, ell)
        numerical = jacobian_eigenvalues(kind, fp, rho, ell)
        assert np.abs(numerical - closed).max() <= 1e-6 * abs(closed[1])


@pytest.mark.parametrize("kind", ["static", "proportional", "inverse"])
@pytest.mark.parametrize("rho", [1.0, 1e-300])
def test_jacobian_at_a_tiny_radius_names_r_star(kind, rho):
    # the rates near r = 0 overflow, and so do their central differences
    fp = FixedPoint(1e-300, math.pi / 2, "center", None)
    with pytest.raises(ValueError, match="r_star = 1e-300"):
        jacobian_eigenvalues(kind, fp, rho, 6.5)


# ----------------------------------------------------------------------
# Critical level and turning radii
# ----------------------------------------------------------------------

def test_critical_q_value_and_consistency():
    q_cr = critical_q(2.0, 6.5)
    assert q_cr == pytest.approx(10.003585736854543, abs=1e-12)
    # the critical level is the envelope evaluated at the saddle radius
    r_saddle = oracles.saddle_radius_ref(2.0, 6.5)
    assert q_cr == pytest.approx(
        float(radial_envelope("proportional", r_saddle, 2.0, 6.5)), abs=1e-9)


def test_critical_q_requires_saddle():
    with pytest.raises(NoSaddleError):
        critical_q(2.0, 5.4)
    with pytest.raises(NoSaddleError):
        critical_q(2.0, 2.0 * math.e)


def test_critical_q_limit_at_threshold():
    # h(saddle) -> e^2 as ell drops to rho e (saddle meets center at r = ell)
    q_cr = critical_q(2.0, 2.0 * math.e * (1.0 + 1e-8))
    assert q_cr == pytest.approx(math.e ** 2, rel=1e-3)


def test_static_bounds():
    q = 2.0 * math.exp(-2.0)
    b = radial_bounds("static", q, 2.0)
    assert b.status == "bounded"
    assert b.r_min == pytest.approx(0.8127514799199198, abs=1e-12)
    assert b.r_max == pytest.approx(4.0, abs=1e-12)
    # turning radii sit exactly on the envelope
    for r in (b.r_min, b.r_max):
        assert float(radial_envelope("static", r, 2.0)) == pytest.approx(
            q, abs=1e-9)
    # sign of q is irrelevant
    neg = radial_bounds("static", -q, 2.0)
    assert neg.r_min == pytest.approx(b.r_min)


def test_static_bounds_edge_cases():
    b = radial_bounds("static", 0.0, 2.0)
    assert (b.r_min, b.r_max) == (0.0, math.inf)
    b = radial_bounds("static", INV_E, 2.0)
    assert b.r_min == pytest.approx(2.0, abs=1e-6)
    assert b.r_max == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(QOutOfRangeError):
        radial_bounds("static", INV_E + 1e-9, 2.0)


def test_inverse_bounds():
    b = radial_bounds("inverse", 0.01, 2.0, 5.8)
    assert b.status == "bounded"
    assert b.r_min < 1.5349534247078291 < b.r_max
    for r in (b.r_min, b.r_max):
        assert float(radial_envelope("inverse", r, 2.0, 5.8)) == pytest.approx(
            0.01, abs=1e-9)
    # the orbit at the envelope's peak is the centre itself; above it
    # there is none
    r_fp = 5.8 * lambert_w("W0", 2.0 / 5.8)
    q_max = float(radial_envelope("inverse", r_fp, 2.0, 5.8))
    for q in (q_max, -q_max):
        b = radial_bounds("inverse", q, 2.0, 5.8)
        assert (b.status, b.r_min, b.r_max) == ("bounded", r_fp, r_fp)
    with pytest.raises(QOutOfRangeError, match="inverse envelope peaks"):
        radial_bounds("inverse", q_max * (1.0 + 1e-9), 2.0, 5.8)


@pytest.mark.parametrize("q", [1e-50, 1e-60, 1e-100, 1e-300])
def test_inverse_turning_radii_match_mpmath_at_tiny_levels(q):
    # the inward turn is bisected over the last halving, not back to the
    # peak, so a level far below the envelope still resolves
    b = radial_bounds("inverse", q, 2.0, 5.8)
    assert b.status == "bounded"
    assert b.r_min == pytest.approx(
        oracles.inverse_turning_radius_ref(q, 2.0, 5.8, "min"), rel=1e-12,
        abs=0.0)
    assert b.r_max == pytest.approx(
        oracles.inverse_turning_radius_ref(q, 2.0, 5.8, "max"), rel=1e-12,
        abs=0.0)


def test_proportional_bounds():
    q_cr = critical_q(2.0, 6.5)
    # below the critical level nothing is trapped
    assert radial_bounds("proportional", 5.0, 2.0, 6.5).status == "unbounded"
    assert radial_bounds("proportional", q_cr, 2.0, 6.5).status == "unbounded"
    # above it, orbits started inside the well stay between the turning radii
    b = radial_bounds("proportional", 11.0, 2.0, 6.5)
    assert b.status == "conditional"
    assert b.r_min < 3.347040263380559 < b.r_max < 11.19519183088112
    for r in (b.r_min, b.r_max):
        assert float(radial_envelope("proportional", r, 2.0, 6.5)) == pytest.approx(
            11.0, abs=1e-9)
    # at the envelope's local maximum the trapped orbit is the centre
    r_center = -6.5 * lambert_w("W0", -2.0 / 6.5)
    q_max = float(radial_envelope("proportional", r_center, 2.0, 6.5))
    b = radial_bounds("proportional", q_max, 2.0, 6.5)
    assert (b.status, b.r_min, b.r_max) == ("conditional", r_center, r_center)
    # beyond the envelope's local maximum no turning radii exist at all
    assert radial_bounds("proportional", 12.0, 2.0, 6.5).status == "unbounded"
    # below threshold every level is unbounded
    assert radial_bounds("proportional", 3.0, 2.0, 5.4).status == "unbounded"


@pytest.mark.parametrize("kind", ["inverse", "proportional", "static"])
def test_radial_bounds_rejects_a_nan_level(kind):
    # a NaN q once read inverse "bounded" at the centre radius,
    # proportional "conditional" over (3.35, 11.20), static a RuntimeError
    with pytest.raises(ValueError, match="q must be a number"):
        radial_bounds(kind, math.nan, 2.0, 6.5)


@pytest.mark.parametrize("scale", [1e-10, 1e-6, 1e6])
@pytest.mark.parametrize("kind, q, rho, ell", [("inverse", 0.01, 2.0, 5.8),
                                               ("proportional", 11.0, 2.0, 6.5)])
def test_radial_bounds_scale_with_rho_and_ell(kind, q, rho, ell, scale):
    # the envelope reads r only as r / rho and r / ell, so scaling rho and
    # ell together scales the turning radii, at any size
    base = radial_bounds(kind, q, rho, ell)
    scaled = radial_bounds(kind, q, scale * rho, scale * ell)
    assert scaled.status == base.status != "unbounded"
    assert scaled.r_min == pytest.approx(scale * base.r_min, rel=1e-12,
                                         abs=0.0)
    assert scaled.r_max == pytest.approx(scale * base.r_max, rel=1e-12,
                                         abs=0.0)


def test_bounds_match_lambert_inversion():
    rng = np.random.default_rng(24)
    for _ in range(100):
        q = float(rng.uniform(1e-4, INV_E - 1e-6))
        rho = float(rng.uniform(0.5, 3.0))
        b = radial_bounds("static", q, rho)
        assert b.r_min == pytest.approx(-rho * lambert_w("W0", -q), rel=1e-12)
        assert b.r_max == pytest.approx(-rho * lambert_w("Wm1", -q), rel=1e-12)


# ----------------------------------------------------------------------
# Bifurcation scan
# ----------------------------------------------------------------------

def test_bifurcation_scan_finds_rho_e():
    # the threshold is the ladder's rho e exactly, not a search's estimate
    for rho, ell_min, ell_max in [
        (2.0, 4.0, 7.0),
        (1.0, 2.0, 4.0),
        (0.3, 0.5, 1.5),
        # an ell_max inside the 1e-9 band below rho e already has the
        # degenerate pair, so the count changes
        (2.0, 4.0, 2.0 * math.e - 5e-10),
    ]:
        assert bifurcation_scan(rho, ell_min, ell_max) == rho * math.e


def test_bifurcation_scan_no_transition():
    with pytest.raises(NoTransitionError):
        bifurcation_scan(2.0, 6.0, 7.0)  # already above threshold everywhere
    with pytest.raises(NoTransitionError):
        bifurcation_scan(2.0, 4.0, 5.0)  # below it everywhere
    with pytest.raises(NoTransitionError):
        # the degenerate pair at ell_min: points exist over the whole range
        bifurcation_scan(2.0, 2.0 * math.e - 5e-10, 7.0)
    with pytest.raises(ValueError):
        bifurcation_scan(2.0, 7.0, 6.0)


@pytest.mark.parametrize("ell_min, message", [
    (math.nan, "proportional gain needs a positive decay length ell_min"),
    (0.0, "proportional gain needs a positive decay length ell_min"),
    (math.inf, "ell_min must be finite, got inf"),
], ids=["nan", "zero", "inf"])
def test_bifurcation_scan_names_a_bad_ell_min(ell_min, message):
    # the lower bound is named as the argument it is, not as ell
    with pytest.raises(ValueError) as exc:
        bifurcation_scan(2.0, ell_min, 7.0)
    assert str(exc.value) == message


# ----------------------------------------------------------------------
# Convergence taxonomy
# ----------------------------------------------------------------------

def test_classify_unconditional_kinds():
    init = PolarState(r=4.0, eta=0.0, psi=math.pi / 2)
    assert classify_convergence("static", 2.0, 6.5, init) == "unconditional"
    assert classify_convergence("inverse", 2.0, 5.8, init) == "unconditional"


def test_classify_proportional_cases():
    trapped = PolarState(r=4.0, eta=0.0, psi=math.pi / 2)  # |Q| = 11.58 > 10.00
    assert classify_convergence(
        "proportional", 2.0, 6.5, trapped) == "conditional_bounded"
    leaking = PolarState(r=4.0, eta=0.0, psi=0.4)  # |Q| below the critical level
    assert classify_convergence(
        "proportional", 2.0, 6.5, leaking) == "conditional_unbounded"
    outside = SimpleNamespace(r=20.0, psi=math.pi / 2)  # beyond the saddle
    assert classify_convergence(
        "proportional", 2.0, 6.5, outside) == "conditional_unbounded"
    assert classify_convergence(
        "proportional", 2.0, 5.4, trapped) == "divergent"


def test_classify_and_portrait_share_one_ladder():
    # the portrait's class is the classifier's before the start refines it
    init = SimpleNamespace(r=4.0, psi=math.pi / 2)
    for kind, ell in (("static", 6.5), ("inverse", 5.8),
                      ("proportional", 5.4), ("proportional", 6.5),
                      ("proportional", 2.0 * math.e + 1e-12)):
        label = classify_convergence(kind, 2.0, ell, init)
        ladder = portrait(kind, 2.0, ell,
                          grid=PortraitGrid(nu=3, nw=3)).classification
        assert label.startswith(ladder)


def test_classify_rejects_a_nan_heading():
    # a NaN psi once read "conditional_unbounded"
    with pytest.raises(ValueError, match="init.psi"):
        classify_convergence("proportional", 2.0, 6.5,
                             SimpleNamespace(r=4.0, psi=math.nan))


@pytest.mark.parametrize("kind, ell", [
    ("static", None), ("inverse", 5.8), ("proportional", 4.0),
    ("proportional", 6.5)])
@pytest.mark.parametrize("r", [-1.0, 0.0, -0.0])
def test_classify_rejects_a_nonpositive_radius(kind, ell, r):
    # r = -1 once read "unconditional" (static, inverse) or "divergent"
    # (proportional, ell 4)
    with pytest.raises(ValueError, match=(
            f"^init.r must be finite and positive, got {r}")):
        classify_convergence(kind, 2.0, ell, SimpleNamespace(r=r, psi=1.0))


def test_classify_needs_ell_for_proportional():
    with pytest.raises(ValueError):
        classify_convergence("proportional", 2.0, None,
                             SimpleNamespace(r=4.0, psi=1.0))


def test_classify_indeterminate_cases():
    # ell within tolerance of the threshold
    init = SimpleNamespace(r=4.0, psi=math.pi / 2)
    assert classify_convergence(
        "proportional", 2.0, 2.0 * math.e + 1e-12, init) == "indeterminate"
    # |Q| exactly on the separatrix level
    q_cr = critical_q(2.0, 6.5)
    h5 = float(radial_envelope("proportional", 5.0, 2.0, 6.5))
    on_separatrix = SimpleNamespace(r=5.0, psi=math.asin(q_cr / h5))
    assert classify_convergence(
        "proportional", 2.0, 6.5, on_separatrix) == "indeterminate"


def _check_one_band(rho):
    # fixed_points, classify_convergence, critical_q and radial_bounds all
    # read one band around ell = rho e, of half-width 1e-9 min(1, rho e)
    init = SimpleNamespace(r=2.0 * rho, psi=math.pi / 2)
    ell_c = rho * math.e
    scale = min(1.0, ell_c)
    for offset in (-1.5e-9, -0.9e-9, 0.0, 0.9e-9, 1.5e-9, 3e-9):
        ell = ell_c + offset * scale
        in_band = abs(offset) < 1e-9
        conditional = offset > 0 and not in_band
        degenerate = [fp.kind for fp in fixed_points(
            "proportional", rho, ell)] == ["degenerate"] * 2
        indeterminate = classify_convergence(
            "proportional", rho, ell, init) == "indeterminate"
        assert degenerate == indeterminate == in_band, offset
        try:
            critical_q(rho, ell)
            has_saddle = True
        except NoSaddleError:
            has_saddle = False
        assert has_saddle == conditional, offset
        # the envelope at r = ell, where center and saddle merge, is a
        # trapped level wherever a saddle exists
        h = float(radial_envelope("proportional", ell, rho, ell))
        status = radial_bounds("proportional", h, rho, ell).status
        assert status == ("conditional" if conditional else "unbounded"), (
            offset)


def test_degenerate_and_indeterminate_mark_one_band():
    _check_one_band(2.0)


def test_the_band_is_relative_below_unit_rho_e():
    # an absolute 1e-9 band would hold all of ell in (0, 1e-9 + rho e)
    _check_one_band(1e-10)
    assert fixed_points("proportional", 1e-10, 1e-10) == []
    init = SimpleNamespace(r=2e-10, psi=math.pi / 2)
    assert classify_convergence(
        "proportional", 1e-10, 1e-10, init) == "divergent"


# ----------------------------------------------------------------------
# Portrait reports
# ----------------------------------------------------------------------

def test_portrait_static():
    rep = portrait("static", 2.0, 6.5)
    assert rep.classification == "unconditional"
    assert rep.q_critical is None and rep.separatrix_q is None
    assert len(rep.fixed_points) == 2
    assert np.isfinite(rep.q_grid).all()
    assert rep.q_grid.shape == (121, 121)


def test_portrait_proportional_and_writers(tmp_path):
    rep = portrait("proportional", 2.0, 6.5,
                   grid=PortraitGrid(nu=41, nw=41))
    assert rep.classification == "conditional"
    assert rep.q_critical == pytest.approx(10.003585736854543, abs=1e-9)
    assert sorted(rep.separatrix_q) == pytest.approx(
        [-rep.q_critical, rep.q_critical])
    json_path = tmp_path / "report.json"
    rep.write_json(json_path)
    payload = json.loads(json_path.read_text())
    assert payload["kind"] == "proportional"
    assert len(payload["fixed_points"]) == 4  # two radii, psi = +/- pi/2 each
    assert payload["grid"]["nu"] == 41
    csv_path = tmp_path / "grid.csv"
    rep.write_grid_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r_cos_psi,r_sin_psi,Q"
    assert len(lines) == 1 + 41 * 41
    # Q vanishes along sin(psi) = 0; the grid row nearest w = 0 must be tiny
    w0_rows = [ln for ln in lines[1:] if abs(float(ln.split(",")[1])) < 1e-12]
    assert w0_rows and all(abs(float(ln.split(",")[2])) < 1e-12 for ln in w0_rows)


def test_portrait_grid_validation():
    with pytest.raises(ValueError):
        PortraitGrid(u_min=5.0, u_max=-5.0)
    with pytest.raises(ValueError):
        PortraitGrid(nu=1)


@pytest.mark.parametrize("extents", [
    {"u_min": -math.inf}, {"u_max": math.inf}, {"w_min": -math.inf},
    {"w_min": -math.inf, "w_max": math.inf}, {"u_max": math.nan}])
def test_portrait_grid_extents_are_finite(extents):
    # an infinite extent once gave a grid whose r_cos_psi and Q were NaN
    with pytest.raises(ValueError, match="finite"):
        PortraitGrid(**extents)


@pytest.mark.parametrize("counts", [
    {"nu": 2.5}, {"nu": 121.0}, {"nu": math.nan}, {"nw": 2.5},
    {"nw": 121.0}, {"nw": math.nan}])
def test_portrait_grid_counts_are_whole_numbers(counts):
    # nu = 121.0 once died in numpy's linspace with a TypeError
    (name,) = counts
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        PortraitGrid(**counts)
    assert PortraitGrid(nu=np.int64(3), nw=np.int64(4)).nw == 4


def test_a_portrait_grid_cannot_be_changed_after_its_checks():
    # nu = 2.5 set after construction once made portrait die in numpy's
    # linspace, past the named ValueError
    grid = PortraitGrid()
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.nu = 2.5
    with pytest.raises(ValueError, match="nu must be a whole number"):
        dataclasses.replace(grid, nu=2.5)
    assert type(PortraitGrid(nu=np.int64(3)).nu) is int
