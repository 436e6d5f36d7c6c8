"""Slow, independent reference computations backing the unit tests.

Everything here is deliberately naive: bisection on monotone brackets,
brute-force residual checks, a bundle's bilinear read one point at a
time, closed loops that build a spectrum or a five-window sample object
at every RK4 stage, and the reduced polar loop written out stage by
stage. The point is to agree with the fast library
code without sharing any of its machinery; the closed loops share only
the public per-stage sensing pieces (spectra or spectral_sample), and the
polar loop shares nothing. All spell the gain law out (gain_ref), and the
closed loops spell the steering signal out too (steer_ref). The
linearization pair (eigenvalues_ref) differences the reduced flow in
mpmath, so it shares neither the closed form nor the float Jacobian. The
turning radii (turning_radius_ref) are bisected in mpmath on the log of
the envelope, so no level underflows, and the orbit's clock
(orbit_clock_ref), its radial period and the advance of eta per period,
is integrated in mpmath over the level set between them, so it shares no
rate with either driver or with polar_ref. The float CSV
(float_csv_ref) and the grid CSV (grid_csv_ref) are spelled a row at a
time.
"""

import math


def bisect(fn, lo, hi, iters=200):
    """Root of fn on [lo, hi] by plain bisection; fn(lo), fn(hi) must differ in sign."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert (flo > 0) != (fhi > 0), "bisect needs a sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_w0_ref(z):
    """Principal branch of w e^w = z via bisection. Needs z >= -1/e."""
    if z == 0.0:
        return 0.0
    lo = -1.0
    hi = 1.0 if z <= 0 else max(1.0, math.log(z) + 1.0)
    return bisect(lambda w: w * math.exp(w) - z, lo, hi, iters=300)


def lambert_wm1_ref(z):
    """Lower branch of w e^w = z via bisection. Needs -1/e <= z < 0."""
    return bisect(lambda w: w * math.exp(w) - z, -750.0, -1.0, iters=300)


def center_radius_ref(kind, rho, ell):
    """Turning-rate balance V/r = G(r)/1 solved by bisection, center root."""
    if kind == "static":
        return rho
    if kind == "proportional":
        # r e^{-r/ell} = rho, smaller root sits below ell
        return bisect(lambda r: r * math.exp(-r / ell) - rho, 1e-9, ell)
    if kind == "inverse":
        # r e^{r/ell} = rho, single root below rho
        return bisect(lambda r: r * math.exp(r / ell) - rho, 1e-9, rho)
    raise ValueError(kind)


def saddle_radius_ref(rho, ell):
    """Larger balance root of the proportional law (exists for ell > rho e)."""
    return bisect(lambda r: r * math.exp(-r / ell) - rho, ell, 60.0 * ell)


def eigenvalues_ref(kind, r_star, psi_star, rho, ell=None, v=1.0):
    """Linearization pair of the reduced flow at (r_star, psi_star), as
    Python complex numbers sorted by (real, imag).

    The flow dr/dt = -v cos psi, dpsi/dt = (v / r - G(r)) sin psi, with
    G = (v / rho) times 1, exp(-r / ell) or exp(r / ell), is differenced
    centrally in mpmath at 50 digits (steps 1e-20 r_star and 1e-20), and
    the pair is tr/2 -/+ sqrt(tr^2/4 - det) of that 2x2 Jacobian.
    """
    import mpmath

    with mpmath.workdps(50):
        v, rho = mpmath.mpf(v), mpmath.mpf(rho)
        r, psi = mpmath.mpf(r_star), mpmath.mpf(psi_star)

        def gain(x):
            if kind == "static":
                return v / rho
            if kind == "proportional":
                return v / rho * mpmath.exp(-x / ell)
            return v / rho * mpmath.exp(x / ell)

        def flow(x, a):
            return (-v * mpmath.cos(a), (v / x - gain(x)) * mpmath.sin(a))

        h_r, h_psi = r * mpmath.mpf("1e-20"), mpmath.mpf("1e-20")
        (a_p, c_p), (a_m, c_m) = flow(r + h_r, psi), flow(r - h_r, psi)
        (b_p, d_p), (b_m, d_m) = flow(r, psi + h_psi), flow(r, psi - h_psi)
        a, c = (a_p - a_m) / (2 * h_r), (c_p - c_m) / (2 * h_r)
        b, d = (b_p - b_m) / (2 * h_psi), (d_p - d_m) / (2 * h_psi)
        half_trace = (a + d) / 2
        root = mpmath.sqrt(mpmath.mpc(half_trace ** 2 - (a * d - b * c)))
        pair = [complex(half_trace - root), complex(half_trace + root)]
    return sorted(pair, key=lambda z: (z.real, z.imag))


def _log_envelope(kind, rho, ell):
    """log h(e^u) in mpmath, as a function of u = log r, for the envelope
    h(r) = (r / rho) exp(-int G/V dr) with the gain integral in the
    library's convention: r / rho (static), -(ell / rho) e^(-r / ell)
    (proportional) or (ell / rho) e^(r / ell) (inverse)."""
    import mpmath

    def log_h(u):
        r = mpmath.exp(u)
        if kind == "static":
            integral = r / rho
        elif kind == "proportional":
            integral = -(ell / rho) * mpmath.exp(-r / ell)
        else:
            integral = (ell / rho) * mpmath.exp(r / ell)
        return u - mpmath.log(rho) - integral
    return log_h


def _bisect_mp(fn, lo, hi, iters):
    """Root of fn on [lo, hi] by plain bisection, in mpmath."""
    f_lo = fn(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        f_mid = fn(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _turning_logs(kind, log_q, rho, ell, iters):
    """(u_min, u_max), the logs of the two radii where log h = log_q, in
    mpmath at the working precision.

    The envelope peaks where r G(r) / V = 1: at rho for static gain, and
    bisected below rho (inverse) or below ell (proportional, its centre).
    Unit steps in u away from the peak bracket each root, except the outer
    root of proportional gain, which lies between the peak and the saddle,
    where r G / V falls back to 1 above ell.
    """
    import mpmath

    log_h = _log_envelope(kind, rho, ell)

    def excess(u):
        return log_h(u) - log_q

    def turn_rate(u):
        # r G(r) / V - 1; never called for static gain
        r = mpmath.exp(u)
        return r / rho * mpmath.exp(
            -r / ell if kind == "proportional" else r / ell) - 1

    if kind == "static":
        u_peak = mpmath.log(rho)
    else:
        top = mpmath.log(rho if kind == "inverse" else ell)
        u_peak = _bisect_mp(turn_rate, top - 60, top, iters)
    assert excess(u_peak) > 0, "level above the envelope's peak"
    logs = []
    for step in (-1, 1):
        if kind == "proportional" and step == 1:
            u_saddle = _bisect_mp(turn_rate, mpmath.log(ell),
                                  mpmath.log(ell) + 60, iters)
            logs.append(_bisect_mp(excess, u_peak, u_saddle, iters))
            continue
        near = u_peak
        while excess(near + step) > 0:
            near += step
        logs.append(_bisect_mp(excess, near, near + step, iters))
    return tuple(logs)


def turning_radius_ref(kind, q, rho, ell, side):
    """Turning radius of a trapped orbit at level |q| != 0 on one side
    ("min" or "max") of the envelope's peak, as a float.

    At 60 digits, with u = log r, the two roots of log h(e^u) = log |q|
    are bracketed by _turning_logs and resolved by 300 bisections in u, so
    no level underflows. For proportional gain the level must lie above
    the critical one, so that the outer root lies inside the saddle.
    """
    import mpmath

    with mpmath.workdps(60):
        rho = mpmath.mpf(rho)
        ell = None if ell is None else mpmath.mpf(ell)
        logs = _turning_logs(kind, mpmath.log(abs(mpmath.mpf(q))), rho, ell,
                             300)
        return float(mpmath.exp(logs[side == "max"]))


def orbit_clock_ref(kind, rho, ell, r0, psi0, v=1.0):
    """The clock of the trapped orbit through (r0, psi0) from its geometry:
    (period, advance), floats.

    On the level set |Q| = h(r) |sin psi|, with Q = h(r0) sin psi0,
    dr/dt = -V cos psi and deta/dt = V sin psi / r, so the radial period
    is T = 2 int dr / (V sqrt(1 - Q^2 / h^2)) from r_min to r_max, and
    eta advances by 2 int (Q / (h r)) / sqrt(1 - Q^2 / h^2) dr per period
    (signed as Q). At 30 digits the turning radii come from _turning_logs,
    r = r_min + (r_max - r_min) (1 - cos w) / 2 takes the endpoint
    singularities out, and mpmath.quad integrates over w in [0, pi] by
    Gauss-Legendre, whose nodes stay clear of the ends.
    """
    import mpmath

    with mpmath.workdps(30):
        rho, v = mpmath.mpf(rho), mpmath.mpf(v)
        ell = None if ell is None else mpmath.mpf(ell)
        log_h = _log_envelope(kind, rho, ell)
        q = mpmath.exp(log_h(mpmath.log(r0))) * mpmath.sin(psi0)
        a, b = map(mpmath.exp, _turning_logs(kind, mpmath.log(abs(q)), rho,
                                             ell, 110))

        def rates(w):
            # dt/dw and deta/dw, where sin psi = Q / h(r)
            r = a + (b - a) * (1 - mpmath.cos(w)) / 2
            sin_psi = q / mpmath.exp(log_h(mpmath.log(r)))
            dt = (b - a) / 2 * mpmath.sin(w) / (
                v * mpmath.sqrt(1 - sin_psi * sin_psi))
            return dt, v * sin_psi / r * dt

        period, advance = (
            2 * mpmath.quad(lambda w: rates(w)[i], [0, mpmath.pi],
                            method="gauss-legendre") for i in (0, 1))
        return float(period), float(advance)


def float_csv_ref(header, columns):
    """The text of a float CSV, spelled row by row: the header line, then
    each row's values as repr(float) joined by commas, every line ending in
    a newline."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, map(float, row))) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines)


def grid_csv_ref(header, x, y, grids):
    """The text of a grid CSV, spelled row by row: the header line, then
    one line per node (x[i], y[j]), x fastest, of x[i], y[j] and each
    grid's [j][i] value as repr(float) joined by commas."""
    lines = [",".join(header)]
    for j, y_j in enumerate(y):
        for i, x_i in enumerate(x):
            cells = [x_i, y_j] + [grid[j][i] for grid in grids]
            lines.append(",".join(repr(float(c)) for c in cells))
    return "".join(line + "\n" for line in lines)


def gain_ref(law, m):
    """G(m) spelled out from law.kind, law.g0 and law.m_floor."""
    kind = getattr(law.kind, "value", law.kind)
    if kind == "static":
        return law.g0
    if kind == "proportional":
        return law.g0 * m
    return law.g0 / max(m, law.m_floor)


def steer_ref(gx, gy, theta):
    """Steering signal s from the phase gradient (gx, gy) at heading theta.

    The gradient is projected onto the body's lateral axis
    (-sin theta, cos theta) and divided by its norm, which normalises it
    with the library's rounding, then clipped to [-1, 1] with min and max.
    A zero gradient has no direction.
    """
    from phaseseek import UndefinedDirectionError

    norm = math.hypot(gx, gy)
    if norm == 0.0:
        raise UndefinedDirectionError("zero phase gradient has no direction")
    s = (-gx * math.sin(theta) + gy * math.cos(theta)) / norm
    return min(1.0, max(-1.0, s))


def bilinear_ref(bundle, table, point, outside):
    """Bilinear read of a per-node table at one point, as BundleField
    documents it: table[j][i] holds node (i, j); a point outside the
    rectangle of nodes, edges included, reads `outside`.

    At u = (x - x0) / dx, v = (y - y0) / dy the cell corner is
    i = min(floor(u), nx - 2), j = min(floor(v), ny - 2), so the far
    edges read their own nodes, and with fu = u - i, fv = v - j the read
    is (1 - fu) * (1 - fv) * c00 + fu * (1 - fv) * c10
    + (1 - fu) * fv * c01 + fu * fv * c11, summed in that order.
    """
    x, y = float(point[0]), float(point[1])
    x_last = bundle.x0 + bundle.dx * (bundle.nx - 1)
    y_last = bundle.y0 + bundle.dy * (bundle.ny - 1)
    if not (bundle.x0 <= x <= x_last and bundle.y0 <= y <= y_last):
        return outside
    u = (x - bundle.x0) / bundle.dx
    v = (y - bundle.y0) / bundle.dy
    i = min(math.floor(u), bundle.nx - 2)
    j = min(math.floor(v), bundle.ny - 2)
    fu, fv = u - i, v - j
    c00, c10 = table[j][i], table[j][i + 1]
    c01, c11 = table[j + 1][i], table[j + 1][i + 1]
    return ((1 - fu) * (1 - fv) * c00 + fu * (1 - fv) * c10
            + (1 - fu) * fv * c01 + fu * fv * c11)


def _loop_ref(stage, field, law, pose, dt, t_end, r_stop, r_escape, v,
              q_of, pad):
    """The closed loop one recorded row at a time, in TRAJECTORY_COLUMNS
    order. stage(x, y, th, t) gives the sensed (m, s); a pose steps only
    while its four corners at +/- pad lie in field.bounds, edges included
    (everywhere when bounds is None)."""
    from phaseseek import DegenerateMagnitudeError

    # a sensing fault: a magnitude below the floor, or any ValueError the
    # field raises while sensing
    faults = (DegenerateMagnitudeError, ValueError)

    def deriv(x, y, th, t):
        m, s = stage(x, y, th, t)
        g = gain_ref(law, m)
        return (v * math.cos(th), v * math.sin(th), g * s), (m, s, g)

    def wrap(a):
        return math.pi - (math.pi - a) % (2.0 * math.pi)

    def row(t, x, y, th, sample):
        r = math.hypot(x, y)
        eta = math.atan2(y, x)
        psi = wrap(math.pi - (th - eta)) if r > 0 else math.nan
        q = q_of(r, psi) if q_of is not None and r > 0 else math.nan
        m, s, g = sample
        return (t, x, y, wrap(th), r, eta, psi, m, s, g, g * s, q)

    def inside(px, py):
        if field.bounds is None:
            return True
        x0, y0, x1, y1 = field.bounds
        return x0 <= px <= x1 and y0 <= py <= y1

    x, y, th = pose
    t = 0.0
    rows = []
    while True:
        r = math.hypot(x, y)
        if r == 0.0:
            termination = "origin_singularity"
            break
        if r < r_stop:
            termination = "reached_source"
            break
        if r > r_escape:
            termination = "escaped"
            break
        if not all(inside(x + a * pad, y + b * pad)
                   for a in (-1.0, 1.0) for b in (-1.0, 1.0)):
            termination = "left_domain"
            break
        if t >= t_end - 0.5 * dt:
            termination = "t_end"
            break
        try:
            k1, sample = deriv(x, y, th, t)
            k2, _ = deriv(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1],
                          th + 0.5 * dt * k1[2], t + 0.5 * dt)
            k3, _ = deriv(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1],
                          th + 0.5 * dt * k2[2], t + 0.5 * dt)
            k4, _ = deriv(x + dt * k3[0], y + dt * k3[1], th + dt * k3[2],
                          t + dt)
        except faults:
            termination = "sensing_failure"
            break
        rows.append(row(t, x, y, th, sample))
        x, y, th = (
            p + dt / 6.0 * (a + 2 * b + 2 * c + d)
            for p, a, b, c, d in zip((x, y, th), k1, k2, k3, k4))
        t = t + dt
    try:
        _, sample = deriv(x, y, th, t)
    except faults:
        sample = (math.nan, math.nan, math.nan)
    rows.append(row(t, x, y, th, sample))
    return termination, rows


def closed_loop_ref(field, law, pose, dt, t_end, r_stop, r_escape, v=1.0,
                    q_of=None):
    """Analytic closed loop the plain way: one spectrum object per RK4 stage.

    Built only from the public field.analytic_spectra plus steer_ref and
    gain_ref. q_of(r, psi) supplies Q where one is defined. Returns
    (termination, rows).
    """
    def stage(x, y, th, t):
        truth = field.analytic_spectra((x, y))
        gx, gy = truth.grad_phi
        return truth.m, steer_ref(float(gx), float(gy), th)

    return _loop_ref(stage, field, law, pose, dt, t_end, r_stop, r_escape, v,
                     q_of, pad=0.0)


def windowed_loop_ref(field, law, pose, dt, t_end, r_stop, r_escape, v=1.0,
                      q_of=None, config=None):
    """Windowed closed loop the plain way: one five-window spectral_sample
    per RK4 stage, taken at the stage's time, steered by steer_ref.

    The pose steps only while the stencil plus one step of travel lies in
    the field's domain. Otherwise as closed_loop_ref.
    """
    from phaseseek import SensingConfig, spectral_sample

    config = SensingConfig() if config is None else config

    def stage(x, y, th, t):
        sample = spectral_sample(field, (x, y), t, th, config)
        gx, gy = sample.grad_phi
        return sample.m, steer_ref(float(gx), float(gy), th)

    return _loop_ref(stage, field, law, pose, dt, t_end, r_stop, r_escape, v,
                     q_of, pad=config.stencil_h + v * dt)


def polar_ref(r, eta, psi, delta_field, law, m_field, dt, t_end, v=1.0,
              r_floor=1e-9, r_escape=math.inf):
    """Reduced (r, eta, psi) dynamics the plain way: four written-out stages.

    delta_field None means zero alignment error. A stage at r <= 0 ends
    the run at the origin. Returns (termination, rows of (t, r, eta, psi)).
    """
    def deriv(r, eta, psi):
        if r <= 0.0:
            return None
        d = 0.0 if delta_field is None else delta_field(r, eta)
        g = gain_ref(law, m_field(r, eta))
        sp, cp = math.sin(psi), math.cos(psi)
        return (-v * cp, v * sp / r,
                v * sp / r - g * (math.cos(d) * sp + math.sin(d) * cp))

    t = 0.0
    rows = [(t, r, eta, psi)]
    while True:
        if r <= r_floor:
            return "origin_singularity", rows
        if r >= r_escape:
            return "escaped", rows
        if t >= t_end - 0.5 * dt:
            return "t_end", rows
        # deriv gives None for a stage at r <= 0; the chain keeps it
        k1 = deriv(r, eta, psi)
        k2 = k1 and deriv(r + 0.5 * dt * k1[0], eta + 0.5 * dt * k1[1],
                          psi + 0.5 * dt * k1[2])
        k3 = k2 and deriv(r + 0.5 * dt * k2[0], eta + 0.5 * dt * k2[1],
                          psi + 0.5 * dt * k2[2])
        k4 = k3 and deriv(r + dt * k3[0], eta + dt * k3[1], psi + dt * k3[2])
        if k4 is None:
            return "origin_singularity", rows
        r, eta, psi = (
            p + dt / 6.0 * (a + 2 * b + 2 * c + d)
            for p, a, b, c, d in zip((r, eta, psi), k1, k2, k3, k4))
        t = t + dt
        rows.append((t, r, eta, psi))
