"""The benchmark's three workloads: seeded op generation and per-op checks.

A run's op list is drawn from a numpy Generator seeded by (seed,
workload), so a seed fixes every input. Ops go through ``cli.main``
wherever a CLI command exists; the taxonomy's polar runs call
``phaseseek.agent`` and ``phaseseek.analysis`` directly. Checks read the
files an op wrote and run after the timed round. Their tolerances are the
acceptance suite's.

A check returns one of three statuses:

* ``ok``    -- the op finished and its output passed the check;
* ``error`` -- the op raised or exited with a code it may not use (the
  seed's zero-gradient exit 2 lands here); counted as failed;
* ``wrong`` -- the op finished but its output is wrong; counted as failed
  and makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from phaseseek import agent, analysis, cli

TWO_PI = 2.0 * math.pi
TERMINATIONS = ("t_end", "reached_source", "escaped", "sensing_failure",
                "left_domain", "origin_singularity")

# acceptance tolerances (tests/test_acceptance.py)
Q_DRIFT_MAX = 1e-8          # criterion 3
WAKE_MAP_TOL = 1e-6         # criterion 8
SCAN_TOL = 1e-6             # criterion 2
FIXED_POINT_TOL = 1e-10     # criterion 1
# windowed radial r(t) against its analytic-sensing twin over t = 20
TWIN_R_TOL = 1e-4


@dataclass(frozen=True)
class Op:
    """One operation: a kind and its generated inputs."""

    kind: str
    args: tuple


@dataclass
class Verdict:
    status: str          # "ok", "error" or "wrong"
    steps: int = 0       # RK4 steps completed
    note: str = ""


def _rng(seed, workload):
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _num(value):
    return repr(float(value))


def _pose_from_polar(r, eta, psi):
    """Cartesian pose of a polar start; theta = pi + eta - psi."""
    return (r * math.cos(eta), r * math.sin(eta), math.pi + eta - psi)


def _init_flag(pose):
    return "--init=" + ",".join(_num(v) for v in pose)


def _read_summary(out):
    with open(out / "run_summary.json") as fh:
        return json.load(fh)["runs"][0]


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows.reshape(-1, len(header))


def _bad_exit(outcome, allowed=(0,)):
    """Verdict for an op that raised or exited with a disallowed code."""
    if outcome.error is not None:
        return Verdict("error", note=outcome.error[:200])
    if outcome.value in allowed:
        return None
    note = f"exit {outcome.value}: {outcome.stderr.strip()}"
    return Verdict("error", note=note[:200])


def _sim_verdict(out, runs_ok):
    """Read a simulate op's single run and apply ``runs_ok`` to it."""
    run = _read_summary(out)
    _, rows = _read_csv(out / run["csv"])
    steps = run["n_samples"] - 1
    problem = runs_ok(run, rows)
    if problem:
        return Verdict("wrong", steps, problem)
    return Verdict("ok", steps)


# ----------------------------------------------------------------------
# seek-analytic
# ----------------------------------------------------------------------

# trapped regimes of acceptance criteria 3 and 4: (gain, ell, r band)
TRAPPED = (("static", 6.5, (3.0, 5.0)),
           ("proportional", 6.5, (3.0, 5.0)),
           ("inverse", 5.8, (2.5, 3.5)))


def _trapped_start(rng, regime):
    kind, ell, (r_lo, r_hi) = regime
    r = rng.uniform(r_lo, r_hi)
    eta = rng.uniform(-math.pi, math.pi)
    psi = math.pi / 2 + rng.uniform(-0.4, 0.4)
    if rng.random() < 0.5:
        psi = -psi
    return kind, ell, _pose_from_polar(r, eta, psi)


class SeekAnalytic:
    """README `simulate --field radial` runs with analytic sensing."""

    name = "seek-analytic"
    per_regime = 12
    dt = "1e-3"
    t_end = "5"

    def setup(self, work):
        pass

    def draw(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        for regime in TRAPPED:
            for _ in range(self.per_regime):
                kind, ell, pose = _trapped_start(rng, regime)
                ops.append(Op("simulate-radial", (
                    "simulate", "--field", "radial", "--ell", _num(ell),
                    "--gain", kind, "--g0", "0.5", _init_flag(pose),
                    "--dt", self.dt, "--t-end", self.t_end)))
        return ops

    def run(self, op, out):
        return cli.main([*op.args, "--out", str(out)])

    def check(self, op, outcome, out):
        bad = _bad_exit(outcome)
        if bad:
            return bad

        def runs_ok(run, rows):
            if run["termination"] != "t_end":
                return f"termination {run['termination']}, expected t_end"
            if not run["q_drift"] < Q_DRIFT_MAX:
                return f"Q drift {run['q_drift']} >= {Q_DRIFT_MAX}"
            if len(rows) != run["n_samples"]:
                return f"{len(rows)} CSV rows, summary says {run['n_samples']}"
            return None

        return _sim_verdict(out, runs_ok)


# ----------------------------------------------------------------------
# seek-windowed
# ----------------------------------------------------------------------

CANONICAL_START = (8.0, 0.0, math.pi)


class SeekWindowed:
    """README wake pipeline plus windowed radial runs."""

    name = "seek-windowed"
    plume_starts = 5
    lattice = (1, 2, 4)

    def setup(self, work):
        self.bundle = work / "wake.wavf"
        return cli.main(["synth-wake", "--out", str(self.bundle)])

    def _bundle_seek(self, pose):
        return Op("simulate-bundle", (
            "simulate", "--field", "bundle", "--bundle", str(self.bundle),
            "--gain", "proportional", "--g0", "0.5", _init_flag(pose),
            "--dt", "5e-3", "--t-end", "40", "--r-stop", "0.5",
            "--sensing", "windowed"))

    def draw(self, seed):
        rng = _rng(seed, self.name)
        ops = [Op("fields-bundle", (
            "fields", "--field", "bundle", "--bundle", str(self.bundle),
            "--source", "0,0")),
            self._bundle_seek(CANONICAL_START)]
        # plume starts cover x in [3, 9], |y| <= 1.5 and heading pi +/- 0.6
        # on a 5-point Korobov lattice (generator 1, 2, 4): one point in
        # every x, y and heading stratum. The seed moves each point by at
        # most 2% of its cell. Whether a seek fails hinges on its start in
        # a way no stratification evens out: freely seeded starts, or a
        # jitter of a fifth of a cell, made ops_ok_frac swing by a quarter
        # between seeds.
        n = self.plume_starts
        for i in range(n):
            cell = [(g * i % n + 0.5 + rng.uniform(-0.02, 0.02)) / n
                    for g in self.lattice]
            pose = (3.0 + 6.0 * cell[0], -1.5 + 3.0 * cell[1],
                    math.pi - 0.6 + 1.2 * cell[2])
            ops.append(self._bundle_seek(pose))
        kind, ell, pose = _trapped_start(rng, TRAPPED[rng.integers(3)])
        ops.append(Op("simulate-radial-windowed", (
            "simulate", "--field", "radial", "--ell", _num(ell),
            "--gain", kind, "--g0", "0.5", _init_flag(pose),
            "--dt", "1e-2", "--t-end", "20")))
        return ops

    def run(self, op, out):
        if op.kind == "fields-bundle":
            return cli.main([*op.args, "--out", str(out / "maps.csv")])
        if op.kind == "simulate-radial-windowed":
            return cli.main([*op.args, "--sensing", "windowed",
                             "--out", str(out)])
        return cli.main([*op.args, "--out", str(out)])

    def check(self, op, outcome, out):
        if op.kind == "fields-bundle":
            return self._check_maps(outcome, out)
        if op.kind == "simulate-radial-windowed":
            return self._check_twin(op, outcome, out)
        canonical = op == self._bundle_seek(CANONICAL_START)
        bad = _bad_exit(outcome, (0,) if canonical else (0, 3))
        if bad:
            return bad

        def runs_ok(run, rows):
            if run["termination"] not in TERMINATIONS:
                return f"unnamed termination {run['termination']!r}"
            if canonical and run["termination"] != "reached_source":
                return f"canonical start ended {run['termination']}"
            # t, x, y, theta, r must be finite on every row
            if not np.isfinite(rows[:, :5]).all():
                return "non-finite pose in trajectory"
            return None

        return _sim_verdict(out, runs_ok)

    def _check_maps(self, outcome, out):
        bad = _bad_exit(outcome)
        if bad:
            return bad
        header, rows = _read_csv(out / "maps.csv")
        col = {name: rows[:, i] for i, name in enumerate(header)}
        # closed form of synth_wake's defaults inside the wake (x >= dx)
        inside = col["x"] >= 0.2 - 1e-12
        x, y = col["x"][inside], col["y"][inside]
        m_true = np.exp(-y ** 2 / 8.0) * np.exp(-x / 10.0)
        m_err = np.max(np.abs(col["m"][inside] - m_true))
        dphi = col["phi"][inside] - np.mod(-x, TWO_PI)
        phi_err = np.max(np.abs(np.mod(dphi + math.pi, TWO_PI) - math.pi))
        if not (m_err < WAKE_MAP_TOL and phi_err < WAKE_MAP_TOL):
            return Verdict("wrong", note=f"map error m {m_err:.2e}, "
                                         f"phi {phi_err:.2e}")
        return Verdict("ok")

    def _check_twin(self, op, outcome, out):
        bad = _bad_exit(outcome)
        if bad:
            return bad
        twin = out / "twin"
        code = cli.main([*op.args, "--sensing", "analytic",
                         "--out", str(twin)])
        if code != 0:
            return Verdict("wrong", note=f"analytic twin exit {code}")
        twin_run = _read_summary(twin)
        _, twin_rows = _read_csv(twin / twin_run["csv"])

        def runs_ok(run, rows):
            if run["termination"] != "t_end":
                return f"termination {run['termination']}, expected t_end"
            if rows.shape != twin_rows.shape:
                return "windowed and analytic runs differ in length"
            gap = np.max(np.abs(rows[:, 4] - twin_rows[:, 4]))
            if not gap <= TWIN_R_TOL:
                return f"r(t) gap to analytic twin {gap:.2e} > {TWIN_R_TOL}"
            return None

        return _sim_verdict(out, runs_ok)


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

RHO = 2.0
# criterion 5 regimes: (gain, ell, r band, |psi| band, allowed labels)
REGIMES = (
    ("static", 6.5, (1.5, 5.0), (0.9, math.pi - 0.9), {"unconditional"}),
    ("proportional", 6.5, (1.0, 10.0), (0.1, math.pi - 0.1),
     {"conditional_bounded", "conditional_unbounded"}),
    ("proportional", 5.4, (1.0, 8.0), (0.3, math.pi - 0.3), {"divergent"}),
    ("inverse", 5.8, (1.0, 4.0), (0.9, math.pi - 0.9), {"unconditional"}),
)
TRAPPED_LABELS = ("unconditional", "conditional_bounded")


def _saddle_level(rho, ell):
    """Saddle radius and critical |Q| of proportional gain, by bisection.

    The saddle is the larger root of r exp(-r/ell) = rho (r > ell), and
    the critical level the envelope (r/rho) exp((ell/rho) exp(-r/ell))
    there. Shares no code with phaseseek.analysis.
    """
    lo, hi = ell, 50.0 * ell
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid / ell) > rho:
            lo = mid
        else:
            hi = mid
    r_s = 0.5 * (lo + hi)
    return r_s, (r_s / rho) * math.exp((ell / rho) * math.exp(-r_s / ell))


def _proportional_trapped(r, psi, ell):
    r_s, q_cr = _saddle_level(RHO, ell)
    q = (r / RHO) * math.sin(psi) * math.exp((ell / RHO) * math.exp(-r / ell))
    return abs(q) > q_cr and r < r_s


class Taxonomy:
    """Convergence taxonomy: classifier against long reduced runs."""

    name = "taxonomy"
    # polar ops per run: (regime index, benchmark-side trapped flag or
    # None, count). Regime 1 is stratified by the benchmark's own oracle,
    # so every run holds the same mix of long (trapped) and short runs.
    plan = ((0, None, 6), (1, True, 5), (1, False, 3), (2, None, 3),
            (3, None, 6))
    dt = 1e-2
    t_end = 600.0
    r_escape = 50.0

    def setup(self, work):
        pass

    def draw(self, seed):
        rng = _rng(seed, self.name)
        ops = []
        rho = rng.uniform(1.0, 3.0)
        for gain, ell in (("static", None), ("proportional", 6.5),
                          ("inverse", 5.8)):
            args = ["analyze", "--gain", gain, "--rho", _num(rho)]
            if ell is not None:
                args += ["--ell", _num(ell)]
            ops.append(Op("analyze", tuple(args)))
        scan_rho = rng.uniform(0.5, 3.0)
        ell_c = scan_rho * math.e
        ops.append(Op("scan", ("scan", "--rho", _num(scan_rho),
                               "--ell-min", _num(0.6 * ell_c),
                               "--ell-max", _num(1.5 * ell_c))))
        for regime_index, trapped, count in self.plan:
            _, ell, r_band, psi_band, _ = REGIMES[regime_index]
            for _ in range(count):
                while True:
                    r = rng.uniform(*r_band)
                    psi = rng.uniform(*psi_band)
                    if rng.random() < 0.5:
                        psi = -psi
                    if trapped is None or (
                            _proportional_trapped(r, psi, ell) == trapped):
                        break
                ops.append(Op("classify-polar", (regime_index, r, psi)))
        return ops

    def run(self, op, out):
        if op.kind == "classify-polar":
            regime_index, r, psi = op.args
            gain, ell, _, _, _ = REGIMES[regime_index]
            init = agent.PolarState(r=r, eta=0.0, psi=psi)
            label = analysis.classify_convergence(gain, RHO, ell, init)
            if label == "indeterminate":
                return label, None
            law = agent.GainLaw(gain, 0.5)

            def m_field(r, eta):
                return math.exp(-r / ell)

            run = agent.simulate_polar(init, None, law, m_field, self.dt,
                                       self.t_end, r_escape=self.r_escape)
            return label, run
        return cli.main([*op.args, "--out", str(out)])

    def check(self, op, outcome, out):
        if op.kind == "classify-polar":
            if outcome.error is not None:
                return Verdict("error", note=outcome.error[:200])
            label, run = outcome.value
            allowed = REGIMES[op.args[0]][4]
            if label == "indeterminate":
                return Verdict("ok", note="indeterminate, no run")
            steps = len(run.t) - 1
            if label not in allowed:
                return Verdict("wrong", steps, f"label {label} not in "
                                               f"{sorted(allowed)}")
            if (label in TRAPPED_LABELS) != (run.termination == "t_end"):
                return Verdict("wrong", steps, f"label {label} but the run "
                                               f"ended {run.termination}")
            return Verdict("ok", steps)
        bad = _bad_exit(outcome)
        if bad:
            return bad
        if op.kind == "scan":
            with open(out / "bifurcation_scan.json") as fh:
                got = json.load(fh)["ell_critical"]
            want = float(op.args[2]) * math.e
            if not abs(got - want) < SCAN_TOL:
                return Verdict("wrong", note=f"scan {got} vs rho e {want}")
            return Verdict("ok")
        with open(out / "portrait_report.json") as fh:
            report = json.load(fh)
        if op.args[2] == "static":
            rho = float(op.args[4])
            gap = max(abs(fp["r"] - rho) for fp in report["fixed_points"])
            if not (len(report["fixed_points"]) == 2
                    and gap < FIXED_POINT_TOL):
                return Verdict("wrong", note=f"static fixed points off "
                                             f"r = rho by {gap:.2e}")
        return Verdict("ok")


WORKLOADS = {w.name: w for w in (SeekAnalytic, SeekWindowed, Taxonomy)}
