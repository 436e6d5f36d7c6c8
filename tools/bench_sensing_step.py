"""Time one RK4 step of each driver and the bundle's first-mode map build.

Usage: python tools/bench_sensing_step.py [SRC_DIR] [ROUNDS]

Imports phaseseek from SRC_DIR (default: the src/ next to this file), so
the same script times any checkout. It prints one JSON object:

* bundle_step_us: one RK4 step of the README wake seek (synthetic wake,
  proportional gain 0.5, windowed sensing from (8, 0, pi), dt 5e-3);
* radial_windowed_step_us: one RK4 step of a windowed radial run
  (ell 6.5, static gain 0.5, from (4, 0, 1.3), dt 1e-2) over 10 s, 1000
  steps, as 200 steps did not resolve it;
* analytic_step_us: one RK4 step of the README radial run with analytic
  sensing (ell 6.5, static gain 0.5, from (4, 0, pi/2), dt 1e-3);
* polar_step_us: one RK4 step of simulate_polar per gain kind, an object
  keyed by kind, on the convergence taxonomy's reduced run (g0 0.5, no
  alignment error, dt 1e-2, r_escape 50; ell 6.5 for static and
  proportional gain and 5.8 for inverse, from r 3, psi 1.2) over 20 s;
* theory_us: the closed-form theory of one start per gain kind, an
  object keyed by kind: one classify_convergence, one conserved_quantity
  and one radial_bounds call at the polar_step_us start and law (rho 2),
  timed over 100 starts per call;
* map_build_ms: one build of the synthetic wake's first-mode map, the
  one-off cost a bundle field pays on its first windowed sample (null on
  a tree without the map);
* spectral_grids_ms: one spectral_grids call on the synthetic wake;
* csv_row_us: one row of the README radial run's 12-column trajectory
  (the analytic run above, 2001 rows) written by Trajectory.write_csv,
  that is by write_float_csv;
* grid_csv_ms: one write_grid_csv of the README portrait
  (portrait("proportional", 2.0, 6.5), the default 121 x 121 Q grid).

Every figure is scaled as perfbench scales its workloads: the reference
kernel is timed before the first call and after each, and
perfbench/harness.py's scale() multiplies each call's time by REFERENCE_S
over the median of the four kernel times nearest to it, so a figure reads
the same on a faster or a busier machine. Each step figure is the median
over ROUNDS (default 5) scaled runs, of 2 s of simulated time unless
stated, divided by the run's step count, so a run's one-off set-up (the
map build included) is spread over its steps.
The map, grid and CSV figures are medians over 4 * ROUNDS scaled calls.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path


def main(argv):
    here = Path(__file__).resolve().parent
    src = Path(argv[0]) if argv else here.parent / "src"
    rounds = int(argv[1]) if len(argv) > 1 else 5
    # phaseseek from src, the reference kernel from this checkout's
    # perfbench, which is only read
    sys.path[:0] = [str(src), str(here.parent / "perfbench")]
    # the quasi-steady check warns on these starts; the timing ignores it
    warnings.simplefilter("ignore")
    from harness import scale, time_reference

    def timed(fn, calls):
        # median over calls of fn's time, with the reference kernel timed
        # before the first call and after each, scaled as perfbench scales
        # its ops
        seconds, refs = [], [time_reference()]
        for _ in range(calls):
            start = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - start)
            refs.append(time_reference())
        return float(statistics.median(scale(seconds, refs)))

    from phaseseek import (AgentState, GainLaw, PolarState, RadialField,
                           classify_convergence, conserved_quantity,
                           field_from_bundle, portrait, radial_bounds,
                           radial_m_field, simulate, simulate_polar,
                           spectral_grids, synth_wake)

    bundle = synth_wake()
    wake_law = GainLaw("proportional", 0.5)

    def bundle_run():
        # a new field per run, as each CLI command builds one
        return simulate(AgentState(8.0, 0.0, math.pi),
                        field_from_bundle(bundle), wake_law, dt=5e-3,
                        t_end=2.0, r_stop=0.5, sensing="windowed")

    radial = RadialField(6.5)
    radial_law = GainLaw("static", 0.5)

    def radial_run():
        return simulate(AgentState(4.0, 0.0, 1.3), radial, radial_law,
                        dt=1e-2, t_end=10.0, sensing="windowed")

    def analytic_run():
        return simulate(AgentState(4.0, 0.0, math.pi / 2), radial,
                        radial_law, dt=1e-3, t_end=2.0)

    def polar_run(kind, ell):
        law, m_field = GainLaw(kind, 0.5), radial_m_field(ell)
        return lambda: simulate_polar(PolarState(3.0, 0.0, 1.2), None, law,
                                      m_field, 1e-2, 20.0, r_escape=50.0)

    def step_us(run):
        steps = len(run().t) - 1
        return timed(run, rounds) / steps * 1e6

    result = {name: step_us(run) for name, run in (
        ("bundle_step_us", bundle_run),
        ("radial_windowed_step_us", radial_run),
        ("analytic_step_us", analytic_run))}
    def theory_us(kind, ell, starts=100):
        start = PolarState(3.0, 0.0, 1.2)

        def run():
            for _ in range(starts):
                classify_convergence(kind, 2.0, ell, start)
                radial_bounds(kind, conserved_quantity(
                    kind, start.r, start.psi, 2.0, ell), 2.0, ell)
        return timed(run, rounds * 4) / starts * 1e6

    laws = (("static", 6.5), ("proportional", 6.5), ("inverse", 5.8))
    result["polar_step_us"] = {kind: step_us(polar_run(kind, ell))
                               for kind, ell in laws}
    result["theory_us"] = {kind: theory_us(kind, ell) for kind, ell in laws}
    from phaseseek import wake
    build = getattr(wake, "_first_mode_map", None)
    result["map_build_ms"] = (None if build is None else
                              timed(lambda: build(bundle), rounds * 4) * 1e3)
    result["spectral_grids_ms"] = timed(lambda: spectral_grids(bundle),
                                        rounds * 4) * 1e3
    trajectory = analytic_run()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.csv"
        result["csv_row_us"] = timed(lambda: trajectory.write_csv(path),
                                     rounds * 4) / len(trajectory) * 1e6
        report = portrait("proportional", 2.0, 6.5)
        result["grid_csv_ms"] = timed(lambda: report.write_grid_csv(path),
                                      rounds * 4) * 1e3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
