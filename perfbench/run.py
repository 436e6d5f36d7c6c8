"""Layered benchmark for phaseseek.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload seek-analytic --seed 1 \\
        --seconds 30 --trace 0

Workloads: seek-analytic, seek-windowed, taxonomy (see BENCHMARK.json and
perfbench/README.md). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. Each metric goes to
stdout as ``name = value unit``; the last line is one JSON object with
the keys correct, attempted, failed and metrics. Full results, machine
facts and the first spans of a traced run go to .perfbench_out/.
"""

import os

# pin BLAS and OpenMP pools to one thread before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Put ./src first on the path and import phaseseek from it."""
    if not (SRC / "phaseseek" / "__init__.py").is_file():
        raise SystemExit(f"error: no phaseseek package under {SRC}")
    sys.path.insert(0, str(SRC))
    import phaseseek
    if SRC.resolve() not in Path(phaseseek.__file__).resolve().parents:
        raise SystemExit(f"error: phaseseek imported from "
                         f"{phaseseek.__file__}, not from {SRC}")


def write_spans(path, spans):
    from tracer import SPAN_NAMES
    columns = [spans[k].tolist()
               for k in ("name", "parent", "op", "start", "end", "raised")]
    with open(path, "w") as fh:
        fh.write("span,name,parent,op,start,end,raised\n")
        for i, (name, parent, op, start, end, raised) in enumerate(
                zip(*columns)):
            fh.write(f"{i},{SPAN_NAMES[name]},{parent},{op},{start!r},"
                     f"{end!r},{int(raised)}\n")


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from harness import END_TO_END_UNITS, PER_LAYER_UNITS, Run, machine_facts
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              ROOT, SRC)
    run.setup()
    repetitions = run.measure()
    if args.trace:
        values, extra = run.per_layer(), {}
        units = PER_LAYER_UNITS
    else:
        values, extra = run.end_to_end()
        units = END_TO_END_UNITS
    statuses = run.status_counts()
    attempted = len(run.ops) * repetitions
    failed = (len(run.ops) - statuses["ok"]) * repetitions
    absent = run.tracer.absent if run.tracer is not None else []
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name.rsplit(".", 1)[0] not in absent
    }
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": repetitions, **extra,
        "ops": [{"kind": op.kind, "args": op.args, "status": v.status,
                 "steps": v.steps, "note": v.note, "scaled_s": float(t)}
                for op, v, t in zip(run.ops, run.verdicts, run.op_latencies())],
        "problems": run.problems,
        "absent_layers": absent,
        "missing_lookups": run.tracer.missing if run.tracer else [],
        "machine": machine_facts(),
    }
    stem = f"seed{args.seed}_trace{args.trace}"
    with open(run.base / f"result_{stem}.json", "w") as fh:
        json.dump({**result, **details}, fh, indent=2, sort_keys=True)
    if run.first_spans is not None:
        write_spans(run.base / "spans.csv", run.first_spans)

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for name in absent:
        print(f"{name}: absent (no such function to wrap)")
    for key in ("op_ms.tail_percentile", "op_count", "repetitions"):
        if key in details:
            print(f"{key} = {details[key]!r}")
    print("machine = " + json.dumps(details["machine"], sort_keys=True))
    for line in run.problems:
        print(f"incorrect: {line}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
