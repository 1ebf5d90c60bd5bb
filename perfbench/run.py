"""cycenum benchmark: four closed-loop workloads, a fresh worker per round.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``spectra`` (field and trace-table building
behind `cycenum weights`), ``recovery`` (Gauss sums and the noisy-phase
trial loop), ``macwilliams`` (exact duals, forward and back) and
``factor`` (`cycenum factor`, polynomial layer).

A run is a sequence of rounds. Each round is a fresh single-process
worker (worker.py) with BLAS capped at one thread that sets up and then
issues the workload's operations one at a time. Every round of a run gets
the same inputs, made from ``--seed``; a further round starts while at
least half of it, judged by the last one, fits in ``--seconds``, and a run
has at least MIN_ROUNDS rounds.

The end-to-end metrics are:

- ``wall_s``: median over rounds of the time for the whole operation list;
- ``op_p50_ms``: median over operations of each operation's latency, which
  is its median over the rounds (every round runs the same operations);
- ``op_tail_ms``: the same per-operation latencies at the percentile
  1 - 10 / (operations per round), the highest one that leaves ten
  operations beyond it;
- ``setup_s``: median over rounds of the time from starting the worker to
  its first timed operation (interpreter, imports, declared warm-up);
- ``peak_rss_mib``: median over rounds of the worker's peak resident memory.

The error rate, failed / attempted, is carried by the ``attempted`` and
``failed`` fields of the result, since a metric that reads 0 has no
relative bound. Every output is checked untimed, and every check is shown
to reject a corrupted output; any failure makes ``correct`` false and the
exit code 1.

With ``--trace 1`` each round is a pair: an untraced worker and a traced
one on the same inputs. The traced worker wraps the library's public
functions from outside (tracing.py) and the run reports the per-layer
metrics as medians over traced rounds, plus ``trace.overhead_ratio``, the
traced over the untraced median ``wall_s``, minus 1.

``--workload all`` runs the four workloads one after the other and ends
with one result line whose metric names carry a ``<workload>.`` prefix.

The metric names and units come from BENCHMARK.json at the checkout root.
The last line of stdout is the JSON result; the lines before it are for
people, and the whole record, environment included, is also written to
.perfbench_out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_ROUNDS = 3      # untraced rounds per run
TAIL_BEYOND = 10    # operations beyond the op_tail_ms percentile
MIN_PAIRS = 2       # untraced + traced pairs per traced run
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# The layer split each workload is meant to have, checked on traced runs.
SPLITS = {
    "spectra": ("field build plus trace table > 50% of wall",
                lambda m: m.get("split.field_share", 0.0) > 0.5),
    "recovery": ("characters plus pipeline self time > 50% of wall",
                 lambda m: m.get("split.characters_pipeline_share", 0.0) > 0.5),
    "macwilliams": ("forward >= 30%, back >= 30%, field layer < 1% of wall",
                    lambda m: m.get("split.macwilliams_fwd_share", 0.0) >= 0.3
                    and m.get("split.macwilliams_back_share", 0.0) >= 0.3
                    and m.get("split.field_share", 0.0) < 0.01),
    "factor": ("poly plus codes self time > 50% of wall",
               lambda m: m.get("split.poly_codes_share", 0.0) > 0.5),
}


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker exceeded the run deadline: {cmd}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report.pop("first_op_at") - started
    return report


def end_to_end(rounds: list[dict]) -> tuple[dict, float]:
    # Every round runs the same operations, so each operation's latency is
    # its median over the rounds; the quantiles are taken over operations.
    n = rounds[0]["attempted"]
    per_op = sorted(statistics.median(r["latencies_s"][i] for r in rounds)
                    for i in range(n))
    tail_rank = max(n - TAIL_BEYOND, 1)  # TAIL_BEYOND operations lie above it
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[tail_rank - 1] * 1e3,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] for r in rounds) / 1024,
    }
    return values, tail_rank / n


def per_layer(workload: str, plain: list[dict], traced: list[dict]):
    names = set.intersection(*(set(r["layers"]) for r in traced))
    values = {n: statistics.median(r["layers"][n] for r in traced) for n in names}
    values["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    desc, holds = SPLITS[workload]
    values["split.holds"] = 1.0 if holds(values) else 0.0
    return values, desc


def run_one(workload: str, args, wanted: list[dict]) -> dict | None:
    """Run one workload, print its report; None when a worker failed."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    last = 0.0  # duration of the last round (or pair)
    try:
        # A further round starts only if at least half of it fits in --seconds.
        while (len(plain) < (MIN_PAIRS if args.trace else MIN_ROUNDS)
               or time.monotonic() - start + last / 2 < args.seconds):
            began = time.monotonic()
            plain.append(run_worker(workload, args.seed, False, deadline))
            if args.trace:
                traced.append(run_worker(workload, args.seed, True, deadline))
            last = time.monotonic() - began
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    unconfirmed = sorted({c for r in rounds for c in r["unconfirmed_checks"]})
    env = {
        "python": platform.python_version(),
        "numpy": plain[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": BLAS_ENV,
        "operations_in_flight": 1,
    }
    print(f"perfbench {workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced rounds, "
          f"{plain[0]['attempted']} operations per round")
    print("env " + json.dumps(env, sort_keys=True))

    e2e, tail_p = end_to_end(plain)
    print(f"op_tail_ms is the p{100 * tail_p:.2f} of {plain[0]['attempted']} operations' "
          f"median latencies over {len(plain)} untraced rounds")
    absent = []
    if args.trace:
        values, split_desc = per_layer(workload, plain, traced)
        absent = sorted({a for r in traced for a in r["absent"]})
        print(f"split ({split_desc}): "
              f"{'holds' if values['split.holds'] else 'DOES NOT HOLD'}")
        print(f"formula residue max {values.get('weights.formula_residue_max')} "
              f"against WEIGHT_INT_TOL 1e-06; recovery margin max "
              f"{values.get('pipeline.margin_max')} against the bound 1")
    else:
        values = e2e
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            absent.append(m["name"])
    for name, entry in metrics.items():
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'error_rate':48s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    if absent:
        print("absent: " + ", ".join(sorted(set(absent))))
    for r in rounds:
        for index, reason in r["failures"]:
            print(f"  round seed {r['seed']} op {index}: {reason}")
    if unconfirmed:
        print("checks not shown to reject a corrupted output: " + ", ".join(unconfirmed))

    result = {"correct": failed == 0 and not unconfirmed, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result,
                                  "rounds": rounds}) + "\n")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        result = run_one(workload, args, wanted)
        if result is None:
            return 1
        results[workload] = result
    if args.workload == "all":
        # One line for the whole set, metrics prefixed by their workload.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": entry for w, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
