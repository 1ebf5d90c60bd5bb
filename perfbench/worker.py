"""One benchmark round in a fresh process: set up, run, check, report.

    python3 perfbench/worker.py WORKLOAD SEED TRACE

run.py starts one of these per round, so every library cache starts cold.
The round imports cycenum from the checkout's ``src``, builds the
workload's inputs from SEED, runs its set-up, then issues the
operations one at a time and times each. Outputs are checked after the
timed loop. With TRACE = 1 the span wrappers are installed before set-up
(they record only during timed operations),
and the per-layer metrics and domain observables are added to the report.
The last line of stdout is one JSON object.
"""

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_out"


def run_ops(wl, tracer):
    outputs, latencies = [], []
    clock = time.perf_counter
    prepare = getattr(wl, "prepare", None)  # untimed per-operation reset
    first_op_at = time.monotonic()
    wall_s = 0.0
    for i, op in enumerate(wl.ops):
        if prepare is not None:
            prepare(op)
        if tracer is not None:
            tracer.op, tracer.active = i, True
        start = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # a failed operation is counted; the round goes on
            out = exc
        latencies.append(clock() - start)
        wall_s += latencies[-1]
        if tracer is not None:
            tracer.active = False
        outputs.append(out)
    return outputs, latencies, wall_s, first_op_at


def check_outputs(wl, outputs):
    """Failed operations, as (op index, reason); checks run untimed."""
    failures = []
    for i, (op, out) in enumerate(zip(wl.ops, outputs)):
        if isinstance(out, Exception):
            failures.append((i, f"{type(out).__name__}: {out}"))
            continue
        try:
            failed = wl.check(op, out)
        except Exception as exc:  # an unreadable output fails its check
            failed = [f"check raised {type(exc).__name__}: {exc}"]
        if failed:
            failures.append((i, ",".join(failed)))
    return failures


def confirm_checks(wl, outputs):
    """Checks not shown to reject a deliberately corrupted output.

    Each named check must trip on at least one corrupted copy of a good
    output, and every corrupted copy must trip the check it targets.
    """
    pending, missed = set(wl.CHECKS), set()
    for op, out in zip(wl.ops, outputs):
        if not pending:
            break
        if isinstance(out, Exception) or wl.check(op, out):
            continue
        for name, bad in wl.corruptions(op, out):
            if name not in pending:
                continue
            if name in wl.check(op, bad):
                pending.discard(name)
            else:
                missed.add(name)
    return sorted(pending | missed)


def observables(wl, outputs):
    """Formula float residue and recovery rounding margin, computed untimed.

    The residue is the largest |S(b) - round(S(b))| over the coset leaders
    b of the workload's codes (the formula rounds when it is below 1e-6).
    The margin is the largest |S_noisy - S_exact| / (q^(theta-1) / 2)
    over all recovery trials; the paper's bound promises it stays below 1.
    """
    import numpy as np
    from cycenum import characters, codes, cosets, weights
    from workloads import Recovery

    trials = {}
    if isinstance(wl, Recovery):
        trials = {op[:3]: out for op, out in zip(wl.ops, outputs)
                  if not isinstance(out, Exception)}
    residue, n_leaders, margin = 0.0, 0, 0.0
    for q, k, N in wl.formula_codes():
        spec = codes.irreducible_cyclic_code(q, k, N)
        gauss = characters.order_d_character_sums(spec)
        leaders = np.array([c.leader for c in cosets.coset_leaders(N, q).cosets])
        exact = np.array([weights.s_function(int(b), gauss, spec) for b in leaders])
        residue = max(residue, float(np.abs(exact - np.round(exact)).max()))
        n_leaders += len(leaders)
        reports = trials.get((q, k, N))
        if not reports:
            continue
        d = len(gauss) + 1
        base = q**k * (q - 1) / (q * N)
        if d == 1:
            noisy = np.full((len(reports), len(leaders)), base)
        else:
            a = np.arange(1, d)
            chi = np.exp(-2j * np.pi * ((leaders[:, None] * a[None, :]) % d) / d)
            gamma = np.array([g.gamma for g in gauss])
            errors = np.array([r.injected_errors for r in reports])
            phases = np.exp(1j * (gamma[None, :] + errors))
            noisy = base - (q - 1) / (q * N) * np.sqrt(q**k) * (phases @ chi.T).real
        half = q ** (reports[0].theta - 1) / 2
        margin = max(margin, float(np.abs(noisy - exact[None, :]).max() / half))
    return {"weights.formula_residue_max": residue,
            "weights.formula_residue_leaders": n_leaders,
            "pipeline.margin_max": margin}


def main():
    workload, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import cycenum
    if Path(cycenum.__file__).resolve().parent != ROOT / "src" / "cycenum":
        sys.exit(f"cycenum imported from {cycenum.__file__}, not from {ROOT / 'src'}")
    import tracing
    from workloads import WORKLOADS

    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    wl = WORKLOADS[workload](random.Random(seed))
    wl.setup()
    outputs, latencies, wall_s, first_op_at = run_ops(wl, tracer)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures = check_outputs(wl, outputs)
    report = {
        "seed": seed,
        "traced": traced,
        "numpy": numpy.__version__,
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "peak_rss_kib": peak_rss_kib,
        "attempted": len(wl.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "unconfirmed_checks": confirm_checks(wl, outputs),
    }
    if tracer is not None:
        layers = tracer.metrics(wall_s, len(wl.ops))
        layers.update(observables(wl, outputs))
        report["layers"] = layers
        report["absent"] = tracer.missing()
        tracer.write_spans(SPANS_DIR / f"{workload}.spans.jsonl")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
