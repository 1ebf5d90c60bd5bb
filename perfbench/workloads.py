"""The four benchmark workloads: inputs, warm-up, operations and checks.

Each workload stresses one layer of cycenum and leaves the others mostly
alone. Inputs come only from the seed the worker passes in; the library
sees the generated parameters, never the seed. Every workload is a closed
loop: one caller issues one operation at a time, back to back.

Sizes are chosen so that one round (one fresh worker running the whole
operation list) takes a few seconds on two cores, which leaves room for
several rounds in one benchmark run.

Checks run outside the timed interval and use routes independent of the
operation under test. ``corruptions`` gives, for one good output, altered
copies together with the check each must trip; the worker confirms every
such copy is rejected.
"""

import contextlib
import copy
import io
import json
import math

import numpy as np

from cycenum import cli, codes, cosets, field, pipeline, poly, weights

# Bound before any tracer rebinds build_ext_field; None once the library
# no longer caches fields this way.
_clear_fields = getattr(field.build_ext_field, "cache_clear", None)


# -- number theory for input generation (kept apart from the library) ---

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _order(q: int, n: int) -> int:
    """Multiplicative order of q mod n (1 for n = 1)."""
    if n == 1:
        return 1
    s, t = 1, q % n
    while t != 1:
        t, s = t * q % n, s + 1
    return s


def _digit_sum(x: int, q: int) -> int:
    total = 0
    while x:
        total, x = total + x % q, x // q
    return total


def _codes(qs, cap: int):
    """Every (q, k, N, n) with q^k <= cap, n*N = q^k - 1 and ord_n(q) = k."""
    for q in qs:
        k = 1
        while q**k <= cap:
            total = q**k - 1
            for n in _divisors(total):
                if math.gcd(q, n) == 1 and _order(q, n) == k:
                    yield q, k, total // n, n
            k += 1


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- workloads -----------------------------------------------------------

class Spectra:
    """`cycenum weights q k N --method both --json` on cold fields.

    One operation per field GF(q^k), k >= 2, 2^6 < q^k <= 2^12, and per
    valid N in [3, 12]: 135 operations on 28 fields. The field cache is
    emptied, untimed, before each operation, so every operation builds
    its field and trace table, as a fresh `cycenum weights` process does.
    The seed permutes the order. Field and trace-table building dominate;
    Gauss sums stay small (d <= 12) and there is no MacWilliams work.
    """

    CHECKS = ("exit", "sum", "A11")

    def __init__(self, rng):
        self.ops = []
        for q in range(2, math.isqrt(1 << 12) + 1):
            if not _is_prime(q):
                continue
            for k in range(2, 13):
                if not 1 << 6 < q**k <= 1 << 12:
                    continue
                total = q**k - 1
                self.ops += [(q, k, N) for N in range(3, 13)
                             if total % N == 0 and _order(q, total // N) == k]
        rng.shuffle(self.ops)

    def setup(self):
        pass

    def prepare(self, op):
        if _clear_fields is not None:
            _clear_fields()

    def run(self, op):
        q, k, N = op
        return _cli(["weights", str(q), str(k), str(N), "--method", "both", "--json"])

    def check(self, op, out):
        q, k, _ = op
        rc, text = out
        if rc != 0:
            return ["exit"]
        payload = json.loads(text)
        failed = []
        if sum(payload["spectrum"].values()) != q**k:
            failed.append("sum")
        if payload["enumerator_check"]["A11"] != q**k:
            failed.append("A11")
        return failed

    def corruptions(self, op, out):
        rc, text = out
        payload = json.loads(text)
        bad_sum = copy.deepcopy(payload)
        bad_sum["spectrum"]["0"] += 1
        bad_a11 = copy.deepcopy(payload)
        bad_a11["enumerator_check"]["A11"] += 1
        return [("exit", (1, text)),
                ("sum", (rc, json.dumps(bad_sum))),
                ("A11", (rc, json.dumps(bad_a11)))]

    def formula_codes(self):
        return self.ops


class Recovery:
    """`run_pipeline_trials` with 100 seed-derived trials at epsilon = bound.

    Every code with q in {2, 3, 5, 7}, q^k <= 2^12 and an integral theta
    (criterion 8's setting, trimmed from q^k <= 2^14). Fields, trace tables
    and bounds are built in set-up, so the timed part is Gauss sums and the
    per-trial recovery loop.
    """

    TRIALS = 100
    CHECKS = ("exact", "oracle_calls")

    def __init__(self, rng):
        self.ops = []
        for q, k, N, n in _codes((2, 3, 5, 7), 1 << 12):
            if min(_digit_sum(j * n, q) for j in range(1, N + 1)) % (q - 1) == 0:
                seeds = [rng.randrange(1 << 30) for _ in range(self.TRIALS)]
                self.ops.append((q, k, N, seeds))
        self.bound = {}

    def setup(self):
        for q, k, N, _ in self.ops:
            spec = codes.irreducible_cyclic_code(q, k, N)
            spec.field.trace_table()
            self.bound[(q, k, N)] = pipeline.epsilon_bound(spec)

    def run(self, op):
        q, k, N, seeds = op
        eps = self.bound[(q, k, N)]
        return pipeline.run_pipeline_trials(q, k, N, eps, seeds, force=eps >= 1)

    def check(self, op, reports):
        failed = []
        if len(reports) != self.TRIALS or not all(r.exact for r in reports):
            failed.append("exact")
        if not all(r.oracle_calls == len(r.injected_errors) for r in reports):
            failed.append("oracle_calls")
        return failed

    def corruptions(self, op, reports):
        deviated = copy.deepcopy(reports)
        deviated[0].exact = False
        miscounted = copy.deepcopy(reports)
        miscounted[-1].oracle_calls += 1
        return [("exact", deviated), ("oracle_calls", miscounted)]

    def formula_codes(self):
        return [op[:3] for op in self.ops]


class MacWilliams:
    """Exact MacWilliams duals, forward on a primal and back on its dual.

    Forward (what `cycenum dual` does): the few-weight primal spectrum of
    every code with q <= 13 prime, q^k <= 2^13 and 300 <= n <= 1100.
    Back: the dense dual spectrum, right after its own forward transform,
    for the codes with n <= 500. The seed permutes the code order. Primal
    spectra and fields come from set-up; n = 3124 and 4095 stay out
    because one back transform there takes minutes on the same path.
    """

    CHECKS = ("roundtrip", "dual_sum", "identity")

    def __init__(self, rng):
        found = sorted(c for c in _codes([p for p in range(2, 14) if _is_prime(p)],
                                         1 << 13) if 300 <= c[3] <= 1100)
        rng.shuffle(found)
        self.ops = []
        for q, k, N, n in found:
            self.ops.append(("fwd", q, k, N, n))
            if n <= 500:
                self.ops.append(("back", q, k, N, n))
        self.primal = {}
        self.dual = {}

    def setup(self):
        for q, k, N in self.formula_codes():
            spec = codes.irreducible_cyclic_code(q, k, N)
            spectrum = weights.weight_spectrum_mceliece(spec)
            self.primal[(q, k, N)] = weights.WeightEnumerator(spectrum)

    def run(self, op):
        side, q, k, N, n = op
        if side == "fwd":
            out = weights.macwilliams_dual(self.primal[(q, k, N)], q, k, n)
            self.dual[(q, k, N)] = out
            return out
        return weights.macwilliams_dual(self.dual[(q, k, N)], q, n - k, n)

    def check(self, op, out):
        side, q, k, N, n = op
        primal = self.primal[(q, k, N)]
        counts = out.spectrum.counts
        if side == "back":
            return [] if counts == primal.spectrum.counts else ["roundtrip"]
        failed = []
        if sum(counts.values()) != q ** (n - k):
            failed.append("dual_sum")
        # A_perp(x, y) = q^-k A(x + (q-1)y, x - y), here at (x, y) = (2, 1)
        if q**k * out.evaluate(2, 1) != primal.evaluate(q + 1, 1):
            failed.append("identity")
        return failed

    def corruptions(self, op, out):
        moved = copy.deepcopy(out)  # one word shifted down a weight: same sum
        counts = moved.spectrum.counts
        w = max(counts)
        counts[w] -= 1
        counts[w - 1] = counts.get(w - 1, 0) + 1
        if op[0] == "back":
            return [("roundtrip", moved)]
        extra = copy.deepcopy(out)
        extra.spectrum.counts[w] += 1
        return [("dual_sum", extra), ("identity", moved)]

    def formula_codes(self):
        return sorted({op[1:4] for op in self.ops})


class Factor:
    """`cycenum factor n q --json` for n <= 100 coprime to q, q in {2, 3, 5}.

    Trimmed from n <= 200. Time goes to poly.find_irreducible and the
    table-free splitting fields; no field tables are built. The library
    caches the factors of each cyclotomic polynomial by (order, q), so the
    operation that first reaches an order pays for it. Within each q the
    sweep runs in increasing n, so each operation pays for its own order
    only and the latency mix does not depend on the seed; the seed
    permutes the order of the three q sweeps.
    """

    CHECKS = ("exit", "product", "irreducible", "count")

    def __init__(self, rng):
        qs = [2, 3, 5]
        rng.shuffle(qs)
        self.ops = [(n, q) for q in qs for n in range(1, 101) if n % q]
        self._irreducible = {}

    def setup(self):
        pass

    def run(self, op):
        n, q = op
        return _cli(["factor", str(n), str(q), "--json"])

    def _is_irreducible(self, f, q):
        key = (tuple(f), q)
        if key not in self._irreducible:
            self._irreducible[key] = poly.is_irreducible(list(f), q)
        return self._irreducible[key]

    def check(self, op, out):
        n, q = op
        rc, text = out
        if rc != 0:
            return ["exit"]
        factors = json.loads(text)["factors"]
        failed = []
        acc = np.array([1], dtype=np.int64)
        for f in factors:
            acc = np.convolve(acc, np.array(f, dtype=np.int64)) % q
        expect = np.zeros(n + 1, dtype=np.int64)
        expect[0], expect[n] = q - 1, 1
        if not np.array_equal(acc, expect):
            failed.append("product")
        if not all(self._is_irreducible(f, q) for f in factors):
            failed.append("irreducible")
        if len(factors) != cosets.coset_count_formula(n, q):
            failed.append("count")
        return failed

    def corruptions(self, op, out):
        n, q = op
        rc, text = out
        factors = json.loads(text)["factors"]
        if len(factors) < 2:
            return []  # x - 1 alone: nothing to merge, nothing reducible
        bumped = copy.deepcopy(factors)
        bumped[0][0] = (bumped[0][0] + 1) % q
        whole = [[q - 1] + [0] * (n - 1) + [1]]
        merged = [poly.poly_mul(factors[0], factors[1], q)] + factors[2:]

        def doc(fs):
            return rc, json.dumps({"factors": fs})
        return [("exit", (1, text)), ("product", doc(bumped)),
                ("irreducible", doc(whole)), ("count", doc(merged))]

    def formula_codes(self):
        return []


WORKLOADS = {"spectra": Spectra, "recovery": Recovery,
             "macwilliams": MacWilliams, "factor": Factor}
