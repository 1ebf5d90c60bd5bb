"""Command-line interface: one binary, one subcommand per computation.

Each handler returns its output, a JSON payload and the lines of text,
and main prints one of them. Exit codes: 0 on success, 1 on a domain
error (the error class name goes to stderr), 2 on a usage error. Every
subcommand accepts --json; JSON documents carry "schema": 1 and are
emitted with sorted keys so repeated runs are byte-identical.
"""

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterable

from . import __version__
from .codes import _code_length, factor_xn_minus_1, generator_matrix, irreducible_cyclic_code
from .cosets import coset_count_formula, coset_leaders, cosets_full, multiplicative_order
from .characters import gauss_sum
from .errors import CycenumError, InvalidParameters, SpectrumMismatch
from .field import DEFAULT_TABLE_CAP, build_ext_field
from .pipeline import IcqParams, _bound, _theta, icq_membership, run_pipeline_trials
from .weights import (
    WeightEnumerator,
    macwilliams_dual,
    weight_spectrum_bruteforce,
    weight_spectrum_mceliece,
)

SCHEMA = 1

# Input budget: the largest sizes the CLI accepts, checked before any work.
# cosets N, and factor n, cost an N-bit sieve and an O(N) loop; 2^22
# matches the table cap. Each pipeline trial keeps a report until the
# output is written, and draws d - 1 phases; 10^6 draws take about 9 s.
# factor works in the splitting field GF(q^m), m = ord_n(q): m = 200
# covers every n <= 200. Its work is estimated as n^2, for the product
# check's chain of one convolution per factor, plus 10 m^3 per factor, for
# the minimal polynomials; inputs just under 10^10 of it take 3-11 s. A
# dual count is at most q^(n-k), the size of the dual; CPython prints no
# int of more than 4300 digits by default.
MAX_COSETS_N = 1 << 22
MAX_TRIALS = 100_000
MAX_DRAWS = 1_000_000
MAX_FACTOR_DEGREE = 200
MAX_FACTOR_WORK = 10**10
MAX_DUAL_DIGITS = 4300


def _emit(args, payload: dict, text_lines) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _poly_str(coeffs: list[int]) -> str:
    return "[" + ", ".join(str(c) for c in coeffs) + "]"


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_cosets(args) -> tuple[dict, Iterable[str]]:
    if args.N > MAX_COSETS_N:
        raise InvalidParameters(f"N = {args.N} exceeds the cosets limit {MAX_COSETS_N}")
    if args.json and not args.members:
        part = coset_leaders(args.N, args.p)
    else:
        part = cosets_full(args.N, args.p)
    payload = part.to_dict()
    lines = ["{" + ",".join(str(m) for m in c.members) + "}" for c in part.cosets] \
        if part.cosets and part.cosets[0].members is not None else []
    return payload, lines


def cmd_factor(args) -> tuple[dict, Iterable[str]]:
    if args.n > MAX_COSETS_N:
        raise InvalidParameters(f"n = {args.n} exceeds the factor limit {MAX_COSETS_N}")
    # n < 1 and gcd(n, q) > 1 are left to the library, which names them
    if args.n >= 1 and math.gcd(args.n, args.q) == 1:
        m = multiplicative_order(args.q, args.n)
        if m > MAX_FACTOR_DEGREE:
            raise InvalidParameters(f"the splitting field GF({args.q}^{m}) exceeds the "
                                    f"factor limit of degree {MAX_FACTOR_DEGREE}")
        count = coset_count_formula(args.n, args.q)
        if args.n**2 + 10 * count * m**3 > MAX_FACTOR_WORK:
            raise InvalidParameters(f"x^{args.n} - 1 has {count} factors over GF({args.q}) "
                                    f"in GF({args.q}^{m}), beyond the factor work limit")
    factors = factor_xn_minus_1(args.n, args.q)
    payload = {
        "n": args.n,
        "q": args.q,
        "num_factors": len(factors),
        "factors": [list(f) for f in factors],
    }
    return payload, (_poly_str(f) for f in factors)


def cmd_code(args) -> tuple[dict, Iterable[str]]:
    spec = irreducible_cyclic_code(args.q, args.k, args.N)
    payload = spec.to_dict()
    lines = [
        f"[{spec.n},{spec.k}] irreducible cyclic code over GF({spec.q}), N={spec.N}",
        f"modulus   {_poly_str(list(spec.field.modulus))}",
        f"generator {_poly_str(spec.generator)}",
        f"check     {_poly_str(spec.check)}",
    ]
    if args.matrix:
        rows = generator_matrix(spec)
        payload["matrix"] = rows
        lines += ["matrix:"] + ["  " + " ".join(str(v) for v in row) for row in rows]
    return payload, lines


def cmd_gauss(args) -> tuple[dict, Iterable[str]]:
    F = build_ext_field(args.q, args.k)
    beta = F.alpha_pow(args.beta)
    g = gauss_sum(args.j, beta, F)
    payload = {"q": args.q, "k": args.k, "j": args.j, "beta_exp": args.beta,
               **g.to_dict()}
    lines = [
        f"G(chi_{args.j}, e_alpha^{args.beta}) over GF({args.q}^{args.k})",
        f"value     {g.value.real:+.12f} {g.value.imag:+.12f}i",
        f"gamma     {g.gamma:.12f}",
        f"magnitude {g.magnitude:.12f}",
    ]
    return payload, lines


def _spectrum(spec, method: str):
    if method == "mceliece":
        return weight_spectrum_mceliece(spec)
    if method == "brute":
        return weight_spectrum_bruteforce(spec)
    a = weight_spectrum_mceliece(spec)
    if a.counts != weight_spectrum_bruteforce(spec).counts:
        raise SpectrumMismatch("mceliece and brute-force spectra disagree")
    return a


def cmd_weights(args) -> tuple[dict, Iterable[str]]:
    spec = irreducible_cyclic_code(args.q, args.k, args.N)
    spectrum = _spectrum(spec, args.method)
    payload = {
        "q": spec.q, "k": spec.k, "N": spec.N, "n": spec.n,
        "method": args.method,
        "spectrum": spectrum.to_dict(),
        "enumerator_check": {"A11": WeightEnumerator(spectrum).evaluate(1, 1)},
    }
    lines = [f"[{spec.n},{spec.k}] code over GF({spec.q}), method={args.method}"] + [
        f"A_{w} = {spectrum.counts[w]}" for w in sorted(spectrum.counts)
    ]
    return payload, lines


def cmd_dual(args) -> tuple[dict, Iterable[str]]:
    spec = irreducible_cyclic_code(args.q, args.k, args.N)
    # q^(n-k) has floor((n-k) log10 q) + 1 digits
    if (spec.n - spec.k) * math.log10(spec.q) >= MAX_DUAL_DIGITS:
        raise InvalidParameters(f"the dual of the [{spec.n},{spec.k}] code has "
                                f"{spec.q}^{spec.n - spec.k} words, beyond the dual "
                                f"limit of {MAX_DUAL_DIGITS} digits")
    spectrum = _spectrum(spec, args.method)
    dual = macwilliams_dual(WeightEnumerator(spectrum), spec.q, spec.k, spec.n)
    payload = {
        "q": spec.q, "k": spec.k, "N": spec.N, "n": spec.n,
        "method": args.method,
        "spectrum": spectrum.to_dict(),
        "dual_spectrum": dual.spectrum.to_dict(),
        "dual_check": {"A11": dual.evaluate(1, 1)},
    }
    lines = [f"dual of the [{spec.n},{spec.k}] code over GF({spec.q})"] + [
        f"A'_{w} = {dual.spectrum.counts[w]}" for w in sorted(dual.spectrum.counts)
    ]
    return payload, lines


def cmd_theta(args) -> tuple[dict, Iterable[str]]:
    # integer arithmetic on q, k and N: the code's field is never built
    q, k, N = args.q, args.k, args.N
    n = _code_length(q, k, N)
    t = _theta(q, n, N)
    bound = _bound(q, k, t)
    payload = {
        "q": q, "k": k, "N": N, "n": n,
        "theta": t,
        "weight_divisor": q ** (t - 1),
        "epsilon_bound": bound,
    }
    lines = [
        f"theta = {t}",
        f"all nonzero weights divisible by q^(theta-1) = {q ** (t - 1)}",
        f"epsilon bound = {bound!r}",
    ]
    return payload, lines


def cmd_icq_check(args) -> tuple[dict, Iterable[str]]:
    report = icq_membership(IcqParams(args.q, args.k, args.N, args.epsilon))
    payload = report.to_dict()
    lines = [
        f"n integral:   {report.n_integral} (n = {report.n})",
        f"order check:  {report.order_ok}",
        f"epsilon <= bound: {report.epsilon_ok} "
        f"(epsilon = {report.epsilon!r}, bound = {report.epsilon_bound!r})",
        f"member: {report.member}"
        + (f"  failures: {', '.join(report.failures)}" if report.failures else ""),
    ]
    return payload, lines


def cmd_pipeline(args) -> tuple[dict, Iterable[str]]:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise InvalidParameters(f"--trials {args.trials} must be in [1, {MAX_TRIALS}]")
    # d = gcd(N, (q^k - 1)/(q - 1)) is the order of the phases' character;
    # q^k stays small while k is under the table cap, and other bad q, k, N
    # are left to the library, which names them
    if args.q >= 2 and 1 <= args.k < DEFAULT_TABLE_CAP.bit_length() and args.N >= 1:
        d = math.gcd(args.N, (args.q**args.k - 1) // (args.q - 1))
        if args.trials * (d - 1) > MAX_DRAWS:
            raise InvalidParameters(f"{args.trials} trials of {d - 1} phase draws each "
                                    f"exceed the draw limit {MAX_DRAWS}")
    reports = run_pipeline_trials(args.q, args.k, args.N, args.epsilon,
                                  range(args.seed, args.seed + args.trials), args.force)
    if args.trials > 1:
        exact_count = sum(r.exact for r in reports)
        payload = {
            "q": args.q, "k": args.k, "N": args.N,
            "epsilon": args.epsilon, "seed": args.seed, "trials": args.trials,
            "exact_count": exact_count,
            "trial_results": [{"seed": r.seed, "exact": r.exact} for r in reports],
        }
        lines = [f"seed {r.seed}: {'exact' if r.exact else 'DEVIATED'}"
                 for r in reports]
        lines.append(f"exact in {exact_count}/{args.trials} trials")
        return payload, lines
    report = reports[0]
    spectrum = report.recovered_spectrum
    lines = [
        f"[{report.n},{report.k}] code over GF({report.q}), N={report.N}",
        f"theta={report.theta} bound={report.epsilon_bound!r} d={report.d} "
        f"cosets={report.num_cosets} oracle_calls={report.oracle_calls}",
        "recovered: " + " ".join(f"A_{w}={spectrum.counts[w]}"
                                 for w in sorted(spectrum.counts)),
        f"exact: {report.exact}",
    ]
    return {"report": report.to_dict()}, lines


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cycenum",
        description="Weight enumerators of irreducible cyclic codes via "
                    "Gauss sums and cyclotomic cosets.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # q k N of an irreducible cyclic code, shared by the subcommands that take one
    code_args = argparse.ArgumentParser(add_help=False)
    for name in ("q", "k", "N"):
        code_args.add_argument(name, type=int)

    p = sub.add_parser("cosets", help="p-cyclotomic cosets of {0..N-1}")
    p.add_argument("N", type=int)
    p.add_argument("p", type=int)
    p.add_argument("--members", action="store_true",
                   help="include member lists in JSON output")
    p.set_defaults(func=cmd_cosets)

    p = sub.add_parser("factor", help="factor x^n - 1 over GF(q)")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("code", parents=[code_args], help="build an irreducible cyclic code")
    p.add_argument("--matrix", action="store_true", help="print generator matrix")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("gauss", help="Gauss sum G(chi_j, e_beta) over GF(q^k)")
    p.add_argument("q", type=int)
    p.add_argument("k", type=int)
    p.add_argument("j", type=int)
    p.add_argument("--beta", type=int, default=0, metavar="M",
                   help="beta = alpha^M (default 0, i.e. beta = 1)")
    p.set_defaults(func=cmd_gauss)

    for name, handler in (("weights", cmd_weights), ("dual", cmd_dual)):
        p = sub.add_parser(name, parents=[code_args],
                           help=f"{name} of an irreducible cyclic code")
        p.add_argument("--method", choices=("mceliece", "brute", "both"),
                       default="mceliece")
        p.set_defaults(func=handler)

    p = sub.add_parser("theta", parents=[code_args],
                       help="divisibility exponent and epsilon bound")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("icq-check", parents=[code_args], help="class membership check")
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_icq_check)

    p = sub.add_parser("pipeline", parents=[code_args],
                       help="noisy-oracle recovery simulation")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--force", action="store_true",
                   help="run even when the membership check fails")
    p.set_defaults(func=cmd_pipeline)

    # last, so that --json ends every usage line
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args, *args.func(args))
    except CycenumError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so that the
        # flush at exit cannot fail again (the recipe of the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    run()
