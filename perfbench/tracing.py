"""Span tracer for the traced benchmark rounds, installed from outside.

The library is not edited. Each target function is wrapped, and every
attribute of every loaded ``cycenum`` module that *is* the original
function object is rebound to the wrapper, so calls made from one library
module into another are seen as well (``build_ext_field`` is bound in
``field``, ``codes``, ``cli`` and the package root). ``ExtField.trace_table``
is wrapped on the class. A target missing at a later commit is recorded
as absent and its metrics are left out rather than failing the run.

Spans are recorded only while ``active`` is set, which the worker does
around each timed operation, and are kept in memory: totals and self
times are accumulated as spans close, and the raw spans are written out
once, when the worker ends.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute) of every function that gets a span. Self time of a
# span is its duration minus the time covered by its direct child spans.
SPANNED = (
    ("field", "build_ext_field"),
    ("field", "ExtField.trace_table"),
    ("cosets", "cosets_full"),
    ("cosets", "coset_leaders"),
    ("poly", "find_irreducible"),
    ("poly", "is_irreducible"),
    ("codes", "irreducible_cyclic_code"),
    ("codes", "factor_xn_minus_1"),
    ("characters", "gauss_sum"),
    ("characters", "order_d_character_sums"),
    ("weights", "weight_spectrum_bruteforce"),
    ("weights", "weight_spectrum_mceliece"),
    ("weights", "macwilliams_dual"),
    ("pipeline", "run_pipeline_trials"),
    ("pipeline", "icq_membership"),
    ("pipeline", "theta"),
    ("cli", "main"),
)
# Called d - 1 times per recovery trial: counted, never timed.
COUNTED = (("pipeline", "noisy_gauss_oracle"),)

MODULES = ("field", "cosets", "poly", "codes", "characters", "weights",
           "pipeline", "cli")

# Hooks read the arguments and result of a call to count the work it did.
# A hook that no longer fits the library's signatures marks its counters
# broken, and those counters are then reported absent. Hooks in PASSIVE
# also run outside timed operations, so that fields built during set-up
# are not later counted as misses.


def _note_build(tr, args, kwargs, result, dur):
    if id(result) not in tr.fields:
        tr.fields[id(result)] = result  # held so the id cannot be reused
        if tr.active:
            tr.add("field.build_ext_field.misses")
            tr.add("field.table_elements", result.order)


def _note_gauss(tr, args, kwargs, result, dur):
    j, beta, F = args[:3]
    tr.gauss_keys.add((F.q, F.k, j % F.group_order, beta))
    tr.add("characters.gauss_terms", F.group_order)


def _note_oracle(tr, args, kwargs, result, dur):
    spec = args[0]
    tr.add("weights.oracle_cells", spec.n * spec.field.group_order)


def _note_dual(tr, args, kwargs, result, dur):
    # The input is a primal irreducible cyclic code when its dimension is
    # the smaller one; the back transform gets dimension n - k.
    _, q, k, n = args[:4]
    side = "fwd" if 2 * k <= n else "back"
    tr.add(f"weights.macwilliams_dual.{side}_calls")
    tr.add(f"weights.macwilliams_dual.{side}_s", dur)


def _note_find_irreducible(tr, args, kwargs, result, dur):
    tr.irreducible_keys.add(tuple(args[:2]))


def _note_trials(tr, args, kwargs, result, dur):
    tr.add("pipeline.trials", len(result))


PASSIVE = {"field.build_ext_field"}
HOOKS = {
    "field.build_ext_field": _note_build,
    "characters.gauss_sum": _note_gauss,
    "weights.weight_spectrum_bruteforce": _note_oracle,
    "weights.macwilliams_dual": _note_dual,
    "poly.find_irreducible": _note_find_irreducible,
    "pipeline.run_pipeline_trials": _note_trials,
}


class Tracer:
    """In-memory span store plus counters for one worker process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (name, op, start, end, depth)
        self.stack: list[list] = []   # [start, child_time] per open span
        self.fields: dict[int, object] = {}
        self.gauss_keys: set = set()
        self.irreducible_keys: set = set()
        self.absent: set[str] = set()
        self.broken: set[str] = set()

    def add(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation --------------------------------------------------

    def install(self) -> None:
        for mod_name, attr in SPANNED:
            self._wrap(mod_name, attr, self._spanned)
        for mod_name, attr in COUNTED:
            self._wrap(mod_name, attr, self._counted)

    def _wrap(self, mod_name, attr, make):
        name = f"{mod_name}.{attr.split('.')[-1]}"
        try:
            module = importlib.import_module(f"cycenum.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, make(name, orig))
                return
            orig = getattr(module, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.add(name)
            return
        wrapper = make(name, orig)
        for mod_key, mod in list(sys.modules.items()):
            if mod is None or not (mod_key == "cycenum"
                                   or mod_key.startswith("cycenum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def _spanned(self, name, orig):
        hook = HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        passive = hook if name in PASSIVE else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = orig(*args, **kwargs)
                if passive is not None and name not in tracer.broken:
                    try:
                        passive(tracer, args, kwargs, result, 0.0)
                    except (AttributeError, IndexError, KeyError, TypeError,
                            ValueError):
                        tracer.broken.add(name)
                return result
            frame = [clock(), 0.0]
            tracer.stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                tracer.stack.pop()
                dur = end - frame[0]
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total[name] = tracer.total.get(name, 0.0) + dur
                tracer.self_time[name] = (tracer.self_time.get(name, 0.0)
                                          + dur - frame[1])
                tracer.spans.append((name, tracer.op, frame[0], end,
                                     len(tracer.stack)))
            if hook is not None and name not in tracer.broken:
                try:
                    hook(tracer, args, kwargs, result, dur)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    tracer.broken.add(name)
            return result
        return wrapper

    def _counted(self, name, orig):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[key] = tracer.counters.get(key, 0) + 1
            return orig(*args, **kwargs)
        return wrapper

    # -- results -------------------------------------------------------

    def metrics(self, wall_s: float, n_ops: int) -> dict[str, float]:
        """Per-layer metrics of one traced round; absent ones are omitted."""
        m: dict[str, float] = {}
        seen = lambda fn: fn not in self.absent  # noqa: E731
        ok = lambda fn: seen(fn) and fn not in self.broken  # noqa: E731

        def ratio(a, b):
            return a / b if b else 0.0

        for fn in {f"{mod}.{attr.split('.')[-1]}" for mod, attr in SPANNED}:
            if seen(fn):
                m[f"{fn}.calls"] = self.calls.get(fn, 0)
                m[f"{fn}.total_s"] = self.total.get(fn, 0.0)
                m[f"{fn}.self_s"] = self.self_time.get(fn, 0.0)
        for mod, attr in COUNTED:
            if seen(f"{mod}.{attr}"):
                m[f"{mod}.{attr}.calls"] = self.counters.get(f"{mod}.{attr}.calls", 0)
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(t for fn, t in self.self_time.items()
                                     if fn.startswith(mod + "."))
        c = self.counters.get
        if ok("field.build_ext_field"):
            misses = c("field.build_ext_field.misses", 0)
            elements = c("field.table_elements", 0)
            m["field.build_ext_field.misses"] = misses
            m["field.build_ext_field.miss_ratio"] = ratio(
                misses, self.calls.get("field.build_ext_field", 0))
            m["field.table_elements"] = elements
            m["field.elements_per_s"] = ratio(
                elements, self.self_time.get("field.build_ext_field", 0.0))
        if ok("characters.gauss_sum"):
            calls = self.calls.get("characters.gauss_sum", 0)
            terms = c("characters.gauss_terms", 0)
            m["characters.gauss_sum.distinct"] = len(self.gauss_keys)
            m["characters.gauss_sum.useful_ratio"] = ratio(len(self.gauss_keys), calls)
            m["characters.gauss_terms"] = terms
            m["characters.terms_per_s"] = ratio(
                terms, self.self_time.get("characters.gauss_sum", 0.0))
        if ok("weights.weight_spectrum_bruteforce"):
            cells = c("weights.oracle_cells", 0)
            m["weights.oracle_cells"] = cells
            m["weights.oracle_cells_per_s"] = ratio(
                cells, self.self_time.get("weights.weight_spectrum_bruteforce", 0.0))
        if ok("weights.macwilliams_dual"):
            for side in ("fwd", "back"):
                m[f"weights.macwilliams_dual.{side}_calls"] = c(
                    f"weights.macwilliams_dual.{side}_calls", 0)
                m[f"weights.macwilliams_dual.{side}_s"] = c(
                    f"weights.macwilliams_dual.{side}_s", 0.0)
        if ok("poly.find_irreducible"):
            distinct = len(self.irreducible_keys)
            m["poly.find_irreducible.distinct"] = distinct
            m["poly.find_irreducible.useful_ratio"] = ratio(
                distinct, self.calls.get("poly.find_irreducible", 0))
        if ok("pipeline.run_pipeline_trials"):
            trials = c("pipeline.trials", 0)
            m["pipeline.trials"] = trials
            m["pipeline.trials_per_s"] = ratio(
                trials, self.total.get("pipeline.run_pipeline_trials", 0.0))
        if seen("codes.irreducible_cyclic_code"):
            m["codes.irreducible_cyclic_code.calls_per_op"] = ratio(
                self.calls.get("codes.irreducible_cyclic_code", 0), n_ops)

        t = self.total.get
        m["split.field_share"] = ratio(
            t("field.build_ext_field", 0.0) + t("field.trace_table", 0.0), wall_s)
        m["split.macwilliams_fwd_share"] = ratio(
            c("weights.macwilliams_dual.fwd_s", 0.0), wall_s)
        m["split.macwilliams_back_share"] = ratio(
            c("weights.macwilliams_dual.back_s", 0.0), wall_s)
        m["split.characters_pipeline_share"] = ratio(
            m["characters.self_s"] + m["pipeline.self_s"], wall_s)
        m["split.poly_codes_share"] = ratio(
            m["poly.self_s"] + m["codes.self_s"], wall_s)
        return m

    def missing(self) -> list[str]:
        return sorted(self.absent | self.broken)

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, op, start, end, depth in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "start": start,
                                     "end": end, "depth": depth}) + "\n")
