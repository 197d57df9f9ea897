"""Spans and counters around triboconv's public functions, installed from
outside the package and removed again after each traced pass.

Every name a function is bound to is wrapped: the defining module, every
module that imported it by name (``from .field import sign_at_real_root``
in ``sequences`` and ``derivation``, ``derive`` in ``identity_catalog``,
the package ``__init__``) and, for methods, every class attribute holding
it (``FieldElement.__rmul__`` is ``__mul__``).  Spans stay in memory as
tuples ``(name, start, end, parent, op)`` and are written out once, when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import Counter
from fractions import Fraction

PACKAGE = "triboconv"
LAYERS = (
    "field",
    "sequences",
    "convolution",
    "symmetric_identities",
    "derivation",
    "identity_catalog",
    "cli",
)

#: Functions timed by a span, as (module, qualified name).
SPANNED = (
    ("field", "sign_at_real_root"),
    ("field", "FieldElement.__pow__"),
    ("field", "inverse"),
    ("sequences", "normalize_egf"),
    ("sequences", "egf_rational_term"),
    ("sequences", "egf_rational_terms"),
    ("convolution", "multinomial_conv_prefix"),
    ("convolution", "plain_conv_prefix"),
    ("convolution", "prop1_lhs"),
    ("convolution", "prop2_rhs"),
    ("convolution", "series_check_derivatives"),
    ("symmetric_identities", "verify_sym_identity"),
    ("derivation", "derive"),
    ("derivation", "derive_paper_recursive"),
    ("derivation", "conjecture_check"),
    ("identity_catalog", "verify"),
    ("identity_catalog", "verify_all"),
    ("cli", "main"),
)

#: Functions too frequent or too cheap for a span: only counted.
COUNTED = (
    ("field", "FieldElement.__mul__"),
    ("field", "RootInterval.bisect"),
    ("derivation", "element_with_traces"),
)

CONV_TABLES = ("convolution.multinomial_conv_prefix", "convolution.plain_conv_prefix")
CLOSED_FORMS = ("convolution.prop1_lhs", "convolution.prop2_rhs", "convolution.series_check_derivatives")

#: Every per-layer metric with its unit, in report order.  Counts are per
#: pass of the workload; times are seconds per pass; shares divide a
#: layer's self time by the time spent in ``cli.main``.
LAYER_METRICS = {
    "field.sign_calls": "count",
    "field.sign_s": "s",
    "field.bisect_steps": "count",
    "field.pow_calls": "count",
    "field.pow_s": "s",
    "field.mul_calls": "count",
    "field.inverse_calls": "count",
    "field.inverse_s": "s",
    "sequences.normalize_calls": "count",
    "sequences.normalize_self_s": "s",
    "sequences.egf_terms_s": "s",
    "derivation.derive_calls": "count",
    "derivation.derive_self_s": "s",
    "derivation.replicate_calls": "count",
    "derivation.replicate_s": "s",
    "derivation.element_with_traces_calls": "count",
    "derivation.conjecture_s": "s",
    "convolution.conv_calls": "count",
    "convolution.conv_s": "s",
    "convolution.kernel_products": "count",
    "convolution.max_operand_bits": "bits",
    "convolution.duplicate_tables": "count",
    "convolution.duplicate_share": "ratio",
    "convolution.closed_form_s": "s",
    "identity_catalog.verify_calls": "count",
    "identity_catalog.verify_s": "s",
    "identity_catalog.self_s": "s",
    "identity_catalog.checks": "count",
    "symmetric_identities.verify_calls": "count",
    "symmetric_identities.grid_points": "count",
    "symmetric_identities.verify_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}

#: Counters aggregated by maximum instead of sum.
MAX_COUNTERS = frozenset({"convolution.max_operand_bits"})


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return value.bit_length()


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and per-op counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.op_counters: list[Counter] = []
        self.op_pass: list[int] = []
        self._pass = -1
        self._stack: list[int] = []
        self._tables: set = set()
        self._patches: list = []

    # -- op and pass boundaries ----------------------------------------------

    def begin_pass(self) -> None:
        self._pass += 1

    def begin_op(self) -> None:
        self.op_counters.append(Counter())
        self.op_pass.append(self._pass)
        self._tables = set()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.op_counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, len(counters) - 1)
            if after is not None:
                hook_start = clock()
                after(counters[-1], args, kwargs, result)
                counters[-1]["trace.hook_s"] += clock() - hook_start
            return result

        return wrapper

    def _count(self, name: str, fn, amount=None):
        counters = self.op_counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = counters[-1]
            counts[name] += 1 if amount is None else amount(args, kwargs)
            counts["trace.counted_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_table(self, kind: str):
        as_prefix = importlib.import_module(f"{PACKAGE}.convolution")._as_prefix

        def after(counts, args, kwargs, result):
            seqs, n_max = _arg(args, kwargs, 0, "seqs"), _arg(args, kwargs, 1, "n_max")
            counts["convolution.kernel_products"] += (len(seqs) - 1) * (n_max + 1) * (n_max + 2) // 2
            bits = max(map(_bits, result), default=0)
            counts["convolution.max_operand_bits"] = max(counts["convolution.max_operand_bits"], bits)
            key = (kind, n_max, tuple(tuple(as_prefix(s, n_max + 1)) for s in seqs))
            if key in self._tables:
                counts["convolution.duplicate_tables"] += 1
            self._tables.add(key)

        return after

    @staticmethod
    def _after_verify(counts, args, kwargs, report):
        counts["identity_catalog.checks"] += len(report.checks) + len(report.mismatches)

    @staticmethod
    def _after_sym(counts, args, kwargs, result):
        counts["symmetric_identities.grid_points"] += _arg(args, kwargs, 2, "grid_size") ** 3

    def _wrapper(self, module: str, qualname: str, fn):
        name = f"{module}.{qualname}"
        if name in CONV_TABLES:
            return self._span(name, fn, self._after_table(qualname))
        if name == "identity_catalog.verify":
            return self._span(name, fn, self._after_verify)
        if name == "symmetric_identities.verify_sym_identity":
            return self._span(name, fn, self._after_sym)
        if name == "field.RootInterval.bisect":
            return self._count("field.bisect_steps", fn, lambda a, k: _arg(a, k, 1, "steps"))
        if (module, qualname) in COUNTED:
            return self._count(name, fn)
        return self._span(name, fn)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for module, qualname in SPANNED + COUNTED:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            cls_name, _, attr = qualname.rpartition(".")
            home = getattr(owner, cls_name) if cls_name else owner
            fn = vars(home)[attr]
            holders = [home] if cls_name else modules
            wrapper = self._wrapper(module, qualname, fn)
            for holder in holders:
                for bound, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, bound, fn))
                        setattr(holder, bound, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, bound, fn = self._patches.pop()
            setattr(holder, bound, fn)

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON line, with ids and parents."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "parent": parent, "op": op, "pass": self.op_pass[op],
                                     "name": name, "start": start, "end": end}) + "\n")

    def pass_metrics(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced pass (all but the overhead ratio
        and the output bytes, which the caller measures), plus the number of
        spans, the number of counted calls and the time spent in argument
        hooks (``trace.spans``, ``trace.counted_calls``, ``trace.hook_s``)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        n_passes = max(self.op_pass, default=-1) + 1
        by_pass: list[list[int]] = [[] for _ in range(n_passes)]
        for index, span in enumerate(spans):
            by_pass[self.op_pass[span[4]]].append(index)
        counters: list[Counter] = [Counter() for _ in range(n_passes)]
        for op, counts in enumerate(self.op_counters):
            total = counters[self.op_pass[op]]
            for key, value in counts.items():
                total[key] = max(total[key], value) if key in MAX_COUNTERS else total[key] + value
        return [self._metrics(spans, child_time, indices, counts)
                for indices, counts in zip(by_pass, counters)]

    @staticmethod
    def _metrics(spans, child_time, indices, counts) -> dict[str, float]:
        def calls(*names):
            return sum(1 for i in indices if spans[i][0] in names)

        def inclusive(*names):
            """Time in spans of ``names`` not nested in another of them."""
            total = 0.0
            for i in indices:
                name, start, end, parent, _ = spans[i]
                if name not in names:
                    continue
                while parent >= 0 and spans[parent][0] not in names:
                    parent = spans[parent][3]
                if parent < 0:
                    total += end - start
            return total

        def self_time(match):
            return sum(spans[i][2] - spans[i][1] - child_time[i] for i in indices if match(spans[i][0]))

        main_s = inclusive("cli.main")
        conv_calls = calls(*CONV_TABLES)
        metrics = {
            "field.sign_calls": calls("field.sign_at_real_root"),
            "field.sign_s": inclusive("field.sign_at_real_root"),
            "field.bisect_steps": counts["field.bisect_steps"],
            "field.pow_calls": calls("field.FieldElement.__pow__"),
            "field.pow_s": inclusive("field.FieldElement.__pow__"),
            "field.mul_calls": counts["field.FieldElement.__mul__"],
            "field.inverse_calls": calls("field.inverse"),
            "field.inverse_s": inclusive("field.inverse"),
            "sequences.normalize_calls": calls("sequences.normalize_egf"),
            "sequences.normalize_self_s": self_time(lambda n: n == "sequences.normalize_egf"),
            "sequences.egf_terms_s": inclusive("sequences.egf_rational_term", "sequences.egf_rational_terms"),
            "derivation.derive_calls": calls("derivation.derive"),
            "derivation.derive_self_s": self_time(lambda n: n == "derivation.derive"),
            "derivation.replicate_calls": calls("derivation.derive_paper_recursive"),
            "derivation.replicate_s": inclusive("derivation.derive_paper_recursive"),
            "derivation.element_with_traces_calls": counts["derivation.element_with_traces"],
            "derivation.conjecture_s": inclusive("derivation.conjecture_check"),
            "convolution.conv_calls": conv_calls,
            "convolution.conv_s": inclusive(*CONV_TABLES),
            "convolution.kernel_products": counts["convolution.kernel_products"],
            "convolution.max_operand_bits": counts["convolution.max_operand_bits"],
            "convolution.duplicate_tables": counts["convolution.duplicate_tables"],
            "convolution.duplicate_share": counts["convolution.duplicate_tables"] / conv_calls if conv_calls else 0.0,
            "convolution.closed_form_s": inclusive(*CLOSED_FORMS),
            "identity_catalog.verify_calls": calls("identity_catalog.verify"),
            "identity_catalog.verify_s": inclusive("identity_catalog.verify", "identity_catalog.verify_all"),
            "identity_catalog.self_s": self_time(lambda n: n.startswith("identity_catalog.")),
            "identity_catalog.checks": counts["identity_catalog.checks"],
            "symmetric_identities.verify_calls": calls("symmetric_identities.verify_sym_identity"),
            "symmetric_identities.grid_points": counts["symmetric_identities.grid_points"],
            "symmetric_identities.verify_s": inclusive("symmetric_identities.verify_sym_identity"),
            "cli.main_s": main_s,
            "cli.self_s": self_time(lambda n: n == "cli.main"),
            # The tracer's own work, for the overhead estimate.
            "trace.spans": len(indices),
            "trace.counted_calls": counts["trace.counted_calls"],
            "trace.hook_s": counts["trace.hook_s"],
        }
        for layer in LAYERS:
            layer_self = self_time(lambda n: n.startswith(layer + "."))
            metrics[f"{layer}.self_share"] = layer_self / main_s if main_s else 0.0
        return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def wrapper_costs() -> tuple[float, float]:
    """Seconds that one span wrapper and one counting wrapper add to a call,
    as (span, count): the median over 5 timings of 20000 calls of a no-op
    function, less the same calls made without a wrapper."""
    calls, repeats = 20000, 5

    def noop(*args, **kwargs):
        return None

    tracer = Tracer()
    tracer.begin_pass()
    tracer.begin_op()
    variants = (noop, tracer._span("noop", noop), tracer._count("noop", noop))
    samples: list[list[float]] = [[], [], []]
    for _ in range(repeats):
        for sample, fn in zip(samples, variants):
            start = time.perf_counter()
            for _ in range(calls):
                fn(1)
            sample.append(time.perf_counter() - start)
        tracer.spans.clear()
    base, span, count = (statistics.median(sample) / calls for sample in samples)
    return span - base, count - base
