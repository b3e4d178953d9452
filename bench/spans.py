"""Spans recorded from outside ergocheck, and the per-layer metrics.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper, in every layer module that holds a reference to it.
Internal calls therefore go through the wrapper too: ``irreducibility``
looks up ``solve_lfp`` in its own namespace, ``report`` calls
``drift_mod.classify_reactions`` through the ``drift`` module, and a
function that calls a sibling in its own module looks the sibling up in
the module globals.  The program itself is not modified.

A span is ``(op, name, start, end, parent, counters)``: the operation id,
``module.function`` of the callee, ``perf_counter`` times, the index of the
enclosing span (-1 for none) and optional counts taken from the arguments
and the result.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from time import perf_counter

LAYERS = ("network", "linalg", "lfp", "irreducibility", "drift", "report", "oracle")
OP_SPAN = "bench.operation"


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# Counts taken at layer boundaries from the first argument and the result,
# keyed by span name.  A function missing from the program (renamed or
# removed by a later change) is simply never called, so its metrics read
# zero; a counter whose fields have changed records no counts.
COUNTERS = {
    "lfp.solve_lfp": lambda problem, out: {
        "rows": problem.a.nrows + problem.a_eq.nrows,
        "vars": problem.num_vars,
        "feasible": int(out.feasible),
        "bits": max((_bits(x) for x in out.witness), default=0) if out.feasible else 0,
    },
    "network.enumerate_conserved_states": lambda _, out: {
        "n_c": len(out.conserved_states)
    },
    "irreducibility.level_decomposition": lambda _, out: {"levels": len(out.levels)},
    "irreducibility.level_decomposition_conserved": lambda _, out: {
        "levels": len(out.levels)
    },
    "oracle.truncated_cme_stationary": lambda _, out: {"states": len(out.states)},
    "oracle.gillespie_simulate": lambda _, out: {"jumps": len(out.states) - 1},
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []  # (module, attribute, original)
        self.op = -1

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, None)
            if counters is not None:
                first = args[0] if args else next(iter(kwargs.values()), None)
                try:
                    counts = counters(first, out)
                except (AttributeError, TypeError):
                    counts = None
                spans[idx] = spans[idx][:5] + (counts,)
            return out

        return wrapper

    def install(self):
        """Wrap the public functions of every layer at every import site."""
        modules = [importlib.import_module(f"ergocheck.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("ergocheck.")
                    and obj.__module__.split(".")[1] in LAYERS
                ):
                    if id(obj) not in wrappers:
                        layer = obj.__module__.split(".")[1]
                        wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def operation(self, op_id, fn, *args):
        """Run ``fn(*args)`` as operation ``op_id`` under a root span."""
        self.op = op_id
        return self._wrap(OP_SPAN, fn)(*args)

    def write(self, path):
        """Spans as JSON lines: op, name, start, end, parent, counters."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Self time of every span: its duration minus its children's."""
    own = [end - start for _, _, start, end, _, _ in spans]
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def operation_totals(spans):
    """Per operation id: (operation span duration, summed self time of the
    layer spans inside it).  The two differ only by benchmark glue."""
    own = self_times(spans)
    totals = {}
    for idx, (op, name, start, end, _, _) in enumerate(spans):
        duration, layers = totals.get(op, (0.0, 0.0))
        if name == OP_SPAN:
            duration = end - start
        else:
            layers += own[idx]
        totals[op] = (duration, layers)
    return totals


def _under(spans, idx, ancestor):
    parent = spans[idx][4]
    while parent >= 0:
        if spans[parent][1] == ancestor:
            return True
        parent = spans[parent][4]
    return False


def layer_metrics(spans):
    """Per-layer metrics, times in seconds per operation."""
    n_ops = sum(1 for s in spans if s[1] == OP_SPAN) or 1
    own = self_times(spans)
    total = {}
    selfsum = {}
    calls = {}
    for idx, (_, name, start, end, _, _) in enumerate(spans):
        selfsum[name] = selfsum.get(name, 0.0) + own[idx]
        calls[name] = calls.get(name, 0) + 1
        if not _under(spans, idx, name):  # do not count recursion twice
            total[name] = total.get(name, 0.0) + (end - start)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names) / n_ops

    def nested(name, ancestor, count=False):
        hits = [
            s[3] - s[2]
            for i, s in enumerate(spans)
            if s[1] == name and _under(spans, i, ancestor)
        ]
        return len(hits) / n_ops if count else sum(hits) / n_ops

    def counter(name, key, how):
        vals = [s[5][key] for s in spans if s[1] == name and s[5]]
        if not vals:
            return 0
        return max(vals) if how == "max" else sum(vals) / n_ops

    lfp_calls = calls.get("lfp.solve_lfp", 0)
    return {
        "lfp.solve_s": t("lfp.solve_lfp"),
        "lfp.calls": lfp_calls / n_ops,
        "lfp.rows_max": counter("lfp.solve_lfp", "rows", "max"),
        "lfp.vars_max": counter("lfp.solve_lfp", "vars", "max"),
        "lfp.witness_bits_max": counter("lfp.solve_lfp", "bits", "max"),
        "lfp.feasible_frac": (
            counter("lfp.solve_lfp", "feasible", "sum") * n_ops / lfp_calls
            if lfp_calls
            else 0
        ),
        "lfp.recheck_s": t("lfp.witness_satisfies"),
        "irreducibility.check_s": t("irreducibility.check_irreducibility"),
        "irreducibility.self_s": selfsum.get("irreducibility.check_irreducibility", 0.0)
        / n_ops,
        "irreducibility.flux_lfp_s": nested(
            "lfp.solve_lfp", "irreducibility.check_irreducibility"
        ),
        "irreducibility.classes_s": t("irreducibility.conserved_class_analysis"),
        "irreducibility.classes_calls": calls.get(
            "irreducibility.conserved_class_analysis", 0
        )
        / n_ops,
        "irreducibility.closure_s": t("irreducibility.reachability_closure"),
        "irreducibility.levels_s": t(
            "irreducibility.level_decomposition",
            "irreducibility.level_decomposition_conserved",
        ),
        "irreducibility.levels": counter(
            "irreducibility.level_decomposition", "levels", "sum"
        )
        + counter("irreducibility.level_decomposition_conserved", "levels", "sum"),
        "linalg.rank_s": t("linalg.rank"),
        "linalg.hnf_s": t("linalg.hermite_normal_form"),
        "linalg.null_space_s": t("linalg.null_space", "linalg.left_null_space"),
        "drift.build_s": t("drift.build_drift_system"),
        "drift.lfp_s": nested("lfp.solve_lfp", "drift.check_negative_drift"),
        "drift.verify_s": t("drift.verify_certificate", "drift.certificate_from_witness"),
        "network.parse_s": t("network.parse_network"),
        "network.conservation_s": t("network.find_conservation_relations"),
        "network.conservation_lfp_calls": nested(
            "lfp.solve_lfp", "network.find_conservation_relations", count=True
        ),
        "network.enumerate_s": t("network.enumerate_conserved_states"),
        "network.n_c": counter("network.enumerate_conserved_states", "n_c", "sum"),
        "report.analyze_self_s": selfsum.get("report.analyze", 0.0) / n_ops,
        "report.render_s": t("report.render_report"),
        "oracle.cme_s": t("oracle.truncated_cme_stationary"),
        "oracle.cme_states": counter("oracle.truncated_cme_stationary", "states", "sum"),
        "oracle.exact_solve_s": nested(
            "linalg.solve_linear_system", "oracle.truncated_cme_stationary"
        ),
        "oracle.probe_s": t("oracle.empirical_irreducibility_probe"),
        "oracle.ssa_s": t("oracle.gillespie_simulate"),
        "oracle.ssa_jumps": counter("oracle.gillespie_simulate", "jumps", "sum"),
    }
