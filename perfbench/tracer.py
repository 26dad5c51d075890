"""Outside-in tracer: spans and counts recorded around qvint's public functions.

`install` replaces each public function of the traced modules, at every
`qvint` module that binds it (so the `from`-imports in `qvint.cli` and
`qvint.verify` are covered too), and the table methods of `FieldParams`,
with a wrapper that records a span.  Per-element `FieldElement`, `VectorFq`
and `dot` calls are left alone: wrapping them would swamp the numbers.

A span is (name, start, end, parent), kept in memory and written out when
the pass ends.  A layer's self time is the duration of its spans minus the
part covered by their child spans.  Counts are computed from arguments and
returned objects, never from clocks, so they repeat exactly.
"""

import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# Span name -> the per-layer self-time metric it feeds.  Functions of a
# module not listed here feed "<module>.self_s" (or census.other_s).
SELF_METRIC = {
    "census.enumerate_census": "census.enumerate_s",
    "census.build_transversal": "census.transversal_s",
    "census.image_set": "census.image_set_s",
    "census.second_moment_identity_check": "census.second_moment_s",
    "simulator.run_algorithm": "simulator.run_algorithm_s",
    "simulator.fourier_state": "simulator.fourier_s",
    "simulator.success_probability": "simulator.fourier_s",
    "simulator.restricted_fourier_state": "simulator.fourier_s",
    "simulator.outcome_distribution": "simulator.distribution_s",
    "simulator.sample_outcomes": "simulator.sample_s",
    "simulator.state_family_rank": "simulator.rank_s",
    "simulator.phase_query_check": "simulator.phase_query_s",
    "verify.run_all": "verify.self_s",
    "cli.main": "cli.self_s",
}
TRACED_MODULES = ("field", "domain", "census", "complexity", "simulator", "verify")
NOT_TRACED = {"domain.dot"}
FIELD_TABLES = ("elements", "add_rows", "mul_rows", "trace_values",
                "character_values", "character_table", "fourier_matrix")

SELF_METRICS = sorted(set(SELF_METRIC.values()) | {
    "field.self_s", "domain.self_s", "census.other_s", "complexity.self_s"})
COUNT_METRICS = (
    "field.table_entries", "domain.subsets_checked", "domain.vectors",
    "census.tuples", "census.image_points", "census.transversal_tuples",
    "census.dot_products", "simulator.states", "simulator.trials",
    "simulator.rank_entries", "simulator.amplitude_bytes", "verify.checks",
    "verify.failed_checks", "cli.report_bytes",
)


def self_metric(span_name: str) -> str:
    if span_name in SELF_METRIC:
        return SELF_METRIC[span_name]
    module = span_name.split(".", 1)[0]
    return "census.other_s" if module == "census" else f"{module}.self_s"


class Tracer:
    """In-memory span and count recorder for one single-threaded pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._tables_served = {}  # (id(params), method) -> params, kept alive

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def self_times(self) -> dict:
        """Self time per metric: span durations minus their children's."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(SELF_METRICS, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[self_metric(name)] += end - start - children
        return totals

    def layer_metrics(self) -> dict:
        """Every per-layer metric of one pass except trace.overhead_s."""
        metrics = self.self_times()
        metrics.update({name: self.counts[name] for name in COUNT_METRICS})
        tuples = metrics["census.tuples"]
        enumerate_s = metrics["census.enumerate_s"]
        metrics["census.tuples_per_s"] = tuples / enumerate_s if enumerate_s else 0.0
        metrics["census.image_per_tuple"] = (
            metrics["census.image_points"] / tuples if tuples else 0.0)
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# -- computed counts ----------------------------------------------------------
#
# Each hook adds to tracer.counts from one call's arguments and result.


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_table(tracer, fn, args, kwargs, result):
    # q^2 entries per add/mul table, once per field object that serves one.
    params = args[0]
    key = (id(params), fn.__name__)
    if key not in tracer._tables_served:
        tracer._tables_served[key] = params
        tracer.counts["field.table_entries"] += params.q * params.q


def _count_domain(tracer, fn, args, kwargs, result):
    tracer.counts["domain.vectors"] += result.size


def _count_subsets(tracer, fn, args, kwargs, result):
    tracer.counts["domain.subsets_checked"] += result.subsets_checked


def _count_census(tracer, fn, args, kwargs, result):
    tracer.counts["census.tuples"] += result.total
    tracer.counts["census.image_points"] += result.image_size


def _count_transversal(tracer, fn, args, kwargs, result):
    domain = result.domain
    tracer.counts["census.transversal_tuples"] += (
        (domain.size * domain.params.q) ** result.k)


def _count_identity(tracer, fn, args, kwargs, result):
    domain = _bound(fn, args, kwargs)["domain"]
    tracer.counts["census.dot_products"] += domain.params.q ** domain.n * domain.size


def _count_state(tracer, fn, args, kwargs, result):
    # complex128 amplitudes over GF(q)^n.
    tracer.counts["simulator.amplitude_bytes"] += 16 * result.params.q ** result.n


def _count_run(tracer, fn, args, kwargs, result):
    tracer.counts["simulator.states"] += 1
    _count_state(tracer, fn, args, kwargs, result)


def _count_trials(tracer, fn, args, kwargs, result):
    tracer.counts["simulator.trials"] += result.trials


def _count_rank(tracer, fn, args, kwargs, result):
    image = _bound(fn, args, kwargs)["image"]
    tracer.counts["simulator.rank_entries"] += image.params.q ** image.n * image.size


def _count_checks(tracer, fn, args, kwargs, result):
    tracer.counts["verify.checks"] += len(result)
    tracer.counts["verify.failed_checks"] += sum(1 for r in result if not r.ok)


COUNT_HOOKS = {
    "field.add_rows": _count_table,
    "field.mul_rows": _count_table,
    "domain.build_explicit_domain": _count_domain,
    "domain.build_vandermonde_domain": _count_domain,
    "domain.build_monomial_domain": _count_domain,
    "domain.read_domain_file": _count_domain,
    "domain.validate_independence": _count_subsets,
    "census.enumerate_census": _count_census,
    "census.build_transversal": _count_transversal,
    "census.second_moment_identity_check": _count_identity,
    "simulator.run_algorithm": _count_run,
    "simulator.fourier_state": _count_state,
    "simulator.restricted_fourier_state": _count_state,
    "simulator.sample_outcomes": _count_trials,
    "simulator.state_family_rank": _count_rank,
    "verify.run_all": _count_checks,
}


def _wrap(tracer, fn, name):
    hook = COUNT_HOOKS.get(name)

    def traced(*args, **kwargs):
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        if hook is not None:
            hook(tracer, fn, args, kwargs, result)
        return result

    traced._perfbench_original = fn
    return traced


def _package_modules(package) -> list:
    return [m for key, m in sys.modules.items()
            if key == package.__name__ or key.startswith(package.__name__ + ".")]


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of the traced qvint modules for tracer."""
    replace = {}  # id(original) -> wrapper
    for short in TRACED_MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, value in vars(module).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in NOT_TRACED
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            replace[id(value)] = _wrap(tracer, value, name)
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in replace:
                setattr(module, attr, replace[id(value)])
    field_params = sys.modules[f"{package.__name__}.field"].FieldParams
    for method in FIELD_TABLES:
        original = vars(field_params)[method]
        setattr(field_params, method, _wrap(tracer, original, f"field.{method}"))


def uninstall(package) -> None:
    """Undo install: put every original function back where it was bound."""
    for module in _package_modules(package):
        for attr, value in list(vars(module).items()):
            original = getattr(value, "_perfbench_original", None)
            if original is not None:
                setattr(module, attr, original)
    field_params = sys.modules[f"{package.__name__}.field"].FieldParams
    for method in FIELD_TABLES:
        value = vars(field_params)[method]
        setattr(field_params, method, getattr(value, "_perfbench_original", value))
