"""Span tracer for the benchmark's traced runs.

Spans are recorded by replacing each layer's public entry points in the
module namespace their callers look them up in, so the program itself is
not changed. A span's layer is the module the wrapped function is defined
in, not the module it is patched into: `gateflow.gradient.propagate` is a
`system` span. Spans stay in memory; `summary` turns them into per-layer
figures and `self_check` fails loudly when a call site has moved.
"""

import importlib
import statistics
import time
from collections import defaultdict

# (module the caller looks the name up in, attribute). Order is irrelevant.
ENTRY_POINTS = (
    ("gateflow.cli", "main"),
    ("gateflow.cli", "load_experiment"),
    ("gateflow.cli", "compare_methods"),
    ("gateflow.experiments", "execute_experiment"),
    ("gateflow.experiments", "integrate_flow"),
    ("gateflow.experiments", "write_comparison"),
    ("gateflow.flow", "flow_evaluation"),
    ("gateflow.gradient", "propagate"),
    ("gateflow.gradient", "unitarity_defect"),
)

LAYERS = ("cli", "experiments", "flow", "gradient", "system")


def _span_name(fn):
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    """Records (name, parent index, start, end) for every wrapped call.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original functions.
    """

    def __init__(self):
        self.spans = []
        self.flow_results = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        keep = self.flow_results if name == "flow.integrate_flow" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of the benchmark's own (e.g. one pass)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def __enter__(self):
        for module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, _span_name(fn)))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def stats(self):
        """name -> {'calls', 'total_s', 'self_s', 'durations'}; a name that
        never fired reads as zero calls."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        for i, (name, _, start, end) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["durations"].append(end - start)
        return out


def _percentiles_ms(durations):
    if len(durations) < 2:
        value = durations[0] * 1e3 if durations else 0.0
        return value, value
    q = statistics.quantiles(durations, n=100, method="inclusive")
    return statistics.median(durations) * 1e3, q[98] * 1e3


def summary(tracer, pass_name, reported_evals, n_runs):
    """The per-layer figures of one traced pass.

    reported_evals is the sum of the table's rhs_evals column and n_runs
    the number of table rows; both come from the program's output.
    """
    st = tracer.stats()
    wall = st[pass_name]["total_s"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, s in st.items():
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += s["self_s"]
    propagate, defect = st["system.propagate"], st["system.unitarity_defect"]
    evaluation, integration = st["gradient.flow_evaluation"], st["flow.integrate_flow"]
    prop_p50, prop_p99 = _percentiles_ms(propagate["durations"])
    eval_p50, eval_p99 = _percentiles_ms(evaluation["durations"])
    accepted = sum(r.accepted_steps for r in tracer.flow_results)
    rejected = sum(r.rejected_steps for r in tracer.flow_results)
    return {
        "system.propagate.calls": propagate["calls"],
        "system.propagate.self_s": propagate["self_s"],
        "system.propagate.ms_p50": prop_p50,
        "system.propagate.ms_p99": prop_p99,
        "system.self_share": layer_self["system"] / wall,
        "system.unitarity_defect.calls": defect["calls"],
        "system.unitarity_defect.self_s": defect["self_s"],
        "gradient.flow_evaluation.calls": evaluation["calls"],
        "gradient.self_s": layer_self["gradient"],
        "gradient.flow_evaluation.ms_p50": eval_p50,
        "gradient.flow_evaluation.ms_p99": eval_p99,
        "gradient.self_share": layer_self["gradient"] / wall,
        "flow.integrate_flow.calls": integration["calls"],
        "flow.self_s": layer_self["flow"],
        "flow.self_share": layer_self["flow"] / wall,
        "flow.accepted_steps": accepted,
        "flow.rejected_steps": rejected,
        "flow.accept_ratio": accepted / max(accepted + rejected, 1),
        "experiments.execute_experiment.calls": st["experiments.execute_experiment"]["calls"],
        "experiments.self_s": layer_self["experiments"],
        "experiments.integrations_per_run": integration["calls"] / max(n_runs, 1),
        "experiments.useful_evals_ratio": reported_evals / max(evaluation["calls"], 1),
        "experiments.load_experiment.s": st["experiments.load_experiment"]["total_s"],
        "experiments.write_comparison.s": st["experiments.write_comparison"]["total_s"],
        "cli.self_s": layer_self["cli"],
    }


def self_check(tracer, uses, checks_unitarity):
    """Problems with the trace, as a list of messages (empty when sound).

    uses names the spans the workload must produce. A refactor that moves
    a call site away from a wrapped name shows up here rather than as a
    zero in the figures.
    """
    st = tracer.stats()
    problems = [f"wrapped entry point {name} never fired"
                for name in sorted(uses) if st[name]["calls"] == 0]
    evaluations = st["gradient.flow_evaluation"]["calls"]
    propagations = st["system.propagate"]["calls"]
    if propagations != evaluations:
        problems.append(f"system.propagate.calls {propagations} != "
                        f"gradient.flow_evaluation.calls {evaluations}")
    counted = sum(r.rhs_evals for r in tracer.flow_results)
    if counted != evaluations:
        problems.append(f"FlowResult.rhs_evals sum {counted} != "
                        f"gradient.flow_evaluation.calls {evaluations}")
    defects = st["system.unitarity_defect"]["calls"]
    expected = evaluations if checks_unitarity else 0
    if defects != expected:
        problems.append(f"system.unitarity_defect.calls {defects}, expected {expected}")
    return problems
