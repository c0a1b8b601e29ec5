"""Outside-in tracing for the traced benchmark run.

Hooks replace module attributes of coblock with thin wrappers, so the
program itself carries no instrumentation. A wrapper either records a
span (name, start, end, parent) or only bumps a counter; counters are
cheaper and are used for the Newton-level functions that run hundreds
of thousands of times per operation. A hook whose target attribute is
missing, for example after a refactor renames it, is reported as
absent and installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import NamedTuple


class Hook(NamedTuple):
    """One wrapped coblock attribute.

    span names the span recorded per call (None: count only); counter is
    bumped per call; failure is (exception name in coblock.errors,
    counter) for an exception counted as it leaves the call; cells adds
    the loaded dataset's cell count to Tracer.cells_loaded.
    """

    module: str
    attr: str
    span: str | None
    counter: str | None = None
    failure: tuple | None = None
    cells: bool = False


# Functions are looked up as module globals at call time, so replacing
# the attribute in the calling module is what makes a hook see calls.
HOOKS = (
    Hook("coblock.selection", "fit", "bem.fit", "selection.cells",
         ("AllRestartsFailed", "selection.cells_failed")),
    Hook("coblock.cli", "fit", "bem.fit"),
    Hook("coblock.bem", "row_e_step", "bem.row_e_step"),
    Hook("coblock.bem", "col_e_step", "bem.col_e_step"),
    Hook("coblock.bem", "m_step_gaussian", "bem.m_step_gaussian", None,
         ("EmptyCluster", "bem.restart_failures")),
    Hook("coblock.bem", "m_step_beta", "bem.m_step_beta"),
    Hook("coblock.bem", "free_energy", "bem.free_energy"),
    Hook("coblock.bem", "gaussian_cluster_logpdfs", "model.gaussian_logpdf"),
    Hook("coblock.bem", "weighted_logistic_gradient", None, "bem.newton_iters"),
    Hook("coblock.bem", "weighted_logistic_hessian", None, "bem.newton_steps"),
    Hook("coblock.bem", "weighted_logistic_objective", None, "bem.objective_evals"),
    Hook("coblock.cli", "load_dataset", "dataio.load", cells=True),
    Hook("coblock.cli", "write_x_csv", "dataio.write_input"),
    Hook("coblock.cli", "write_y_csv", "dataio.write_input"),
    Hook("coblock.cli", "write_labels_csv", "dataio.write_output"),
    Hook("coblock.cli", "write_params_json", "dataio.write_output"),
    Hook("coblock.cli", "write_influence_csv", "dataio.write_output"),
    Hook("coblock.cli", "write_json", "dataio.write_output"),
    Hook("coblock.cli", "generate", "simulate.generate"),
    Hook("coblock.cli", "influence_report", "influence.report"),
)


class Tracer:
    """Spans and counters of one traced operation, kept in memory.

    Span k is stored as [name, start, end, parent index or -1]; the
    parent is the span open when k started, so self time can exclude
    nested spans. The benchmark opens its own spans, one per call into
    coblock, with call().
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.cells_loaded = 0
        self._stack = []

    def bump(self, counter):
        self.counts[counter] = self.counts.get(counter, 0) + 1

    def call(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child[k]))
        return out


class Hooks:
    """Installs HOOKS around one traced operation and restores them.

    absent lists "module.attribute" targets that do not exist at this
    commit; they are skipped, never an error.
    """

    def __init__(self):
        errors = _module("coblock.errors")
        self.targets = []
        self.absent = []
        for hook in HOOKS:
            module = _module(hook.module)
            original = getattr(module, hook.attr, None)
            if not callable(original):
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            failure = None
            if hook.failure is not None:
                exc = getattr(errors, hook.failure[0], None)
                failure = (exc, hook.failure[1]) if exc is not None else None
            self.targets.append((module, hook, original, failure))

    def install(self, tracer):
        for module, hook, original, failure in self.targets:
            setattr(module, hook.attr, _wrap(tracer, original, hook, failure))

    def remove(self):
        for module, hook, original, _ in self.targets:
            setattr(module, hook.attr, original)


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _wrap(tracer, fn, hook, failure):
    if hook.span is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.bump(hook.counter)
            return fn(*args, **kwargs)

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if hook.counter is not None:
            tracer.bump(hook.counter)
        try:
            result = tracer.call(hook.span, fn, *args, **kwargs)
        except Exception as exc:
            if failure is not None and isinstance(exc, failure[0]):
                tracer.bump(failure[1])
            raise
        if hook.cells:
            x, y = result
            tracer.cells_loaded += x.n * x.m + y.n * y.p
        return result

    return spanned


def layer_metrics(tracers, hooks_absent):
    """Per-layer metrics averaged over the traced operations.

    Times are seconds per operation: self time for every span except
    bem.fit_s, which is inclusive (bem.fit_other_s is its self time).
    Counts are calls per operation. Spans and counters that never fired
    read 0.
    """
    ops = len(tracers)
    spans = {}
    counts = {}
    cells = 0
    for tr in tracers:
        for name, (calls, total, own) in tr.totals().items():
            c0, t0, s0 = spans.get(name, (0, 0.0, 0.0))
            spans[name] = (c0 + calls, t0 + total, s0 + own)
        for name, value in tr.counts.items():
            counts[name] = counts.get(name, 0) + value
        cells += tr.cells_loaded

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / ops

    def per_op(total):
        return total / ops

    fit_total = spans.get("bem.fit", (0, 0.0, 0.0))[1]
    load_total = spans.get("dataio.load", (0, 0.0, 0.0))[1]
    sweeps = calls("bem.row_e_step")
    steps = counts.get("bem.newton_steps", 0)
    cli_own = sum(s for name, (_, _, s) in spans.items() if name.startswith("cli."))
    return {
        "dataio.load_s": own("dataio.load"),
        "dataio.write_input_s": own("dataio.write_input"),
        "dataio.write_output_s": own("dataio.write_output"),
        "dataio.load_cells_per_s": cells / load_total if load_total > 0 else 0.0,
        "simulate.generate_s": own("simulate.generate"),
        "bem.fit_s": per_op(fit_total),
        "bem.row_e_step_s": own("bem.row_e_step"),
        "bem.col_e_step_s": own("bem.col_e_step"),
        "bem.m_step_gaussian_s": own("bem.m_step_gaussian"),
        "bem.m_step_beta_s": own("bem.m_step_beta"),
        "bem.free_energy_s": own("bem.free_energy"),
        "bem.fit_other_s": own("bem.fit"),
        "bem.sweeps": per_op(sweeps),
        "bem.s_per_sweep": fit_total / sweeps if sweeps else 0.0,
        "bem.free_energy_calls": per_op(calls("bem.free_energy")),
        "bem.m_step_beta_calls": per_op(calls("bem.m_step_beta")),
        "bem.newton_iters": per_op(counts.get("bem.newton_iters", 0)),
        "bem.newton_steps": per_op(steps),
        "bem.objective_evals": per_op(counts.get("bem.objective_evals", 0)),
        "bem.objective_evals_per_step": (
            counts.get("bem.objective_evals", 0) / steps if steps else 0.0
        ),
        "bem.restart_failures": per_op(counts.get("bem.restart_failures", 0)),
        "model.gaussian_logpdf_s": own("model.gaussian_logpdf"),
        "model.gaussian_logpdf_calls": per_op(calls("model.gaussian_logpdf")),
        "selection.cells": per_op(counts.get("selection.cells", 0)),
        "selection.cells_failed": per_op(counts.get("selection.cells_failed", 0)),
        "selection.self_s": own("selection.select"),
        "influence.report_s": own("influence.report"),
        "cli.self_s": cli_own / ops,
        "trace.ops": float(ops),
        "trace.hooks_absent": float(len(hooks_absent)),
    }
