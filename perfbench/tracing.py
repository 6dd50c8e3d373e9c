"""Spans around calls into infodep's public functions, recorded from outside.

The modules of infodep call each other by module-global name (``sstar``
looks up ``maximal_correlation`` in its own namespace, ``tcurve`` looks up
``lower_envelope_1d`` in its own), so a wrapper only sees nested calls if it
replaces the name in every module that holds it.  :meth:`Tracer.install`
does that for every ``infodep`` module in ``sys.modules`` and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[label, start, end, parent]``; ``parent`` is the index of the
enclosing wrapped call or ``None``.  Spans stay in memory until the caller
writes them out.  A label's self time is its spans' durations minus the
durations of their direct wrapped children.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

#: (defining module, function, span label), outermost layers first.  The
#: nestings they produce are q_star > in_ribbon > contraction_gap,
#: lambda_dagger > touches_envelope > lower_envelope_1d and
#: sstar > maximal_correlation.
TRACED = (
    ("infodep.distributions", "load_joint_json", "distributions.load_joint_json"),
    ("infodep.spectral", "maximal_correlation", "spectral.maximal_correlation"),
    ("infodep.sstar", "sstar", "sstar.sstar"),
    ("infodep.tcurve", "lambda_dagger", "tcurve.lambda_dagger"),
    ("infodep.tcurve", "touches_envelope", "tcurve.touches_envelope"),
    ("infodep.tcurve", "lower_envelope_1d", "tcurve.lower_envelope_1d"),
    ("infodep.ribbon", "q_star", "ribbon.q_star"),
    ("infodep.ribbon", "in_ribbon", "ribbon.in_ribbon"),
    ("infodep.ribbon", "contraction_gap", "ribbon.contraction_gap"),
)


class Tracer:
    """Records a span per wrapped call plus work counters read from results."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        # ``infodep.sstar`` names the function, so reach the module by key
        sstar_function = sys.modules["infodep.sstar"].sstar
        cap = inspect.signature(sstar_function).parameters["max_iter"].default
        for module_name, func_name, label in TRACED:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, label, self._counter_hook(label, cap))
            for name, module in list(sys.modules.items()):
                if not (name == "infodep" or name.startswith("infodep.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _counter_hook(self, label: str, sweep_cap: int):
        counters = self.counters
        if label == "sstar.sstar":

            def hook(result, kwargs):
                diag = result.diagnostics
                cap = kwargs.get("max_iter", sweep_cap)
                counters["sstar.sstar.candidates"] += diag["candidates"]
                counters["sstar.sstar.ascent_sweeps"] += diag["ascent_sweeps"]
                counters["sstar.sstar.sweep_cap_hits"] += diag["ascent_sweeps"] >= cap

            return hook
        if label == "tcurve.lower_envelope_1d":

            def hook(result, kwargs):
                counters["tcurve.hull_points"] += result.grid.shape[0]

            return hook
        return None

    def _wrap(self, original, label: str, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [label, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(result, kwargs)
            return result

        return wrapper


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per label: number of calls and summed self time in seconds."""
    child_time = [0.0] * len(spans)
    for label, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (label, start, end, parent) in enumerate(spans):
        out[label]["calls"] += 1
        out[label]["self_s"] += (end - start) - child_time[i]
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing numpy, scipy and infodep's own modules.

    Reads the ``-X importtime`` tree.  numpy and scipy are charged the
    cumulative time of each top-level entry of their package (an entry not
    nested in another entry of the same package), so modules they pull in
    count toward them; infodep is charged only the self time of its own
    modules.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((int(self_us), int(cumulative_us), depth, name.strip()))

    def package_cumulative(package: str) -> float:
        total = 0
        # the tree is printed children first, so walk it backwards to see each
        # parent before its children
        open_depth = None
        for self_us, cumulative_us, depth, name in reversed(rows):
            if open_depth is not None and depth <= open_depth:
                open_depth = None
            mine = name == package or name.startswith(package + ".")
            if mine and open_depth is None:
                total += cumulative_us
                open_depth = depth
        return total / 1e6

    own = sum(s for s, _, _, name in rows if name == "infodep" or name.startswith("infodep."))
    return {
        "import.numpy_s": package_cumulative("numpy"),
        "import.scipy_s": package_cumulative("scipy"),
        "import.infodep_s": own / 1e6,
    }
