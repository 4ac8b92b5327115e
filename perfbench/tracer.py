"""Outside-in tracing of calls into the mdiqkd layers.

The tracer never edits the library.  While installed it rebinds every
``mdiqkd.*`` module global that holds a target function object to a wrapper,
so names imported with ``from .x import y`` are caught as well as the
defining module's own; class-level targets such as a classmethod are rebound
on their class.  Each call to a wrapped target records a span (target, start,
end, parent span, task id) in memory; spans are written out only when the
run ends.  ``count`` targets, too hot for a span each, only count calls.

A target that no longer exists is reported as absent rather than failing the
run, so the benchmark survives refactors that fold or rename functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

# (metric group, module, attribute path, kind, observation)
# Several targets may feed one group: their calls and times add up.
TARGETS = (
    ("cli.main", "mdiqkd.cli", "main", "span", None),
    ("source_model.coeff_bounds", "mdiqkd.source_model", "coeff_bounds", "span", None),
    ("source_model.check_decoy_conditions", "mdiqkd.source_model", "check_decoy_conditions", "span", None),
    ("source_model.poisson_coeff", "mdiqkd.source_model", "poisson_coeff", "count", None),
    ("stat_bounds.chernoff", "mdiqkd.stat_bounds", "chernoff_lower", "span", None),
    ("stat_bounds.chernoff", "mdiqkd.stat_bounds", "chernoff_upper", "span", None),
    ("stat_bounds.combo", "mdiqkd.stat_bounds", "combo_lower", "span", None),
    ("stat_bounds.combo", "mdiqkd.stat_bounds", "combo_upper", "span", None),
    ("channel_sim.build_observables", "mdiqkd.channel_sim", "build_observables", "span", None),
    ("channel_sim.pair_yield", "mdiqkd.channel_sim", "pair_yield", "span", None),
    ("channel_sim.monte_carlo_yield", "mdiqkd.channel_sim", "monte_carlo_yield", "span", lambda r: float(r.trials)),
    ("keyrate_core.from_simulation", "mdiqkd.keyrate_core", "AnalysisInputs.from_simulation", "span", None),
    ("keyrate_core.secure_key_rate", "mdiqkd.keyrate_core", "secure_key_rate", "span", lambda r: float(r.rate > 0.0)),
    ("optimizer.evaluate", "mdiqkd.optimizer", "evaluate", "span", None),
    ("optimizer.optimize", "mdiqkd.optimizer", "optimize", "span", None),
)


@dataclass
class _Target:
    owner: object  # the class for class-level targets, else None
    attribute: str
    original: object  # the object found at the binding (function or classmethod)
    replacement: object


class Tracer:
    def __init__(self) -> None:
        # One span per list entry: [group index, start, end, parent, task, observation].
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.task = -1
        self.groups: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._targets: list[_Target] = []
        self._patched: list[tuple[object, str, object]] = []
        for group, module_name, path, kind, observe in TARGETS:
            if group not in self.groups:
                self.groups.append(group)
            label = f"{module_name}.{path}"
            try:
                owner = sys.modules[module_name]
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                found = inspect.getattr_static(owner, attribute)
            except (KeyError, AttributeError):
                self.absent.append(label)
                continue
            func = found.__func__ if isinstance(found, classmethod) else found
            if not callable(func):
                self.absent.append(label)
                continue
            if kind == "count":
                wrapper = self._counter(group, func)
            else:
                wrapper = self._span(self.groups.index(group), func, observe)
            replacement = classmethod(wrapper) if isinstance(found, classmethod) else wrapper
            self._targets.append(_Target(owner if inspect.isclass(owner) else None, attribute, found, replacement))

    def _span(self, index: int, func, observe):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            me = len(spans)
            record = [index, 0.0, 0.0, stack[-1] if stack else -1, tracer.task, None]
            spans.append(record)
            stack.append(me)
            record[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if observe is not None:
                record[5] = observe(result)
            return result

        return wrapper

    def _counter(self, group: str, func):
        counts = self.counts
        counts.setdefault(group, 0)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[group] += 1
            return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "mdiqkd" or name.startswith("mdiqkd.")]
        for target in self._targets:
            if target.owner is not None:
                self._patched.append((target.owner, target.attribute, target.original))
                setattr(target.owner, target.attribute, target.replacement)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is target.original:
                        self._patched.append((module, name, value))
                        setattr(module, name, target.replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, value = self._patched.pop()
            setattr(owner, name, value)

    def summary(self, n_tasks: int) -> dict[str, dict[str, float]]:
        """Per group: calls and self time per task, inclusive seconds, observations."""
        child = [0.0] * len(self.spans)
        for group, start, end, parent, _task, _obs in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {group: {"calls": 0.0, "self_s": 0.0, "incl_s": 0.0, "observed": 0.0, "reached_analysis": 0.0} for group in self.groups}
        evaluate = self.groups.index("optimizer.evaluate")
        secure = self.groups.index("keyrate_core.secure_key_rate")
        for i, (index, start, end, parent, _task, obs) in enumerate(self.spans):
            stats = out[self.groups[index]]
            stats["calls"] += 1
            stats["incl_s"] += end - start
            stats["self_s"] += end - start - child[i]
            if obs is not None:
                stats["observed"] += obs
            # An evaluate span whose child is secure_key_rate reached the analysis.
            if index == secure and parent >= 0 and self.spans[parent][0] == evaluate:
                out["optimizer.evaluate"]["reached_analysis"] += 1
        for group, calls in self.counts.items():
            out[group]["calls"] += calls
        scale = 1.0 / max(n_tasks, 1)
        for stats in out.values():
            stats["calls_per_task"] = stats["calls"] * scale
            stats["self_ms_per_task"] = stats["self_s"] * 1e3 * scale
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,target,start_s,end_s,parent,task,observation\n")
            base = self.spans[0][1] if self.spans else 0.0
            for i, (index, start, end, parent, task, obs) in enumerate(self.spans):
                handle.write(f"{i},{self.groups[index]},{start - base:.9f},{end - base:.9f},{parent},{task},{'' if obs is None else obs}\n")
