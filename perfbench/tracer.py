"""Per-layer tracing from outside the program.

``Tracer.install`` replaces chosen public functions of the ``tstrees``
modules with wrappers.  A ``from``-import binds a function into each
importing module's namespace, so every loaded ``tstrees`` module is searched
and every binding of a wrapped function is replaced; ``uninstall`` puts the
originals back.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans opened directly inside it.  Functions called so often
that a span would distort their callers (``required_count``,
``compare_values``, ``dtw``) are counted but not timed.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module -> functions timed as spans
SPANS = {
    "dataio": ("load_dataset", "resample_split"),
    "model": ("save_model", "load_model"),
    "induction": ("grow_tree", "best_split", "candidate_thresholds", "info_split",
                  "grow_static_tree", "classify", "confusion"),
    "intervals": ("check_decision", "split_dataset"),
    "baselines": ("nn_classify", "feature_table"),
    "evaluation": ("class_report",),
    "rendering": ("render_tree",),
}
# module -> functions only counted
COUNTED = {
    "intervals": ("compare_values", "required_count"),
    "baselines": ("dtw",),
}


class Tracer:
    def __init__(self):
        self._stack = []                  # [name, seconds covered by children]
        self._patched = []                # (module, attribute, original)
        self.reset()

    # -- spans -----------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def _timed(self, name, fn):
        span = self.span
        if name == "baselines.nn_classify":
            def wrapper(train, query, metric):
                self.calls[name] += 1
                return span(f"{name}.{metric}", fn, train, query, metric)
        elif name == "induction.best_split":
            def wrapper(instances, config):
                self.searches.append((instances, config))
                return span(name, fn, instances, config)
        elif name == "intervals.check_decision":
            def wrapper(*args, **kwargs):
                result = span(name, fn, *args, **kwargs)
                self.satisfied += result.satisfied
                return result
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        import tstrees  # noqa: F401  (loads every submodule)

        replace = {}
        for table, make in ((SPANS, self._timed), (COUNTED, self._counted)):
            for mod, names in table.items():
                module = sys.modules[f"tstrees.{mod}"]
                for fname in names:
                    original = getattr(module, fname)
                    replace[id(original)] = (original, make(f"{mod}.{fname}", original))
        for modname, module in list(sys.modules.items()):
            if modname != "tstrees" and not modname.startswith("tstrees."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self):
        self.total = defaultdict(float)   # span name -> seconds inside
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.satisfied = 0                # check_decision calls that held
        self.searches = []                # (instances, config) per best_split call


def candidate_count(instances, config) -> int:
    """Candidate decisions one split search evaluates, from its inputs:
    thresholds x comparators x alphas x relations, summed over attributes
    and derivative degrees.  Thresholds are the midpoints between distinct
    observed values, thinned to ``max_threshold_candidates``."""
    if len(instances) < 2:
        return 0
    channels = np.stack([inst.channels for inst in instances])
    n = channels.shape[2]
    per_threshold = len(config.comparators) * len(config.alpha_grid) * len(config.relations)
    total = 0
    for attr in range(channels.shape[1]):
        values = channels[:, attr, :]
        for z in range(min(config.max_derivative, n - 1) + 1):
            distinct = np.unique(values).size
            total += min(max(distinct - 1, 0), config.max_threshold_candidates) * per_threshold
            values = np.diff(values, axis=1)
    return total


def layer_metrics(tracer: Tracer, commands) -> dict:
    """One round's per-layer figures.  ``commands`` names the CLI commands
    whose spans (``cli.<command>``) are the roots of the round."""
    t, s, c = tracer.total, tracer.self_time, tracer.calls
    candidates = sum(candidate_count(i, cfg) for i, cfg in tracer.searches)
    checks = c["intervals.check_decision"]
    out = {}
    for cmd in ("train", "predict", "evaluate", "compare"):
        out[f"cli.{cmd}.s"] = t[f"cli.{cmd}"]
    out["cli.self.s"] = sum(s[f"cli.{cmd}"] for cmd in commands)
    out.update({
        "dataio.load_dataset.calls": c["dataio.load_dataset"],
        "dataio.load_dataset.s": t["dataio.load_dataset"],
        "dataio.resample_split.s": t["dataio.resample_split"],
        "model.save_model.s": t["model.save_model"],
        "model.load_model.s": t["model.load_model"],
        "induction.grow_tree.s": t["induction.grow_tree"],
        "induction.grow_tree.self_s": s["induction.grow_tree"],
        "induction.best_split.calls": c["induction.best_split"],
        "induction.best_split.s": t["induction.best_split"],
        "induction.best_split.self_s": s["induction.best_split"],
        "induction.candidates": candidates,
        "induction.best_split.us_per_candidate":
            t["induction.best_split"] / candidates * 1e6 if candidates else 0.0,
        "induction.candidate_thresholds.s": t["induction.candidate_thresholds"],
        "induction.info_split.calls": c["induction.info_split"],
        "induction.info_split.s": t["induction.info_split"],
        "induction.admissible_ratio":
            c["induction.info_split"] / candidates if candidates else 0.0,
        "induction.grow_static_tree.s": t["induction.grow_static_tree"],
        "induction.classify.calls": c["induction.classify"],
        "induction.classify.s": t["induction.classify"],
        "induction.classify.self_s": s["induction.classify"],
        "induction.confusion.calls": c["induction.confusion"],
        "induction.confusion.s": t["induction.confusion"],
        "intervals.check_decision.calls": checks,
        "intervals.check_decision.s": t["intervals.check_decision"],
        "intervals.check_decision.satisfied_ratio": tracer.satisfied / checks if checks else 0.0,
        "intervals.split_dataset.calls": c["intervals.split_dataset"],
        "intervals.split_dataset.s": t["intervals.split_dataset"],
        "intervals.split_dataset.self_s": s["intervals.split_dataset"],
        "intervals.compare_values.calls": c["intervals.compare_values"],
        "intervals.required_count.calls": c["intervals.required_count"],
        "baselines.nn_classify.calls": c["baselines.nn_classify"],
        "baselines.nn_classify.ed-i.s": t["baselines.nn_classify.ed-i"],
        "baselines.nn_classify.dtw-i.s": t["baselines.nn_classify.dtw-i"],
        "baselines.nn_classify.dtw-d.s": t["baselines.nn_classify.dtw-d"],
        "baselines.dtw.calls": c["baselines.dtw"],
        "baselines.feature_table.s": t["baselines.feature_table"],
        "evaluation.class_report.s": t["evaluation.class_report"],
        "rendering.render_tree.s": t["rendering.render_tree"],
    })
    return out
