"""Per-layer counts and self times, recorded from outside the library.

`Tracer.install` replaces each traced function with a wrapper, both in
its defining module and in every afideals module that imported it by
name (`cli`, `checks` and `metrics` use `from .x import f`, so patching
only the defining module would miss their calls).  The check suites are
also replaced inside `checks.SUITES`, which `run_check` iterates.

A span wrapper adds the call's duration to its own self time and to its
caller's child time, so self time = duration - time inside traced
callees.  The hottest methods get count-only wrappers; their time stays
in their caller's self time.  Calls are aggregated in memory, not kept as
individual spans, because the hot paths make millions of them.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, mode): "span" records calls and self time, "count" only calls.
TARGETS = (
    ("cli", "main", "span"),
    ("cli", "build_parser", "span"),
    ("qi", "parse_closed_set", "span"),
    ("qi", "format_closed_set", "span"),
    ("qi", "hausdorff", "span"),
    ("qi", "point_distance", "count"),
    ("qi", "ideal_of_closed_set", "span"),
    ("metrics", "d_phi", "span"),
    ("metrics", "d_beta", "span"),
    ("metrics", "d_beta_truncated", "span"),
    ("exact", "word_xor", "span"),
    ("exact", "first_diff_index", "span"),
    ("exact", "word_weight", "span"),
    ("exact", "BinaryWord.bit", "count"),
    ("bratteli", "qi_diagram", "span"),
    ("bratteli", "is_ideal", "span"),
    ("bratteli", "ideal_closure", "span"),
    ("bratteli", "to_finite", "span"),
    ("bratteli", "level_set", "count"),
    ("bratteli", "BratteliDiagram.successors", "count"),
    ("checks", "support_disjoint_oracle", "span"),
)

SUITES = (
    "exact-arithmetic",
    "closure-fixpoint",
    "hausdorff-metric",
    "hausdorff-cutoff",
    "ideal-metrics",
    "correspondence",
    "truncation",
)


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.total_s = {}
        self.errors = {}
        self.missing = []
        self._stack = [0.0]
        self._undo = []

    def reset(self):
        # The wrappers hold these dicts, so clear them in place.
        for table in (self.calls, self.self_s, self.total_s, self.errors):
            for name in table:
                table[name] = 0
        self._stack[:] = [0.0]

    def root_s(self) -> float:
        """Seconds spent in outermost traced calls since the last reset."""
        return self._stack[0]

    def install(self, package: dict):
        """Wrap every target; `package` maps short module names to modules."""
        self.missing = []
        for module_name, attr, mode in TARGETS:
            name = f"{module_name}.{attr}"
            owner = package[module_name]
            *cls_path, fn_name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._span(name, original) if mode == "span" else self._count(name, original)
            if cls_path:
                self._patch(owner, fn_name, wrapper)
            else:
                self._replace_everywhere(package, original, wrapper)
        suites = getattr(package["checks"], "SUITES", [])
        for i, (suite, fn) in enumerate(suites):
            wrapper = self._span(f"checks.{suite}", fn)
            self._undo.append((suites.__setitem__, i, (suite, fn)))
            suites[i] = (suite, wrapper)
            self._replace_everywhere(package, fn, wrapper)
        self.missing += [f"checks.{s}" for s in SUITES if f"checks.{s}" not in self.calls]

    def uninstall(self):
        for setter, key, original in reversed(self._undo):
            setter(key, original)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, package, original, wrapper):
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _register(self, name):
        for table in (self.calls, self.self_s, self.total_s, self.errors):
            table.setdefault(name, 0)

    def _span(self, name, fn):
        self._register(name)
        calls, self_s, total_s, errors = self.calls, self.self_s, self.total_s, self.errors
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
                total_s[name] += elapsed

        return wrapper

    def _count(self, name, fn):
        self._register(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for module_name, attr, mode in TARGETS:
        names[f"{module_name}.{attr}.calls"] = "calls/req"
        if mode == "span":
            names[f"{module_name}.{attr}.self_ms"] = "ms/req"
    names["metrics.d_beta.fallback_ratio"] = "ratio"
    for suite in SUITES:
        names[f"checks.{suite}.self_ms"] = "ms/req"
        names[f"checks.{suite}.total_ms"] = "ms/req"
    return names


def layer_metrics(tracer: Tracer, requests: int) -> dict:
    """Per-request calls and self times, in the units of `per_layer_names`."""
    out = {}
    for name, unit in per_layer_names().items():
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            value = tracer.calls.get(layer, 0) / requests
        elif stat == "self_ms":
            value = tracer.self_s.get(layer, 0) * 1000 / requests
        elif stat == "total_ms":
            value = tracer.total_s.get(layer, 0) * 1000 / requests
        else:  # d_beta raises when its difference never settles; cli then truncates
            attempts = tracer.calls.get(layer, 0)
            value = tracer.errors.get(layer, 0) / attempts if attempts else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
