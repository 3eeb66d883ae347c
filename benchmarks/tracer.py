"""Span tracer that wraps the public functions of the tvcox layers.

A span is one call of ``<module>.<function>``: its name, start and end
(``perf_counter`` seconds), the index of the span that was open when it
started, and the workload-run id.  Spans stay in memory until the worker
writes them out.

Patching the defining module is not enough: ``cli``, ``optimizers`` and
``inference`` import functions by name, and ``inference._FIT_BY_NAME``
holds the ``*_fit`` functions directly.  ``install`` therefore replaces
every reference it finds in any tvcox module namespace, including values
of module-level dicts, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "data", "splines", "likelihood", "optimizers", "inference", "simulate")
# modules searched for references to the wrapped functions
NAMESPACES = ("tvcox", "tvcox.errors", *(f"tvcox.{m}" for m in LAYERS))


def _report_kind(kwargs) -> str:
    """Which pass an ``evaluate_report`` call makes, from its keyword flags."""
    if kwargs.get("want_full"):
        return "full"
    if kwargs.get("want_blocks"):
        return "blocks"
    if kwargs.get("want_gradient", True):
        return "gradient"
    return "loglik"


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    return {name: obj for name in names
            if inspect.isfunction(obj := getattr(module, name, None))
            and obj.__module__ == module.__name__}


class Tracer:
    """Collects the spans of one workload run while installed.

    Use as a context manager: ``with Tracer(run_id) as tracer: ...``.
    """

    def __init__(self, run_id: str):
        self.spans = []   # [name, start, end, parent index or None, run id]
        self.run_id = run_id
        self._open = []
        self._patched = []  # (namespace, key, original), for uninstall

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        split = name == "likelihood.evaluate_report"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [f"{name}.{_report_kind(kwargs)}" if split else name, 0.0, 0.0,
                    stack[-1] if stack else None, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"tvcox.{layer}")
            for fname, fn in public_functions(module).items():
                wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        def patch(mapping):
            for key, value in list(mapping.items()):
                original, wrapper = wrapped.get(id(value), (None, None))
                if original is value:
                    self._patched.append((mapping, key, value))
                    mapping[key] = wrapper

        for modname in NAMESPACES:
            namespace = vars(importlib.import_module(modname))
            patch(namespace)
            for value in list(namespace.values()):
                if isinstance(value, dict):
                    patch(value)

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential in one thread, so children never overlap and
    their union is their sum.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
