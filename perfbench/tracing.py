"""Spans and counters recorded from outside the library.

Nothing under src/ is changed: tracing replaces module attributes for
the length of a traced run and restores them afterwards.

- Span wrappers go on every function that one ptqm module binds from
  another (for example canonical's _cluster_chains from linalg), on the
  public functions of a module another module binds whole (cli binds
  config as cfgmod), and on cli.main, which the benchmark calls itself.
  A span is named after the module that defines the callee: that
  module is the layer.
- Counter wrappers go on a few functions in their own module, so that
  calls from inside that module are counted as well, and on
  scipy.linalg.schur and scipy.linalg.expm.

Spans are kept in memory as (layer, function, start, end, parent,
operation, failed, self seconds) and written out when the run ends. A
layer's self time is its spans' durations minus the time their direct
child spans cover. Counters are kept per operation.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
import types
from collections import Counter

LAYERS = ("symmetry", "canonical", "linalg", "metric", "dynamics", "superposition",
          "dilation", "bender", "matio", "config", "cli")
# Modules whose bindings are wrapped. sampling is not a layer because the
# benchmark generates its own inputs; errors holds no work.
WRAPPED_MODULES = ("ptqm",) + tuple(f"ptqm.{name}" for name in LAYERS)
# (module, function) pairs counted per call wherever they are called from.
COUNTED = (("dynamics", "propagator"), ("dynamics", "validate_density"),
           ("metric", "basis_coefficients"), ("dilation", "halmos_dilation"),
           ("superposition", "free_kraus_defect"))
ENTRY_POINTS = (("cli", "main"),)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.counts: dict[int | None, Counter] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        self.counts.setdefault(self.op, Counter())[key] += n

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)  # placeholder keeps span ids in start order
        self._stack.append(frame)
        start = time.perf_counter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans[frame[0]] = (layer, name, start, end, parent, self.op,
                                    failed, dur - frame[1])

    # -- installation ----------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _span_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn.__name__, fn, *args, **kwargs)
        return wrapper

    def _counter_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _schur_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.count("linalg.schur_calls")
            result = fn(a, *args, **kwargs)
            if kwargs.get("sort") is not None:
                self.count("linalg.schur_sorted_sdim", int(result[-1]))
                self.count("linalg.schur_sorted_dim", int(a.shape[0]))
            return result
        return wrapper

    def install(self) -> None:
        import scipy.linalg

        modules = {name: importlib.import_module(name) for name in WRAPPED_MODULES}
        # innermost callable for each original function: spans wrap counters
        inner: dict[int, object] = {}
        for layer, fname in COUNTED:
            mod = modules[f"ptqm.{layer}"]
            fn = getattr(mod, fname)
            wrapped = self._counter_wrapper(f"{layer}.{fname}_calls", fn)
            inner[id(fn)] = wrapped
            self._set(mod, fname, wrapped)
        self._set(scipy.linalg, "schur", self._schur_wrapper(scipy.linalg.schur))
        self._set(scipy.linalg, "expm",
                  self._counter_wrapper("linalg.expm_calls", scipy.linalg.expm))

        home_wrapped: list[tuple] = []
        for layer, fname in ENTRY_POINTS:
            home_wrapped.append((modules[f"ptqm.{layer}"], fname))
        for modname, mod in modules.items():
            if modname == "ptqm":
                continue
            for value in vars(mod).values():
                if (isinstance(value, types.ModuleType) and value is not mod
                        and value.__name__ in modules and value.__name__ != "ptqm"):
                    for fname, fn in vars(value).items():
                        if (isinstance(fn, types.FunctionType) and not fname.startswith("_")
                                and fn.__module__ == value.__name__):
                            home_wrapped.append((value, fname))
        done = set()
        for mod, fname in home_wrapped:
            if (mod.__name__, fname) in done:
                continue
            done.add((mod.__name__, fname))
            fn = getattr(mod, fname)
            self._set(mod, fname, self._span_wrapper(mod.__name__.split(".")[-1],
                                                     inner.get(id(fn), fn)))

        for modname, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ != modname
                        and value.__module__.split(".")[-1] in LAYERS
                        and value.__module__.startswith("ptqm.")):
                    layer = value.__module__.split(".")[-1]
                    self._set(mod, attr, self._span_wrapper(layer, inner.get(id(value), value)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ---------------------------------------------------------

    def total(self, key: str) -> int:
        return sum(c[key] for c in self.counts.values())

    def op_counts(self, op: int) -> Counter:
        return self.counts.get(op, Counter())

    def layer_totals(self) -> dict:
        """{layer: (calls, self_s, failed)} over all recorded spans."""
        calls = Counter()
        failed = Counter()
        self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            layer = span[0]
            calls[layer] += 1
            failed[layer] += span[6]
            self_s[layer] += span[7]
        return {layer: (calls[layer], self_s[layer], failed[layer]) for layer in LAYERS}

    def write(self, path) -> None:
        """One JSON array per span: layer, function, start, end, parent
        span index (-1 for none), operation id, failed, self seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
