"""In-memory spans around the program's layer boundaries.

The traced run of the benchmark wraps public functions of the program's
modules from the outside; nothing under ``src/`` knows it is measured.
Each call of a wrapped function records one span ``(layer, start, end,
parent)`` in a list that lives until the run ends, where
:meth:`Tracer.summary` folds it into per-layer call counts and busy
times.

A ``from x import f`` statement copies ``f`` into the importing module,
so replacing ``x.f`` alone would leave that caller unmeasured.
:meth:`Tracer.wrap_function` therefore replaces *every* binding of the
function object across the loaded ``repro`` modules; methods have one
binding, on their class.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        #: ``(layer, start, end, parent span index or -1)``, in call order.
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _traced(self, layer: str, fn):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((layer, 0.0, 0.0, open_spans[-1] if open_spans else -1))
            open_spans.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[index] = (layer, start, end, spans[index][3])

        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_function(self, layer: str, module, name: str) -> None:
        """Wrap ``module.name`` in every loaded ``repro`` module binding it."""
        original = getattr(module, name)
        traced = self._traced(layer, original)
        for module_name, loaded in sorted(sys.modules.items()):
            if loaded is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._replace(loaded, attr, traced)

    def wrap_method(self, layer: str, cls, name: str) -> None:
        self._replace(cls, name, self._traced(layer, getattr(cls, name)))

    def register_instances(self, cls, registry: list) -> None:
        """Append every instance ``cls`` constructs to ``registry``."""
        original = cls.__init__

        @functools.wraps(original)
        def init(instance, *args, **kwargs):
            original(instance, *args, **kwargs)
            registry.append(instance)

        self._replace(cls, "__init__", init)

    def uninstall(self) -> None:
        """Restore every replaced binding (the spans are kept)."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def summary(self, start: float = float("-inf"), end: float = float("inf")) -> dict[str, dict]:
        """Per layer: ``calls``, busy ``seconds`` and each call's duration,
        over the spans that lie within ``[start, end]``.

        A call nested inside a call of the same layer counts as a call
        but not again as busy time.
        """
        layers: dict[str, dict] = {}
        for layer, begin, finish, parent in self.spans:
            if begin < start or finish > end:
                continue
            entry = layers.setdefault(layer, {"calls": 0, "seconds": 0.0, "durations": []})
            entry["calls"] += 1
            entry["durations"].append(finish - begin)
            while parent >= 0 and self.spans[parent][0] != layer:
                parent = self.spans[parent][3]
            if parent < 0:
                entry["seconds"] += finish - begin
        return layers
